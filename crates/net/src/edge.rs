//! One physical edge: the only place request bytes cross to a server.
//!
//! An [`Edge`] is everything the device knows about one destination's
//! wire: a carrier per replica, the meter row each completed exchange is
//! charged to (`[link]` for a direct link, `[replica, shard, aggregate]`
//! for a shard of a fleet), the negotiated wire version, the retry policy
//! with its at-most-once dedup sequence, and the replicas' breaker health.
//! Framing, the `HELLO` probe, dedup tagging, metering, decoding, failover
//! and retry all happen here and nowhere else, so the layers above —
//! [`Link`](crate::Link), [`CacheLayer`](crate::CacheLayer) and
//! [`ShardRouter`](crate::ShardRouter) — pass decoded [`Request`] and
//! [`Response`] values and can never charge the same bytes twice.
//!
//! Every attempt runs through one split-phase driver, [`Edge::drive`]. A
//! direct link is one flight over an edge with one carrier; a scatter
//! round is one flight per shard edge; an update broadcast is one pinned
//! flight per replica.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::codec::{
    decode_accept, decode_response_gen_ctx, encode_hello, encode_request_versioned, is_unavailable,
    wrap_dedup, DedupTag, QuantCtx, WireVersion, MAX_WIRE_VERSION,
};
use crate::health::{spread_hash, BreakerConfig, ReplicaSetHealth};
use crate::meter::LinkMeter;
use crate::packet::{PacketModel, RetryPolicy};
use crate::proto::{Request, Response};
use crate::router::ShardMeta;
use crate::transport::RawExchange;

/// Process-unique sender nonce of the retry-dedup envelope: each edge
/// draws one at construction, so two edges never collide in a server's
/// at-most-once table.
static NONCE: AtomicU64 = AtomicU64::new(1);

/// One physical destination. See the module docs.
pub(crate) struct Edge {
    carriers: Vec<Box<dyn RawExchange>>,
    /// Per replica, the meters a completed exchange on it is charged to.
    rows: Vec<Vec<Arc<LinkMeter>>>,
    /// The owning fleet's count of completed exchanges, for shard edges.
    scattered: Option<Arc<AtomicU64>>,
    packet: PacketModel,
    /// [`WireVersion::V1`] until [`Edge::negotiate`] finds that every
    /// replica accepts v2 (a mixed replica set stays v1, so failing over
    /// mid-request never changes the frame format).
    pub(crate) wire: WireVersion,
    /// Off by default: one attempt per flight, and no dedup envelope.
    pub(crate) retry: RetryPolicy,
    nonce: u64,
    /// Next `ApplyUpdates` batch sequence; every retry and every replica
    /// of one batch carries the same tag.
    seq: AtomicU64,
    health: Arc<ReplicaSetHealth>,
    pub(crate) breaker: BreakerConfig,
    /// Bounds, cell and the generation floor of the shard behind this
    /// edge (a fresh, unshared meta for a direct link).
    pub(crate) meta: Arc<ShardMeta>,
}

impl Edge {
    /// An edge over `carriers` (one per replica) charging replica `j`'s
    /// completed exchanges to every meter of `rows[j]`.
    pub(crate) fn new(
        carriers: Vec<Box<dyn RawExchange>>,
        rows: Vec<Vec<Arc<LinkMeter>>>,
        scattered: Option<Arc<AtomicU64>>,
        packet: PacketModel,
        health: Arc<ReplicaSetHealth>,
        meta: Arc<ShardMeta>,
    ) -> Self {
        debug_assert_eq!(carriers.len(), rows.len());
        debug_assert_eq!(carriers.len(), health.len());
        Edge {
            carriers,
            rows,
            scattered,
            packet,
            wire: WireVersion::V1,
            retry: RetryPolicy::default(),
            nonce: NONCE.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
            health,
            breaker: BreakerConfig::disabled(),
            meta,
        }
    }

    /// A direct link's edge: one carrier, metered into a fresh meter.
    pub(crate) fn direct(carrier: Box<dyn RawExchange>, packet: PacketModel) -> Self {
        Edge::new(
            vec![carrier],
            vec![vec![Arc::new(LinkMeter::new())]],
            None,
            packet,
            Arc::new(ReplicaSetHealth::new(1)),
            Arc::new(ShardMeta::new(None)),
        )
    }

    /// The meter of replica 0 — a direct link's only meter.
    pub(crate) fn meter(&self) -> &Arc<LinkMeter> {
        &self.rows[0][0]
    }

    pub(crate) fn packet(&self) -> PacketModel {
        self.packet
    }

    pub(crate) fn replica_count(&self) -> usize {
        self.carriers.len()
    }

    /// Runs the `HELLO`/`ACCEPT` handshake on every replica carrier and
    /// speaks v2 only when all of them accept it. A peer that rejects or
    /// garbles the probe (every v1-only server) leaves the edge at v1 —
    /// negotiation can only fall back, never fail. The handshake bytes
    /// are link control and are not metered, like TCP's own setup.
    pub(crate) fn negotiate(&mut self) {
        let v2 = self.carriers.iter().all(|c| {
            let reply = c.exchange(encode_hello(MAX_WIRE_VERSION));
            matches!(decode_accept(&reply), Some(v) if v >= 2)
        });
        self.wire = if v2 { WireVersion::V2 } else { WireVersion::V1 };
    }

    /// One request over this edge alone — a direct link's whole exchange.
    /// Returns the reply and the generation it was stamped with (0 when
    /// every attempt failed).
    pub(crate) fn call(&self, req: &Request) -> (Response, u64) {
        match self.fly(req) {
            Landing::Served(resp, generation) => (resp, generation),
            Landing::Exhausted(resp) => (resp, 0),
        }
    }

    /// Drives one read flight of `req` to its landing.
    pub(crate) fn fly(&self, req: &Request) -> Landing {
        let (_, landing) = Edge::drive(vec![self.flight(0, req)])
            .pop()
            .expect("one flight in, one landing out");
        landing
    }

    /// Frames `req` in the edge's wire version. With retries on, an
    /// `ApplyUpdates` batch rides the dedup envelope, so a duplicated
    /// delivery replays the server's recorded `Ack` instead of applying
    /// twice.
    fn encode(&self, req: &Request) -> Bytes {
        let encoded = encode_request_versioned(req, self.wire);
        if self.retry.enabled() && matches!(req, Request::ApplyUpdates(_)) {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            return wrap_dedup(
                DedupTag {
                    nonce: self.nonce,
                    seq,
                },
                &encoded,
            );
        }
        encoded
    }

    /// A read flight, tagged `slot` for the caller: starts at the
    /// request-hash pick among the admitting replicas and fails over
    /// along them before spending retry budget.
    pub(crate) fn flight<'a>(&'a self, slot: usize, req: &'a Request) -> Flight<'a> {
        let encoded = self.encode(req);
        // A single carrier needs no spread (and the hash walks every byte).
        let hash = if self.carriers.len() > 1 {
            spread_hash(&encoded)
        } else {
            0
        };
        let rotation = self.rotation(hash);
        Flight::new(self, slot, req, encoded, hash, rotation, false)
    }

    /// An update broadcast, tagged `slot`: one flight pinned to each
    /// replica, all carrying the same bytes (and dedup tag), each
    /// retrying in place — an update never fails over, every replica
    /// must receive it.
    pub(crate) fn broadcast<'a>(
        &'a self,
        slot: usize,
        req: &'a Request,
    ) -> impl Iterator<Item = Flight<'a>> {
        let encoded = self.encode(req);
        (0..self.carriers.len())
            .map(move |j| Flight::new(self, slot, req, encoded.clone(), 0, vec![j], true))
    }

    /// Read rotation: the admitting replicas (breaker closed or
    /// half-open), started at the hash pick so independent requests
    /// spread across siblings. When *every* breaker is open, routing
    /// around the whole set would guarantee failure, so the full set is
    /// used anyway (last resort).
    fn rotation(&self, hash: u64) -> Vec<usize> {
        let now = self.health.now();
        let n = self.carriers.len();
        let mut rot: Vec<usize> = (0..n)
            .filter(|&j| self.health.edge(j).admits(&self.breaker, now))
            .collect();
        if rot.is_empty() {
            rot = (0..n).collect();
        }
        let start = (hash % rot.len() as u64) as usize;
        rot.rotate_left(start);
        rot
    }

    /// Charges one event to every meter in replica `j`'s row, so
    /// `aggregate == Σ shard == Σ Σ replica` holds by construction.
    fn charge(&self, j: usize, record: impl Fn(&LinkMeter)) {
        for meter in &self.rows[j] {
            record(meter);
        }
    }

    /// Notes a failed exchange on replica `j`'s breaker; charges the trip
    /// when this failure is the one that opens (or re-opens) it.
    fn note_failure(&self, j: usize) {
        if self
            .health
            .edge(j)
            .on_failure(&self.breaker, self.health.now())
        {
            self.charge(j, LinkMeter::record_breaker_open);
        }
    }

    /// Drives flights (over any mix of edges) to resolution and returns
    /// each one's slot and landing, in flight order. All tries are issued
    /// split-phase before any completion is awaited, and failed flights
    /// re-issue together — so recovery latency is the max of the
    /// failures, not their sum. A failed try first **fails over** along
    /// the flight's rotation (siblings cost no retry budget); only once
    /// the rotation is exhausted does a retry round begin, with the
    /// policy's backoff slept once per round and the rotation re-picked
    /// so breaker trips observed meanwhile are honored. Observed
    /// generations only move through the monotone
    /// [`ShardMeta::note_generation`] — and failed attempts never note
    /// one — so a retried round can never regress them.
    pub(crate) fn drive(mut flights: Vec<Flight<'_>>) -> Vec<(usize, Landing)> {
        for f in flights.iter_mut() {
            f.issue();
        }
        loop {
            for f in flights.iter_mut() {
                if let Some((replica, complete)) = f.inflight.take() {
                    f.land(replica, complete());
                }
            }
            let mut backoff: Option<(RetryPolicy, u32)> = None;
            let mut unresolved = false;
            for f in flights.iter_mut().filter(|f| f.landing.is_none()) {
                unresolved = true;
                let edge = f.edge;
                f.pos += 1;
                if f.pos < f.rotation.len() {
                    // Failover to the next sibling, tallied on the
                    // replica failed *from*.
                    edge.charge(f.rotation[f.pos - 1], LinkMeter::record_failover);
                    f.scheduled = true;
                    continue;
                }
                f.round += 1;
                if f.round >= edge.retry.max_attempts.max(1) {
                    if edge.retry.enabled() {
                        edge.charge(f.primary, LinkMeter::record_abandon);
                    }
                    f.landing = Some(Landing::Exhausted(f.outcome.clone()));
                    continue;
                }
                if !f.pinned {
                    f.rotation = edge.rotation(f.hash);
                }
                f.pos = 0;
                edge.charge(f.rotation[0], LinkMeter::record_retry);
                if backoff.map_or(true, |(_, round)| f.round > round) {
                    backoff = Some((edge.retry, f.round));
                }
                f.scheduled = true;
            }
            if !unresolved {
                break;
            }
            if let Some((policy, round)) = backoff {
                policy.sleep(round);
            }
            for f in flights.iter_mut().filter(|f| f.scheduled) {
                f.scheduled = false;
                f.issue();
            }
        }
        flights
            .into_iter()
            .map(|f| (f.slot, f.landing.expect("every flight lands")))
            .collect()
    }
}

/// How a flight resolved.
pub(crate) enum Landing {
    /// A decoded reply and the generation it was stamped with.
    Served(Response, u64),
    /// Every replica and attempt failed: the typed failure of the last
    /// completed attempt (`Unavailable` when none completed).
    Exhausted(Response),
}

/// One request working its way through an edge's replica rotation and
/// retry budget.
pub(crate) struct Flight<'a> {
    edge: &'a Edge,
    slot: usize,
    req: &'a Request,
    encoded: Bytes,
    /// Grid of the request as sent — the grid the server derives for
    /// quantized v2 frames.
    ctx: Option<QuantCtx>,
    /// Request-hash spread key; re-picks the rotation on retry rounds.
    hash: u64,
    /// Replica try order for the current round.
    rotation: Vec<usize>,
    pos: usize,
    round: u32,
    /// Pinned flights (update broadcast) retry one replica in place and
    /// never fail over.
    pinned: bool,
    /// The first-picked replica — abandonment is charged to it.
    primary: usize,
    outcome: Response,
    inflight: Option<(usize, Box<dyn FnOnce() -> Bytes + Send + 'a>)>,
    scheduled: bool,
    landing: Option<Landing>,
}

impl<'a> Flight<'a> {
    fn new(
        edge: &'a Edge,
        slot: usize,
        req: &'a Request,
        encoded: Bytes,
        hash: u64,
        rotation: Vec<usize>,
        pinned: bool,
    ) -> Self {
        Flight {
            edge,
            slot,
            ctx: QuantCtx::for_request(req),
            req,
            encoded,
            hash,
            primary: rotation[0],
            rotation,
            pos: 0,
            round: 0,
            pinned,
            outcome: Response::Unavailable,
            inflight: None,
            scheduled: false,
            landing: None,
        }
    }

    /// Issues the current try split-phase and ticks the replica set's
    /// exchange clock (the breakers' deterministic cooldown time base).
    fn issue(&mut self) {
        let replica = self.rotation[self.pos];
        self.edge.health.tick();
        let complete = self.edge.carriers[replica].begin(self.encoded.clone());
        self.inflight = Some((replica, complete));
    }

    /// Judges one completed try: charges what crossed the wire, lands the
    /// flight on success, and otherwise records a breaker failure and
    /// leaves the flight to fail over or retry.
    fn land(&mut self, replica: usize, raw: Bytes) {
        let edge = self.edge;
        if is_unavailable(&raw) {
            // The carrier fabricated this reply: nothing crossed the wire
            // in either direction, so nothing is charged.
            self.outcome = Response::Unavailable;
            edge.note_failure(replica);
            return;
        }
        let down = raw.len() as u64;
        // A reply that crossed the wire but does not decode degrades to
        // the typed `Malformed` — both directions are still charged,
        // because those bytes were real traffic.
        let (resp, generation) =
            decode_response_gen_ctx(raw, self.ctx.as_ref()).unwrap_or((Response::Malformed, 0));
        edge.charge(replica, |m| {
            m.record_request(self.req, self.encoded.len() as u64, &edge.packet);
            m.record_response(
                down,
                resp.object_count(),
                &edge.packet,
                self.req.is_aggregate(),
            );
        });
        if let Some(scattered) = &edge.scattered {
            scattered.fetch_add(1, Ordering::Relaxed);
        }
        if resp == Response::Malformed {
            self.outcome = Response::Malformed;
            edge.note_failure(replica);
            return;
        }
        // The generation floor: a read reply stamped below the highest
        // generation already observed from this shard came from a lagging
        // replica, so it is rejected like a lost exchange and re-fetched
        // from a sibling. Only replica *sets* are floored: a single
        // replica has no sibling to lag behind, and flooring it would make
        // reads that race a writer reject their own current replies.
        if edge.carriers.len() > 1
            && !matches!(resp, Response::Ack { .. })
            && generation < edge.meta.generation()
        {
            self.outcome = Response::Unavailable;
            edge.note_failure(replica);
            return;
        }
        if generation > 0 {
            edge.meta.note_generation(generation);
        }
        edge.health.edge(replica).on_success();
        self.landing = Some(Landing::Served(resp, generation));
    }
}
