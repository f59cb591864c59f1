//! Client-side scatter-gather router for sharded server fleets.
//!
//! A production-scale deployment serves each logical dataset from a
//! *fleet* of shard servers, each holding a spatial partition of the
//! objects (see `asj_server::partition`). The [`ShardRouter`] is the
//! device-side library that makes a fleet look like one server: it
//! answers [`Request`] values with one physical edge per shard below it,
//! so it slots under an ordinary [`Link`](crate::Link) and every join
//! algorithm works unchanged.
//!
//! For each logical request the router
//!
//! 1. **prunes** shards whose advertised bounds cannot contain an answer
//!    (a shard's bounds cover the full MBRs of all its objects, including
//!    boundary straddlers, so pruning never loses a result);
//! 2. **scatters** sub-requests to the survivors — split-phase via
//!    [`RawExchange::begin`], so shard servers on their own threads work
//!    concurrently;
//!    batched requests (`MultiCount`, `BucketEpsRange`) are *sub-batched*:
//!    each shard receives only the probes that can touch it;
//! 3. **merges** the responses: object lists are concatenated and
//!    deduplicated by id, counts are summed (exact, because the
//!    partitioner assigns every object to exactly one shard), average
//!    areas are weighted by matching-object count, and cooperative level
//!    MBRs concatenate into a forest level (the fleet's defined
//!    cooperative-mode answer);
//! 4. **meters** every physical exchange — the shard edges charge a
//!    per-replica, a per-shard [`LinkMeter`] *and* the aggregate meter the
//!    fronting [`Link`](crate::Link) exposes — so reported bytes are the
//!    scatter traffic that actually crossed the wire.
//!
//! The router never sees a frame: it routes and merges decoded values,
//! and its shard edges frame, retry and meter every exchange.
//!
//! A fleet of **one** shard with one replica is one unpruned flight: the
//! request goes to the shard unchanged and the reply comes back with the
//! shard's own stamp, so a 1-shard deployment is wire-identical to a flat
//! one — the anchor of the differential test suite.
//!
//! **Live updates.** `Request::ApplyUpdates` scatters to *owning* shards:
//! each insert or move is routed to the shard whose partition cell holds
//! the object's new center (every other shard receives a `Delete` of that
//! id, so an object migrating across a cell boundary settles in exactly
//! one place), while deletes broadcast. Every shard is contacted on every
//! fleet-level batch — an empty sub-batch still bumps that shard's
//! generation — so the **fleet generation**, defined as the *sum* of the
//! per-shard generations, advances by exactly the shard count per batch
//! and is injective in the number of applied batches. The router learns
//! shard generations from the `Ack`s and from the generation stamps on
//! query responses, tracks them in per-shard [`ShardMeta`]s, and answers
//! every merged response at the fleet generation (a frozen fleet sums to
//! 0). Owner routing needs a declared partition: a fleet whose shards
//! carry no cells refuses updates.
//!
//! If any contacted shard answers [`Response::Refused`] (e.g. a
//! cooperative query against a non-cooperative fleet), the merged answer
//! is `Refused`. Cooperative requests are therefore never pruned-to-zero:
//! every shard is contacted (with a payload trimmed to its bounds) so the
//! policy refusal propagates exactly as it would from a flat server.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use asj_geom::{Point, Rect, SpatialObject};

use crate::codec::WireVersion;
use crate::edge::{Edge, Flight, Landing};
use crate::health::{BreakerConfig, HealthSnapshot, ReplicaSetHealth};
use crate::meter::{LinkMeter, LinkSnapshot};
use crate::packet::{PacketModel, RetryPolicy};
use crate::proto::{Request, Response, Update};
use crate::transport::RawExchange;

/// Client-side knowledge about one shard, shared between the router and
/// whoever built the fleet (a `Deployment` keeps its own `Arc`s so update
/// routing and query routing always agree):
///
/// * **bounds** — the advertised union of the shard's objects' MBRs, the
///   pruning predicate. Updates only ever *grow* bounds (a delete never
///   shrinks them): over-covering bounds cost pruning efficiency, never
///   correctness;
/// * **cell** — the shard's partition cell, the *ownership* predicate for
///   routing inserts and moves. `None` on fleets built without a declared
///   partition (such fleets refuse updates);
/// * **generation** — the highest snapshot generation observed from this
///   shard (monotone; fed by `Ack`s and response stamps).
#[derive(Debug)]
pub struct ShardMeta {
    bounds: RwLock<Option<Rect>>,
    cell: Option<Rect>,
    generation: AtomicU64,
}

impl ShardMeta {
    /// Meta for a shard with no declared partition cell.
    pub fn new(bounds: Option<Rect>) -> Self {
        ShardMeta::with_cell(bounds, None)
    }

    /// Meta for a shard owning `cell` of the partitioned space.
    pub fn with_cell(bounds: Option<Rect>, cell: Option<Rect>) -> Self {
        ShardMeta {
            bounds: RwLock::new(bounds),
            cell,
            generation: AtomicU64::new(0),
        }
    }

    /// Current advertised bounds (`None` = empty shard, always prunable).
    pub fn bounds(&self) -> Option<Rect> {
        *self.bounds.read().expect("bounds lock poisoned")
    }

    /// The shard's partition cell, if the fleet declared one.
    pub fn cell(&self) -> Option<Rect> {
        self.cell
    }

    /// Highest generation observed from this shard so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Records an observed generation (monotone max).
    pub fn note_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::AcqRel);
    }

    /// Grows the advertised bounds to cover `r` (union; only-grow).
    pub fn grow_bounds(&self, r: &Rect) {
        let mut b = self.bounds.write().expect("bounds lock poisoned");
        *b = Some(match *b {
            Some(old) => old.union(r),
            None => *r,
        });
    }
}

/// One shard of a fleet: its client-side meta (bounds, cell, observed
/// generation) and the replica carriers that reach it. Every replica
/// serves the same partition cell and member set; the router spreads
/// reads across them and broadcasts updates to all of them.
pub struct ShardEndpoint {
    meta: Arc<ShardMeta>,
    replicas: Vec<Box<dyn RawExchange>>,
}

impl ShardEndpoint {
    /// Endpoint with fresh meta and no partition cell (query routing
    /// only; a fleet of such endpoints refuses updates).
    pub fn new(bounds: Option<Rect>, carrier: Box<dyn RawExchange>) -> Self {
        ShardEndpoint::with_meta(Arc::new(ShardMeta::new(bounds)), carrier)
    }

    /// Endpoint over externally shared meta (a deployment keeps the
    /// `Arc` so several links to the same fleet share one view).
    pub fn with_meta(meta: Arc<ShardMeta>, carrier: Box<dyn RawExchange>) -> Self {
        ShardEndpoint::with_replicas(meta, vec![carrier])
    }

    /// Endpoint over a replica set: `carriers[0]` is the primary edge,
    /// the rest are siblings serving the same data.
    pub fn with_replicas(meta: Arc<ShardMeta>, carriers: Vec<Box<dyn RawExchange>>) -> Self {
        assert!(!carriers.is_empty(), "a shard needs at least one replica");
        ShardEndpoint {
            meta,
            replicas: carriers,
        }
    }

    /// This shard's meta.
    pub fn meta(&self) -> &Arc<ShardMeta> {
        &self.meta
    }

    /// Number of replica edges behind this shard.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

/// Shared scatter accounting of one router: per-shard meters (each the
/// field-wise sum of its per-replica meters), per-replica meters and
/// breaker health, plus the prune/scatter decision counters the bench
/// experiments report.
#[derive(Debug)]
pub struct ShardTelemetry {
    meters: Vec<Arc<LinkMeter>>,
    replica_meters: Vec<Vec<Arc<LinkMeter>>>,
    health: Vec<Arc<ReplicaSetHealth>>,
    breaker: BreakerConfig,
    metas: Vec<Arc<ShardMeta>>,
    /// Completed shard exchanges, counted by the shard edges.
    scattered: Arc<AtomicU64>,
    pruned: AtomicU64,
    /// Shards that actually failed to serve: a read whose entire replica
    /// set was exhausted (whether surfaced as `Unavailable` or skipped by
    /// a partial-tolerant router), or an update batch no replica acked.
    /// A dark replica whose *sibling* answered does not mark its shard —
    /// the shard served. Surfaced as [`FleetSnapshot::failed_shards`].
    failed: Mutex<BTreeSet<usize>>,
}

impl ShardTelemetry {
    fn new(metas: Vec<Arc<ShardMeta>>, replicas: Vec<usize>) -> Self {
        debug_assert_eq!(metas.len(), replicas.len());
        ShardTelemetry {
            meters: (0..metas.len())
                .map(|_| Arc::new(LinkMeter::new()))
                .collect(),
            replica_meters: replicas
                .iter()
                .map(|&n| (0..n).map(|_| Arc::new(LinkMeter::new())).collect())
                .collect(),
            health: replicas
                .iter()
                .map(|&n| Arc::new(ReplicaSetHealth::new(n)))
                .collect(),
            breaker: BreakerConfig::disabled(),
            metas,
            scattered: Arc::new(AtomicU64::new(0)),
            pruned: AtomicU64::new(0),
            failed: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.meters.len()
    }

    /// The meter of one shard (sums the shard's replica edges).
    pub fn meter(&self, shard: usize) -> &Arc<LinkMeter> {
        &self.meters[shard]
    }

    /// The meter of one replica edge of one shard.
    pub fn replica_meter(&self, shard: usize, replica: usize) -> &Arc<LinkMeter> {
        &self.replica_meters[shard][replica]
    }

    /// The breaker health of one shard's replica set.
    pub fn health(&self, shard: usize) -> &Arc<ReplicaSetHealth> {
        &self.health[shard]
    }

    /// The breaker configuration this router routes under.
    pub fn breaker_config(&self) -> BreakerConfig {
        self.breaker
    }

    /// The per-shard generation vector, in shard order — each entry the
    /// highest generation observed from that shard so far.
    pub fn generations(&self) -> Vec<u64> {
        self.metas.iter().map(|m| m.generation()).collect()
    }

    fn note_failed(&self, shard: usize) {
        self.failed
            .lock()
            .expect("failed-shard lock poisoned")
            .insert(shard);
    }

    /// Point-in-time copy of the whole fleet's accounting.
    pub fn snapshot(&self) -> FleetSnapshot {
        let per_shard: Vec<LinkSnapshot> = self.meters.iter().map(|m| m.snapshot()).collect();
        let failed = self
            .failed
            .lock()
            .expect("failed-shard lock poisoned")
            .clone();
        FleetSnapshot {
            failed_shards: failed.into_iter().collect(),
            per_replica: self
                .replica_meters
                .iter()
                .map(|rs| rs.iter().map(|m| m.snapshot()).collect())
                .collect(),
            health: self
                .health
                .iter()
                .map(|h| h.snapshot(&self.breaker))
                .collect(),
            per_shard,
            generations: self.generations(),
            scattered: self.scattered.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a fleet's scatter accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Wire accounting per shard, in shard order.
    pub per_shard: Vec<LinkSnapshot>,
    /// Per-shard generation vector (highest observed, in shard order).
    /// All zeros on a frozen fleet.
    pub generations: Vec<u64>,
    /// Sub-requests actually sent to shards.
    pub scattered: u64,
    /// (request, shard) slots skipped because the shard could not
    /// contribute to the answer — a bounds miss, or a zero-COUNT shard
    /// skipped by the second phase of a merged `AvgArea`.
    pub pruned: u64,
    /// Shards that failed to *serve* at least once, in shard order: a
    /// read exhausted the whole replica set (surfaced as `Unavailable`,
    /// or skipped under partial tolerance), or no replica acked an
    /// update batch. Empty on a healthy fleet. A dark replica covered by
    /// a sibling — failed over on a read, out-acked on an update — does
    /// not mark its shard: the shard still served.
    pub failed_shards: Vec<usize>,
    /// Wire accounting per replica edge, `per_replica[shard][replica]`.
    /// Each shard's entry in [`FleetSnapshot::per_shard`] is the
    /// field-wise sum of its row here. Rows of length 1 on a
    /// replica-less fleet.
    pub per_replica: Vec<Vec<LinkSnapshot>>,
    /// Circuit-breaker health per replica edge, `health[shard][replica]`:
    /// breaker state, consecutive failures, failure EWMA, trip count.
    pub health: Vec<Vec<HealthSnapshot>>,
}

impl FleetSnapshot {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// Field-wise sum of the per-shard snapshots. Equals the router's
    /// aggregate meter — the conservation law the stress tests pin.
    pub fn summed(&self) -> LinkSnapshot {
        self.per_shard
            .iter()
            .fold(LinkSnapshot::default(), |acc, s| acc.plus(s))
    }

    /// The fleet generation: the sum of the per-shard generations (every
    /// shard bumps exactly once per fleet-level update batch, so this
    /// advances by `shard_count` per batch).
    pub fn fleet_generation(&self) -> u64 {
        self.generations.iter().sum()
    }

    /// Fraction of shards that answered: `1 - failed/total`. `1.0` on a
    /// healthy fleet; below it only when shards abandoned or a
    /// partial-tolerant read skipped an exhausted replica set.
    pub fn coverage(&self) -> f64 {
        if self.per_shard.is_empty() {
            return 1.0;
        }
        1.0 - self.failed_shards.len() as f64 / self.per_shard.len() as f64
    }

    /// Fraction of scatter slots avoided by bounds pruning.
    pub fn pruning_rate(&self) -> f64 {
        let total = self.scattered + self.pruned;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }
}

/// Scatter-gather router over a fleet of shard servers, one physical
/// edge per shard. See the module docs for the routing, merging and
/// metering rules.
pub struct ShardRouter {
    edges: Vec<Edge>,
    packet: PacketModel,
    aggregate: Arc<LinkMeter>,
    telemetry: Arc<ShardTelemetry>,
    /// Partial-result tolerance: when on, a read whose entire replica
    /// set for some shard is exhausted completes without that shard's
    /// contribution instead of surfacing `Unavailable`. Off by default.
    allow_partial: bool,
}

impl ShardRouter {
    /// Builds a router over `shards` (at least one) with fresh meters.
    pub fn new(shards: Vec<ShardEndpoint>, packet: PacketModel) -> Self {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        let telemetry = ShardTelemetry::new(
            shards.iter().map(|s| Arc::clone(&s.meta)).collect(),
            shards.iter().map(|s| s.replicas.len()).collect(),
        );
        let aggregate = Arc::new(LinkMeter::new());
        // Each replica's exchanges are charged three times — replica,
        // shard, aggregate — so `aggregate == Σ shard == Σ Σ replica`
        // holds by construction (the conservation law the stress tests
        // pin).
        let edges = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let rows = telemetry.replica_meters[i]
                    .iter()
                    .map(|replica| {
                        vec![
                            Arc::clone(replica),
                            Arc::clone(&telemetry.meters[i]),
                            Arc::clone(&aggregate),
                        ]
                    })
                    .collect();
                Edge::new(
                    s.replicas,
                    rows,
                    Some(Arc::clone(&telemetry.scattered)),
                    packet,
                    Arc::clone(&telemetry.health[i]),
                    s.meta,
                )
            })
            .collect();
        ShardRouter {
            edges,
            packet,
            aggregate,
            telemetry: Arc::new(telemetry),
            allow_partial: false,
        }
    }

    /// Adopts a retry/backoff discipline for the per-shard physical
    /// exchanges. Failed slots recover **individually**: a retried shard
    /// never causes healthy shards' replies to be re-fetched, and a slot
    /// that exhausts its budget surfaces as a typed
    /// [`Response::Unavailable`] with the shard recorded in
    /// [`FleetSnapshot::failed_shards`].
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.set_retry(retry);
        self
    }

    pub(crate) fn set_retry(&mut self, retry: RetryPolicy) {
        for edge in &mut self.edges {
            edge.retry = retry;
        }
    }

    /// Adopts a circuit-breaker discipline for replica routing: replicas
    /// whose breaker is open are skipped when picking read targets (see
    /// [`crate::health`] for the state machine and its exchange-counted
    /// cooldown clock). Must be called before the telemetry `Arc` is
    /// shared (i.e. before a [`crate::cache::CacheLayer`] adopts it).
    pub fn with_breakers(mut self, cfg: BreakerConfig) -> Self {
        Arc::get_mut(&mut self.telemetry)
            .expect("configure breakers before sharing the telemetry")
            .breaker = cfg;
        for edge in &mut self.edges {
            edge.breaker = cfg;
        }
        self
    }

    /// Tolerates partial scatter reads: an exhausted replica set no
    /// longer fails the whole merge, it drops that shard's contribution
    /// and records the shard as uncovered (surfacing in
    /// [`FleetSnapshot::failed_shards`] and the snapshot's
    /// [`FleetSnapshot::coverage`]). Never applies to `ApplyUpdates`.
    pub fn with_allow_partial(mut self, on: bool) -> Self {
        self.allow_partial = on;
        self
    }

    /// The aggregate meter every physical exchange is recorded into.
    pub fn aggregate_meter(&self) -> &Arc<LinkMeter> {
        &self.aggregate
    }

    /// Per-shard meters and prune counters.
    pub fn telemetry(&self) -> &Arc<ShardTelemetry> {
        &self.telemetry
    }

    /// The packet model sub-exchanges are metered under.
    pub fn packet(&self) -> PacketModel {
        self.packet
    }

    /// Negotiates wire protocol v2 on every shard's physical links (one
    /// `HELLO`/`ACCEPT` round trip per replica edge; 4 unmetered
    /// link-control bytes each). A shard speaks v2 only when **every**
    /// replica `ACCEPT`s — a mixed replica set stays at
    /// [`WireVersion::V1`] so failing over mid-request never changes the
    /// frame format. Mixed-version fleets degrade per shard, never fail.
    /// [`Link::negotiate`](crate::Link::negotiate) reaches it, and
    /// deployments call that only when `NetConfig::wire_v2` is on.
    pub fn negotiate_v2(&mut self) {
        for edge in &mut self.edges {
            edge.negotiate();
        }
    }

    /// The wire version of each shard link, in shard order. All
    /// [`WireVersion::V1`] unless [`ShardRouter::negotiate_v2`] ran.
    pub fn wire_versions(&self) -> Vec<WireVersion> {
        self.edges.iter().map(|e| e.wire).collect()
    }

    /// The fleet generation: sum of per-shard observed generations.
    pub fn fleet_generation(&self) -> u64 {
        self.edges.iter().map(|e| e.meta.generation()).sum()
    }

    /// Answers one logical request (in wire form) with the merged
    /// response and the generation it was served at: the fleet
    /// generation observed while answering, or — for a fleet of one —
    /// the shard's own stamp. `Ack`s carry their generation in the
    /// payload and report 0 here, like the unstamped frame they are.
    pub(crate) fn call(&self, req: &Request) -> (Response, u64) {
        if let [edge] = &self.edges[..] {
            if edge.replica_count() == 1 {
                return self.single(edge, req);
            }
        }
        let resp = self.scatter_gather(req).unwrap_or_else(|failure| failure);
        let generation = match resp {
            Response::Ack { .. } => 0,
            _ => self.fleet_generation(),
        };
        (resp, generation)
    }

    /// A fleet of one shard with one replica: one unpruned flight, so
    /// the shard sees exactly the traffic of a flat link.
    fn single(&self, edge: &Edge, req: &Request) -> (Response, u64) {
        match edge.fly(req) {
            Landing::Served(resp, generation) => {
                if let Response::Ack { generation } = resp {
                    edge.meta.note_generation(generation);
                }
                (resp, generation)
            }
            Landing::Exhausted(resp) => {
                self.telemetry.note_failed(0);
                (resp, 0)
            }
        }
    }

    /// One scatter round: sends `subs[i]` (when `Some`) to shard `i`
    /// split-phase, counts pruned slots, and returns the responses in
    /// shard order.
    ///
    /// **Partial-scatter recovery.** Each slot fails and recovers
    /// *individually*: a failed shard is re-asked (failing over across
    /// its replicas first, then retrying with backoff) while every
    /// healthy shard's reply — already completed split-phase — is kept
    /// as-is, never re-fetched. A slot that exhausts its budget yields a
    /// typed [`Response::Unavailable`] (or, under
    /// [`ShardRouter::with_allow_partial`], drops out of the merge) and
    /// the shard is recorded in [`FleetSnapshot::failed_shards`]. The
    /// first typed failure in shard order fails the round.
    fn round(&self, subs: &[Option<Request>]) -> Result<Vec<Option<Response>>, Response> {
        debug_assert_eq!(subs.len(), self.edges.len());
        let mut flights: Vec<Flight> = Vec::with_capacity(subs.len());
        for (i, sub) in subs.iter().enumerate() {
            match sub {
                Some(req) => flights.push(self.edges[i].flight(i, req)),
                None => {
                    self.telemetry.pruned.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut out: Vec<Option<Response>> = vec![None; subs.len()];
        for (shard, landing) in Edge::drive(flights) {
            out[shard] = match landing {
                Landing::Served(resp, _) => Some(resp),
                Landing::Exhausted(resp) => {
                    // The whole replica set is exhausted: the shard
                    // failed to serve this read. Under partial tolerance
                    // the merge proceeds without it; the hole is
                    // recorded, never cached as truth (the deployment
                    // layer forbids the combination with a client cache).
                    self.telemetry.note_failed(shard);
                    (!self.allow_partial).then_some(resp)
                }
            };
        }
        let failed = |r: &Response| {
            matches!(
                r,
                Response::Refused | Response::Malformed | Response::Unavailable
            )
        };
        match out.iter().flatten().find(|r| failed(r)) {
            Some(failure) => Err(failure.clone()),
            None => Ok(out),
        }
    }

    /// One update round: broadcasts `subs[i]` to **every** replica of
    /// shard `i` (same tagged bytes, so the dedup envelope collapses
    /// duplicate deliveries). Returns the per-replica responses in shard
    /// order; a replica that exhausted its budget contributes its typed
    /// failure.
    fn update_round(&self, subs: &[Request]) -> Vec<Vec<Response>> {
        debug_assert_eq!(subs.len(), self.edges.len());
        let flights = subs
            .iter()
            .enumerate()
            .flat_map(|(i, req)| self.edges[i].broadcast(i, req))
            .collect();
        let mut out: Vec<Vec<Response>> = vec![Vec::new(); subs.len()];
        for (shard, landing) in Edge::drive(flights) {
            out[shard].push(match landing {
                Landing::Served(resp, _) | Landing::Exhausted(resp) => resp,
            });
        }
        out
    }

    /// Clones `req` to every shard whose bounds satisfy `reach`.
    fn prune(&self, req: &Request, reach: impl Fn(&Rect) -> bool) -> Vec<Option<Request>> {
        self.edges
            .iter()
            .map(|s| match s.meta.bounds() {
                Some(b) if reach(&b) => Some(req.clone()),
                _ => None,
            })
            .collect()
    }

    /// Probe indices each shard can answer, under `reach(bounds, probe)`.
    fn pick_indices<T>(&self, probes: &[T], reach: impl Fn(&Rect, &T) -> bool) -> Vec<Vec<usize>> {
        self.edges
            .iter()
            .map(|s| match s.meta.bounds() {
                Some(b) => (0..probes.len())
                    .filter(|&i| reach(&b, &probes[i]))
                    .collect(),
                None => Vec::new(),
            })
            .collect()
    }

    /// Answers a request over the whole fleet. Any shard's typed failure
    /// (`Refused`, `Malformed`, `Unavailable`) fails the merge.
    fn scatter_gather(&self, req: &Request) -> Result<Response, Response> {
        Ok(match req {
            Request::Window(w) => merge_objects(self.round(&self.prune(req, |b| b.intersects(w)))?),
            Request::EpsRange { q, eps } => {
                let reach = q.expand(*eps);
                merge_objects(self.round(&self.prune(req, |b| b.intersects(&reach)))?)
            }
            Request::Count(w) => {
                let mut total = 0u64;
                for resp in self
                    .round(&self.prune(req, |b| b.intersects(w)))?
                    .into_iter()
                    .flatten()
                {
                    match resp {
                        Response::Count(c) => total += c,
                        other => mismatch("Count", &other),
                    }
                }
                Response::Count(total)
            }
            Request::MultiCount(windows) => {
                let picks = self.pick_indices(windows, |b, w| b.intersects(w));
                let subs: Vec<Option<Request>> = picks
                    .iter()
                    .map(|p| {
                        (!p.is_empty())
                            .then(|| Request::MultiCount(p.iter().map(|&i| windows[i]).collect()))
                    })
                    .collect();
                let mut totals = vec![0u64; windows.len()];
                for (shard, resp) in self.round(&subs)?.into_iter().enumerate() {
                    match resp {
                        None => {}
                        Some(Response::Counts(counts)) => {
                            debug_assert_eq!(counts.len(), picks[shard].len());
                            for (&i, c) in picks[shard].iter().zip(counts) {
                                totals[i] += c;
                            }
                        }
                        Some(other) => mismatch("Counts", &other),
                    }
                }
                Response::Counts(totals)
            }
            Request::AvgArea(w) => self.avg_area(w)?,
            Request::BucketEpsRange { probes, eps } => {
                let picks = self.pick_indices(probes, |b, p| b.intersects(&p.mbr.expand(*eps)));
                let subs: Vec<Option<Request>> = picks
                    .iter()
                    .map(|p| {
                        (!p.is_empty()).then(|| Request::BucketEpsRange {
                            probes: p.iter().map(|&i| probes[i]).collect(),
                            eps: *eps,
                        })
                    })
                    .collect();
                let mut merged: Vec<Vec<SpatialObject>> = vec![Vec::new(); probes.len()];
                for (shard, resp) in self.round(&subs)?.into_iter().enumerate() {
                    match resp {
                        None => {}
                        Some(Response::Buckets(buckets)) => {
                            debug_assert_eq!(buckets.len(), picks[shard].len());
                            for (&i, bucket) in picks[shard].iter().zip(buckets) {
                                merged[i].extend(bucket);
                            }
                        }
                        Some(other) => mismatch("Buckets", &other),
                    }
                }
                for bucket in &mut merged {
                    dedup_by_id(bucket);
                }
                Response::Buckets(merged)
            }
            Request::CoopLevelMbrs(_) => {
                // The fleet's cooperative level is the *forest* level: the
                // concatenation of every shard's published level, in shard
                // order. Never pruned — index structure is global.
                let subs: Vec<Option<Request>> =
                    self.edges.iter().map(|_| Some(req.clone())).collect();
                let mut mbrs = Vec::new();
                for resp in self.round(&subs)?.into_iter().flatten() {
                    match resp {
                        Response::Rects(r) => mbrs.extend(r),
                        other => mismatch("Rects", &other),
                    }
                }
                Response::Rects(mbrs)
            }
            Request::CoopFilterByMbrs { mbrs, eps } => {
                // Payload trimmed per shard, but every shard is contacted
                // so a non-cooperative policy refusal propagates.
                let subs: Vec<Option<Request>> = self
                    .edges
                    .iter()
                    .map(|s| {
                        let kept: Vec<Rect> = match s.meta.bounds() {
                            Some(b) => mbrs
                                .iter()
                                .filter(|m| m.expand(*eps).intersects(&b))
                                .copied()
                                .collect(),
                            None => Vec::new(),
                        };
                        Some(Request::CoopFilterByMbrs {
                            mbrs: kept,
                            eps: *eps,
                        })
                    })
                    .collect();
                merge_objects(self.round(&subs)?)
            }
            Request::ApplyUpdates(batch) => self.apply_updates(batch),
            Request::CoopJoinPush { objects, eps } => {
                let subs: Vec<Option<Request>> = self
                    .edges
                    .iter()
                    .map(|s| {
                        let kept: Vec<SpatialObject> = match s.meta.bounds() {
                            Some(b) => objects
                                .iter()
                                .filter(|o| o.mbr.expand(*eps).intersects(&b))
                                .copied()
                                .collect(),
                            None => Vec::new(),
                        };
                        Some(Request::CoopJoinPush {
                            objects: kept,
                            eps: *eps,
                        })
                    })
                    .collect();
                let mut seen = HashSet::new();
                let mut pairs = Vec::new();
                for resp in self.round(&subs)?.into_iter().flatten() {
                    match resp {
                        Response::Pairs(p) => {
                            pairs.extend(p.into_iter().filter(|&x| seen.insert(x)))
                        }
                        other => mismatch("Pairs", &other),
                    }
                }
                Response::Pairs(pairs)
            }
        })
    }

    /// Scattered `ApplyUpdates`: each insert/move goes to the shard whose
    /// partition cell owns the object's new center; **every other shard
    /// receives a `Delete` of that id** (upsert-by-id makes the delete a
    /// no-op where the object never lived, and the eviction that keeps
    /// the fleet disjoint where it did). Plain deletes broadcast. All
    /// shards are contacted on every batch — empty sub-batches included —
    /// so each shard's generation advances exactly once and the summed
    /// fleet generation stays injective in the batch count. The merged
    /// `Ack` carries that sum.
    fn apply_updates(&self, batch: &[Update]) -> Response {
        let cells: Option<Vec<Rect>> = self.edges.iter().map(|s| s.meta.cell()).collect();
        let Some(cells) = cells else {
            // No declared partition — the router cannot pick owners.
            return Response::Refused;
        };
        let mut subs: Vec<Vec<Update>> = vec![Vec::new(); self.edges.len()];
        for u in batch {
            match u {
                Update::Insert(o) => {
                    let owner = owner_of(&cells, &o.mbr.center());
                    self.edges[owner].meta.grow_bounds(&o.mbr);
                    for (i, sub) in subs.iter_mut().enumerate() {
                        sub.push(if i == owner {
                            Update::Insert(*o)
                        } else {
                            Update::Delete(o.id)
                        });
                    }
                }
                Update::Delete(id) => {
                    for sub in subs.iter_mut() {
                        sub.push(Update::Delete(*id));
                    }
                }
                Update::Move { id, to } => {
                    let owner = owner_of(&cells, &to.center());
                    self.edges[owner].meta.grow_bounds(to);
                    for (i, sub) in subs.iter_mut().enumerate() {
                        sub.push(if i == owner {
                            Update::Move { id: *id, to: *to }
                        } else {
                            Update::Delete(*id)
                        });
                    }
                }
            }
        }
        let reqs: Vec<Request> = subs.into_iter().map(Request::ApplyUpdates).collect();
        // The batch is durable on a shard once *any* replica acks (the
        // shard generation fetch-maxes over the replica acks); a replica
        // that stayed dark catches up at its restart hook, and until
        // then the generation floor keeps its stale replies out of
        // reads. Only a shard with **no** acking replica fails the
        // batch, propagating its first typed failure.
        let mut sum = 0u64;
        for (i, replies) in self.update_round(&reqs).into_iter().enumerate() {
            let mut acked: Option<u64> = None;
            let mut failure: Option<Response> = None;
            for resp in replies {
                match resp {
                    Response::Ack { generation } => {
                        acked = Some(acked.map_or(generation, |g| g.max(generation)));
                    }
                    e @ (Response::Refused | Response::Malformed | Response::Unavailable) => {
                        failure.get_or_insert(e);
                    }
                    other => panic!("protocol mismatch: expected Ack, got {other:?}"),
                }
            }
            match acked {
                Some(generation) => {
                    self.edges[i].meta.note_generation(generation);
                    sum += generation;
                }
                None => {
                    self.telemetry.note_failed(i);
                    return failure.expect("every replica is contacted");
                }
            }
        }
        Response::Ack { generation: sum }
    }

    /// Merged `AvgArea`: per-shard averages weighted by matching-object
    /// count. An unweighted mean of shard means would be wrong whenever
    /// shards match different numbers of objects; the weights come from a
    /// COUNT round, and shards counting zero skip the area round entirely.
    fn avg_area(&self, w: &Rect) -> Result<Response, Response> {
        let count_subs = self.prune(&Request::Count(*w), |b| b.intersects(w));
        let mut counts = vec![0u64; self.edges.len()];
        for (i, resp) in self.round(&count_subs)?.into_iter().enumerate() {
            match resp {
                None => {}
                Some(Response::Count(c)) => counts[i] = c,
                Some(other) => mismatch("Count", &other),
            }
        }
        let area_subs: Vec<Option<Request>> = counts
            .iter()
            .map(|&c| (c > 0).then_some(Request::AvgArea(*w)))
            .collect();
        let total: u64 = counts.iter().sum();
        let mut weighted = 0.0f64;
        for (i, resp) in self.round(&area_subs)?.into_iter().enumerate() {
            match resp {
                None => {}
                Some(Response::Area(a)) => weighted += a * counts[i] as f64,
                Some(other) => mismatch("Area", &other),
            }
        }
        Ok(Response::Area(if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }))
    }
}

/// The shard owning point `p`: the first whose cell contains it
/// (half-open, matching the partitioner's assignment rule), else —
/// for points outside the partitioned space entirely — the shard with
/// the nearest cell center (lowest index on ties). Deterministic, so
/// every client routes the same object the same way.
fn owner_of(cells: &[Rect], p: &Point) -> usize {
    if let Some(i) = cells.iter().position(|c| c.contains_half_open(p)) {
        return i;
    }
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in cells.iter().enumerate() {
        let cc = c.center();
        let d = (cc.x - p.x).powi(2) + (cc.y - p.y).powi(2);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Keeps the first occurrence of each object id, preserving order.
fn dedup_by_id(objects: &mut Vec<SpatialObject>) {
    let mut seen = HashSet::with_capacity(objects.len());
    objects.retain(|o| seen.insert(o.id));
}

/// Concatenates object responses in shard order, deduplicating by id
/// (defensive: the partitioner is disjoint, so duplicates indicate a
/// replicated straddler and must collapse to one object).
fn merge_objects(responses: Vec<Option<Response>>) -> Response {
    let mut out = Vec::new();
    for resp in responses.into_iter().flatten() {
        match resp {
            Response::Objects(v) => out.extend(v),
            other => mismatch("Objects", &other),
        }
    }
    dedup_by_id(&mut out);
    Response::Objects(out)
}

/// A shard answered a different kind than was asked — a protocol bug,
/// never a network fault (those arrive as typed failures).
fn mismatch(expected: &str, got: &Response) -> ! {
    panic!("protocol mismatch: expected {expected}, got {got:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ScanHandler as Scan;
    use crate::transport::{InProcExchange, Link};
    use asj_geom::Point;

    fn endpoint(objects: Vec<SpatialObject>) -> ShardEndpoint {
        let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
        ShardEndpoint::new(
            bounds,
            Box::new(InProcExchange::new(Arc::new(Scan(objects)))),
        )
    }

    /// Two shards: ids 0..10 on the left (x ≈ 0..9), ids 100..110 on the
    /// right (x ≈ 100..109).
    fn two_shard_router() -> ShardRouter {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        ShardRouter::new(
            vec![endpoint(left), endpoint(right)],
            PacketModel::default(),
        )
    }

    fn link(router: ShardRouter) -> Link {
        Link::routed(router, 1.0)
    }

    #[test]
    fn count_sums_and_prunes() {
        let l = link(two_shard_router());
        // Window touching only the left shard.
        let w = Rect::from_coords(0.0, -1.0, 5.0, 1.0);
        assert_eq!(l.request(&Request::Count(w)).into_count(), 6);
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.scattered, 1, "only the left shard was asked");
        assert_eq!(fleet.pruned, 1);
        assert_eq!(fleet.per_shard[1], LinkSnapshot::default());
        // Both shards.
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        assert_eq!(l.request(&Request::Count(all)).into_count(), 20);
        // Aggregate meter equals the per-shard sum.
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.summed(), l.meter().snapshot());
    }

    #[test]
    fn window_merges_in_shard_order() {
        let l = link(two_shard_router());
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let objs = l.request(&Request::Window(all)).into_objects();
        assert_eq!(objs.len(), 20);
        let ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
        assert_eq!(&ids[..3], &[0, 1, 2], "left shard first");
        assert_eq!(ids[10], 100, "then the right shard");
    }

    #[test]
    fn multi_count_sub_batches_per_shard() {
        let l = link(two_shard_router());
        let left = Rect::from_coords(0.0, -1.0, 3.0, 1.0); // 4 points
        let right = Rect::from_coords(100.0, -1.0, 101.0, 1.0); // 2 points
        let both = Rect::from_coords(-1.0, -1.0, 200.0, 1.0); // 20 points
        let nowhere = Rect::from_coords(40.0, 40.0, 50.0, 50.0);
        let counts = l
            .request(&Request::MultiCount(vec![left, right, both, nowhere]))
            .into_counts();
        assert_eq!(counts, vec![4, 2, 20, 0]);
        let fleet = l.fleet().unwrap().snapshot();
        // One sub-batch per shard, each carrying 2 windows.
        assert_eq!(fleet.scattered, 2);
        assert_eq!(fleet.per_shard[0].count_queries, 1);
        assert_eq!(fleet.per_shard[1].count_queries, 1);
        // `nowhere` reached no shard at all, yet got its zero.
    }

    #[test]
    fn all_pruned_synthesizes_empty_answers_for_free() {
        let l = link(two_shard_router());
        let nowhere = Rect::from_coords(40.0, 40.0, 50.0, 50.0);
        assert_eq!(l.request(&Request::Count(nowhere)).into_count(), 0);
        assert_eq!(l.request(&Request::Window(nowhere)).into_objects(), vec![]);
        assert_eq!(l.request(&Request::AvgArea(nowhere)), Response::Area(0.0));
        let s = l.meter().snapshot();
        assert_eq!(s.total_bytes(), 0, "pruned queries cost nothing");
        // Count 2 + Window 2 + AvgArea 4 (its COUNT round prunes both
        // shards, then its area round skips both zero-count shards).
        assert_eq!(l.fleet().unwrap().snapshot().pruned, 8);
    }

    #[test]
    fn eps_range_prunes_by_expanded_probe() {
        let l = link(two_shard_router());
        let q = Rect::point(Point::new(11.0, 0.0));
        // eps 2.5: reaches only the left shard (x ≤ 9 + 2.5 window).
        let near = l.request(&Request::EpsRange { q, eps: 2.5 }).into_objects();
        assert_eq!(near.len(), 1, "only the point at x=9");
        assert_eq!(l.fleet().unwrap().snapshot().scattered, 1);
        // eps 95: reaches both shards (left fully, right up to x = 106).
        let far = l
            .request(&Request::EpsRange { q, eps: 95.0 })
            .into_objects();
        assert_eq!(far.len(), 17);
    }

    #[test]
    fn bucket_probes_route_to_reachable_shards_only() {
        let l = link(two_shard_router());
        let probes = vec![
            SpatialObject::point(900, 5.0, 0.0),   // left shard
            SpatialObject::point(901, 105.0, 0.0), // right shard
            SpatialObject::point(902, 50.0, 0.0),  // neither
        ];
        let buckets = l
            .request(&Request::BucketEpsRange { probes, eps: 1.5 })
            .into_buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].len(), 3); // x ∈ {4,5,6}
        assert_eq!(buckets[1].len(), 3); // x ∈ {104,105,106}
        assert!(buckets[2].is_empty());
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.per_shard[0].bucket_queries, 1);
        assert_eq!(fleet.per_shard[1].bucket_queries, 1);
    }

    #[test]
    fn avg_area_weights_by_matching_count() {
        // Left shard: 3 unit squares (area 1). Right shard: 1 big square
        // (area 4). Flat average over the window = (3·1 + 4)/4 = 1.75; an
        // unweighted mean of shard means would say (1 + 4)/2 = 2.5.
        let left: Vec<SpatialObject> = (0..3)
            .map(|i| {
                SpatialObject::new(
                    i,
                    Rect::from_coords(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 1.0, 1.0),
                )
            })
            .collect();
        let right = vec![SpatialObject::new(
            100,
            Rect::from_coords(100.0, 0.0, 102.0, 2.0),
        )];
        let l = link(ShardRouter::new(
            vec![endpoint(left), endpoint(right)],
            PacketModel::default(),
        ));
        let w = Rect::from_coords(-1.0, -1.0, 200.0, 10.0);
        match l.request(&Request::AvgArea(w)) {
            Response::Area(a) => assert_eq!(a, 1.75),
            other => panic!("expected Area, got {other:?}"),
        }
    }

    #[test]
    fn refused_propagates_from_any_shard() {
        let l = link(two_shard_router());
        // Scan refuses cooperative queries; the fleet must too.
        assert_eq!(l.request(&Request::CoopLevelMbrs(0)), Response::Refused);
        assert_eq!(
            l.request(&Request::CoopJoinPush {
                objects: vec![SpatialObject::point(1, 5.0, 0.0)],
                eps: 1.0,
            }),
            Response::Refused
        );
    }

    #[test]
    fn single_shard_is_a_transparent_metered_proxy() {
        let data: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let flat = Link::in_process(Arc::new(Scan(data.clone())), PacketModel::default(), 1.0);
        let routed = link(ShardRouter::new(
            vec![endpoint(data)],
            PacketModel::default(),
        ));
        // Include a window that misses the data: even that must cross the
        // wire (no pruning at fleet size 1 — byte-transparency).
        for w in [
            Rect::from_coords(0.0, -1.0, 4.0, 1.0),
            Rect::from_coords(50.0, 50.0, 60.0, 60.0),
        ] {
            assert_eq!(
                flat.request(&Request::Count(w)).into_count(),
                routed.request(&Request::Count(w)).into_count()
            );
            assert_eq!(
                flat.request(&Request::Window(w)).into_objects(),
                routed.request(&Request::Window(w)).into_objects()
            );
        }
        assert_eq!(flat.meter().snapshot(), routed.meter().snapshot());
        let fleet = routed.fleet().unwrap().snapshot();
        assert_eq!(fleet.pruned, 0);
        assert_eq!(fleet.summed(), routed.meter().snapshot());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_fleet_rejected() {
        ShardRouter::new(Vec::new(), PacketModel::default());
    }

    use crate::codec::{
        decode_request, decode_response_gen, encode_request, encode_response, encode_response_into,
        stamp_generation,
    };
    use bytes::{Bytes, BytesMut};

    /// A live shard server double: upsert-by-id update semantics, a
    /// generation counter bumped per batch, and query replies stamped
    /// with the serving generation — the wire behaviour of a
    /// `SpatialService<VersionedStore<_>>` without depending on it.
    struct LiveShard {
        objects: Mutex<Vec<SpatialObject>>,
        generation: AtomicU64,
    }

    impl LiveShard {
        fn new(objects: Vec<SpatialObject>) -> Self {
            LiveShard {
                objects: Mutex::new(objects),
                generation: AtomicU64::new(0),
            }
        }
    }

    impl RawExchange for LiveShard {
        fn exchange(&self, raw: Bytes) -> Bytes {
            let req = decode_request(raw).expect("malformed request");
            let resp = match req {
                Request::ApplyUpdates(batch) => {
                    let mut objs = self.objects.lock().unwrap();
                    for u in &batch {
                        match u {
                            Update::Insert(o) => match objs.iter_mut().find(|x| x.id == o.id) {
                                Some(slot) => *slot = *o,
                                None => objs.push(*o),
                            },
                            Update::Delete(id) => objs.retain(|x| x.id != *id),
                            Update::Move { id, to } => {
                                let moved = SpatialObject::new(*id, *to);
                                match objs.iter_mut().find(|x| x.id == moved.id) {
                                    Some(slot) => *slot = moved,
                                    None => objs.push(moved),
                                }
                            }
                        }
                    }
                    let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
                    return encode_response(&Response::Ack { generation });
                }
                Request::Window(w) => {
                    let objs = self.objects.lock().unwrap();
                    Response::Objects(
                        objs.iter()
                            .filter(|o| o.mbr.intersects(&w))
                            .copied()
                            .collect(),
                    )
                }
                Request::Count(w) => {
                    let objs = self.objects.lock().unwrap();
                    Response::Count(objs.iter().filter(|o| o.mbr.intersects(&w)).count() as u64)
                }
                _ => Response::Refused,
            };
            let mut buf = BytesMut::new();
            stamp_generation(self.generation.load(Ordering::SeqCst), &mut buf);
            encode_response_into(&resp, &mut buf);
            buf.freeze()
        }
    }

    /// Two live shards partitioned at x = 50: left cell `[0, 50)`, right
    /// cell `[50, 110)`; same datasets as `two_shard_router`.
    fn live_fleet() -> ShardRouter {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let shard = |objects: Vec<SpatialObject>, cell: Rect| {
            let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
            ShardEndpoint::with_meta(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                Box::new(LiveShard::new(objects)),
            )
        };
        ShardRouter::new(
            vec![
                shard(left, Rect::from_coords(0.0, -10.0, 50.0, 10.0)),
                shard(right, Rect::from_coords(50.0, -10.0, 110.0, 10.0)),
            ],
            PacketModel::default(),
        )
    }

    fn roundtrip(router: &ShardRouter, req: &Request) -> (Response, u64) {
        router.call(req)
    }

    #[test]
    fn updates_scatter_to_owners_and_sum_generations() {
        let router = live_fleet();
        // Insert at x = 10: the left cell owns it.
        let (ack, stamp) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 10.0, 0.0))]),
        );
        assert_eq!(stamp, 0, "Acks are never stamped");
        assert_eq!(ack, Response::Ack { generation: 2 }, "1 + 1 across shards");
        assert_eq!(router.telemetry().generations(), vec![1, 1]);
        assert_eq!(router.fleet_generation(), 2);

        let everywhere = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, stamp) = roundtrip(&router, &Request::Window(everywhere));
        assert_eq!(stamp, 2, "merged replies carry the fleet generation");
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.iter().filter(|&&id| id == 900).count(), 1);
        assert_eq!(ids.len(), 21);

        // Move it across the boundary: the right cell takes ownership and
        // the left shard is told to forget it.
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Move {
                id: 900,
                to: Rect::point(Point::new(60.0, 0.0)),
            }]),
        );
        assert_eq!(ack, Response::Ack { generation: 4 });
        assert_eq!(router.telemetry().generations(), vec![2, 2]);
        let (resp, stamp) = roundtrip(&router, &Request::Window(everywhere));
        assert_eq!(stamp, 4);
        let objs = resp.into_objects();
        let at_900: Vec<_> = objs.iter().filter(|o| o.id == 900).collect();
        assert_eq!(at_900.len(), 1, "exactly one copy after migrating");
        assert_eq!(at_900[0].mbr, Rect::point(Point::new(60.0, 0.0)));

        // Delete broadcasts; cardinality drops back.
        let (ack, _) = roundtrip(&router, &Request::ApplyUpdates(vec![Update::Delete(900)]));
        assert_eq!(ack, Response::Ack { generation: 6 });
        let (resp, _) = roundtrip(&router, &Request::Window(everywhere));
        assert_eq!(resp.into_objects().len(), 20);
    }

    #[test]
    fn insert_outside_every_cell_routes_to_nearest_and_grows_bounds() {
        let router = live_fleet();
        // x = 200 is outside both cells: nearest cell center wins (the
        // right shard at x = 80), whose bounds must grow to cover it.
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(901, 200.0, 0.0))]),
        );
        assert_eq!(ack, Response::Ack { generation: 2 });
        let w = Rect::from_coords(199.0, -1.0, 201.0, 1.0);
        let (resp, stamp) = roundtrip(&router, &Request::Window(w));
        assert_eq!(stamp, 2);
        assert_eq!(
            resp.into_objects().iter().map(|o| o.id).collect::<Vec<_>>(),
            vec![901],
            "grown bounds keep the straddler reachable"
        );
    }

    #[test]
    fn fleet_without_cells_refuses_updates() {
        let router = two_shard_router();
        let (resp, stamp) = roundtrip(&router, &Request::ApplyUpdates(Vec::new()));
        assert_eq!(resp, Response::Refused);
        assert_eq!(stamp, 0);
        assert_eq!(router.telemetry().generations(), vec![0, 0]);
    }

    #[test]
    fn frozen_fleet_replies_stay_unstamped() {
        let router = two_shard_router();
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, generation) = roundtrip(&router, &Request::Window(all));
        assert_eq!(resp.into_objects().len(), 20);
        assert_eq!(
            generation, 0,
            "a frozen fleet answers at generation 0 — the unstamped format"
        );
    }

    #[test]
    fn single_live_shard_is_transparent_and_notes_generations() {
        let data: Vec<SpatialObject> = (0..5)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let shard = Arc::new(LiveShard::new(data.clone()));
        let meta = Arc::new(ShardMeta::with_cell(
            Rect::union_of(data.iter().map(|o| o.mbr)),
            Some(Rect::from_coords(0.0, -10.0, 10.0, 10.0)),
        ));
        struct Shared(Arc<LiveShard>);
        impl RawExchange for Shared {
            fn exchange(&self, raw: Bytes) -> Bytes {
                self.0.exchange(raw)
            }
        }
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_meta(
                meta,
                Box::new(Shared(Arc::clone(&shard))),
            )],
            PacketModel::default(),
        );
        let (ack, _) = roundtrip(&router, &Request::ApplyUpdates(vec![Update::Delete(0)]));
        assert_eq!(ack, Response::Ack { generation: 1 });
        assert_eq!(router.telemetry().generations(), vec![1]);
        // The single flight stays transparent: the reply (stamp included)
        // is exactly what the shard itself produces.
        let w = Rect::from_coords(-1.0, -1.0, 10.0, 1.0);
        let via_router = roundtrip(&router, &Request::Window(w));
        let direct = decode_response_gen(shard.exchange(encode_request(&Request::Window(w))));
        assert_eq!(Ok(via_router.clone()), direct);
        let (resp, stamp) = via_router;
        assert_eq!(stamp, 1);
        assert_eq!(resp.into_objects().len(), 4);
        assert_eq!(router.telemetry().snapshot().pruned, 0, "never pruned");
    }

    #[test]
    fn routed_link_tracks_the_fleet_generation() {
        let l = link(live_fleet());
        assert_eq!(l.last_generation(), 0);
        let ack = l.request(&Request::ApplyUpdates(vec![Update::Insert(
            SpatialObject::point(902, 20.0, 0.0),
        )]));
        assert_eq!(ack, Response::Ack { generation: 2 });
        assert_eq!(l.last_generation(), 2, "Ack generations are noted");
        let everywhere = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        assert_eq!(l.request(&Request::Count(everywhere)).into_count(), 21);
        assert_eq!(l.last_generation(), 2, "stamps agree with the Ack");
        let fleet = l.fleet().unwrap().snapshot();
        assert_eq!(fleet.generations, vec![1, 1]);
        assert_eq!(fleet.fleet_generation(), 2);
        assert_eq!(fleet.summed(), l.meter().snapshot());
    }

    use crate::packet::RetryPolicy;
    use std::collections::HashMap;

    /// Fabricates `fails` unavailable replies before forwarding — a
    /// transiently-dead endpoint.
    struct FlakyExchange {
        fails: AtomicU64,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for FlakyExchange {
        fn exchange(&self, raw: Bytes) -> Bytes {
            if self.fails.load(Ordering::SeqCst) > 0 {
                self.fails.fetch_sub(1, Ordering::SeqCst);
                return crate::codec::unavailable_frame();
            }
            self.inner.exchange(raw)
        }
    }

    /// Delivers to the inner endpoint but loses the first `lose` replies
    /// on the way back — the duplicated-delivery hazard: the server has
    /// already applied when the client decides to retry.
    struct LoseReplies {
        lose: AtomicU64,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for LoseReplies {
        fn exchange(&self, raw: Bytes) -> Bytes {
            let reply = self.inner.exchange(raw);
            if self.lose.load(Ordering::SeqCst) > 0 {
                self.lose.fetch_sub(1, Ordering::SeqCst);
                return crate::codec::unavailable_frame();
            }
            reply
        }
    }

    /// A [`LiveShard`] behind the at-most-once dedup discipline of a real
    /// `SpatialService`: enveloped updates replay their recorded Ack
    /// instead of re-applying.
    struct DedupShard {
        inner: LiveShard,
        seen: Mutex<HashMap<u64, (u64, u64)>>,
    }

    impl DedupShard {
        fn new(objects: Vec<SpatialObject>) -> Self {
            DedupShard {
                inner: LiveShard::new(objects),
                seen: Mutex::new(HashMap::new()),
            }
        }
    }

    impl RawExchange for DedupShard {
        fn exchange(&self, raw: Bytes) -> Bytes {
            match crate::codec::peel_dedup(&raw) {
                Some((tag, body)) => {
                    let mut seen = self.seen.lock().unwrap();
                    if let Some(&(seq, generation)) = seen.get(&tag.nonce) {
                        if tag.seq == seq {
                            return encode_response(&Response::Ack { generation });
                        }
                    }
                    let reply = self.inner.exchange(body);
                    if let Ok((Response::Ack { generation }, _)) =
                        decode_response_gen(reply.clone())
                    {
                        seen.insert(tag.nonce, (tag.seq, generation));
                    }
                    reply
                }
                None => self.inner.exchange(raw),
            }
        }
    }

    fn live_shard_endpoint(
        objects: Vec<SpatialObject>,
        cell: Rect,
        carrier: Box<dyn RawExchange>,
    ) -> ShardEndpoint {
        let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
        ShardEndpoint::with_meta(Arc::new(ShardMeta::with_cell(bounds, Some(cell))), carrier)
    }

    #[test]
    fn scatter_retry_keeps_healthy_replies_and_meters_per_shard() {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let flaky_left = Box::new(FlakyExchange {
            fails: AtomicU64::new(2),
            inner: Box::new(InProcExchange::new(Arc::new(Scan(left.clone())))),
        });
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(Rect::union_of(left.iter().map(|o| o.mbr)), flaky_left),
                endpoint(right),
            ],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(3));
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Count(all));
        assert_eq!(
            resp,
            Response::Count(20),
            "healthy reply kept, flaky slot recovered"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_shard[0].retried, 2,
            "only the failed slot re-sent"
        );
        assert_eq!(fleet.per_shard[1].retried, 0);
        assert_eq!(fleet.summed().retried, 2);
        assert_eq!(fleet.summed().abandoned, 0);
        assert!(fleet.failed_shards.is_empty());
        // The healthy shard crossed the wire exactly once; the flaky
        // slot's dropped attempts were never metered.
        assert_eq!(fleet.per_shard[0].count_queries, 1);
        assert_eq!(fleet.per_shard[1].count_queries, 1);
        assert_eq!(
            fleet.per_shard[0].total_bytes(),
            fleet.per_shard[1].total_bytes(),
            "a recovered slot costs the same as a clean one"
        );
    }

    #[test]
    fn exhausted_shard_surfaces_unavailable_and_is_recorded() {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let dead_left = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: Box::new(InProcExchange::new(Arc::new(Scan(left.clone())))),
        });
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(Rect::union_of(left.iter().map(|o| o.mbr)), dead_left),
                endpoint(right),
            ],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(2));
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Count(all));
        assert_eq!(
            resp,
            Response::Unavailable,
            "exhaustion is typed, not panicked"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.failed_shards, vec![0]);
        assert_eq!(fleet.per_shard[0].retried, 1);
        assert_eq!(fleet.per_shard[0].abandoned, 1);
        assert_eq!(fleet.per_shard[0].total_bytes(), 0, "nothing ever crossed");
        assert_eq!(
            fleet.per_shard[1].count_queries, 1,
            "healthy shard still served"
        );
        assert_eq!(fleet.generations, vec![0, 0], "generations never regress");
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    #[test]
    fn update_retries_replay_the_envelope_and_never_double_bump() {
        let left: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        // The left shard applies the batch, then its Ack is lost in
        // flight; the retried duplicate must replay, not re-apply.
        let lossy_left = Box::new(LoseReplies {
            lose: AtomicU64::new(1),
            inner: Box::new(DedupShard::new(left.clone())),
        });
        let router = ShardRouter::new(
            vec![
                live_shard_endpoint(left, Rect::from_coords(0.0, -10.0, 50.0, 10.0), lossy_left),
                live_shard_endpoint(
                    right.clone(),
                    Rect::from_coords(50.0, -10.0, 110.0, 10.0),
                    Box::new(DedupShard::new(right)),
                ),
            ],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(3));
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 10.0, 0.0))]),
        );
        // Every shard is contacted per fleet batch (the non-owner gets
        // the disjointness Delete), so each bumps once: 1 + 1. A double
        // apply on the lossy left would have summed to 3.
        assert_eq!(
            ack,
            Response::Ack { generation: 2 },
            "duplicated delivery bumps the owner exactly once"
        );
        assert_eq!(router.telemetry().generations(), vec![1, 1]);
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_shard[0].retried, 1);
        assert_eq!(fleet.summed().abandoned, 0);
        // The object landed exactly once.
        let (resp, stamp) = roundtrip(
            &router,
            &Request::Window(Rect::from_coords(-1.0, -1.0, 200.0, 1.0)),
        );
        assert_eq!(stamp, 2);
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.iter().filter(|&&id| id == 900).count(), 1);
        assert_eq!(ids.len(), 21);
    }

    #[test]
    fn single_shard_flight_retries_and_dedups() {
        let data: Vec<SpatialObject> = (0..5)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let lossy = Box::new(LoseReplies {
            lose: AtomicU64::new(1),
            inner: Box::new(DedupShard::new(data.clone())),
        });
        let router = ShardRouter::new(
            vec![live_shard_endpoint(
                data,
                Rect::from_coords(0.0, -10.0, 10.0, 10.0),
                lossy,
            )],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(3));
        let (ack, _) = roundtrip(&router, &Request::ApplyUpdates(vec![Update::Delete(0)]));
        assert_eq!(
            ack,
            Response::Ack { generation: 1 },
            "replayed, not re-applied"
        );
        assert_eq!(router.telemetry().generations(), vec![1]);
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_shard[0].retried, 1);
        assert_eq!(fleet.summed().abandoned, 0);
        // Queries retry through the same path.
        let w = Rect::from_coords(-1.0, -1.0, 10.0, 1.0);
        let (resp, stamp) = roundtrip(&router, &Request::Window(w));
        assert_eq!(stamp, 1);
        assert_eq!(resp.into_objects().len(), 4);
    }

    #[test]
    fn exhausted_single_shard_flight_surfaces_unavailable() {
        let data: Vec<SpatialObject> = (0..5)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let dead = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: Box::new(InProcExchange::new(Arc::new(Scan(data.clone())))),
        });
        let router = ShardRouter::new(
            vec![ShardEndpoint::new(
                Rect::union_of(data.iter().map(|o| o.mbr)),
                dead,
            )],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(2));
        let count = Request::Count(Rect::from_coords(0.0, -1.0, 4.0, 1.0));
        assert_eq!(roundtrip(&router, &count), (Response::Unavailable, 0));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.failed_shards, vec![0]);
        assert_eq!(fleet.per_shard[0].abandoned, 1);
        assert_eq!(fleet.per_shard[0].total_bytes(), 0);
    }

    #[test]
    fn garbled_frame_to_the_router_answers_typed_malformed() {
        /// Garbles every reply on its way back from the shard.
        struct Garbling(Box<dyn RawExchange>);
        impl RawExchange for Garbling {
            fn exchange(&self, raw: Bytes) -> Bytes {
                crate::codec::garble_frame(&self.0.exchange(raw))
            }
        }
        let left = ten_points();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let garbling = |objects: &[SpatialObject]| {
            ShardEndpoint::new(
                Rect::union_of(objects.iter().map(|o| o.mbr)),
                Box::new(Garbling(scan_carrier(objects))),
            )
        };
        // A fleet of one and a scatter over two: garbage on a shard edge
        // surfaces typed, never as a panic or a wrong value.
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        for router in [
            ShardRouter::new(vec![garbling(&left)], PacketModel::default()),
            ShardRouter::new(
                vec![garbling(&left), endpoint(right.clone())],
                PacketModel::default(),
            ),
        ] {
            assert_eq!(
                roundtrip(&router, &Request::Count(all)).0,
                Response::Malformed
            );
            assert_eq!(
                roundtrip(&router, &Request::Window(all)).0,
                Response::Malformed
            );
        }
    }

    // ---- replica sets: spread, failover, breakers, the generation floor ----

    use crate::health::{spread_hash, BreakerState};
    use proptest::prelude::*;

    /// The canonical ten-point dataset (ids 0..10 at x ≈ 0..9).
    fn ten_points() -> Vec<SpatialObject> {
        (0..10)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect()
    }

    fn scan_carrier(objects: &[SpatialObject]) -> Box<dyn RawExchange> {
        Box::new(InProcExchange::new(Arc::new(Scan(objects.to_vec()))))
    }

    /// One shard whose replica set is `carriers`, bounds from `objects`.
    fn replicated(objects: &[SpatialObject], carriers: Vec<Box<dyn RawExchange>>) -> ShardEndpoint {
        let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
        ShardEndpoint::with_replicas(Arc::new(ShardMeta::new(bounds)), carriers)
    }

    /// Searches integer-nudged all-covering windows for one whose encoded
    /// request the router's spread hash starts at replica `want` of `n` —
    /// making the pick order of the tests below deterministic.
    fn request_picking(want: usize, n: usize, mk: impl Fn(Rect) -> Request) -> Request {
        (0..64)
            .map(|k| mk(Rect::from_coords(-1.0 - k as f64, -1.0, 200.0, 1.0)))
            .find(|req| spread_hash(&encode_request(req)) % n as u64 == want as u64)
            .expect("one of 64 candidate windows hashes to the wanted replica")
    }

    #[test]
    fn reads_spread_across_siblings_by_request_hash() {
        let data = ten_points();
        let router = ShardRouter::new(
            vec![replicated(
                &data,
                vec![scan_carrier(&data), scan_carrier(&data)],
            )],
            PacketModel::default(),
        );
        for want in 0..2 {
            let req = request_picking(want, 2, Request::Count);
            let (resp, _) = roundtrip(&router, &req);
            assert_eq!(resp, Response::Count(10));
        }
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].count_queries, 1,
            "each sibling took one of the two reads"
        );
        assert_eq!(fleet.per_replica[0][1].count_queries, 1);
        assert_eq!(fleet.summed().failovers, 0);
        assert_eq!(
            fleet.per_shard[0],
            fleet.per_replica[0][0].plus(&fleet.per_replica[0][1]),
            "the shard meter is the field-wise sum of its replica edges"
        );
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    #[test]
    fn failed_read_fails_over_to_a_sibling_without_retry_budget() {
        let data = ten_points();
        let dead = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: scan_carrier(&data),
        });
        // No retry policy at all: the failover to the sibling is what
        // recovers the read.
        let router = ShardRouter::new(
            vec![replicated(&data, vec![dead, scan_carrier(&data)])],
            PacketModel::default(),
        );
        let req = request_picking(0, 2, Request::Count);
        let (resp, _) = roundtrip(&router, &req);
        assert_eq!(resp, Response::Count(10), "the sibling served the read");
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].failovers, 1,
            "tallied on the edge failed *from*"
        );
        assert_eq!(
            fleet.per_replica[0][0].total_bytes(),
            0,
            "the dead edge never crossed the wire"
        );
        assert_eq!(fleet.per_replica[0][1].count_queries, 1);
        assert_eq!(fleet.summed().retried, 0, "no retry budget was consumed");
        assert_eq!(fleet.summed().abandoned, 0);
        assert!(fleet.failed_shards.is_empty(), "the shard served");
        assert_eq!(
            fleet.health[0][0].consecutive_failures, 1,
            "EWMA health tracks failures even with breakers off"
        );
        assert_eq!(
            fleet.per_shard[0],
            fleet.per_replica[0][0].plus(&fleet.per_replica[0][1])
        );
        assert_eq!(fleet.summed(), router.aggregate_meter().snapshot());
    }

    #[test]
    fn open_breaker_routes_reads_around_a_dead_sibling() {
        let data = ten_points();
        let dead = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: scan_carrier(&data),
        });
        let router = ShardRouter::new(
            vec![replicated(&data, vec![dead, scan_carrier(&data)])],
            PacketModel::default(),
        )
        .with_breakers(BreakerConfig::new(1, 1_000));
        // First read picks the dead replica, fails, trips the breaker.
        let req = request_picking(0, 2, Request::Count);
        let (resp, _) = roundtrip(&router, &req);
        assert_eq!(resp, Response::Count(10));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_replica[0][0].breaker_open, 1);
        assert_eq!(fleet.per_replica[0][0].failovers, 1);
        assert_eq!(fleet.health[0][0].state, BreakerState::Open);
        assert_eq!(fleet.health[0][0].trips, 1);
        // Subsequent reads — even ones whose hash prefers the dead
        // replica — route straight to the healthy sibling: no more
        // failovers, no more trips, nothing offered to the open edge.
        for _ in 0..5 {
            let (resp, _) = roundtrip(&router, &req);
            assert_eq!(resp, Response::Count(10));
        }
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.summed().failovers,
            1,
            "only the trip-read failed over"
        );
        assert_eq!(fleet.summed().breaker_open, 1);
        assert_eq!(fleet.per_replica[0][1].count_queries, 6);
        assert_eq!(fleet.health[0][0].state, BreakerState::Open);
    }

    #[test]
    fn half_open_probe_reclaims_a_recovered_sibling() {
        let data = ten_points();
        let flaky = Box::new(FlakyExchange {
            fails: AtomicU64::new(1),
            inner: scan_carrier(&data),
        });
        let router = ShardRouter::new(
            vec![replicated(&data, vec![flaky, scan_carrier(&data)])],
            PacketModel::default(),
        )
        .with_breakers(BreakerConfig::new(1, 2));
        let req = request_picking(0, 2, Request::Count);
        // Read 1: replica 0 fails once (trip at clock 1), sibling serves
        // (clock 2).
        roundtrip(&router, &req);
        assert_eq!(
            router.telemetry().snapshot().health[0][0].state,
            BreakerState::Open
        );
        // Read 2 at clock 3: cooldown (2 ticks) not yet elapsed — the
        // open edge is skipped even though the hash prefers it.
        roundtrip(&router, &req);
        // Read 3: the breaker is HalfOpen, the probe goes back to the
        // recovered replica and succeeds — the breaker closes.
        let (resp, _) = roundtrip(&router, &req);
        assert_eq!(resp, Response::Count(10));
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.health[0][0].state, BreakerState::Closed);
        assert_eq!(fleet.health[0][0].consecutive_failures, 0);
        assert_eq!(fleet.health[0][0].trips, 1);
        assert_eq!(
            fleet.per_replica[0][0].count_queries, 1,
            "the successful probe is the only metered exchange on the edge"
        );
        assert_eq!(fleet.per_replica[0][1].count_queries, 2);
        assert_eq!(fleet.summed().failovers, 1);
        assert_eq!(fleet.summed().breaker_open, 1);
    }

    /// A lagging/fresh replica pair behind one shard: the stale replica
    /// serves generation 1 *without* object 900, the fresh one serves
    /// generation 2 *with* it, and the shard's meta already observed
    /// generation 2 (the floor). Returns the router and the fresh view.
    fn floored_pair() -> (ShardRouter, Vec<SpatialObject>) {
        let data = ten_points();
        let stale = LiveShard::new(data.clone());
        stale.exchange(encode_request(&Request::ApplyUpdates(Vec::new())));
        let fresh = LiveShard::new(data.clone());
        fresh.exchange(encode_request(&Request::ApplyUpdates(vec![
            Update::Insert(SpatialObject::point(900, 5.5, 0.0)),
        ])));
        fresh.exchange(encode_request(&Request::ApplyUpdates(Vec::new())));
        let mut view = data.clone();
        view.push(SpatialObject::point(900, 5.5, 0.0));
        let meta = Arc::new(ShardMeta::with_cell(
            Rect::union_of(data.iter().map(|o| o.mbr)),
            Some(Rect::from_coords(0.0, -10.0, 10.0, 10.0)),
        ));
        meta.note_generation(2);
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                meta,
                vec![Box::new(stale) as Box<dyn RawExchange>, Box::new(fresh)],
            )],
            PacketModel::default(),
        );
        (router, view)
    }

    #[test]
    fn lagging_replica_reply_is_refetched_from_its_sibling() {
        let (router, view) = floored_pair();
        let req = request_picking(0, 2, Request::Window);
        let (resp, stamp) = roundtrip(&router, &req);
        assert_eq!(stamp, 2);
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), view.len());
        assert!(ids.contains(&900), "the floored read served the fresh view");
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][0].window_queries, 1,
            "the rejected stale reply still crossed the wire — metered"
        );
        assert_eq!(fleet.per_replica[0][0].objects_received, 10);
        assert_eq!(fleet.per_replica[0][0].failovers, 1);
        assert_eq!(fleet.health[0][0].consecutive_failures, 1);
        assert_eq!(fleet.generations, vec![2], "the floor never regressed");
        // A read whose hash picks the fresh replica first never touches
        // the lagging one.
        let (resp, _) = roundtrip(&router, &request_picking(1, 2, Request::Window));
        assert_eq!(resp.into_objects().len(), view.len());
        assert_eq!(router.telemetry().snapshot().summed().failovers, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Satellite (c): whatever the window and whichever replica the
        // hash picks first, a floored read never serves the lagging
        // view — the answer is always exactly the fresh replica's.
        #[test]
        fn failover_never_serves_below_the_generation_floor(
            coords in (-40i32..=88, -40i32..=88, -40i32..=88, -40i32..=88)
        ) {
            let (x0, y0, x1, y1) = coords;
            let w = Rect::new(
                Point::new(x0 as f64 * 0.25, y0 as f64 * 0.25),
                Point::new(x1 as f64 * 0.25, y1 as f64 * 0.25),
            );
            let (router, view) = floored_pair();
            let bounds = Rect::union_of(view[..10].iter().map(|o| o.mbr)).unwrap();
            let (resp, stamp) = roundtrip(&router, &Request::Window(w));
            prop_assert_eq!(stamp, 2, "merged replies carry the floored fleet generation");
            let got: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
            let expected: Vec<u32> = if w.intersects(&bounds) {
                view.iter().filter(|o| o.mbr.intersects(&w)).map(|o| o.id).collect()
            } else {
                Vec::new() // pruned by shard bounds before any replica is asked
            };
            prop_assert_eq!(got, expected);
            prop_assert_eq!(router.telemetry().generations(), vec![2]);
        }
    }

    #[test]
    fn updates_broadcast_to_every_replica_and_ack_the_max() {
        let data = ten_points();
        let cell = Rect::from_coords(0.0, -10.0, 10.0, 10.0);
        let bounds = Rect::union_of(data.iter().map(|o| o.mbr));
        // Replica 1 applies the batch but loses its Ack — the pinned
        // in-place retry must replay the dedup envelope, not re-apply.
        let lossy = Box::new(LoseReplies {
            lose: AtomicU64::new(1),
            inner: Box::new(DedupShard::new(data.clone())),
        });
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                vec![
                    Box::new(DedupShard::new(data.clone())) as Box<dyn RawExchange>,
                    lossy,
                ],
            )],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(3));
        let (ack, stamp) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 5.5, 0.0))]),
        );
        assert_eq!(stamp, 0, "Acks are never stamped");
        assert_eq!(
            ack,
            Response::Ack { generation: 1 },
            "the shard ack is the max over replica acks, not their sum"
        );
        assert_eq!(router.telemetry().generations(), vec![1]);
        let fleet = router.telemetry().snapshot();
        assert_eq!(
            fleet.per_replica[0][1].retried, 1,
            "lost Ack replayed in place"
        );
        assert_eq!(fleet.per_replica[0][0].retried, 0);
        assert_eq!(fleet.summed().failovers, 0, "updates never fail over");
        assert_eq!(
            fleet.per_shard[0],
            fleet.per_replica[0][0].plus(&fleet.per_replica[0][1])
        );
        // Read-your-write holds on *either* replica: force both pick
        // orders and find the insert each time, stamped at the floor.
        for want in 0..2 {
            let (resp, stamp) = roundtrip(&router, &request_picking(want, 2, Request::Window));
            assert_eq!(stamp, 1);
            let objs = resp.into_objects();
            assert_eq!(objs.iter().filter(|o| o.id == 900).count(), 1);
            assert_eq!(objs.len(), 11);
        }
    }

    #[test]
    fn update_tolerates_a_dark_replica_when_a_sibling_acks() {
        let data = ten_points();
        let cell = Rect::from_coords(0.0, -10.0, 10.0, 10.0);
        let bounds = Rect::union_of(data.iter().map(|o| o.mbr));
        let dark = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: Box::new(DedupShard::new(data.clone())),
        });
        let router = ShardRouter::new(
            vec![ShardEndpoint::with_replicas(
                Arc::new(ShardMeta::with_cell(bounds, Some(cell))),
                vec![
                    Box::new(DedupShard::new(data.clone())) as Box<dyn RawExchange>,
                    dark,
                ],
            )],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(2))
        // Partial tolerance must never leak into the update path.
        .with_allow_partial(true);
        let (ack, _) = roundtrip(
            &router,
            &Request::ApplyUpdates(vec![Update::Insert(SpatialObject::point(900, 5.5, 0.0))]),
        );
        assert_eq!(
            ack,
            Response::Ack { generation: 1 },
            "one surviving replica carries the batch"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.per_replica[0][1].retried, 1);
        assert_eq!(fleet.per_replica[0][1].abandoned, 1);
        assert_eq!(fleet.per_replica[0][1].total_bytes(), 0);
        assert!(
            fleet.failed_shards.is_empty(),
            "a dark replica out-acked by its sibling does not fail the shard"
        );
        assert_eq!(fleet.coverage(), 1.0);
        assert_eq!(router.telemetry().generations(), vec![1]);
    }

    #[test]
    fn allow_partial_drops_exhausted_shards_from_the_merge() {
        let left = ten_points();
        let right: Vec<SpatialObject> = (0..10)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let dead_left = Box::new(FlakyExchange {
            fails: AtomicU64::new(u64::MAX),
            inner: scan_carrier(&left),
        });
        let router = ShardRouter::new(
            vec![
                ShardEndpoint::new(Rect::union_of(left.iter().map(|o| o.mbr)), dead_left),
                endpoint(right),
            ],
            PacketModel::default(),
        )
        .with_retry(RetryPolicy::attempts(2))
        .with_allow_partial(true);
        let all = Rect::from_coords(-1.0, -1.0, 200.0, 1.0);
        let (resp, _) = roundtrip(&router, &Request::Count(all));
        assert_eq!(
            resp,
            Response::Count(10),
            "the merge completed over the surviving shard"
        );
        let (resp, _) = roundtrip(&router, &Request::Window(all));
        let ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), 10);
        assert!(
            ids.iter().all(|&id| id >= 100),
            "only the right shard answered"
        );
        let fleet = router.telemetry().snapshot();
        assert_eq!(fleet.failed_shards, vec![0], "the hole is on the record");
        assert_eq!(fleet.coverage(), 0.5);
        assert_eq!(fleet.per_shard[0].abandoned, 2);
        assert_eq!(fleet.per_shard[0].total_bytes(), 0);
    }
}
