//! Synchronous RPC transports and the device's metered link.
//!
//! A [`RawExchange`] is a byte-level carrier: it ships an encoded request
//! and returns the encoded reply. Two carriers serve the repo:
//!
//! * [`InProcExchange`] — calls the server's handler on the calling thread
//!   (fast path for the thousands of joins an experiment sweep runs);
//! * [`crate::event_loop`] connections — servers multiplexed on a reactor
//!   thread, one shared reactor for many devices or one per server for
//!   the paper's deployment of independent servers and a WiFi PDA.
//!
//! Carriers sit *below* a physical edge (see `edge.rs`), which frames,
//! retries, dedups, meters and negotiates every exchange. A [`Link`] is
//! the device's handle to one server or fleet: it passes [`Request`]
//! values down a stack of layers — a direct edge, a
//! [`ShardRouter`] over shard edges, or a
//! [`CacheLayer`] over either — tracks the
//! serving generation, and exposes the meters. No byte can cross
//! unmetered, whichever carrier is used, and no layer above an edge ever
//! sees a frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::cache::{CacheLayer, CacheView};
use crate::codec::{wire_form, WireVersion};
use crate::edge::Edge;
use crate::meter::LinkMeter;
use crate::packet::{PacketModel, RetryPolicy};
use crate::proto::{QueryHandler, Request, Response};
use crate::router::{ShardRouter, ShardTelemetry};

/// Serves one request frame into `buf` — the one server-side frame
/// decoder every carrier uses. Peels the retry-dedup envelope first: a
/// tagged `ApplyUpdates` delivery goes through
/// [`QueryHandler::handle_tagged_updates`] so stateful servers can make
/// it at-most-once; an envelope wrapping anything else is garbage and
/// answers the typed malformed frame. Returns `false` when a typed error
/// was encoded instead of an answer, so callers keep served-query counts
/// honest.
pub(crate) fn serve_frame_into<H: QueryHandler + ?Sized>(
    handler: &H,
    request: Bytes,
    buf: &mut BytesMut,
) -> bool {
    let (tag, body) = match crate::codec::peel_dedup(&request) {
        Some((tag, inner)) => (Some(tag), inner),
        None => (None, request),
    };
    let (req, wire) = match crate::codec::decode_request_versioned(body) {
        Ok(pair) => pair,
        Err(_) => {
            crate::codec::encode_response_into(&Response::Malformed, buf);
            return false;
        }
    };
    match (tag, req) {
        (Some(tag), Request::ApplyUpdates(updates)) => {
            // Acks carry their generation in-band and are never stamped,
            // so encoding straight here (bypassing any stamping wrapper)
            // is wire-identical to the untagged path.
            let resp = handler.handle_tagged_updates(tag, updates);
            crate::codec::encode_response_versioned(&resp, wire, None, buf);
            true
        }
        (Some(_), _) => {
            crate::codec::encode_response_into(&Response::Malformed, buf);
            false
        }
        (None, req) => {
            handler.handle_into(req, wire, buf);
            true
        }
    }
}

/// A byte-level carrier: ships an encoded request, returns the encoded
/// response. Carriers are `Sync` so one carrier can serve interleaved
/// requests from several device threads (a shard router fans one logical
/// client out over many carriers, and stress tests drive it from many
/// threads at once).
pub trait RawExchange: Send + Sync {
    fn exchange(&self, request: Bytes) -> Bytes;

    /// Starts an exchange and returns a completion that yields the reply.
    ///
    /// The default is fully synchronous — the reply is computed before the
    /// completion is returned, which is the only possibility for in-process
    /// carriers (the server *is* the calling thread). Carriers backed by a
    /// server thread override this to ship the request immediately and
    /// block only inside the completion, so a scatter round's requests are
    /// serviced concurrently by the shard threads.
    fn begin<'a>(&'a self, request: Bytes) -> Box<dyn FnOnce() -> Bytes + Send + 'a> {
        let reply = self.exchange(request);
        Box::new(move || reply)
    }
}

/// In-process carrier: decodes and handles on the calling thread. Takes
/// unsized handlers too, so deployments can carry an
/// `InProcExchange<dyn QueryHandler>`.
pub struct InProcExchange<H: QueryHandler + ?Sized> {
    handler: Arc<H>,
}

impl<H: QueryHandler + ?Sized> InProcExchange<H> {
    pub fn new(handler: Arc<H>) -> Self {
        InProcExchange { handler }
    }
}

impl<H: QueryHandler + ?Sized> RawExchange for InProcExchange<H> {
    fn exchange(&self, request: Bytes) -> Bytes {
        // Version negotiation is link control: answered by the transport
        // adapter, never seen by the query handler.
        if let Some(accept) = crate::codec::try_answer_hello(&request) {
            return accept;
        }
        // The zero-copy serving path: the handler encodes straight into
        // the reply buffer (exact-capacity reserve inside the codec), so
        // no intermediate `Response` vectors are materialized. A garbled
        // frame is answered with a typed error, never panicked on — same
        // contract as the shared reactor thread.
        let mut buf = BytesMut::new();
        serve_frame_into(self.handler.as_ref(), request, &mut buf);
        buf.freeze()
    }
}

/// What a [`Link`] (or a [`CacheLayer`]) sends its requests through — the
/// internal `call` seam between layers, which pass values, never frames.
/// Every layer answers a [`Request`] with the decoded [`Response`] and
/// the serving generation it was stamped with.
pub(crate) enum Stack {
    /// One physical edge to one server.
    Edge(Edge),
    /// A scatter-gather router over one edge per shard.
    Fleet(ShardRouter),
    /// A client cache over a direct edge or a fleet.
    Cache(Box<CacheLayer>),
}

impl Stack {
    /// Answers `req`. Above a bare edge, `req` must already be in wire
    /// form ([`wire_form`]): cache containment and router pruning must
    /// see exactly the rectangles a server decodes.
    pub(crate) fn call(&self, req: &Request) -> (Response, u64) {
        match self {
            Stack::Edge(edge) => edge.call(req),
            Stack::Fleet(router) => router.call(req),
            Stack::Cache(layer) => layer.call(req),
        }
    }

    /// The meter every physical exchange below is charged to (a fleet's
    /// aggregate over all shard edges).
    pub(crate) fn meter(&self) -> &Arc<LinkMeter> {
        match self {
            Stack::Edge(edge) => edge.meter(),
            Stack::Fleet(router) => router.aggregate_meter(),
            Stack::Cache(layer) => layer.meter(),
        }
    }

    pub(crate) fn fleet(&self) -> Option<&Arc<ShardTelemetry>> {
        match self {
            Stack::Edge(_) => None,
            Stack::Fleet(router) => Some(router.telemetry()),
            Stack::Cache(layer) => layer.fleet(),
        }
    }

    pub(crate) fn packet(&self) -> PacketModel {
        match self {
            Stack::Edge(edge) => edge.packet(),
            Stack::Fleet(router) => router.packet(),
            Stack::Cache(layer) => layer.packet(),
        }
    }

    /// Adopts `retry` on every physical edge below.
    pub(crate) fn set_retry(&mut self, retry: RetryPolicy) {
        match self {
            Stack::Edge(edge) => edge.retry = retry,
            Stack::Fleet(router) => router.set_retry(retry),
            Stack::Cache(layer) => layer.set_retry(retry),
        }
    }

    /// Negotiates the wire version of every physical edge below.
    pub(crate) fn negotiate(&mut self) {
        match self {
            Stack::Edge(edge) => edge.negotiate(),
            Stack::Fleet(router) => router.negotiate_v2(),
            Stack::Cache(layer) => layer.negotiate_v2(),
        }
    }
}

/// The device's metered handle to one server (or one fleet of shard
/// servers behind a [`ShardRouter`]), optionally through a client cache.
/// The link itself only tracks the serving generation and exposes the
/// meters: the physical edges below frame, retry and charge every byte.
pub struct Link {
    stack: Stack,
    /// Per-byte tariff of this link (`bR` or `bS`).
    tariff: f64,
    /// Highest serving generation observed on this link (from response
    /// stamps and `Ack`s). 0 until the server goes live.
    last_generation: AtomicU64,
}

impl Link {
    fn over(stack: Stack, tariff: f64) -> Self {
        Link {
            stack,
            tariff,
            last_generation: AtomicU64::new(0),
        }
    }

    /// A link over one carrier, with a fresh meter.
    pub fn new(carrier: Box<dyn RawExchange>, packet: PacketModel, tariff: f64) -> Self {
        Link::over(Stack::Edge(Edge::direct(carrier, packet)), tariff)
    }

    /// A link to a shard fleet: its meter is the router's aggregate over
    /// every physical shard exchange — the scatter traffic that actually
    /// crossed the wire, not the logical request stream.
    pub fn routed(router: ShardRouter, tariff: f64) -> Self {
        Link::over(Stack::Fleet(router), tariff)
    }

    /// A link through a client-side cache (which may itself front a shard
    /// fleet): only the exchanges that actually reach a server are
    /// metered — a cache hit is not a message.
    pub fn cached(layer: CacheLayer, tariff: f64) -> Self {
        Link::over(Stack::Cache(Box::new(layer)), tariff)
    }

    /// In-process link to a handler.
    pub fn in_process<H: QueryHandler + 'static>(
        handler: Arc<H>,
        packet: PacketModel,
        tariff: f64,
    ) -> Self {
        Link::new(Box::new(InProcExchange::new(handler)), packet, tariff)
    }

    /// Adopts a retry/backoff discipline for every physical edge below.
    /// With the default (off) policy every request is one attempt and the
    /// wire traffic is byte-identical to a policy-less link.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.stack.set_retry(retry);
        self
    }

    /// Issues one RPC. Takes the request by reference — framing a request
    /// never requires surrendering (or cloning) its payload.
    ///
    /// Every physical exchange is charged by the edge that carries it.
    /// When a [`RetryPolicy`] is enabled, failed attempts — the locally
    /// fabricated unavailable frame, or a reply that crossed the wire but
    /// does not decode — are re-issued up to the budget with
    /// deterministic backoff, `retried`/`abandoned` tallied on the meter.
    /// `ApplyUpdates` retries ride under the at-most-once dedup envelope,
    /// so a duplicated delivery can never double-bump a generation or
    /// double-apply a move.
    pub fn request(&self, req: &Request) -> Response {
        let (resp, generation) = match &self.stack {
            Stack::Edge(edge) => edge.call(req),
            stack => stack.call(&wire_form(req)),
        };
        if resp != Response::Malformed {
            let observed = match &resp {
                Response::Ack { generation: acked } => *acked,
                _ => generation,
            };
            self.last_generation.fetch_max(observed, Ordering::AcqRel);
        }
        resp
    }

    /// Runs the version handshake on every physical edge below and
    /// upgrades each to whatever its peer accepted. Call sites gate on
    /// `NetConfig::wire_v2`: with the flag off no probe is ever sent.
    pub fn negotiate(mut self) -> Self {
        self.stack.negotiate();
        self
    }

    /// The wire version of a direct link's edge (`V1` until a successful
    /// [`Link::negotiate`]); `V1` for routed and cached links, whose
    /// versions are per shard or per cached edge.
    pub fn wire(&self) -> WireVersion {
        match &self.stack {
            Stack::Edge(edge) => edge.wire,
            _ => WireVersion::V1,
        }
    }

    /// Highest serving generation observed on this link so far — from
    /// response stamps and update `Ack`s. 0 while the server is frozen
    /// (frozen responses carry no stamp).
    pub fn last_generation(&self) -> u64 {
        self.last_generation.load(Ordering::Acquire)
    }

    /// This link's meter (shared; snapshot at will). For a routed link
    /// this is the router's aggregate over all shard exchanges.
    pub fn meter(&self) -> &Arc<LinkMeter> {
        self.stack.meter()
    }

    /// Per-shard telemetry when this link fronts a fleet; `None` for a
    /// plain single-server link.
    pub fn fleet(&self) -> Option<&Arc<ShardTelemetry>> {
        self.stack.fleet()
    }

    /// Cache accounting when this link runs through a client-side cache;
    /// `None` otherwise.
    pub fn cache(&self) -> Option<&CacheView> {
        match &self.stack {
            Stack::Cache(layer) => Some(layer.view()),
            _ => None,
        }
    }

    /// The link's packet model.
    pub fn packet(&self) -> PacketModel {
        self.stack.packet()
    }

    /// The link's per-byte tariff.
    pub fn tariff(&self) -> f64 {
        self.tariff
    }

    /// Monetary cost so far: `tariff × total wire bytes`.
    pub fn cost(&self) -> f64 {
        self.tariff * self.meter().snapshot().total_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::EventLoop;
    use asj_geom::{Rect, SpatialObject};

    /// Toy handler: COUNT returns 7, WINDOW returns two fixed objects.
    struct Fixed;

    impl QueryHandler for Fixed {
        fn handle(&self, req: Request) -> Response {
            match req {
                Request::Count(_) => Response::Count(7),
                Request::Window(_) => Response::Objects(vec![
                    SpatialObject::point(1, 1.0, 1.0),
                    SpatialObject::point(2, 2.0, 2.0),
                ]),
                _ => Response::Refused,
            }
        }
    }

    fn w() -> Rect {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn in_process_roundtrip_and_metering() {
        let link = Link::in_process(Arc::new(Fixed), PacketModel::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        assert_eq!(link.request(&Request::Window(w())).into_objects().len(), 2);

        let s = link.meter().snapshot();
        assert_eq!(s.count_queries, 1);
        assert_eq!(s.window_queries, 1);
        assert_eq!(s.objects_received, 2);
        // 2 requests of 17 bytes each.
        assert_eq!(s.up_bytes, 2 * PacketModel::default().tb(17));
        // Count reply 9 bytes, objects reply 5 + 40 bytes.
        assert_eq!(
            s.down_bytes,
            PacketModel::default().tb(9) + PacketModel::default().tb(45)
        );
        assert_eq!(link.cost(), s.total_bytes() as f64);
    }

    /// One server on its own reactor thread — the threaded deployment's
    /// carrier.
    fn own_reactor(name: &str) -> (EventLoop, crate::event_loop::EventEndpoint) {
        let reactor = EventLoop::spawn(name);
        let endpoint = reactor.serve(Arc::new(Fixed));
        (reactor, endpoint)
    }

    #[test]
    fn channel_server_roundtrip_matches_in_process_bytes() {
        let inproc = Link::in_process(Arc::new(Fixed), PacketModel::default(), 1.0);
        inproc.request(&Request::Count(w()));
        inproc.request(&Request::Window(w()));

        let (reactor, endpoint) = own_reactor("test");
        let remote = Link::new(Box::new(endpoint.connect()), PacketModel::default(), 1.0);
        remote.request(&Request::Count(w()));
        remote.request(&Request::Window(w()));

        assert_eq!(
            inproc.meter().snapshot(),
            remote.meter().snapshot(),
            "carrier must not change accounting"
        );
        drop(remote);
        assert_eq!(reactor.shutdown(), 2);
    }

    #[test]
    fn begin_overlaps_requests_on_the_channel_carrier() {
        // Ship two requests split-phase before collecting either reply:
        // the server thread drains both; the completions then yield the
        // replies in issue order.
        let (reactor, endpoint) = own_reactor("split-phase");
        let ex = endpoint.connect();
        let first = ex.begin(crate::codec::encode_request(&Request::Count(w())));
        let second = ex.begin(crate::codec::encode_request(&Request::Window(w())));
        let r1 = crate::codec::decode_response(first()).unwrap();
        let r2 = crate::codec::decode_response(second()).unwrap();
        assert_eq!(r1.into_count(), 7);
        assert_eq!(r2.into_objects().len(), 2);
        drop(ex);
        assert_eq!(reactor.shutdown(), 2);
    }

    #[test]
    fn tariff_scales_cost() {
        let link = Link::in_process(Arc::new(Fixed), PacketModel::default(), 2.5);
        link.request(&Request::Count(w()));
        let s = link.meter().snapshot();
        assert_eq!(link.cost(), 2.5 * s.total_bytes() as f64);
    }

    #[test]
    fn refused_for_unknown() {
        let link = Link::in_process(Arc::new(Fixed), PacketModel::default(), 1.0);
        let r = link.request(&Request::CoopLevelMbrs(0));
        assert_eq!(r, Response::Refused);
    }

    #[test]
    fn garbled_frame_gets_typed_error_and_server_keeps_serving() {
        let (reactor, endpoint) = own_reactor("garbled");
        let ex = endpoint.connect();
        // An unknown opcode and a truncated frame both answer R_MALFORMED
        // instead of killing the shared thread.
        for garbage in [
            Bytes::copy_from_slice(&[0xFF, 0x01]),
            Bytes::from_static(&[]),
        ] {
            let reply = ex.exchange(garbage);
            assert_eq!(
                crate::codec::decode_response(reply).unwrap(),
                Response::Malformed
            );
        }
        // The same thread still serves healthy traffic afterwards.
        let link = Link::new(Box::new(endpoint.connect()), PacketModel::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        drop(link);
        drop(ex);
        // Garbled frames are not counted as served queries.
        assert_eq!(reactor.shutdown(), 1);
    }

    #[test]
    fn in_process_garbled_frame_degrades_identically() {
        let ex = InProcExchange::new(Arc::new(Fixed));
        let reply = ex.exchange(Bytes::copy_from_slice(&[0xFF]));
        assert_eq!(
            crate::codec::decode_response(reply).unwrap(),
            Response::Malformed
        );
    }

    #[test]
    fn dropping_server_before_handles_does_not_hang() {
        let (reactor, endpoint) = own_reactor("drop-first");
        let ex = endpoint.connect();
        // The endpoint and a connection are still alive: dropping the
        // server must not wait for them (the shutdown sentinel).
        drop(reactor);
        // The surviving client degrades instead of panicking.
        let link = Link::new(Box::new(ex), PacketModel::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        drop(endpoint);
    }

    #[test]
    fn client_outliving_server_sees_unavailable_not_panic() {
        let (reactor, endpoint) = own_reactor("short-lived");
        let link = Link::new(Box::new(endpoint.connect()), PacketModel::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        drop(reactor);
        drop(endpoint);
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        assert_eq!(link.request(&Request::Window(w())), Response::Unavailable);
    }

    /// Fails the first `fails` exchanges with the fabricated unavailable
    /// frame, then forwards to an in-process server.
    struct Flaky {
        fails: AtomicU64,
        inner: InProcExchange<Fixed>,
    }

    impl Flaky {
        fn failing(n: u64) -> Self {
            Flaky {
                fails: AtomicU64::new(n),
                inner: InProcExchange::new(Arc::new(Fixed)),
            }
        }
    }

    impl RawExchange for Flaky {
        fn exchange(&self, request: Bytes) -> Bytes {
            let left = self.fails.load(Ordering::SeqCst);
            if left > 0 {
                self.fails.store(left - 1, Ordering::SeqCst);
                return crate::codec::unavailable_frame();
            }
            self.inner.exchange(request)
        }
    }

    #[test]
    fn retry_recovers_from_transient_unavailability() {
        let link = Link::new(Box::new(Flaky::failing(2)), PacketModel::default(), 1.0)
            .with_retry(RetryPolicy::attempts(3));
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        let s = link.meter().snapshot();
        assert_eq!(s.retried, 2);
        assert_eq!(s.abandoned, 0);
        // Failed attempts never touched the wire: the meter shows exactly
        // one clean exchange.
        let clean = Link::in_process(Arc::new(Fixed), PacketModel::default(), 1.0);
        clean.request(&Request::Count(w()));
        let c = clean.meter().snapshot();
        assert_eq!(s.up_bytes, c.up_bytes);
        assert_eq!(s.down_bytes, c.down_bytes);
        assert_eq!(s.count_queries, c.count_queries);
    }

    #[test]
    fn exhausted_retries_surface_typed_unavailable_and_abandon() {
        let link = Link::new(Box::new(Flaky::failing(10)), PacketModel::default(), 1.0)
            .with_retry(RetryPolicy::attempts(3));
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        let s = link.meter().snapshot();
        assert_eq!(s.retried, 2);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.total_bytes(), 0, "no attempt completed, nothing metered");
    }

    #[test]
    fn garbled_reply_is_retried_and_both_attempts_metered() {
        /// Garbles the first reply; every frame still crosses the wire.
        struct GarbleOnce {
            garbled: AtomicU64,
            inner: InProcExchange<Fixed>,
        }
        impl RawExchange for GarbleOnce {
            fn exchange(&self, request: Bytes) -> Bytes {
                let reply = self.inner.exchange(request);
                if self.garbled.fetch_add(1, Ordering::SeqCst) == 0 {
                    crate::codec::garble_frame(&reply)
                } else {
                    reply
                }
            }
        }
        let link = Link::new(
            Box::new(GarbleOnce {
                garbled: AtomicU64::new(0),
                inner: InProcExchange::new(Arc::new(Fixed)),
            }),
            PacketModel::default(),
            1.0,
        )
        .with_retry(RetryPolicy::attempts(2));
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        let s = link.meter().snapshot();
        assert_eq!(s.retried, 1);
        assert_eq!(s.abandoned, 0);
        // Both attempts were real traffic (the garbled reply crossed the
        // wire too), so both are charged — and the garble preserves frame
        // length, so the two downlink charges are equal.
        assert_eq!(s.up_bytes, 2 * PacketModel::default().tb(17));
        assert_eq!(s.down_bytes, 2 * PacketModel::default().tb(9));
    }

    #[test]
    fn update_retries_carry_the_identical_dedup_envelope() {
        /// Records every request frame; fails the first exchange.
        struct Capture {
            seen: Arc<std::sync::Mutex<Vec<Bytes>>>,
            flaky: Flaky,
        }
        impl RawExchange for Capture {
            fn exchange(&self, request: Bytes) -> Bytes {
                self.seen.lock().unwrap().push(request.clone());
                self.flaky.exchange(request)
            }
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let carrier = Box::new(Capture {
            seen: Arc::clone(&seen),
            flaky: Flaky::failing(1),
        });
        let link =
            Link::new(carrier, PacketModel::default(), 1.0).with_retry(RetryPolicy::attempts(2));
        // Fixed refuses updates — a typed refusal, which is a final
        // answer, not a retryable failure.
        assert_eq!(
            link.request(&Request::ApplyUpdates(vec![])),
            Response::Refused
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "one failed attempt + one retry");
        for frame in seen.iter() {
            assert_eq!(
                frame[0],
                crate::codec::op::APPLY_UPDATES_SEQ,
                "retried updates ride the dedup envelope"
            );
        }
        assert_eq!(
            seen[0].as_ref(),
            seen[1].as_ref(),
            "every retry carries the identical (nonce, seq) tag"
        );
    }

    #[test]
    fn retry_off_sends_plain_update_frames() {
        let ex = InProcExchange::new(Arc::new(crate::testutil::ScanHandler(vec![])));
        // Without a retry budget no envelope is ever attached: the wire
        // stays byte-identical to the pre-retry protocol.
        let encoded = crate::codec::encode_request(&Request::ApplyUpdates(vec![]));
        assert_ne!(encoded[0], crate::codec::op::APPLY_UPDATES_SEQ);
        // And the server path still answers envelope frames when they do
        // arrive (a retrying client against any server).
        let tagged =
            crate::codec::wrap_dedup(crate::codec::DedupTag { nonce: 9, seq: 0 }, &encoded);
        let reply = ex.exchange(tagged);
        assert_eq!(
            crate::codec::decode_response(reply).unwrap(),
            Response::Refused,
            "ScanHandler refuses updates, tagged or not"
        );
        // An envelope wrapping anything but updates is garbage.
        let bogus = crate::codec::wrap_dedup(
            crate::codec::DedupTag { nonce: 9, seq: 1 },
            &crate::codec::encode_request(&Request::Count(w())),
        );
        assert_eq!(
            crate::codec::decode_response(ex.exchange(bogus)).unwrap(),
            Response::Malformed
        );
    }

    #[test]
    fn failed_exchange_charges_no_meter_bytes() {
        let (reactor, endpoint) = own_reactor("meter-conservation");
        let link = Link::new(Box::new(endpoint.connect()), PacketModel::default(), 1.0);
        link.request(&Request::Count(w()));
        let before = link.meter().snapshot();
        drop(reactor);
        drop(endpoint);
        // Failed exchanges must not move the meter: only completed
        // exchanges count, in both directions.
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        let after = link.meter().snapshot();
        assert_eq!(before.total_bytes(), after.total_bytes());
        assert_eq!(before.up_bytes, after.up_bytes);
        assert_eq!(before.down_bytes, after.down_bytes);
        assert_eq!(before.count_queries, after.count_queries);
    }
}
