//! Client-side semantic statistics/window cache.
//!
//! The paper's premise is that wireless transfer dominates join cost —
//! yet the device keeps re-paying for the same bytes: quadrant recursion
//! re-COUNTs windows an earlier round already priced, a failed HBSJ
//! attempt re-downloads its outer window for the NLSJ fallback, and a
//! session of joins against the same servers repeats whole query streams.
//! Servers serve **generational snapshots**: every response is (implicitly
//! or explicitly) stamped with the generation it was answered from, and
//! the cache keys *both tiers* by `(generation, rectangle)`. Invalidation
//! falls out of the keying — when an update bumps the serving generation,
//! entries from older generations simply stop matching and age out of the
//! LRU budget; no invalidation protocol crosses the wire. Against a
//! frozen (generation-0) server the cache behaves exactly as before:
//! every hit simply deletes a round trip and its wire bytes.
//!
//! [`CacheLayer`] stacks under an ordinary [`Link`](crate::Link) — in front of a flat
//! server *or* a whole [`ShardRouter`] fleet — answering [`Request`]
//! values like the layer below it does, so every join algorithm benefits
//! unchanged. Two tiers:
//!
//! * **Exact statistics tier** — `COUNT` answers keyed by the bit-exact
//!   query rectangle (a total-order `f64::to_bits` key, so `-0.0 ≠ 0.0`
//!   and NaN-free wire rects never alias). A `MultiCount` batch is
//!   resolved *per entry*: windows with cached counts are answered
//!   locally, only the misses ship (in one sub-batch), and the answers
//!   are spliced back in probe order.
//! * **Semantic window tier** — a byte-budgeted LRU of downloaded
//!   windows. A `WINDOW` (or ε-RANGE) request whose reach is contained in
//!   a cached window is answered locally by filtering; the containment
//!   index also derives `COUNT` answers for covered windows.
//!
//! # Containment invariant
//!
//! For any query window `w` contained in a cached window `W`, every
//! object the server would return for `w` intersects `w ⊆ W`, hence was
//! in the `W` download; filtering the cached objects with the *server's
//! own predicate* (`intersects` for `WINDOW`/`COUNT`, `within_distance`
//! for ε-RANGE — whose reach `q.expand(eps)` bounds the qualifying MBRs)
//! therefore reproduces the server's answer exactly, as a set. All checks
//! run on the request's *wire form* ([`crate::codec::wire_form`]: every
//! rectangle and ε snapped through `f32` exactly as the server decodes
//! them, applied once where a request enters the stack) — the very
//! rectangle the server would evaluate — so float rounding can never make
//! a local answer diverge from a remote one.
//!
//! # Eviction invariant
//!
//! Eviction only ever *forgets*: the LRU drops whole window entries until
//! the tier fits its byte budget, never mutating a retained entry, so a
//! hit is always served from a complete, verbatim server download.
//! Admission keeps the index canonical: a window covered by an existing
//! entry is not admitted (it is derivable), and admitting a window drops
//! any cached entries it covers. Exact statistics entries are ~40 bytes
//! each and invalidation-free; their tier is capped at the same byte
//! scale as the window budget, replacing an arbitrary entry at the cap
//! (forgetting a count is always safe — it just re-pays one `Taq`).
//!
//! # Accounting
//!
//! The cache never touches bytes. Every request it cannot answer goes to
//! the layer below — the server's physical edge, or a router's shard
//! edges — and those edges charge exactly the exchanges that cross the
//! wire; the fronting link exposes their meter. Locally answered
//! requests touch no meter — they are not messages — and are instead
//! tallied in a per-link [`CacheTelemetry`],
//! with saved wire bytes estimated at the logical request's v1 framing.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use asj_geom::{Rect, SpatialObject};

use crate::codec::{
    request_wire_bytes, response_wire_bytes, GEN_STAMP_BYTES, OBJECTS_HEADER_BYTES, OBJ_BYTES,
};
use crate::edge::Edge;
use crate::meter::{CacheSnapshot, CacheTelemetry, LinkMeter};
use crate::packet::{PacketModel, RetryPolicy};
use crate::proto::{Request, Response};
use crate::router::ShardRouter;
use crate::transport::{RawExchange, Stack};

/// Client-cache knob of a deployment's network configuration. Off by
/// default: with `enabled = false` no [`CacheLayer`] is constructed at
/// all, so wire traffic is byte-identical to a build without the
/// extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Construct a [`CacheLayer`] in front of every server/fleet.
    pub enabled: bool,
    /// Byte budget of the window tier's LRU (wire-format bytes).
    pub window_budget_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            window_budget_bytes: 256 * 1024,
        }
    }
}

/// Bit-exact total-order key of a query rectangle. `Ord` so victim
/// selection can break ties deterministically (std `HashMap` iteration
/// order is process-random).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct RectKey([u64; 4]);

impl RectKey {
    fn of(r: &Rect) -> Self {
        RectKey([
            r.min.x.to_bits(),
            r.min.y.to_bits(),
            r.max.x.to_bits(),
            r.max.y.to_bits(),
        ])
    }
}

/// One cached window download, pinned to the generation it was served
/// from: a lookup at any other generation never matches it.
struct WindowEntry {
    window: Rect,
    generation: u64,
    objects: Vec<SpatialObject>,
    /// Wire-format size charged against the budget.
    bytes: u64,
    /// LRU recency tick (bumped on every hit).
    last_used: u64,
}

/// Stats-tier key: the serving generation plus the bit-exact rectangle.
type CountKey = (u64, RectKey);

#[derive(Default)]
struct CacheState {
    counts: HashMap<CountKey, u64>,
    /// Insertion order of `counts` keys — the deterministic FIFO victim
    /// queue of the stats tier (std `HashMap` iteration order is
    /// process-randomized, which would break the repo's bit-identical
    /// pinned-seed reproducibility once the cap is hit).
    count_order: VecDeque<CountKey>,
    windows: Vec<WindowEntry>,
    tick: u64,
}

/// The shared cache store behind one logical server (or fleet).
///
/// One `ClientCache` is created per *side* of a deployment and shared by
/// every link the deployment hands out, so a session of joins against the
/// same immutable servers reuses earlier downloads across joins. All
/// methods are `&self` (internally locked): concurrent device threads may
/// share one cache.
pub struct ClientCache {
    state: Mutex<CacheState>,
    window_budget: u64,
    /// Entry cap of the exact statistics tier, derived from the window
    /// budget (an exact entry is ~40 bytes of device memory): the device
    /// the system models is memory-constrained, and a long-lived session
    /// store must not grow without bound.
    stats_cap: usize,
    resident_bytes: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    /// Highest serving generation observed from the server(s) behind this
    /// cache. Lookups only match entries at this generation.
    current_generation: AtomicU64,
}

impl ClientCache {
    /// An empty cache with the given window-tier byte budget. The exact
    /// statistics tier is capped at roughly the same byte scale
    /// (`budget / 40` entries, at least 256).
    pub fn new(window_budget_bytes: u64) -> Self {
        ClientCache {
            state: Mutex::new(CacheState::default()),
            window_budget: window_budget_bytes,
            stats_cap: ((window_budget_bytes / 40) as usize).max(256),
            resident_bytes: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            current_generation: AtomicU64::new(0),
        }
    }

    /// The highest serving generation observed so far (0 until the
    /// servers go live — frozen responses carry no stamp).
    pub fn generation(&self) -> u64 {
        self.current_generation.load(Ordering::Acquire)
    }

    /// Records an observed serving generation (monotone max). Entries
    /// keyed at older generations stop matching from here on and age out
    /// of the LRU budget; nothing is actively purged.
    pub fn note_generation(&self, generation: u64) {
        self.current_generation
            .fetch_max(generation, Ordering::AcqRel);
    }

    /// Looks up `COUNT(w)` at `generation`: the exact statistics tier
    /// first (bit-exact key — a poisoned exact entry *must* win over
    /// derivation, which the non-vacuity test relies on), then derivation
    /// from any cached same-generation window containing `w`.
    pub fn count(&self, w: &Rect, generation: u64) -> Option<u64> {
        let mut state = self.state.lock().expect("cache poisoned");
        if let Some(&c) = state.counts.get(&(generation, RectKey::of(w))) {
            return Some(c);
        }
        let i = state
            .windows
            .iter()
            .position(|e| e.generation == generation && e.window.contains_rect(w))?;
        let c = state.windows[i]
            .objects
            .iter()
            .filter(|o| o.mbr.intersects(w))
            .count() as u64;
        state.tick += 1;
        let tick = state.tick;
        state.windows[i].last_used = tick;
        Some(c)
    }

    /// Records an authoritative `COUNT(w)` answer. At the tier's entry
    /// cap the *oldest* entry is replaced — deterministic FIFO, so
    /// pinned-seed runs stay bit-identical — which is correctness-safe:
    /// forgetting a count only re-pays one `Taq`. A long-lived session
    /// store therefore stays bounded.
    pub fn observe_count(&self, w: &Rect, count: u64, generation: u64) {
        let mut state = self.state.lock().expect("cache poisoned");
        let key = (generation, RectKey::of(w));
        if let Some(resident) = state.counts.get_mut(&key) {
            *resident = count;
            return;
        }
        if state.counts.len() >= self.stats_cap {
            let victim = state
                .count_order
                .pop_front()
                .expect("cap reached with an empty order queue");
            state.counts.remove(&victim);
        }
        state.counts.insert(key, count);
        state.count_order.push_back(key);
    }

    /// Looks up `WINDOW(w)` at `generation` via containment: filtered
    /// objects of a cached same-generation window containing `w`.
    pub fn window(&self, w: &Rect, generation: u64) -> Option<Vec<SpatialObject>> {
        self.filter_contained(w, generation, |o| o.mbr.intersects(w))
    }

    /// Looks up `ε-RANGE(q, eps)` at `generation` via containment: a
    /// qualifying object's MBR is within `eps` of `q` and therefore
    /// intersects `q.expand(eps)`; any cached same-generation window
    /// containing that reach holds every answer.
    pub fn eps_range(&self, q: &Rect, eps: f64, generation: u64) -> Option<Vec<SpatialObject>> {
        let reach = q.expand(eps);
        self.filter_contained(&reach, generation, |o| o.mbr.within_distance(q, eps))
    }

    fn filter_contained(
        &self,
        reach: &Rect,
        generation: u64,
        keep: impl Fn(&SpatialObject) -> bool,
    ) -> Option<Vec<SpatialObject>> {
        let mut state = self.state.lock().expect("cache poisoned");
        let i = state
            .windows
            .iter()
            .position(|e| e.generation == generation && e.window.contains_rect(reach))?;
        let out = state.windows[i]
            .objects
            .iter()
            .filter(|o| keep(o))
            .copied()
            .collect();
        state.tick += 1;
        let tick = state.tick;
        state.windows[i].last_used = tick;
        Some(out)
    }

    /// Admits a `WINDOW(w)` download served at `generation`, evicting
    /// least-recently-used entries until the byte budget holds. Skipped
    /// when the window is already derivable from a same-generation entry
    /// or alone exceeds the budget; same-generation entries covered by
    /// `w` are dropped (they become derivable). Entries from *other*
    /// generations are left alone — they are unreachable for lookups at
    /// the current generation and age out through the LRU budget.
    pub fn admit_window(&self, w: &Rect, objects: &[SpatialObject], generation: u64) {
        let bytes = OBJECTS_HEADER_BYTES + objects.len() as u64 * OBJ_BYTES;
        if bytes > self.window_budget {
            return;
        }
        let mut state = self.state.lock().expect("cache poisoned");
        if state
            .windows
            .iter()
            .any(|e| e.generation == generation && e.window.contains_rect(w))
        {
            return;
        }
        let mut freed = 0u64;
        state.windows.retain(|e| {
            let covered = e.generation == generation && w.contains_rect(&e.window);
            if covered {
                freed += e.bytes;
            }
            !covered
        });
        let mut resident = self.resident_bytes.load(Ordering::Relaxed) - freed;
        while resident + bytes > self.window_budget {
            let (i, _) = state
                .windows
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("budget overflow with no entries");
            resident -= state.windows.remove(i).bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state.tick += 1;
        let entry = WindowEntry {
            window: *w,
            generation,
            objects: objects.to_vec(),
            bytes,
            last_used: state.tick,
        };
        state.windows.push(entry);
        self.resident_bytes
            .store(resident + bytes, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes currently resident in the window tier.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Number of cached window entries.
    pub fn cached_windows(&self) -> usize {
        self.state.lock().expect("cache poisoned").windows.len()
    }

    /// Number of exact statistics entries.
    pub fn cached_counts(&self) -> usize {
        self.state.lock().expect("cache poisoned").counts.len()
    }

    /// Test instrument: flips the largest cached exact count to a wrong
    /// value (0, or 1 if it was already 0) and returns `true` when an
    /// entry existed. The differential suites use this to prove they are
    /// non-vacuous — a single corrupted cached statistic must be caught
    /// by the result oracle. Compiled only for this crate's own tests and
    /// for downstream suites that opt in via the `testing` feature: a
    /// production build carries no cache-corruption entry point.
    #[cfg(any(test, feature = "testing"))]
    pub fn poison_one_count(&self) -> bool {
        let mut state = self.state.lock().expect("cache poisoned");
        // Ties broken by key so the victim is deterministic across
        // processes (HashMap iteration order is randomly seeded).
        match state.counts.iter_mut().max_by_key(|(k, c)| (**c, **k)) {
            Some((_, c)) => {
                *c = if *c == 0 { 1 } else { 0 };
                true
            }
            None => false,
        }
    }

    fn gauges(&self) -> (u64, u64, u64) {
        (
            self.insertions.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.resident_bytes.load(Ordering::Relaxed),
        )
    }
}

/// One link's view of its cache: the per-link telemetry plus the
/// (possibly session-shared) store. Snapshot at will.
#[derive(Clone)]
pub struct CacheView {
    cache: Arc<ClientCache>,
    telemetry: Arc<CacheTelemetry>,
}

impl CacheView {
    /// Point-in-time copy: this link's hit/miss/saved counters plus the
    /// shared store's resident gauges.
    pub fn snapshot(&self) -> CacheSnapshot {
        let (
            stats_hits,
            stats_misses,
            window_hits,
            window_misses,
            probe_hits,
            probe_misses,
            bytes_saved,
        ) = self.telemetry.counters();
        let (insertions, evictions, resident_bytes) = self.cache.gauges();
        CacheSnapshot {
            stats_hits,
            stats_misses,
            window_hits,
            window_misses,
            probe_hits,
            probe_misses,
            bytes_saved,
            insertions,
            evictions,
            resident_bytes,
        }
    }

    /// The shared store (for session inspection and test poisoning).
    pub fn store(&self) -> &Arc<ClientCache> {
        &self.cache
    }
}

/// The caching layer. See the module docs for tiers and invariants.
pub struct CacheLayer {
    /// A direct edge to one server, or a fleet router.
    inner: Stack,
    view: CacheView,
}

impl CacheLayer {
    /// A cache in front of one server's carrier: the layer owns the
    /// physical edge, metered into a fresh link meter.
    pub fn new(inner: Box<dyn RawExchange>, packet: PacketModel, cache: Arc<ClientCache>) -> Self {
        CacheLayer::over(Stack::Edge(Edge::direct(inner, packet)), cache)
    }

    /// A cache stacked over a whole shard fleet: forwarded requests
    /// scatter as usual over the router's shard edges; the fronting link
    /// adopts the router's aggregate meter and fleet telemetry unchanged.
    pub fn over_router(router: ShardRouter, cache: Arc<ClientCache>) -> Self {
        CacheLayer::over(Stack::Fleet(router), cache)
    }

    fn over(inner: Stack, cache: Arc<ClientCache>) -> Self {
        CacheLayer {
            inner,
            view: CacheView {
                cache,
                telemetry: Arc::new(CacheTelemetry::new()),
            },
        }
    }

    /// Enables retry/backoff on the physical edges below (the server's,
    /// or every shard edge of a fleet). Retries live only at edges, so
    /// a cache never re-delivers on top of them.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.set_retry(retry);
        self
    }

    pub(crate) fn set_retry(&mut self, retry: RetryPolicy) {
        self.inner.set_retry(retry);
    }

    /// Negotiates wire protocol v2 on the physical edges below (one
    /// `HELLO`/`ACCEPT` round trip per carrier, 4 unmetered link-control
    /// bytes); [`Link::negotiate`](crate::Link::negotiate) reaches it,
    /// and deployments call that only when `NetConfig::wire_v2` is on. A
    /// peer that never `ACCEPT`s leaves its edge at v1. The cache itself is version-agnostic: it admits and
    /// serves *decoded* objects, so a window downloaded over v2 answers
    /// later lookups whatever their framing.
    pub fn negotiate_v2(&mut self) {
        self.inner.negotiate();
    }

    /// The meter the fronting [`Link`](crate::Link) should expose.
    pub fn meter(&self) -> &Arc<LinkMeter> {
        self.inner.meter()
    }

    /// Per-shard telemetry when the inner layer is a fleet router.
    pub fn fleet(&self) -> Option<&Arc<crate::router::ShardTelemetry>> {
        self.inner.fleet()
    }

    /// The packet model forwarded exchanges are metered under.
    pub fn packet(&self) -> PacketModel {
        self.inner.packet()
    }

    /// This layer's cache view (telemetry + shared store).
    pub fn view(&self) -> &CacheView {
        &self.view
    }

    /// Answers one request (in wire form): cacheable lookups from the
    /// tiers when they can, everything else from the layer below.
    pub(crate) fn call(&self, req: &Request) -> (Response, u64) {
        match req {
            Request::Count(w) => self.count(req, w),
            Request::MultiCount(windows) => self.multi_count(req, windows),
            Request::Window(w) => self.window(req, w),
            Request::EpsRange { q, eps } => self.eps_range(req, q, *eps),
            // Updates always ship (the cache never absorbs a write); the
            // `Ack` carries the new serving generation, which `forward`
            // notes *before* the next lookup so stale entries stop
            // matching immediately.
            _ => self.forward(req),
        }
    }

    /// Asks the layer below and notes the serving generation the answer
    /// carries (an `Ack`'s own, or the reply's stamp) into the shared
    /// store, so older generations stop matching.
    fn forward(&self, req: &Request) -> (Response, u64) {
        let (resp, generation) = self.inner.call(req);
        self.view.cache.note_generation(match &resp {
            Response::Ack { generation: acked } => *acked,
            _ => generation,
        });
        (resp, generation)
    }

    /// A locally answered request at `generation`: tallies the wire
    /// bytes (both directions, packetized) the round trip would have
    /// cost, priced at the logical v1 framing, stamp included.
    fn local(&self, req: &Request, resp: Response, generation: u64) -> (Response, u64) {
        let packet = self.packet();
        self.view.telemetry.record_saved(
            packet.tb(request_wire_bytes(req)) + packet.tb(reply_bytes(&resp, generation)),
        );
        (resp, generation)
    }

    fn count(&self, req: &Request, w: &Rect) -> (Response, u64) {
        let cache = &self.view.cache;
        let generation = cache.generation();
        if let Some(c) = cache.count(w, generation) {
            self.view.telemetry.record_stats(1, 0);
            return self.local(req, Response::Count(c), generation);
        }
        self.view.telemetry.record_stats(0, 1);
        let (resp, generation) = self.forward(req);
        if let Response::Count(c) = resp {
            cache.observe_count(w, c, generation);
        }
        (resp, generation)
    }

    fn multi_count(&self, req: &Request, windows: &[Rect]) -> (Response, u64) {
        let cache = &self.view.cache;
        let generation = cache.generation();
        let answers: Vec<Option<u64>> =
            windows.iter().map(|w| cache.count(w, generation)).collect();
        let miss_idx: Vec<usize> = (0..windows.len())
            .filter(|&i| answers[i].is_none())
            .collect();
        self.view.telemetry.record_stats(
            (windows.len() - miss_idx.len()) as u64,
            miss_idx.len() as u64,
        );
        // Ships the whole batch and records every count it answers.
        let full_batch = || {
            let (resp, generation) = self.forward(req);
            if let Response::Counts(counts) = &resp {
                if counts.len() == windows.len() {
                    for (w, &c) in windows.iter().zip(counts) {
                        cache.observe_count(w, c, generation);
                    }
                }
            }
            (resp, generation)
        };
        if miss_idx.is_empty() {
            // Every entry answered locally: the whole round trip vanishes.
            let counts = answers.into_iter().map(|c| c.expect("all hits")).collect();
            return self.local(req, Response::Counts(counts), generation);
        }
        if miss_idx.len() == windows.len() {
            return full_batch();
        }
        // Partial hit: ship only the misses, splice the answers back in
        // probe order.
        let sub = Request::MultiCount(miss_idx.iter().map(|&i| windows[i]).collect());
        let (sub_resp, fresh_generation) = self.forward(&sub);
        if fresh_generation != generation {
            // The servers advanced between our local answers and the
            // sub-batch reply: the splice would mix generations. Re-ask
            // the full batch at the new generation — correctness first;
            // this only costs bytes when an update races the query.
            return full_batch();
        }
        let fresh = match &sub_resp {
            Response::Counts(cs) if cs.len() == miss_idx.len() => cs,
            // A failed sub-exchange surfaces typed — the locally answered
            // entries are discarded rather than spliced against an error,
            // and nothing from this reply is admitted to the cache.
            Response::Refused | Response::Unavailable => return (sub_resp, 0),
            _ => return (Response::Malformed, 0),
        };
        let mut counts: Vec<u64> = answers.into_iter().map(|c| c.unwrap_or(0)).collect();
        for (&i, &c) in miss_idx.iter().zip(fresh) {
            counts[i] = c;
            cache.observe_count(&windows[i], c, generation);
        }
        let resp = Response::Counts(counts);
        // Saved: the framing and entries the sub-batch did not carry.
        let packet = self.packet();
        let saved_up = packet.tb(request_wire_bytes(req)) - packet.tb(request_wire_bytes(&sub));
        let saved_down = packet.tb(reply_bytes(&resp, generation))
            - packet.tb(reply_bytes(&sub_resp, generation));
        self.view.telemetry.record_saved(saved_up + saved_down);
        (resp, generation)
    }

    fn window(&self, req: &Request, w: &Rect) -> (Response, u64) {
        let cache = &self.view.cache;
        let generation = cache.generation();
        if let Some(objects) = cache.window(w, generation) {
            self.view.telemetry.record_window(true);
            return self.local(req, Response::Objects(objects), generation);
        }
        self.view.telemetry.record_window(false);
        let (resp, generation) = self.forward(req);
        if let Response::Objects(objects) = &resp {
            cache.admit_window(w, objects, generation);
        }
        (resp, generation)
    }

    fn eps_range(&self, req: &Request, q: &Rect, eps: f64) -> (Response, u64) {
        let generation = self.view.cache.generation();
        if let Some(objects) = self.view.cache.eps_range(q, eps, generation) {
            self.view.telemetry.record_probe(true);
            return self.local(req, Response::Objects(objects), generation);
        }
        self.view.telemetry.record_probe(false);
        self.forward(req)
    }
}

/// Payload bytes of `resp` in the v1 framing, stamped at `generation`
/// (generation 0 carries no stamp).
fn reply_bytes(resp: &Response, generation: u64) -> u64 {
    let stamp = if generation > 0 { GEN_STAMP_BYTES } else { 0 };
    stamp + response_wire_bytes(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{
        decode_request, encode_request, encode_response, encode_response_into, stamp_generation,
    };
    use crate::router::ShardEndpoint;
    use crate::testutil::ScanHandler as Scan;
    use crate::transport::{InProcExchange, Link};
    use bytes::{Bytes, BytesMut};

    fn lattice(n: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| SpatialObject::point(i, (i % n) as f64, (i / n) as f64))
            .collect()
    }

    fn cached_link(objects: Vec<SpatialObject>, budget: u64) -> Link {
        let layer = CacheLayer::new(
            Box::new(InProcExchange::new(Arc::new(Scan(objects)))),
            PacketModel::default(),
            Arc::new(ClientCache::new(budget)),
        );
        Link::cached(layer, 1.0)
    }

    fn plain_link(objects: Vec<SpatialObject>) -> Link {
        Link::in_process(Arc::new(Scan(objects)), PacketModel::default(), 1.0)
    }

    fn w(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn generation_bump_makes_old_entries_unreachable() {
        let store = Arc::new(ClientCache::new(1 << 20));
        let objs = lattice(4);
        let big = w(0.0, 0.0, 4.0, 4.0);
        store.admit_window(&big, &objs, 0);
        store.observe_count(&big, 16, 0);
        assert_eq!(store.count(&big, 0), Some(16));
        assert!(store.window(&w(1.0, 1.0, 2.0, 2.0), 0).is_some());
        // The servers advance: generation-0 entries stop matching.
        store.note_generation(3);
        assert_eq!(store.generation(), 3);
        assert_eq!(store.count(&big, 3), None, "stale count must not serve");
        assert!(store.window(&w(1.0, 1.0, 2.0, 2.0), 3).is_none());
        assert!(store.eps_range(&w(1.0, 1.0, 1.0, 1.0), 0.5, 3).is_none());
        // Same rect at the new generation is a distinct entry.
        store.observe_count(&big, 15, 3);
        assert_eq!(store.count(&big, 3), Some(15));
        assert_eq!(store.count(&big, 0), Some(16), "old key still intact");
        // note_generation is monotone: a late gen-1 stamp cannot regress.
        store.note_generation(1);
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn layer_switches_generations_on_an_ack() {
        // A server double that serves gen 0 until it sees ApplyUpdates,
        // then serves a changed dataset stamped gen 1.
        struct Flip {
            objects: Mutex<Vec<SpatialObject>>,
            generation: AtomicU64,
        }
        impl RawExchange for Flip {
            fn exchange(&self, raw: Bytes) -> Bytes {
                let req = decode_request(raw).expect("malformed request");
                let generation = self.generation.load(Ordering::SeqCst);
                let resp = match req {
                    Request::ApplyUpdates(batch) => {
                        let mut objs = self.objects.lock().unwrap();
                        for u in &batch {
                            match u {
                                crate::proto::Update::Delete(id) => objs.retain(|o| o.id != *id),
                                crate::proto::Update::Insert(o) => objs.push(*o),
                                crate::proto::Update::Move { id, to } => {
                                    objs.retain(|o| o.id != *id);
                                    objs.push(SpatialObject::new(*id, *to));
                                }
                            }
                        }
                        let g = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
                        return encode_response(&Response::Ack { generation: g });
                    }
                    Request::Count(w) => Response::Count(
                        self.objects
                            .lock()
                            .unwrap()
                            .iter()
                            .filter(|o| o.mbr.intersects(&w))
                            .count() as u64,
                    ),
                    Request::Window(w) => Response::Objects(
                        self.objects
                            .lock()
                            .unwrap()
                            .iter()
                            .filter(|o| o.mbr.intersects(&w))
                            .copied()
                            .collect(),
                    ),
                    _ => Response::Refused,
                };
                let mut buf = BytesMut::new();
                stamp_generation(generation, &mut buf);
                encode_response_into(&resp, &mut buf);
                buf.freeze()
            }
        }
        let server = Arc::new(Flip {
            objects: Mutex::new(lattice(4)),
            generation: AtomicU64::new(0),
        });
        struct Shared(Arc<Flip>);
        impl RawExchange for Shared {
            fn exchange(&self, raw: Bytes) -> Bytes {
                self.0.exchange(raw)
            }
        }
        let link = Link::cached(
            CacheLayer::new(
                Box::new(Shared(Arc::clone(&server))),
                PacketModel::default(),
                Arc::new(ClientCache::new(1 << 20)),
            ),
            1.0,
        );
        let big = w(0.0, 0.0, 4.0, 4.0);
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16);
        assert_eq!(link.request(&Request::Count(big)).into_count(), 16, "hit");
        assert_eq!(link.cache().unwrap().snapshot().stats_hits, 1);
        // Delete one object through the cache layer: the Ack bumps the
        // cache's generation, so the primed count must NOT be served.
        let ack = link.request(&Request::ApplyUpdates(vec![crate::proto::Update::Delete(
            0,
        )]));
        assert_eq!(ack, Response::Ack { generation: 1 });
        assert_eq!(link.last_generation(), 1);
        assert_eq!(
            link.request(&Request::Count(big)).into_count(),
            15,
            "a stale cached count must never be served after the bump"
        );
        // And the fresh gen-1 entry is hot again.
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(big)).into_count(), 15);
        assert_eq!(link.meter().snapshot(), before);
    }

    #[test]
    fn repeated_count_is_free_and_identical() {
        let cached = cached_link(lattice(10), 1 << 20);
        let plain = plain_link(lattice(10));
        let q = w(0.0, 0.0, 3.0, 3.0);
        assert_eq!(
            cached.request(&Request::Count(q)).into_count(),
            plain.request(&Request::Count(q)).into_count()
        );
        let before = cached.meter().snapshot();
        assert_eq!(cached.request(&Request::Count(q)).into_count(), 16);
        assert_eq!(
            cached.meter().snapshot(),
            before,
            "a stats hit must not touch the wire"
        );
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!((snap.stats_hits, snap.stats_misses), (1, 1));
        assert!(snap.bytes_saved > 0);
    }

    #[test]
    fn multi_count_partial_hit_ships_only_the_misses() {
        let cached = cached_link(lattice(10), 1 << 20);
        let a = w(0.0, 0.0, 2.0, 2.0);
        let b = w(5.0, 5.0, 9.0, 9.0);
        let c = w(20.0, 20.0, 30.0, 30.0);
        cached.request(&Request::Count(a)); // prime a
        let before = cached.meter().snapshot();
        let counts = cached
            .request(&Request::MultiCount(vec![a, b, c]))
            .into_counts();
        assert_eq!(counts, vec![9, 25, 0]);
        let delta = cached.meter().snapshot().since(&before);
        // The sub-batch carried exactly the two missing windows.
        let sub = encode_request(&Request::MultiCount(vec![b, c]));
        assert_eq!(delta.up_bytes, PacketModel::default().tb(sub.len() as u64));
        assert_eq!(delta.count_queries, 1);
        // A repeat is now fully local.
        let before = cached.meter().snapshot();
        let again = cached
            .request(&Request::MultiCount(vec![a, b, c]))
            .into_counts();
        assert_eq!(again, vec![9, 25, 0]);
        assert_eq!(cached.meter().snapshot(), before);
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!(snap.stats_hits, 1 + 3);
        assert_eq!(snap.stats_misses, 1 + 2);
    }

    #[test]
    fn contained_window_count_and_eps_range_answered_locally() {
        let cached = cached_link(lattice(10), 1 << 20);
        let plain = plain_link(lattice(10));
        let big = w(0.0, 0.0, 6.0, 6.0);
        let small = w(1.0, 1.0, 3.0, 3.0);
        assert_eq!(
            cached.request(&Request::Window(big)).into_objects(),
            plain.request(&Request::Window(big)).into_objects()
        );
        let before = cached.meter().snapshot();
        // Contained WINDOW, derived COUNT, contained ε-RANGE: all local.
        assert_eq!(
            cached.request(&Request::Window(small)).into_objects(),
            plain.request(&Request::Window(small)).into_objects()
        );
        assert_eq!(
            cached.request(&Request::Count(small)).into_count(),
            plain.request(&Request::Count(small)).into_count()
        );
        let q = Rect::point(asj_geom::Point::new(3.0, 3.0));
        assert_eq!(
            cached
                .request(&Request::EpsRange { q, eps: 1.5 })
                .into_objects(),
            plain
                .request(&Request::EpsRange { q, eps: 1.5 })
                .into_objects()
        );
        assert_eq!(
            cached.meter().snapshot(),
            before,
            "contained lookups must not touch the wire"
        );
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!(snap.window_hits, 1); // Window(small)
        assert_eq!(snap.probe_hits, 1); // EpsRange, counted apart
        assert_eq!(snap.stats_hits, 1); // derived Count(small)
    }

    #[test]
    fn uncontained_eps_range_passes_through() {
        let cached = cached_link(lattice(10), 1 << 20);
        cached.request(&Request::Window(w(0.0, 0.0, 4.0, 4.0)));
        // Reach [1,1]..[5,5] sticks out of the cached window.
        let q = Rect::point(asj_geom::Point::new(3.0, 3.0));
        let before = cached.meter().snapshot();
        let got = cached
            .request(&Request::EpsRange { q, eps: 2.0 })
            .into_objects();
        assert_eq!(got.len(), 13);
        assert!(cached.meter().snapshot().total_bytes() > before.total_bytes());
    }

    #[test]
    fn budget_lru_evicts_and_tracks_residency() {
        // The 100-object window is 5 + 2000 bytes; budget fits one.
        let cached = cached_link(lattice(10), 2200);
        let whole = w(0.0, 0.0, 9.0, 9.0);
        cached.request(&Request::Window(whole));
        let view = cached.cache().unwrap();
        assert_eq!(view.snapshot().resident_bytes, 2005);
        assert_eq!(view.store().cached_windows(), 1);
        // An overlapping (but not nested) window: 81 objects, 1625 bytes.
        // Both together overflow the budget, so the older entry goes.
        let shifted = w(0.5, 0.5, 9.5, 9.5);
        cached.request(&Request::Window(shifted));
        let snap = view.snapshot();
        assert_eq!(snap.resident_bytes, 1625);
        assert_eq!(snap.insertions, 2);
        assert_eq!(snap.evictions, 1);
        // The evicted window is a miss again — eviction only forgets.
        let before = cached.meter().snapshot();
        assert_eq!(
            cached.request(&Request::Window(whole)).into_objects().len(),
            100
        );
        assert!(cached.meter().snapshot().total_bytes() > before.total_bytes());
        let snap = view.snapshot();
        assert_eq!((snap.insertions, snap.evictions), (3, 2));
        assert_eq!(snap.resident_bytes, 2005);
    }

    #[test]
    fn admission_skips_derivable_and_oversized_windows() {
        let store = Arc::new(ClientCache::new(1000));
        let objs = lattice(4);
        store.admit_window(&w(0.0, 0.0, 4.0, 4.0), &objs, 0);
        assert_eq!(store.cached_windows(), 1);
        // Contained window: derivable, not admitted.
        store.admit_window(&w(1.0, 1.0, 2.0, 2.0), &objs[..2], 0);
        assert_eq!(store.cached_windows(), 1);
        // Covering window: admitted, covered entry dropped.
        store.admit_window(&w(-1.0, -1.0, 5.0, 5.0), &objs, 0);
        assert_eq!(store.cached_windows(), 1);
        assert_eq!(store.resident_bytes(), 5 + 16 * 20);
        // Oversized: silently skipped.
        let big = lattice(8);
        store.admit_window(&w(-2.0, -2.0, 9.0, 9.0), &big, 0);
        assert_eq!(store.cached_windows(), 1);
    }

    #[test]
    fn stats_tier_is_bounded_by_the_cap() {
        // Budget 400 → cap max(256, 10) = 256 exact entries.
        let store = Arc::new(ClientCache::new(400));
        for i in 0..1000 {
            store.observe_count(&w(i as f64, 0.0, i as f64 + 1.0, 1.0), i, 0);
        }
        assert_eq!(store.cached_counts(), 256, "cap must hold");
        // Further churn replaces entries one-for-one, never grows.
        let before = store.cached_counts();
        for i in 900..1000 {
            store.observe_count(&w(i as f64, 0.0, i as f64 + 1.0, 1.0), i, 0);
        }
        assert_eq!(store.cached_counts(), before);
        // The latest observation is always resident.
        assert_eq!(store.count(&w(999.0, 0.0, 1000.0, 1.0), 0), Some(999));
    }

    #[test]
    fn poison_flips_the_largest_count() {
        let store = Arc::new(ClientCache::new(1000));
        assert!(!store.poison_one_count(), "nothing to poison yet");
        store.observe_count(&w(0.0, 0.0, 1.0, 1.0), 3, 0);
        store.observe_count(&w(0.0, 0.0, 2.0, 2.0), 9, 0);
        assert!(store.poison_one_count());
        let poisoned = store.count(&w(0.0, 0.0, 2.0, 2.0), 0).unwrap();
        assert_eq!(poisoned, 0, "largest entry flipped to 0");
        assert_eq!(store.count(&w(0.0, 0.0, 1.0, 1.0), 0), Some(3));
    }

    #[test]
    fn non_cached_requests_pass_through_byte_identically() {
        let cached = cached_link(lattice(6), 1 << 20);
        let plain = plain_link(lattice(6));
        for req in [
            Request::AvgArea(w(0.0, 0.0, 3.0, 3.0)),
            Request::BucketEpsRange {
                probes: vec![SpatialObject::point(99, 2.0, 2.0)],
                eps: 1.0,
            },
            Request::CoopLevelMbrs(0),
        ] {
            assert_eq!(cached.request(&req), plain.request(&req));
            // Twice: no caching of these opcodes.
            assert_eq!(cached.request(&req), plain.request(&req));
        }
        assert_eq!(cached.meter().snapshot(), plain.meter().snapshot());
        let snap = cached.cache().unwrap().snapshot();
        assert_eq!(snap.hit_rate(), 0.0);
    }

    #[test]
    fn cache_over_fleet_reuses_router_metering() {
        let left: Vec<SpatialObject> = (0..8)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect();
        let right: Vec<SpatialObject> = (0..8)
            .map(|i| SpatialObject::point(100 + i, 100.0 + i as f64, 0.0))
            .collect();
        let endpoint = |objects: Vec<SpatialObject>| {
            let bounds = Rect::union_of(objects.iter().map(|o| o.mbr));
            ShardEndpoint::new(
                bounds,
                Box::new(InProcExchange::new(Arc::new(Scan(objects)))),
            )
        };
        let router = ShardRouter::new(
            vec![endpoint(left), endpoint(right)],
            PacketModel::default(),
        );
        let layer = CacheLayer::over_router(router, Arc::new(ClientCache::new(1 << 20)));
        let link = Link::cached(layer, 1.0);
        let all = w(-1.0, -1.0, 200.0, 1.0);
        assert_eq!(link.request(&Request::Count(all)).into_count(), 16);
        let fleet = link.fleet().expect("fleet telemetry").snapshot();
        assert_eq!(fleet.scattered, 2, "both shards asked once");
        assert_eq!(
            fleet.summed(),
            link.meter().snapshot(),
            "conservation law holds under the cache"
        );
        // The repeat is a cache hit: no new scatter, meters frozen.
        let before = link.meter().snapshot();
        assert_eq!(link.request(&Request::Count(all)).into_count(), 16);
        assert_eq!(link.meter().snapshot(), before);
        assert_eq!(link.fleet().unwrap().snapshot().scattered, 2);
        assert_eq!(link.cache().unwrap().snapshot().stats_hits, 1);
    }

    #[test]
    fn shared_store_carries_hits_across_links() {
        // Two links (a "session") over one store: the second link's first
        // lookup hits what the first link downloaded.
        let store = Arc::new(ClientCache::new(1 << 20));
        let make = |store: &Arc<ClientCache>| {
            Link::cached(
                CacheLayer::new(
                    Box::new(InProcExchange::new(Arc::new(Scan(lattice(10))))),
                    PacketModel::default(),
                    Arc::clone(store),
                ),
                1.0,
            )
        };
        let first = make(&store);
        first.request(&Request::Window(w(0.0, 0.0, 5.0, 5.0)));
        let second = make(&store);
        let got = second
            .request(&Request::Window(w(1.0, 1.0, 4.0, 4.0)))
            .into_objects();
        assert_eq!(got.len(), 16);
        assert_eq!(second.meter().snapshot().total_bytes(), 0);
        // Telemetry is per link; the store is shared.
        assert_eq!(second.cache().unwrap().snapshot().window_hits, 1);
        assert_eq!(first.cache().unwrap().snapshot().window_hits, 0);
    }

    /// Garbles the first `garble` replies on their way back, then
    /// forwards clean — a lossy edge whose payloads get corrupted.
    struct GarbleReplies {
        garble: AtomicU64,
        inner: Box<dyn RawExchange>,
    }

    impl RawExchange for GarbleReplies {
        fn exchange(&self, raw: Bytes) -> Bytes {
            let reply = self.inner.exchange(raw);
            if self.garble.load(Ordering::SeqCst) > 0 {
                self.garble.fetch_sub(1, Ordering::SeqCst);
                return crate::codec::garble_frame(&reply);
            }
            reply
        }
    }

    fn lossy_cached_link(garble: u64, retry: RetryPolicy, budget: u64) -> Link {
        let layer = CacheLayer::new(
            Box::new(GarbleReplies {
                garble: AtomicU64::new(garble),
                inner: Box::new(InProcExchange::new(Arc::new(Scan(lattice(10))))),
            }),
            PacketModel::default(),
            Arc::new(ClientCache::new(budget)),
        )
        .with_retry(retry);
        Link::cached(layer, 1.0)
    }

    #[test]
    fn garbled_attempt_never_poisons_the_cache() {
        let cached = lossy_cached_link(1, RetryPolicy::attempts(3), 1 << 20);
        let q = w(0.0, 0.0, 3.0, 3.0);
        // Attempt 1 comes back garbled, attempt 2 succeeds: the answer is
        // authoritative and only that answer is keyed.
        assert_eq!(cached.request(&Request::Count(q)).into_count(), 16);
        let view = cached.cache().unwrap();
        assert_eq!(view.store().cached_counts(), 1);
        let m = cached.meter().snapshot();
        assert_eq!(m.retried, 1);
        assert_eq!(m.abandoned, 0);
        // The repeat serves the *correct* cached value, locally.
        let before = cached.meter().snapshot();
        assert_eq!(cached.request(&Request::Count(q)).into_count(), 16);
        assert_eq!(cached.meter().snapshot(), before);
    }

    #[test]
    fn error_replies_are_never_admitted_or_keyed() {
        // Every attempt garbled: the final outcome is typed Malformed and
        // the cache stays empty — nothing admitted, no generation noted.
        let cached = lossy_cached_link(u64::MAX, RetryPolicy::attempts(2), 1 << 20);
        let q = w(0.0, 0.0, 3.0, 3.0);
        assert_eq!(cached.request(&Request::Count(q)), Response::Malformed);
        assert_eq!(cached.request(&Request::Window(q)), Response::Malformed);
        let view = cached.cache().unwrap();
        assert_eq!(view.store().cached_counts(), 0, "no poisoned count keyed");
        assert_eq!(
            view.store().cached_windows(),
            0,
            "no poisoned window admitted"
        );
        assert_eq!(view.store().generation(), 0);
        let m = cached.meter().snapshot();
        assert_eq!(m.retried, 2);
        assert_eq!(m.abandoned, 2);
    }

    #[test]
    fn partial_hit_splice_failure_surfaces_typed_not_panicked() {
        let server = Box::new(InProcExchange::new(Arc::new(Scan(lattice(10)))));
        let garbler = Box::new(GarbleReplies {
            garble: AtomicU64::new(0),
            inner: server,
        });
        // Keep a raw pointer-free handle on the knob via Arc.
        struct Knob(Arc<AtomicU64>, Box<dyn RawExchange>);
        impl RawExchange for Knob {
            fn exchange(&self, raw: Bytes) -> Bytes {
                let reply = self.1.exchange(raw);
                if self.0.load(Ordering::SeqCst) > 0 {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                    return crate::codec::garble_frame(&reply);
                }
                reply
            }
        }
        let knob = Arc::new(AtomicU64::new(0));
        let layer = CacheLayer::new(
            Box::new(Knob(Arc::clone(&knob), garbler)),
            PacketModel::default(),
            Arc::new(ClientCache::new(1 << 20)),
        );
        let cached = Link::cached(layer, 1.0);
        let a = w(0.0, 0.0, 2.0, 2.0);
        let b = w(5.0, 5.0, 9.0, 9.0);
        cached.request(&Request::Count(a)); // prime a: the next batch is a partial hit
        knob.store(u64::MAX, Ordering::SeqCst);
        // Retries are off: the garbled sub-reply must degrade typed.
        assert_eq!(
            cached.request(&Request::MultiCount(vec![a, b])),
            Response::Malformed,
            "splice against a garbled sub-reply must not panic"
        );
        assert_eq!(
            cached.cache().unwrap().store().cached_counts(),
            1,
            "only the primed entry"
        );
    }

    #[test]
    fn exhausted_cache_edge_surfaces_unavailable_without_admission() {
        struct Dead;
        impl RawExchange for Dead {
            fn exchange(&self, _: Bytes) -> Bytes {
                crate::codec::unavailable_frame()
            }
        }
        let layer = CacheLayer::new(
            Box::new(Dead),
            PacketModel::default(),
            Arc::new(ClientCache::new(1 << 20)),
        )
        .with_retry(RetryPolicy::attempts(3));
        let cached = Link::cached(layer, 1.0);
        let q = w(0.0, 0.0, 3.0, 3.0);
        assert_eq!(cached.request(&Request::Count(q)), Response::Unavailable);
        let m = cached.meter().snapshot();
        assert_eq!(m.total_bytes(), 0, "nothing ever crossed");
        assert_eq!(m.retried, 2);
        assert_eq!(m.abandoned, 1);
        assert_eq!(cached.cache().unwrap().store().cached_counts(), 0);
    }

    #[test]
    fn enveloped_updates_pass_through_with_tag_intact() {
        use crate::proto::Update;
        // A server double that peels the envelope and acks, recording the
        // tags it saw; its first Ack is lost on the way back, so the
        // cached link's edge must redeliver the batch.
        struct TagWitness {
            tags: Mutex<Vec<crate::codec::DedupTag>>,
        }
        impl RawExchange for TagWitness {
            fn exchange(&self, raw: Bytes) -> Bytes {
                let (tag, _body) = crate::codec::peel_dedup(&raw).expect("enveloped");
                let mut tags = self.tags.lock().unwrap();
                tags.push(tag);
                if tags.len() == 1 {
                    return crate::codec::unavailable_frame();
                }
                encode_response(&Response::Ack { generation: 7 })
            }
        }
        let witness = Arc::new(TagWitness {
            tags: Mutex::new(Vec::new()),
        });
        struct Shared(Arc<TagWitness>);
        impl RawExchange for Shared {
            fn exchange(&self, raw: Bytes) -> Bytes {
                self.0.exchange(raw)
            }
        }
        let layer = CacheLayer::new(
            Box::new(Shared(Arc::clone(&witness))),
            PacketModel::default(),
            Arc::new(ClientCache::new(1 << 20)),
        )
        .with_retry(RetryPolicy::attempts(3));
        let link = Link::cached(layer, 1.0);
        let resp = link.request(&Request::ApplyUpdates(vec![Update::Delete(3)]));
        assert_eq!(resp, Response::Ack { generation: 7 });
        let tags = witness.tags.lock().unwrap();
        assert_eq!(tags.len(), 2, "one lost delivery, one retry");
        assert_eq!(tags[0], tags[1], "the retry carries the same tag verbatim");
        // The Ack's generation was noted so stale entries stop matching.
        assert_eq!(link.cache().unwrap().store().generation(), 7);
        assert_eq!(link.meter().snapshot().retried, 1);
    }
}
