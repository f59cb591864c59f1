//! `crowd_traffic`: thousands of scripted devices issuing small requests
//! through two worker threads against 3-shard event-loop fleets.
//!
//! The untraced run drives `asj_device::run_traffic` over
//! `Deployment::connect`. The traced run assembles the same stack from
//! public parts (`EventLoop`, `partition_objects`, `ShardRouter`, `Link`)
//! with timing shims at the `QueryHandler` seam (server handler time) and
//! at the router's per-shard `RawExchange` edges (exchange time), and
//! must reproduce the deployment's `determinism_digest` exactly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asj_core::DeploymentBuilder;
use asj_device::{run_traffic, TrafficConfig, TrafficReport};
use asj_geom::{Rect, SpatialObject};
use asj_net::codec::{DedupTag, WireVersion};
use asj_net::{
    EventConnection, EventEndpoint, EventLoop, Link, NetConfig, QueryHandler, RawExchange, Request,
    Response, ShardEndpoint, ShardMeta, ShardRouter, Update,
};
use asj_server::{partition_objects, RTreeStore, ServicePolicy, SpatialService};
use asj_workloads::{default_space, uniform};
use bytes::{Bytes, BytesMut};

use crate::harness::{repeated_setup, Ctx, OpLog, Outcome};
use crate::layers::{JoinTotals, LayerExtras};
use crate::reference::Reference;
use crate::schedstat;

const DEVICES: usize = 16_384;
const WORKERS: usize = 2;
const SHARDS: usize = 3;
const N_PER_SIDE: usize = 2_000;
/// Requests one device issues per scripted step: a COUNT and two WINDOWs.
const REQUESTS_PER_STEP: usize = 3;
/// The reference loop runs before every this many devices, on the worker
/// about to connect the device: a round of all devices lasts seconds,
/// over which the host's speed changes, so the loop samples it across
/// the round (256 times a round). Its CPU time is taken out of the
/// round's measured time.
const REFERENCE_EVERY: usize = 64;

fn data(ctx: &Ctx, space: Rect) -> (Vec<SpatialObject>, Vec<SpatialObject>) {
    (
        uniform(&space, N_PER_SIDE, ctx.derive(30)),
        uniform(&space, N_PER_SIDE, ctx.derive(31)),
    )
}

fn fleets(r: Vec<SpatialObject>, s: Vec<SpatialObject>, space: Rect) -> DeploymentBuilder {
    DeploymentBuilder::new(r, s)
        .with_space(space)
        .with_shards(SHARDS, SHARDS)
}

fn requests(cfg: &TrafficConfig) -> usize {
    cfg.devices * cfg.steps * REQUESTS_PER_STEP
}

/// Server handler with its busy time accumulated.
struct TimedHandler {
    inner: SpatialService<RTreeStore>,
    busy_ns: AtomicU64,
}

impl QueryHandler for TimedHandler {
    fn handle(&self, req: Request) -> Response {
        self.inner.handle(req)
    }

    fn handle_into(&self, req: Request, wire: WireVersion, buf: &mut BytesMut) {
        let t0 = Instant::now();
        self.inner.handle_into(req, wire, buf);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn handle_tagged_updates(&self, tag: DedupTag, updates: Vec<Update>) -> Response {
        self.inner.handle_tagged_updates(tag, updates)
    }
}

static NEXT_THREAD_SLOT: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_SLOT: Cell<Option<u32>> = const { Cell::new(None) };
}

fn thread_slot() -> u32 {
    THREAD_SLOT.with(|slot| {
        slot.get().unwrap_or_else(|| {
            let id = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(id));
            id
        })
    })
}

/// Spans of the instrumented run, in nanoseconds since `epoch`, keyed
/// by the recording thread: each device's run (from its `connect` to the
/// next device on that thread, or the round's end) and each exchange
/// with a shard.
struct SpanLog {
    epoch: Instant,
    devices: Mutex<Vec<(u32, u64)>>,
    exchanges: Mutex<Vec<(u32, u64, u64)>>,
}

/// `(start, end)` spans of one thread, in nanoseconds.
type Spans = Vec<(u64, u64)>;

/// The instrumented round's time, split by layer, in nanoseconds.
struct SpanTotals {
    /// Time inside at least one shard exchange (a device's concurrent
    /// scatter legs count once).
    exchange: u64,
    /// Time devices ran, and the part of it outside every exchange.
    device: u64,
    device_self: u64,
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn device_started(&self) {
        let at = self.now();
        self.devices
            .lock()
            .expect("span log lock")
            .push((thread_slot(), at));
    }

    fn totals(&self, round_end: u64) -> SpanTotals {
        // Per thread: its device spans and its exchange spans.
        let mut threads: BTreeMap<u32, (Spans, Spans)> = BTreeMap::new();
        for &(t, a, b) in self.exchanges.lock().expect("span log lock").iter() {
            threads.entry(t).or_default().1.push((a, b));
        }
        let mut starts: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &(t, at) in self.devices.lock().expect("span log lock").iter() {
            starts.entry(t).or_default().push(at);
        }
        for (t, mut s) in starts {
            s.sort_unstable();
            let ends = s.iter().skip(1).copied().chain([round_end]);
            threads.entry(t).or_default().0 = s.iter().copied().zip(ends).collect();
        }
        let mut totals = SpanTotals {
            exchange: 0,
            device: 0,
            device_self: 0,
        };
        for (devices, exchanges) in threads.values() {
            let (device, own) = crate::stats::nested_totals(devices, exchanges);
            totals.exchange += crate::stats::union_len(exchanges);
            totals.device += device;
            totals.device_self += own;
        }
        totals
    }
}

/// One router edge to a shard, recording each exchange's span.
struct TimedEdge {
    inner: EventConnection,
    log: Arc<SpanLog>,
}

impl RawExchange for TimedEdge {
    fn exchange(&self, request: Bytes) -> Bytes {
        self.begin(request)()
    }

    fn begin<'a>(&'a self, request: Bytes) -> Box<dyn FnOnce() -> Bytes + Send + 'a> {
        let start = self.log.now();
        let pending = self.inner.begin(request);
        Box::new(move || {
            let reply = pending();
            let end = self.log.now();
            self.log
                .exchanges
                .lock()
                .expect("span log lock")
                .push((thread_slot(), start, end));
            reply
        })
    }
}

/// The deployment's many-device stack, assembled from public parts with
/// timing shims.
struct TracedStack {
    net: NetConfig,
    sides: [Vec<(Arc<ShardMeta>, EventEndpoint)>; 2],
    handlers: Vec<Arc<TimedHandler>>,
    log: Arc<SpanLog>,
    /// Serves every endpoint; joined when the stack drops.
    _reactor: EventLoop,
}

impl TracedStack {
    /// Mirrors `DeploymentBuilder::with_shards(3, 3).event_loop()` on
    /// frozen servers: the same partition, advertised bounds, partition
    /// cells, store fanout, service policy and router settings.
    fn new(r: Vec<SpatialObject>, s: Vec<SpatialObject>, space: Rect) -> Self {
        let net = NetConfig::default();
        let reactor = EventLoop::spawn("traced");
        let mut handlers = Vec::new();
        let mut side = |objects: Vec<SpatialObject>| {
            let part = partition_objects(&space, SHARDS, objects);
            let bounds = part.bounds();
            bounds
                .into_iter()
                .zip(part.members)
                .zip(part.cells)
                .map(|((bounds, members), cell)| {
                    let handler = Arc::new(TimedHandler {
                        inner: SpatialService::new(RTreeStore::with_fanout(
                            members,
                            asj_rtree::DEFAULT_MAX_ENTRIES,
                        ))
                        .with_policy(ServicePolicy::NonCooperative),
                        busy_ns: AtomicU64::new(0),
                    });
                    handlers.push(Arc::clone(&handler));
                    let endpoint = reactor.serve(handler);
                    (Arc::new(ShardMeta::with_cell(bounds, Some(cell))), endpoint)
                })
                .collect::<Vec<_>>()
        };
        let sides = [side(r), side(s)];
        TracedStack {
            net,
            sides,
            handlers,
            log: Arc::new(SpanLog {
                epoch: Instant::now(),
                devices: Mutex::new(Vec::new()),
                exchanges: Mutex::new(Vec::new()),
            }),
            _reactor: reactor,
        }
    }

    fn link(&self, side: usize, tariff: f64) -> Link {
        let shards = self.sides[side]
            .iter()
            .map(|(meta, endpoint)| {
                let edge: Box<dyn RawExchange> = Box::new(TimedEdge {
                    inner: endpoint.connect(),
                    log: Arc::clone(&self.log),
                });
                ShardEndpoint::with_replicas(Arc::clone(meta), vec![edge])
            })
            .collect();
        let router = ShardRouter::new(shards, self.net.packet)
            .with_retry(self.net.retry)
            .with_breakers(self.net.breaker)
            .with_allow_partial(self.net.allow_partial);
        Link::routed(router, tariff)
    }

    fn connect(&self) -> (Link, Link) {
        self.log.device_started();
        (
            self.link(0, self.net.tariff_r),
            self.link(1, self.net.tariff_s),
        )
    }

    fn handler_ns(&self) -> u64 {
        self.handlers
            .iter()
            .map(|h| h.busy_ns.load(Ordering::Relaxed))
            .sum()
    }

    fn endpoints(&self) -> impl Iterator<Item = &EventEndpoint> {
        self.sides.iter().flatten().map(|(_, e)| e)
    }
}

fn latencies_us(rep: &TrafficReport) -> impl Iterator<Item = u64> + '_ {
    rep.outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
}

fn read_bytes(rep: &TrafficReport) -> u64 {
    let (r, s) = rep.summed_meters();
    r.total_bytes() + s.total_bytes()
}

/// Devices whose answers differ from the serial replay's.
fn mismatched_devices(rep: &TrafficReport, serial: &TrafficReport) -> usize {
    rep.outcomes
        .iter()
        .zip(&serial.outcomes)
        .filter(|(a, b)| (a.digest, a.pairs, a.pair_digest) != (b.digest, b.pairs, b.pair_digest))
        .count()
}

pub fn crowd_traffic(ctx: &Ctx) -> Outcome {
    let space = default_space();
    let (dep, (r, s), setup) = repeated_setup(
        || data(ctx, space),
        |d| d.clone(),
        |(r, s)| fleets(r, s, space).event_loop().build(),
    );
    let cfg = TrafficConfig::new(DEVICES, WORKERS, space);
    let per_round = requests(&cfg);
    let mut out = Outcome {
        correct: true,
        config: vec![
            ("devices", DEVICES.to_string()),
            ("steps_per_device", cfg.steps.to_string()),
            ("requests_per_round", per_round.to_string()),
            ("workers", WORKERS.to_string()),
            ("shards", SHARDS.to_string()),
            ("objects_per_side", N_PER_SIDE.to_string()),
            ("data", "uniform".into()),
            ("eps", cfg.eps.to_string()),
            ("carrier", "event loop, frozen".into()),
        ],
        ..Outcome::default()
    };

    // Oracle: a serial replay (one worker) over an in-process twin of the
    // same fleets. Carriers answer byte-identically, so the pooled run
    // must match it device for device, bytes included.
    let serial = {
        let twin = fleets(r.clone(), s.clone(), space).build();
        run_traffic(&TrafficConfig { workers: 1, ..cfg }, |_| twin.connect())
    };
    let serial_bytes = read_bytes(&serial);
    let check = |out: &mut Outcome, rep: &TrafficReport| -> u64 {
        let bad = mismatched_devices(rep, &serial);
        out.gate(rep.result_digest() == serial.result_digest(), || {
            format!("{bad} devices' answers differ from the serial replay")
        });
        let bytes = read_bytes(rep);
        out.gate(bytes == serial_bytes, || {
            format!("round moved {bytes} B, the serial replay {serial_bytes} B")
        });
        (bad * cfg.steps * REQUESTS_PER_STEP) as u64
    };

    let round = |connect: &(dyn Fn(usize) -> (Link, Link) + Sync)| {
        let t0 = Instant::now();
        let rep = run_traffic(&cfg, connect);
        (rep, t0.elapsed().as_secs_f64())
    };

    if !ctx.traced {
        let mut log = OpLog::default();
        let host = Mutex::new((Reference::default(), Vec::new()));
        let started = Instant::now();
        while log.measured_s < ctx.seconds && started.elapsed() < crate::harness::PHASE_WALL_CAP {
            let (rep, wall) = round(&|device| {
                if device % REFERENCE_EVERY == 0 {
                    let (reference, times) = &mut *host.lock().expect("reference lock");
                    times.push(reference.time_ms());
                }
                dep.connect()
            });
            let times = std::mem::take(&mut host.lock().expect("reference lock").1);
            log.failed += check(&mut out, &rep);
            log.attempted += per_round as u64;
            // The process runs on one CPU: the loop's CPU time is wall
            // time the devices would otherwise have had.
            let measured = wall - times.iter().sum::<f64>() / 1e3;
            let round_ref_ms = crate::stats::median(&times);
            log.measured_s += measured;
            log.measured_refs += measured * 1e3 / round_ref_ms;
            log.reference_ms.extend(times);
            let mut hist = Vec::new();
            for us in latencies_us(&rep) {
                let bin = us as usize;
                if hist.len() <= bin {
                    hist.resize(bin + 1, 0);
                }
                hist[bin] += 1;
            }
            log.rounds_us.push((hist, round_ref_ms));
        }
        out.attempted = log.attempted;
        out.failed = log.failed;
        crate::push_end_to_end(
            &mut out,
            &log,
            serial_bytes as f64 / per_round as f64,
            setup,
        );
        return out;
    }

    // Traced: one untraced round over the deployment (the overhead
    // reference and the digest the assembled stack must reproduce), then
    // one round over the instrumented stack.
    let (reference, reference_wall) = round(&|_| dep.connect());
    let mut failed = check(&mut out, &reference);
    let reference_digest = reference.determinism_digest();
    drop(reference);
    drop(dep);

    let stack = TracedStack::new(r, s, space);
    let before = schedstat::reactors();
    let (traced, wall) = round(&|_| stack.connect());
    let spans = stack.log.totals(stack.log.now());
    let sched = schedstat::reactors().since(&before);
    failed += check(&mut out, &traced);
    out.gate(traced.determinism_digest() == reference_digest, || {
        "the instrumented stack's determinism digest differs from Deployment::connect's".into()
    });
    out.attempted = 2 * per_round as u64;
    out.failed = failed;

    let n = per_round as f64;
    let handler_ns = stack.handler_ns() as f64;
    let exchange_ns = spans.exchange as f64;
    // Device-observed request time; run_traffic reports whole
    // microseconds, truncated, so this reads up to 1 us per request low.
    let request_ns = latencies_us(&traced).sum::<u64>() as f64 * 1e3;
    let extras = LayerExtras {
        gen_s: setup.gen_s,
        build_s: setup.build_s,
        reactor_cpu_ms: sched.cpu_ns as f64 / 1e6 / n,
        reactor_runq_ms: sched.runq_ns as f64 / 1e6 / n,
        handle_us: handler_ns / n / 1e3,
        wait_us: (exchange_ns - handler_ns) / n / 1e3,
        client_us: (request_ns - exchange_ns) / n / 1e3,
        // Device time outside every exchange, less the part of it spent
        // inside requests (the Link and router client path).
        device_self_us: (spans.device_self as f64 - (request_ns - exchange_ns)) / n / 1e3,
        max_queue_depth: stack
            .endpoints()
            .map(|e| e.stats().max_queue_depth())
            .max()
            .unwrap_or(0),
        served: stack.endpoints().map(|e| e.stats().served()).sum(),
        overhead_frac: wall / reference_wall - 1.0,
        ..LayerExtras::default()
    };
    crate::layers::push_per_layer(&mut out, &JoinTotals::default(), &extras);
    out
}
