//! The two join workloads: `city_join` (the paper's setting on flat,
//! frozen, in-process servers) and `rail_fleet_live` (replicated shard
//! fleets on the event-loop carrier taking live updates between joins).

use std::time::{Duration, Instant};

use asj_core::{
    Deployment, DeploymentBuilder, DistributedJoin, JoinSpec, MobiJoin, Side, SrJoin, UpJoin,
};
use asj_geom::{plane_sweep_join, Point, Rect, SpatialObject};
use asj_net::{FaultPlan, NetConfig, Response, RetryPolicy, Update};
use asj_server::{partition_objects, RTreeStore, VersionedStore};
use asj_workloads::{default_space, germany_rail, RailSpec, TrajectorySpec, TrajectoryStream};

use crate::harness::{closed_loop, repeated_setup, sorted_pairs, Ctx, OpLog, Outcome, Step};
use crate::inputs::{clustered, CENTRES_4, CENTRES_8};
use crate::layers::{JoinTotals, LayerExtras};
use crate::reference::Reference;
use crate::schedstat;

const EPS: f64 = 100.0;
const BUFFER: usize = 800;
/// The device joins on one thread: the process runs on one CPU (see
/// `pin`), where kernel threads could only time-share it.
const SWEEP_WORKERS: usize = 1;
/// Objects per Gaussian side.
const N_GAUSS: usize = 5_000;
/// Rail moves per update tick (the stream's move fraction is set so a
/// tick moves this many segments on average).
const MOVES_PER_TICK: f64 = 32.0;
/// `rail_fleet_live` averages read bytes over this many first joins: the
/// joins of the fewest operations an untraced run measures
/// ([`crate::MIN_OPS`]), so every run averages the same joins and the
/// figure repeats exactly per seed.
const RAIL_BYTE_PREFIX: usize = 3 * crate::MIN_OPS;

/// SrJoin → UpJoin → MobiJoin, in that fixed order: with the client
/// cache on, the order decides which join warms the cache for which, and
/// a seed-chosen order swings bytes between seeds. For the same reason
/// the join spec keeps its default device seed (UpJoin's random
/// confirming COUNTs would flip plans between run seeds).
fn rotation() -> Vec<Box<dyn DistributedJoin>> {
    vec![
        Box::new(SrJoin::default()),
        Box::new(UpJoin::default()),
        Box::new(MobiJoin),
    ]
}

fn rotation_names(algos: &[Box<dyn DistributedJoin>]) -> String {
    algos.iter().map(|a| a.name()).collect::<Vec<_>>().join(">")
}

/// Standalone copies of one side's shard stores, fed the update batches
/// the router would send them, to time `VersionedStore::apply` alone.
struct ApplyProbe {
    cells: Vec<Rect>,
    stores: Vec<VersionedStore<RTreeStore>>,
    batches: u64,
    total_ms: f64,
}

impl ApplyProbe {
    fn new(space: &Rect, shards: usize, objects: Vec<SpatialObject>) -> Self {
        let part = partition_objects(space, shards, objects);
        let stores = part
            .members
            .into_iter()
            .map(|m| {
                VersionedStore::new(m, |objs| {
                    RTreeStore::with_fanout(objs, asj_rtree::DEFAULT_MAX_ENTRIES)
                })
            })
            .collect();
        ApplyProbe {
            cells: part.cells,
            stores,
            batches: 0,
            total_ms: 0.0,
        }
    }

    /// The shard whose cell owns `p`: the half-open cell containing it,
    /// else the nearest cell centre (the shard router's rule).
    fn owner(&self, p: &Point) -> usize {
        if let Some(i) = self.cells.iter().position(|c| c.contains_half_open(p)) {
            return i;
        }
        let d = |c: &Rect| (c.center().x - p.x).powi(2) + (c.center().y - p.y).powi(2);
        (0..self.cells.len())
            .min_by(|&a, &b| d(&self.cells[a]).total_cmp(&d(&self.cells[b])))
            .expect("at least one shard")
    }

    /// Applies one batch of moves to every shard copy (the owner gets
    /// the move, every other shard a delete of the id) and times it.
    fn feed(&mut self, moves: &[SpatialObject]) {
        let mut subs: Vec<Vec<Update>> = vec![Vec::new(); self.stores.len()];
        for o in moves {
            let owner = self.owner(&o.mbr.center());
            for (i, sub) in subs.iter_mut().enumerate() {
                sub.push(if i == owner {
                    Update::Move {
                        id: o.id,
                        to: o.mbr,
                    }
                } else {
                    Update::Delete(o.id)
                });
            }
        }
        let t0 = Instant::now();
        for (store, sub) in self.stores.iter().zip(&subs) {
            store.apply(sub);
        }
        self.total_ms += t0.elapsed().as_secs_f64() * 1e3;
        self.batches += 1;
    }

    fn mean_ms(&self) -> f64 {
        self.total_ms / self.batches.max(1) as f64
    }
}

fn tick_spec(space: Rect, n: usize) -> TrajectorySpec {
    TrajectorySpec {
        space,
        step: space.width() * 0.01,
        move_fraction: MOVES_PER_TICK / n as f64,
    }
}

fn move_batch(moves: &[SpatialObject]) -> Vec<Update> {
    moves
        .iter()
        .map(|o| Update::Move {
            id: o.id,
            to: o.mbr,
        })
        .collect()
}

/// Join and update state shared by both join workloads.
struct JoinBench<'a> {
    dep: &'a Deployment,
    spec: JoinSpec,
    algos: Vec<Box<dyn DistributedJoin>>,
    r: Vec<SpatialObject>,
    /// Oracle: the sorted pairs `plane_sweep_join` finds on the current
    /// data.
    expected: Vec<(u32, u32)>,
    /// Live rail side, present on `rail_fleet_live`.
    stream: Option<TrajectoryStream>,
    /// Standalone shard copies fed the same batches (traced runs).
    probe: Option<ApplyProbe>,
    /// Read bytes of the first joins, and of each algorithm's first run.
    prefix_bytes: Vec<u64>,
    first_bytes: Vec<Option<u64>>,
    /// Frozen data repeats each algorithm's bytes exactly.
    bytes_repeat: bool,
    totals: Option<JoinTotals>,
    out: Outcome,
}

impl JoinBench<'_> {
    /// One operation: on the live workload an update tick, then one join
    /// of each algorithm in rotation order. The oracle work between the
    /// calls is not timed.
    fn cycle(&mut self) -> Step {
        let mut cycle = Step {
            took: Duration::ZERO,
            ok: true,
            stop: false,
        };
        let add = |cycle: &mut Step, s: Step| {
            cycle.took += s.took;
            cycle.ok &= s.ok;
            cycle.stop |= s.stop;
        };
        if self.stream.is_some() {
            add(&mut cycle, self.update());
        }
        for a in 0..self.algos.len() {
            if !cycle.stop {
                add(&mut cycle, self.join(a));
            }
        }
        cycle
    }

    fn update(&mut self) -> Step {
        let stream = self.stream.as_mut().expect("live workload");
        let moves = stream.tick();
        let batch = move_batch(&moves);
        let t0 = Instant::now();
        let resp = self.dep.try_apply_updates(Side::S, batch);
        let took = t0.elapsed();
        if let Some(t) = self.totals.as_mut() {
            t.add_update(took.as_secs_f64() * 1e3);
        }
        if !matches!(resp, Response::Ack { .. }) {
            // The fleet's state is unknown now; the oracle cannot follow.
            self.out
                .gate(false, || format!("update tick answered {resp:?}"));
            return Step {
                took,
                ok: false,
                stop: true,
            };
        }
        self.expected = sorted_pairs(plane_sweep_join(
            &self.r,
            stream.objects(),
            &self.spec.predicate,
        ));
        if let Some(p) = self.probe.as_mut() {
            p.feed(&moves);
        }
        Step {
            took,
            ok: true,
            stop: false,
        }
    }

    fn join(&mut self, a: usize) -> Step {
        let t0 = Instant::now();
        let res = self.algos[a].run(self.dep, &self.spec);
        let took = t0.elapsed();
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                self.out.notes.push(format!("join failed: {e}"));
                return Step {
                    took,
                    ok: false,
                    stop: false,
                };
            }
        };
        if let Some(t) = self.totals.as_mut() {
            t.add_join(&rep, took.as_secs_f64() * 1e3);
        }
        let bytes = rep.total_bytes();
        if self.prefix_bytes.len() < RAIL_BYTE_PREFIX {
            self.prefix_bytes.push(bytes);
        }
        let first = *self.first_bytes[a].get_or_insert(bytes);
        let name = self.algos[a].name();
        if self.bytes_repeat {
            self.out.gate(first == bytes, || {
                format!("{name} moved {bytes} B, its first run {first} B")
            });
        }
        let ok = rep.coverage >= 1.0;
        let pairs = sorted_pairs(rep.pairs);
        let expected = &self.expected;
        self.out.gate(pairs == *expected, || {
            format!(
                "{name} returned {} pairs, the plane sweep {}",
                pairs.len(),
                expected.len()
            )
        });
        Step {
            took,
            ok,
            stop: false,
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Runs the loop untraced (`seconds`), or — traced — untraced for half
/// the time as the overhead reference, then traced for the other half.
/// Returns the measured log and, traced, the per-layer totals, reactor
/// time per operation and the tracing overhead.
fn drive(
    bench: &mut JoinBench<'_>,
    ctx: &Ctx,
    host: &mut Reference,
) -> (OpLog, Option<(JoinTotals, LayerExtras)>) {
    if !ctx.traced {
        let min_ops = crate::MIN_OPS.max(crate::stats::min_samples(crate::TAIL_PCT));
        return (
            closed_loop(ctx.seconds, min_ops, host, || bench.cycle()),
            None,
        );
    }
    let half = ctx.seconds / 2.0;
    let untraced = closed_loop(half, 0, host, || bench.cycle());
    bench.totals = Some(JoinTotals::default());
    let before = schedstat::reactors();
    let traced = closed_loop(half, 0, host, || bench.cycle());
    let sched = schedstat::reactors().since(&before);
    let ops = traced.attempted.max(1) as f64;
    let extras = LayerExtras {
        reactor_cpu_ms: sched.cpu_ns as f64 / 1e6 / ops,
        reactor_runq_ms: sched.runq_ns as f64 / 1e6 / ops,
        overhead_frac: mean(&traced.latencies_ms) / mean(&untraced.latencies_ms) - 1.0,
        ..LayerExtras::default()
    };
    let totals = bench.totals.take().expect("traced phase ran");
    let mut log = untraced;
    log.attempted += traced.attempted;
    log.failed += traced.failed;
    (log, Some((totals, extras)))
}

fn finish(mut bench: JoinBench<'_>, ctx: &Ctx, setup: crate::harness::SetupTimes) -> Outcome {
    let mut host = Reference::default();
    let (log, traced) = drive(&mut bench, ctx, &mut host);
    let mut out = std::mem::take(&mut bench.out);
    out.attempted = log.attempted;
    out.failed = log.failed;
    match traced {
        None => {
            // Live data: the fixed prefix of joins; frozen data: one
            // rotation, every algorithm once (later ones repeat it, gated).
            let want = if bench.stream.is_some() {
                RAIL_BYTE_PREFIX
            } else {
                bench.algos.len()
            };
            let got = bench.prefix_bytes.len();
            out.gate(got >= want, || {
                format!("{got} joins ran, fewer than {want}")
            });
            let prefix = &bench.prefix_bytes[..want.min(got)];
            let read_bytes = prefix.iter().sum::<u64>() as f64 / prefix.len().max(1) as f64;
            crate::push_end_to_end(&mut out, &log, read_bytes, setup);
        }
        Some((totals, mut extras)) => {
            extras.gen_s = setup.gen_s;
            extras.build_s = setup.build_s;
            extras.apply_ms = bench.probe.as_ref().map_or(0.0, ApplyProbe::mean_ms);
            crate::layers::push_per_layer(&mut out, &totals, &extras);
        }
    }
    out
}

fn city_data(ctx: &Ctx, space: Rect) -> (Vec<SpatialObject>, Vec<SpatialObject>) {
    (
        clustered(space, N_GAUSS, CENTRES_4, ctx.derive(10)),
        clustered(space, N_GAUSS, CENTRES_8, ctx.derive(11)),
    )
}

/// `city_join`: back-to-back distance joins against two flat, frozen,
/// in-process servers.
pub fn city_join(ctx: &Ctx) -> Outcome {
    let space = default_space();
    let (dep, (r, s), setup) = repeated_setup(
        || city_data(ctx, space),
        |data| data.clone(),
        |(r, s)| {
            DeploymentBuilder::new(r, s)
                .with_buffer(BUFFER)
                .with_space(space)
                .with_sweep_workers(SWEEP_WORKERS)
                .build()
        },
    );
    let spec = JoinSpec::distance_join(EPS);
    let expected = sorted_pairs(plane_sweep_join(&r, &s, &spec.predicate));
    let algos = rotation();
    let config = vec![
        ("objects_per_side", N_GAUSS.to_string()),
        ("clusters_r_s", "4,8 at fixed centres".into()),
        ("eps", EPS.to_string()),
        ("buffer", BUFFER.to_string()),
        ("rotation", rotation_names(&algos)),
        ("operation", "one join per algorithm".into()),
        ("carrier", "in-process, flat, frozen".into()),
        ("expected_pairs", expected.len().to_string()),
    ];
    let bench = JoinBench {
        dep: &dep,
        spec,
        first_bytes: vec![None; algos.len()],
        algos,
        r,
        expected,
        stream: None,
        probe: None,
        prefix_bytes: Vec::new(),
        bytes_repeat: true,
        totals: None,
        out: Outcome {
            correct: true,
            config,
            ..Outcome::default()
        },
    };
    finish(bench, ctx, setup)
}

/// Both sides of `rail_fleet_live` are fixed datasets, like the one real
/// rail dataset of the paper's Fig. 8: a new R sample flips plan
/// decisions in a few windows and moves bytes per join by several
/// percent between seeds. The seed drives the updates and the faults.
const RAIL_DATA_SEED: u64 = 7;

/// The R side of `rail_fleet_live` and the 35 K-segment rail network.
fn rail_data(space: Rect) -> (Vec<SpatialObject>, Vec<SpatialObject>) {
    (
        clustered(space, N_GAUSS, CENTRES_4, RAIL_DATA_SEED),
        germany_rail(&RailSpec::default(), RAIL_DATA_SEED),
    )
}

const RAIL_SHARDS: usize = 4;
const RAIL_REPLICAS: usize = 2;
const RAIL_DROP_RATE: f64 = 0.02;
const RAIL_ATTEMPTS: u32 = 4;

/// `rail_fleet_live`: joins against 4-shard × 2-replica fleets on the
/// event-loop carrier (client cache, wire v2, seeded drops, retries),
/// with one rail update tick before each round of the three joins.
pub fn rail_fleet_live(ctx: &Ctx) -> Outcome {
    let space = default_space();
    let net = NetConfig::default()
        .with_client_cache(true)
        .with_wire_v2(true)
        .with_retry(RetryPolicy::attempts(RAIL_ATTEMPTS));
    let faults = FaultPlan::seeded(ctx.derive(22)).with_drops(RAIL_DROP_RATE);
    let (dep, (r, s), setup) = repeated_setup(
        || rail_data(space),
        |data| data.clone(),
        |(r, s)| {
            DeploymentBuilder::new(r, s)
                .with_net(net)
                .with_buffer(BUFFER)
                .with_space(space)
                .with_sweep_workers(SWEEP_WORKERS)
                .with_shards(RAIL_SHARDS, RAIL_SHARDS)
                .with_replicas(RAIL_REPLICAS)
                .with_faults(faults)
                .live()
                .event_loop()
                .build()
        },
    );
    let hint = s
        .iter()
        .map(|o| o.mbr.width().hypot(o.mbr.height()) * 0.5)
        .fold(0.0, f64::max);
    let spec = JoinSpec::distance_join(EPS)
        .with_bucket_nlsj(true)
        .with_mbr_half_extent(hint);
    let expected = sorted_pairs(plane_sweep_join(&r, &s, &spec.predicate));
    let algos = rotation();
    let stream = TrajectoryStream::new(&s, tick_spec(space, s.len()), ctx.derive(23));
    let config = vec![
        ("r_objects", N_GAUSS.to_string()),
        ("r_clusters", "4 at fixed centres".into()),
        ("s_rail_segments", s.len().to_string()),
        ("data_seed", RAIL_DATA_SEED.to_string()),
        ("eps", EPS.to_string()),
        ("buffer", BUFFER.to_string()),
        ("bucket_nlsj", "true".into()),
        ("rotation", rotation_names(&algos)),
        ("shards", RAIL_SHARDS.to_string()),
        ("replicas", RAIL_REPLICAS.to_string()),
        ("carrier", "event loop, live".into()),
        ("client_cache", "true".into()),
        ("wire_v2", "true".into()),
        ("drop_rate", RAIL_DROP_RATE.to_string()),
        ("retry_attempts", RAIL_ATTEMPTS.to_string()),
        ("operation", "update tick + one join per algorithm".into()),
        ("moves_per_tick", MOVES_PER_TICK.to_string()),
        ("read_bytes_prefix", RAIL_BYTE_PREFIX.to_string()),
    ];
    let probe = ctx
        .traced
        .then(|| ApplyProbe::new(&space, RAIL_SHARDS, s.clone()));
    let bench = JoinBench {
        dep: &dep,
        spec,
        first_bytes: vec![None; algos.len()],
        algos,
        r,
        expected,
        stream: Some(stream),
        probe,
        prefix_bytes: Vec::new(),
        bytes_repeat: false,
        totals: None,
        out: Outcome {
            correct: true,
            config,
            ..Outcome::default()
        },
    };
    finish(bench, ctx, setup)
}
