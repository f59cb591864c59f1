//! Configuration-lattice differential suite.
//!
//! Every deployment knob is proven byte-identical to its off switch by
//! its own suite; this one proves the knobs *compose*. A live
//! deployment takes one acked update batch per side, then all six
//! algorithms join it in every cell of
//!
//! * shape: flat, and fleets of 1×1, 1×2, 3×1 and 3×2 (shards × replicas);
//! * carrier: in-process, threaded, event loop;
//! * wire: v1, v2;
//! * client cache: off, on;
//! * faults: clean, or seeded 2 % drops under `RetryPolicy::attempts(4)`.
//!
//! Checks in every cell: the sorted pairs equal a plane sweep over the
//! post-update data; the carrier never changes a link snapshot; a 1×1
//! fleet meters exactly like the flat deployment; clean cells retry,
//! fail over and abandon nothing. Each cell's pair count and both link
//! snapshots are pinned in `tests/lattice.golden`, so a refactor of the
//! network layers must reproduce every byte and message count unchanged.
//! On a mismatch the test prints the whole actual table.

use std::collections::HashMap;

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, Side};
use asj_geom::sweep::plane_sweep_join;
use asj_geom::{Rect, SpatialObject};
use asj_net::{FaultPlan, LinkSnapshot, NetConfig, Response, RetryPolicy, Update};
use asj_server::apply_updates_to;
use asj_workloads::{default_space, gaussian_clusters, SyntheticSpec};

const GOLDEN: &str = include_str!("lattice.golden");

const EPS: f64 = 150.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Flat,
    Fleet { shards: usize, replicas: usize },
}

const SHAPES: [Shape; 5] = [
    Shape::Flat,
    Shape::Fleet {
        shards: 1,
        replicas: 1,
    },
    Shape::Fleet {
        shards: 1,
        replicas: 2,
    },
    Shape::Fleet {
        shards: 3,
        replicas: 1,
    },
    Shape::Fleet {
        shards: 3,
        replicas: 2,
    },
];

#[derive(Clone, Copy, Debug)]
enum Carrier {
    InProc,
    Threaded,
    EventLoop,
}

const CARRIERS: [Carrier; 3] = [Carrier::InProc, Carrier::Threaded, Carrier::EventLoop];

/// One lattice point, carrier excluded: the carrier is asserted not to
/// matter, so it is not part of a golden row's key.
#[derive(Clone, Copy, Debug)]
struct Cell {
    shape: Shape,
    v2: bool,
    cache: bool,
    faults: bool,
}

impl Cell {
    fn label(&self) -> String {
        let shape = match self.shape {
            Shape::Flat => "flat".to_string(),
            Shape::Fleet { shards, replicas } => format!("{shards}x{replicas}"),
        };
        format!(
            "{shape} {} {} {}",
            if self.v2 { "v2" } else { "v1" },
            if self.cache { "cache" } else { "nocache" },
            if self.faults { "drops" } else { "clean" },
        )
    }
}

fn algorithms() -> Vec<Box<dyn DistributedJoin>> {
    vec![
        Box::new(NaiveJoin),
        Box::new(GridJoin::default()),
        Box::new(MobiJoin),
        Box::new(UpJoin::default()),
        Box::new(SrJoin::default()),
        Box::new(SemiJoin::default()),
    ]
}

/// Snaps coordinates to `f32` so the wire carries the data losslessly
/// and the offline oracle sees exactly what the device sees.
fn snapped(objects: Vec<SpatialObject>) -> Vec<SpatialObject> {
    let f = |v: f64| (v as f32) as f64;
    objects
        .into_iter()
        .map(|o| {
            SpatialObject::new(
                o.id,
                Rect::from_coords(
                    f(o.mbr.min.x),
                    f(o.mbr.min.y),
                    f(o.mbr.max.x),
                    f(o.mbr.max.y),
                ),
            )
        })
        .collect()
}

/// The initial data, one update batch per side, and the post-update data.
struct Data {
    r: Vec<SpatialObject>,
    s: Vec<SpatialObject>,
    batch_r: Vec<Update>,
    batch_s: Vec<Update>,
    want: Vec<(u32, u32)>,
}

/// A batch that moves a dozen objects by a few hundred units, deletes
/// one and inserts one — every update kind, touching several shards.
fn batch(objects: &[SpatialObject], fresh_id: u32, dx: f64) -> Vec<Update> {
    let mut out: Vec<Update> = objects
        .iter()
        .step_by(20)
        .map(|o| Update::Move {
            id: o.id,
            to: Rect::from_coords(o.mbr.min.x + dx, o.mbr.min.y, o.mbr.max.x + dx, o.mbr.max.y),
        })
        .collect();
    out.push(Update::Delete(objects[7].id));
    let c = objects[3].mbr.center();
    out.push(Update::Insert(SpatialObject::point(
        fresh_id,
        c.x + 40.0,
        c.y,
    )));
    out
}

fn data() -> Data {
    let space = default_space();
    let r = snapped(gaussian_clusters(&SyntheticSpec::new(space, 240, 4), 71));
    let s = snapped(gaussian_clusters(&SyntheticSpec::new(space, 240, 8), 1071));
    let batch_r = batch(&r, 900_001, 300.0);
    let batch_s = batch(&s, 900_002, -250.0);
    let (mut r1, mut s1) = (r.clone(), s.clone());
    apply_updates_to(&mut r1, &batch_r);
    apply_updates_to(&mut s1, &batch_s);
    let mut want = plane_sweep_join(&r1, &s1, &JoinPredicate::WithinDistance(EPS));
    want.sort_unstable();
    assert!(!want.is_empty(), "vacuous lattice: the join has no pairs");
    Data {
        r,
        s,
        batch_r,
        batch_s,
        want,
    }
}

fn build(d: &Data, cell: Cell, carrier: Carrier) -> Deployment {
    let mut net = NetConfig::default().with_wire_v2(cell.v2);
    if cell.faults {
        net = net.with_retry(RetryPolicy::attempts(4));
    }
    let mut b = DeploymentBuilder::new(d.r.clone(), d.s.clone())
        .with_buffer(800)
        .with_space(default_space())
        .with_net(net)
        .with_client_cache(cell.cache)
        .cooperative()
        .live();
    if let Shape::Fleet { shards, replicas } = cell.shape {
        b = b.with_shards(shards, shards).with_replicas(replicas);
    }
    b = match carrier {
        Carrier::InProc => b,
        Carrier::Threaded => b.threaded(),
        Carrier::EventLoop => b.event_loop(),
    };
    if cell.faults {
        b = b.with_faults(FaultPlan::seeded(29).with_drops(0.02));
    }
    b.build()
}

fn fmt_snap(s: &LinkSnapshot) -> String {
    format!(
        "{}/{}B {}/{}pk q{},{},{},{},{} obj{} agg{}/{} re{} ab{} fo{} bo{}",
        s.up_bytes,
        s.down_bytes,
        s.up_packets,
        s.down_packets,
        s.count_queries,
        s.window_queries,
        s.range_queries,
        s.bucket_queries,
        s.coop_queries,
        s.objects_received,
        s.aggregate_up_bytes,
        s.aggregate_down_bytes,
        s.retried,
        s.abandoned,
        s.failovers,
        s.breaker_open,
    )
}

/// One algorithm's outcome in one cell: its pair count and both link
/// snapshots, as a golden-table value.
type Outcome = (String, usize, LinkSnapshot, LinkSnapshot);

/// Runs every algorithm in one cell over one carrier — each on a fresh
/// deployment, so no algorithm inherits another's cache — checking
/// pairs against the oracle and clean cells against any recovery at all.
fn run_cell(d: &Data, cell: Cell, carrier: Carrier) -> Vec<Outcome> {
    let spec = JoinSpec::distance_join(EPS);
    algorithms()
        .iter()
        .map(|alg| {
            let dep = build(d, cell, carrier);
            for (side, batch) in [(Side::R, &d.batch_r), (Side::S, &d.batch_s)] {
                match dep.try_apply_updates(side, batch.clone()) {
                    Response::Ack { .. } => {}
                    other => panic!("{} {carrier:?}: batch not acked: {other:?}", cell.label()),
                }
            }
            let rep = alg.run(&dep, &spec).unwrap_or_else(|e| {
                panic!(
                    "{} {carrier:?} {}: join failed: {e}",
                    cell.label(),
                    alg.name()
                )
            });
            let mut pairs = rep.pairs.clone();
            pairs.sort_unstable();
            assert_eq!(
                pairs,
                d.want,
                "{} {carrier:?} {}: pairs diverged from the plane-sweep oracle",
                cell.label(),
                alg.name()
            );
            if !cell.faults {
                for snap in [&rep.link_r, &rep.link_s] {
                    assert_eq!(
                        (snap.retried, snap.abandoned, snap.failovers),
                        (0, 0, 0),
                        "{} {carrier:?} {}: a clean cell recovered from something",
                        cell.label(),
                        alg.name()
                    );
                }
            }
            (alg.name().to_string(), pairs.len(), rep.link_r, rep.link_s)
        })
        .collect()
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for shape in SHAPES {
        for v2 in [false, true] {
            for cache in [false, true] {
                for faults in [false, true] {
                    out.push(Cell {
                        shape,
                        v2,
                        cache,
                        faults,
                    });
                }
            }
        }
    }
    out
}

#[test]
fn every_configuration_joins_exactly_and_meters_like_the_golden_table() {
    let d = data();
    let mut table = String::new();
    let mut flat: HashMap<(bool, bool, bool), Vec<Outcome>> = HashMap::new();
    for cell in cells() {
        let outcomes = run_cell(&d, cell, Carrier::InProc);
        for carrier in &CARRIERS[1..] {
            let other = run_cell(&d, cell, *carrier);
            for (a, b) in outcomes.iter().zip(&other) {
                assert_eq!(
                    a,
                    b,
                    "{} {}: the {carrier:?} carrier changed a link snapshot",
                    cell.label(),
                    a.0
                );
            }
        }
        let knobs = (cell.v2, cell.cache, cell.faults);
        match cell.shape {
            Shape::Flat => {
                flat.insert(knobs, outcomes.clone());
            }
            Shape::Fleet {
                shards: 1,
                replicas: 1,
            } => assert_eq!(
                &outcomes,
                &flat[&knobs],
                "{}: a 1x1 fleet must meter exactly like the flat deployment",
                cell.label()
            ),
            Shape::Fleet { .. } => {}
        }
        for (alg, pairs, r, s) in &outcomes {
            table.push_str(&format!(
                "{} {alg} | pairs {pairs} | R {} | S {}\n",
                cell.label(),
                fmt_snap(r),
                fmt_snap(s)
            ));
        }
    }
    if table != GOLDEN {
        let first = table
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(table.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "lattice table differs from tests/lattice.golden (first difference at line {}); \
             the actual table:\n{table}",
            first + 1
        );
    }
}
