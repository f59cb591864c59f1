//! Concurrent-client determinism — the seed of the multi-device axis.
//!
//! Many device threads hammer one threaded server (and one 4-shard
//! threaded fleet). Every concurrent client must get **byte- and
//! result-identical** answers to a serial replay: links are per-client, so
//! metering never bleeds between clients, a server's reactor thread serves
//! interleaved requests without mixing replies, and per-shard meters keep
//! summing exactly to each link's aggregate (meter conservation).

use std::sync::Arc;

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_geom::SpatialObject;
use asj_net::{
    BreakerConfig, EventLoop, FaultPlan, Link, LinkSnapshot, NetConfig, PacketModel, Request,
    RetryPolicy,
};
use asj_server::{RTreeStore, SpatialService};
use asj_workloads::default_space;

fn clusters(k: usize, n: usize, seed: u64) -> Vec<SpatialObject> {
    gaussian_clusters(&SyntheticSpec::new(default_space(), n, k), seed)
}

const CLIENTS: usize = 6;

/// One join replayed by many concurrent clients of the same threaded
/// deployment: every report equals the serial replay, bit for bit on the
/// meters and pair for pair on the result.
fn assert_concurrent_replay_identical(dep: &Deployment, spec: &JoinSpec, fleet: bool) {
    let serial = SrJoin::default().run(dep, spec).expect("serial replay");
    assert!(!serial.pairs.is_empty(), "non-vacuous workload");
    let reports: Vec<JoinReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| SrJoin::default().run(dep, spec).expect("concurrent run")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (client, rep) in reports.iter().enumerate() {
        assert_eq!(
            rep.pairs, serial.pairs,
            "client {client}: result diverged under concurrency"
        );
        assert_eq!(
            (rep.link_r, rep.link_s),
            (serial.link_r, serial.link_s),
            "client {client}: wire traffic must be byte-identical to the serial replay"
        );
        if fleet {
            for (side, link, fleet_snap) in [
                ("R", &rep.link_r, rep.fleet_r.as_ref().expect("fleet R")),
                ("S", &rep.link_s, rep.fleet_s.as_ref().expect("fleet S")),
            ] {
                assert_eq!(
                    fleet_snap.summed(),
                    *link,
                    "client {client}, side {side}: per-shard meters must sum to the aggregate"
                );
                // Replica rows sum field-wise to their shard — failovers
                // and breaker trips included, never lost or double-counted.
                for (shard, (total, row)) in fleet_snap
                    .per_shard
                    .iter()
                    .zip(&fleet_snap.per_replica)
                    .enumerate()
                {
                    let row_sum = row
                        .iter()
                        .fold(LinkSnapshot::default(), |acc, r| acc.plus(r));
                    assert_eq!(
                        &row_sum, total,
                        "client {client}, side {side}, shard {shard}: replica \
                         meters must sum to the shard meter"
                    );
                }
            }
        }
    }
}

#[test]
fn concurrent_clients_of_one_channel_server_replay_identically() {
    let dep = DeploymentBuilder::new(clusters(4, 250, 11), clusters(4, 250, 111))
        .with_space(default_space())
        .with_buffer(100) // split-heavy: many interleaved small requests
        .threaded()
        .build();
    let spec = JoinSpec::distance_join(200.0);
    assert_concurrent_replay_identical(&dep, &spec, false);
}

#[test]
fn concurrent_clients_of_a_4_shard_threaded_fleet_replay_identically() {
    let dep = DeploymentBuilder::new(clusters(4, 250, 43), clusters(8, 250, 143))
        .with_space(default_space())
        .with_shards(4, 4)
        .threaded()
        .build();
    let spec = JoinSpec::distance_join(150.0).with_bucket_nlsj(true);
    assert_concurrent_replay_identical(&dep, &spec, true);
}

/// A replicated, faulted fleet under concurrency: each client's link
/// owns its fault layers and breakers, so every concurrent report is
/// byte-identical to the serial replay even while drops fire, siblings
/// cover failovers and breakers trip — and the failover/breaker
/// counters obey exact summation (replica rows → shard → aggregate).
#[test]
fn concurrent_clients_of_a_replicated_faulted_fleet_conserve_meters() {
    let dep = DeploymentBuilder::new(clusters(4, 250, 43), clusters(8, 250, 143))
        .with_space(default_space())
        .with_shards(2, 2)
        .with_replicas(2)
        .with_net(
            NetConfig::default()
                .with_retry(RetryPolicy::attempts(6))
                .with_breakers(BreakerConfig::new(1, 3)),
        )
        .with_faults(FaultPlan::seeded(9).with_drops(0.25))
        .threaded()
        .build();
    let spec = JoinSpec::distance_join(150.0);
    // Non-vacuity: this seed must actually exercise the counters the
    // summation law is pinned on.
    let serial = SrJoin::default().run(&dep, &spec).expect("serial replay");
    assert!(
        serial.link_r.failovers + serial.link_s.failovers > 0,
        "seed 9 must drive at least one failover"
    );
    assert!(
        serial.link_r.breaker_open + serial.link_s.breaker_open > 0,
        "a 1-failure breaker must trip at least once at seed 9"
    );
    assert_eq!(serial.link_r.abandoned + serial.link_s.abandoned, 0);
    assert_concurrent_replay_identical(&dep, &spec, true);
}

/// Raw link level: N clients of one server on its own reactor thread
/// issue the same request sequence; every per-link meter must equal the
/// serial replay's exactly, and the server must have served exactly the
/// expected request count.
#[test]
fn channel_server_meters_are_per_link_under_contention() {
    let objs = clusters(4, 400, 47);
    let service = Arc::new(SpatialService::new(RTreeStore::new(objs)));
    let server = EventLoop::spawn("stress");
    let handle = server.serve(service);

    let sequence: Vec<Request> = (0..25)
        .map(|i| {
            let a = (i * 37 % 97) as f64 / 97.0 * 8000.0;
            let b = (i * 17 % 89) as f64 / 89.0 * 8000.0;
            let w = Rect::from_coords(a, b, a + 2000.0, b + 2000.0);
            match i % 3 {
                0 => Request::Window(w),
                1 => Request::Count(w),
                _ => Request::EpsRange { q: w, eps: 120.0 },
            }
        })
        .collect();

    let run = |link: &Link| {
        for req in &sequence {
            link.request(req);
        }
        link.meter().snapshot()
    };
    let serial = {
        let link = Link::new(Box::new(handle.connect()), PacketModel::default(), 1.0);
        run(&link)
    };
    assert!(serial.total_bytes() > 0);

    let snapshots: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let conn = handle.connect();
                scope.spawn(move || {
                    let link = Link::new(Box::new(conn), PacketModel::default(), 1.0);
                    run(&link)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (client, snap) in snapshots.iter().enumerate() {
        assert_eq!(
            *snap, serial,
            "client {client}: per-link metering diverged under contention"
        );
    }
    drop(handle);
    assert_eq!(
        server.shutdown(),
        ((CLIENTS + 1) * sequence.len()) as u64,
        "every request must be served exactly once"
    );
}
