//! # asj-net — the simulated wireless link
//!
//! The paper's metric is **total transferred bytes** between the PDA and the
//! two servers, under telecom per-byte pricing. This crate reproduces that
//! substrate:
//!
//! * [`PacketModel`] — Equation (1) of the paper:
//!   `TB(B) = B + BH·⌈B/(MTU−BH)⌉`, the bytes a B-byte payload occupies on
//!   the wire once TCP/IP headers (BH = 40) and the MTU are accounted for;
//! * [`proto`] — the request/response protocol of a *non-cooperative*
//!   spatial server (`WINDOW`, `COUNT`, `ε-RANGE`, bucket ε-RANGE, the
//!   average-area aggregate) plus the cooperative extension used only by
//!   the SemiJoin baseline;
//! * the **batched statistics extension** — `Request::MultiCount` carries
//!   any number of COUNT windows in one message and `Response::Counts`
//!   answers them together, amortizing message framing and packet headers
//!   across a repartitioning round's `2k²` aggregate probes. It is gated
//!   by [`NetConfig::batched_stats`] and **off by default**: in the default
//!   per-query mode every meter total is byte-identical to the
//!   paper-faithful protocol, and turning the flag on changes statistics
//!   traffic only — never join results;
//! * [`codec`] — a compact binary wire format (`Bobj` = 20 bytes/object,
//!   mirroring the paper's constant object size);
//! * [`LinkMeter`] — atomically counts uplink/downlink wire bytes and query
//!   mix per link; *this is where every reported number comes from*;
//! * [`transport`] — the byte-level [`RawExchange`] carrier seam with its
//!   in-process carrier (fast, used by the experiment sweeps), and the
//!   device's [`Link`], which passes [`Request`] values down a stack of
//!   layers and tracks the serving generation;
//! * the **physical edge** (`edge.rs`) — the only place bytes cross: one
//!   edge per destination owns its carriers (one per replica), the meter
//!   row every completed exchange is charged to, the negotiated wire
//!   version, the retry policy with its dedup sequence and the replicas'
//!   breaker health, and one split-phase driver runs every attempt. The
//!   layers above it never frame, retry or meter anything themselves, so
//!   no byte is ever charged twice;
//! * [`event_loop`] — the server-side carrier: reactor threads serving
//!   endpoints over a ready-queue — one reactor per server (the
//!   "distributed" deployment of examples and integration tests), or one
//!   shared by every endpoint and device connection (the **many-device
//!   carrier**) — with per-connection `HELLO`/`ACCEPT` negotiation state
//!   owned by the reactor, typed error frames for garbled input, and
//!   per-endpoint queue-depth gauges;
//! * [`router`] — the **scatter-gather extension**: a [`ShardRouter`]
//!   fronts a fleet of shard servers, one physical edge per shard,
//!   pruning shards by advertised bounds, sub-batching batched requests,
//!   merging and deduplicating answers, and metering both per shard and
//!   in aggregate. A fleet of one is one unpruned flight, so sharding is
//!   wire-identical to a flat deployment at N = 1;
//! * [`cache`] — the **client-cache extension**: a [`CacheLayer`] (in
//!   front of a flat server *or* a whole fleet)
//!   answers repeated `COUNT`s from an exact statistics tier and
//!   contained `WINDOW`/ε-RANGE requests from a byte-budgeted window
//!   tier. Entries are keyed by the **serving generation** each response
//!   frame is stamped with, so live updates need no invalidation
//!   protocol: a generation bump simply stops matching and stale entries
//!   age out of the LRU budget. Gated by [`NetConfig::client_cache`] and
//!   **off by default** (off ⇒ byte-identical wire traffic);
//!   hits/misses/saved bytes are tallied in a [`CacheSnapshot`];
//! * [`fault`] — the **deterministic fault injector**: a [`FaultLayer`]
//!   on the carrier seam replays scripted drops, delays, garbled
//!   frames and crash-then-restart windows from a seeded [`FaultPlan`],
//!   so every chaos run is reproducible. Pairs with the
//!   [`packet::RetryPolicy`] retry/backoff discipline (off by default —
//!   off ⇒ byte-identical wire traffic) with which the physical edges
//!   re-issue failed exchanges, dedup-enveloping `ApplyUpdates` so
//!   retried deliveries are at-most-once;
//! * [`health`] — the **replica failover extension**: per-replica-edge
//!   circuit breakers (closed → open after K consecutive failures →
//!   half-open probe after a deterministic, exchange-counted cooldown)
//!   and integer EWMA failure tracking. A shard's edge spreads reads
//!   across its replicas by request hash, skips open breakers,
//!   fails a lost exchange over to the next sibling *before* consuming
//!   retry budget, and rejects replies below the shard's observed
//!   generation floor so handoff never serves stale state. Gated by
//!   [`NetConfig::breaker`] / replica count and **off by default** (one
//!   replica ⇒ byte-identical wire traffic);
//! * the **generation stamp** — servers answering from a generation > 0
//!   prefix every response frame with `[R_GEN][u64 generation]`
//!   ([`codec::stamp_generation`]); generation-0 (frozen) traffic carries
//!   no stamp and stays bit-for-bit the pre-generation wire format.
//!   `Request::ApplyUpdates` ships batched inserts/deletes/moves and is
//!   acknowledged with `Response::Ack { generation }`.
//!
//! Every message — including the queries themselves, as the paper insists —
//! is packetized and metered.

pub mod cache;
pub mod codec;
mod edge;
pub mod event_loop;
pub mod fault;
pub mod health;
pub mod meter;
pub mod packet;
pub mod proto;
pub mod router;
pub mod transport;

/// Test support: one linear-scan [`QueryHandler`] oracle with the
/// reference server semantics for the primitive (non-cooperative)
/// queries, shared by this crate's unit and integration suites so there
/// is a single copy to keep in lockstep with the real server.
#[doc(hidden)]
pub mod testutil {
    use asj_geom::SpatialObject;

    use crate::proto::{QueryHandler, Request, Response};

    /// Scan-backed handler: O(n) everything, cooperative queries refused.
    pub struct ScanHandler(pub Vec<SpatialObject>);

    impl QueryHandler for ScanHandler {
        fn handle(&self, req: Request) -> Response {
            match req {
                Request::Window(w) => Response::Objects(
                    self.0
                        .iter()
                        .filter(|o| o.mbr.intersects(&w))
                        .copied()
                        .collect(),
                ),
                Request::Count(w) => {
                    Response::Count(self.0.iter().filter(|o| o.mbr.intersects(&w)).count() as u64)
                }
                Request::MultiCount(ws) => Response::Counts(
                    ws.iter()
                        .map(|w| self.0.iter().filter(|o| o.mbr.intersects(w)).count() as u64)
                        .collect(),
                ),
                Request::EpsRange { q, eps } => Response::Objects(
                    self.0
                        .iter()
                        .filter(|o| o.mbr.within_distance(&q, eps))
                        .copied()
                        .collect(),
                ),
                Request::AvgArea(w) => {
                    let areas: Vec<f64> = self
                        .0
                        .iter()
                        .filter(|o| o.mbr.intersects(&w))
                        .map(|o| o.mbr.area())
                        .collect();
                    Response::Area(if areas.is_empty() {
                        0.0
                    } else {
                        areas.iter().sum::<f64>() / areas.len() as f64
                    })
                }
                Request::BucketEpsRange { probes, eps } => Response::Buckets(
                    probes
                        .iter()
                        .map(|p| {
                            self.0
                                .iter()
                                .filter(|o| o.mbr.within_distance(&p.mbr, eps))
                                .copied()
                                .collect()
                        })
                        .collect(),
                ),
                _ => Response::Refused,
            }
        }
    }
}

pub use cache::{CacheConfig, CacheLayer, CacheView, ClientCache};
pub use event_loop::{ConnState, EndpointStats, EventConnection, EventEndpoint, EventLoop};
pub use fault::{CrashPlan, FaultLayer, FaultPlan, FaultStats};
pub use health::{BreakerConfig, BreakerState, EdgeHealth, HealthSnapshot, ReplicaSetHealth};
pub use meter::{CacheSnapshot, CacheTelemetry, LinkMeter, LinkSnapshot};
pub use packet::{NetConfig, PacketModel, RetryPolicy};
pub use proto::{QueryHandler, Request, Response, Update};
pub use router::{FleetSnapshot, ShardEndpoint, ShardMeta, ShardRouter, ShardTelemetry};
pub use transport::{Link, RawExchange};
