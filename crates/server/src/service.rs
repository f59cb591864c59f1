//! The request handler a server exposes over the network.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use asj_geom::{plane_sweep_join, JoinPredicate, Rect, SpatialObject};
use asj_net::codec::{DedupTag, ObjectsEncoder, QuantCtx, WireVersion};
use asj_net::{QueryHandler, Request, Response};
use bytes::BytesMut;

use crate::store::SpatialStore;

/// Cooperation policy (paper, Sections 1 and 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServicePolicy {
    /// The realistic default: only the primitive query set is answered;
    /// cooperative requests get [`Response::Refused`].
    #[default]
    NonCooperative,
    /// Enables the SemiJoin baseline's extension (level MBRs, semi-join
    /// filter, server-side final join). Used only for Figure 8(b).
    Cooperative,
}

/// Threshold above which bucket ε-RANGE probes are fanned out across
/// scoped threads. Below it, the spawn overhead exceeds the win.
const PARALLEL_BUCKET_THRESHOLD: usize = 512;

/// A spatial service: one dataset, one store, one policy.
///
/// `handle` is `&self` and the store is immutable, so one service instance
/// can serve any number of connections concurrently; the event-loop
/// carrier in `asj-net` relies on that.
pub struct SpatialService<S: SpatialStore> {
    store: Arc<S>,
    policy: ServicePolicy,
    /// Worker threads used for large bucket queries.
    bucket_workers: usize,
    /// At-most-once table of the retry-dedup envelope: sender nonce →
    /// (last applied batch seq, the generation its Ack carried). A
    /// duplicated delivery replays the remembered Ack instead of
    /// re-applying, so a retried batch can never double-bump the
    /// generation or double-apply a move.
    dedup: Mutex<HashMap<u64, (u64, u64)>>,
}

impl<S: SpatialStore> SpatialService<S> {
    /// Non-cooperative service over `store`.
    pub fn new(store: S) -> Self {
        SpatialService {
            store: Arc::new(store),
            policy: ServicePolicy::NonCooperative,
            bucket_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            dedup: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the cooperation policy.
    pub fn with_policy(mut self, policy: ServicePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the bucket-query worker count (tests / benches).
    pub fn with_bucket_workers(mut self, workers: usize) -> Self {
        self.bucket_workers = workers.max(1);
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Dispatches an update batch — handled **before** a snapshot is
    /// pinned (it creates the next one), and never stamped: the Ack's
    /// payload already *is* the generation.
    fn apply(&self, batch: &[asj_net::Update]) -> Response {
        match self.store.apply_updates(batch) {
            Some(generation) => Response::Ack { generation },
            None => Response::Refused,
        }
    }
}

fn bucket_eps_range(
    store: &dyn SpatialStore,
    probes: &[SpatialObject],
    eps: f64,
    workers: usize,
) -> Vec<Vec<SpatialObject>> {
    if probes.len() < PARALLEL_BUCKET_THRESHOLD || workers == 1 {
        return probes
            .iter()
            .map(|p| store.eps_range(&p.mbr, eps))
            .collect();
    }
    // Fan the probes across scoped threads in contiguous chunks; probe
    // order (and thus the response framing) is preserved by reassembling
    // in chunk order. The borrowed store reference is the *pinned
    // snapshot*, so all workers answer from the same generation.
    let chunk = probes.len().div_ceil(workers);
    let mut results: Vec<Vec<Vec<SpatialObject>>> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move |_| {
                    part.iter()
                        .map(|p| store.eps_range(&p.mbr, eps))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("bucket worker panicked"));
        }
    })
    .expect("bucket scope panicked");
    results.into_iter().flatten().collect()
}

/// Answers one query against a pinned store snapshot — the full dispatch,
/// shared by [`QueryHandler::handle`] and the zero-copy `handle_into`
/// (which overrides only the object-streaming arms). `ApplyUpdates` never
/// reaches this: it is dispatched before the snapshot is pinned.
fn answer(
    store: &dyn SpatialStore,
    policy: ServicePolicy,
    bucket_workers: usize,
    req: Request,
) -> Response {
    if req.is_cooperative() && policy == ServicePolicy::NonCooperative {
        return Response::Refused;
    }
    match req {
        Request::Window(w) => Response::Objects(store.window(&w)),
        Request::Count(w) => Response::Count(store.count(&w)),
        Request::EpsRange { q, eps } => Response::Objects(store.eps_range(&q, eps)),
        Request::BucketEpsRange { probes, eps } => {
            Response::Buckets(bucket_eps_range(store, &probes, eps, bucket_workers))
        }
        Request::AvgArea(w) => Response::Area(store.avg_area(&w)),
        Request::MultiCount(windows) => {
            // Batched statistics: one COUNT per window, answered in
            // probe order from the same store path as single COUNTs.
            Response::Counts(windows.iter().map(|w| store.count(w)).collect())
        }
        Request::CoopLevelMbrs(level) => match store.level_mbrs(level as usize) {
            Some(mbrs) => Response::Rects(mbrs),
            None => Response::Refused,
        },
        Request::CoopFilterByMbrs { mbrs, eps } => {
            // Objects within eps of ANY of the shipped MBRs, each once.
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for m in &mbrs {
                for o in store.eps_range(m, eps) {
                    if seen.insert(o.id) {
                        out.push(o);
                    }
                }
            }
            Response::Objects(out)
        }
        Request::CoopJoinPush { objects, eps } => {
            // Final join at the server: pushed (outer) × local (inner).
            let bounds = match Rect::union_of(objects.iter().map(|o| o.mbr)) {
                Some(b) => b.expand(eps),
                None => return Response::Pairs(Vec::new()),
            };
            let local = store.window(&bounds);
            let pred = if eps > 0.0 {
                JoinPredicate::WithinDistance(eps)
            } else {
                JoinPredicate::Intersects
            };
            Response::Pairs(plane_sweep_join(&objects, &local, &pred))
        }
        Request::ApplyUpdates(_) => unreachable!("ApplyUpdates is dispatched before pinning"),
    }
}

impl<S: SpatialStore> QueryHandler for SpatialService<S> {
    /// The at-most-once check behind the retry-dedup envelope. Holding the
    /// table lock across the apply serializes tagged batches, so two
    /// concurrent deliveries of the same `(nonce, seq)` can never both
    /// miss the table and double-apply. Refusals are not recorded — a
    /// frozen store's refusal is stateless and safely repeatable.
    fn handle_tagged_updates(&self, tag: DedupTag, updates: Vec<asj_net::Update>) -> Response {
        let mut table = self.dedup.lock().expect("dedup lock poisoned");
        match table.get(&tag.nonce) {
            Some(&(last_seq, last_gen)) if tag.seq == last_seq => {
                // Duplicate delivery of the batch just applied: replay its
                // remembered Ack.
                return Response::Ack {
                    generation: last_gen,
                };
            }
            Some(&(last_seq, _)) if tag.seq < last_seq => {
                // A straggler retry of a batch superseded by later ones.
                // Its sender moved on (the original delivery was either
                // acknowledged or abandoned); re-applying now would
                // reorder history, so refuse.
                return Response::Refused;
            }
            _ => {}
        }
        let resp = self.apply(&updates);
        if let Response::Ack { generation } = resp {
            table.insert(tag.nonce, (tag.seq, generation));
        }
        resp
    }

    fn handle(&self, req: Request) -> Response {
        if let Request::ApplyUpdates(batch) = req {
            return self.apply(&batch);
        }
        let mut req = Some(req);
        let mut out = None;
        self.store.with_frozen(&mut |store, _generation| {
            let req = req.take().expect("with_frozen invokes exactly once");
            out = Some(answer(store, self.policy, self.bucket_workers, req));
        });
        out.expect("with_frozen must invoke its closure")
    }

    /// The zero-copy serving path for the hot object-shipping queries:
    /// `WINDOW` and `ε-RANGE` answers are encoded **directly into the wire
    /// buffer** by the store's visitor — no intermediate object `Vec`, no
    /// `Response`, single store traversal. When the backend can announce
    /// the exact count more cheaply than the visit (the aR-tree's
    /// aggregate COUNT), the codec reserves the exact frame capacity from
    /// its published constants up front; otherwise the frame's length
    /// prefix is patched after the one and only pass. Byte-identical to
    /// the materializing default (differentially tested in
    /// `tests/zero_copy.rs`).
    /// Every frame served from a generation > 0 is prefixed with the
    /// generation stamp **inside the same pinned-snapshot closure** that
    /// answers, so the stamp can never disagree with the snapshot that
    /// produced the payload. Generation 0 stamps nothing: frozen-store
    /// traffic is bit-identical to the pre-generation wire format. Ack
    /// frames are never stamped (the payload already is the generation).
    /// The same single-traversal path serves both wire versions: the
    /// encoder is parameterized by the negotiated [`WireVersion`] and the
    /// request's quantization context, so v2 frames stream with the same
    /// exact-capacity reservation discipline (from the `*_BYTES_V2`
    /// bounds) as v1.
    fn handle_into(&self, req: Request, wire: WireVersion, buf: &mut BytesMut) {
        if let Request::ApplyUpdates(batch) = req {
            return asj_net::codec::encode_response_versioned(&self.apply(&batch), wire, None, buf);
        }
        // Derived from the *decoded* request — the post-f32-rounding
        // rectangle — so client and server agree on the grid bit-for-bit.
        let ctx = QuantCtx::for_request(&req);
        let mut req = Some(req);
        self.store.with_frozen(&mut |store, generation| {
            asj_net::codec::stamp_generation_versioned(generation, wire, buf);
            match req.take().expect("with_frozen invokes exactly once") {
                Request::Window(w) => {
                    let mut enc = match store.window_count_hint(&w) {
                        Some(n) => ObjectsEncoder::with_exact_count_versioned(buf, n, wire, ctx),
                        None => ObjectsEncoder::new_versioned(buf, wire, ctx),
                    };
                    store.for_each_in_window(&w, &mut |o| enc.push(o));
                    enc.finish();
                }
                Request::EpsRange { q, eps } => {
                    let mut enc = ObjectsEncoder::new_versioned(buf, wire, ctx);
                    store.for_each_eps_range(&q, eps, &mut |o| enc.push(o));
                    enc.finish();
                }
                // Everything else is either scalar (nothing to stream) or
                // cold (cooperative/bucket paths); the materializing
                // default stays the single source of semantics for those.
                other => asj_net::codec::encode_response_versioned(
                    &answer(store, self.policy, self.bucket_workers, other),
                    wire,
                    ctx.as_ref(),
                    buf,
                ),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RTreeStore, ScanStore};

    fn lattice(n: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| SpatialObject::point(i, (i % n) as f64, (i / n) as f64))
            .collect()
    }

    #[test]
    fn primitive_queries_served() {
        let svc = SpatialService::new(ScanStore::new(lattice(10)));
        let w = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        assert_eq!(svc.handle(Request::Count(w)).into_count(), 9);
        assert_eq!(svc.handle(Request::Window(w)).into_objects().len(), 9);
        let objs = svc
            .handle(Request::EpsRange {
                q: Rect::point(asj_geom::Point::new(5.0, 5.0)),
                eps: 1.0,
            })
            .into_objects();
        assert_eq!(objs.len(), 5); // center + 4 axis neighbours
    }

    #[test]
    fn multi_count_matches_single_counts_on_both_stores() {
        let windows = vec![
            Rect::from_coords(0.0, 0.0, 2.0, 2.0),
            Rect::from_coords(3.5, 3.5, 6.5, 6.5),
            Rect::from_coords(50.0, 50.0, 60.0, 60.0), // empty
            Rect::from_coords(-5.0, -5.0, 20.0, 20.0), // everything
        ];
        let scan = SpatialService::new(ScanStore::new(lattice(10)));
        let tree = SpatialService::new(RTreeStore::with_fanout(lattice(10), 4));
        for svc in [
            &scan as &dyn asj_net::QueryHandler,
            &tree as &dyn asj_net::QueryHandler,
        ] {
            let batched = svc
                .handle(Request::MultiCount(windows.clone()))
                .into_counts();
            let singles: Vec<u64> = windows
                .iter()
                .map(|w| svc.handle(Request::Count(*w)).into_count())
                .collect();
            assert_eq!(batched, singles);
        }
        assert_eq!(
            scan.handle(Request::MultiCount(vec![])).into_counts(),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn cooperative_refused_by_default() {
        let svc = SpatialService::new(RTreeStore::new(lattice(10)));
        assert_eq!(svc.handle(Request::CoopLevelMbrs(0)), Response::Refused);
        assert_eq!(
            svc.handle(Request::CoopJoinPush {
                objects: vec![],
                eps: 1.0
            }),
            Response::Refused
        );
    }

    #[test]
    fn cooperative_served_when_enabled() {
        let svc = SpatialService::new(RTreeStore::new(lattice(10)))
            .with_policy(ServicePolicy::Cooperative);
        let mbrs = svc.handle(Request::CoopLevelMbrs(0)).into_rects();
        assert!(!mbrs.is_empty());
        let pairs = svc
            .handle(Request::CoopJoinPush {
                objects: vec![SpatialObject::point(500, 0.0, 0.0)],
                eps: 1.0,
            })
            .into_pairs();
        // (0,0) point joins lattice points (0,0), (1,0), (0,1).
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|&(outer, _)| outer == 500));
    }

    #[test]
    fn coop_level_mbrs_refused_without_hierarchy() {
        let svc =
            SpatialService::new(ScanStore::new(lattice(4))).with_policy(ServicePolicy::Cooperative);
        assert_eq!(svc.handle(Request::CoopLevelMbrs(0)), Response::Refused);
    }

    #[test]
    fn coop_filter_dedups_objects() {
        let svc = SpatialService::new(ScanStore::new(lattice(10)))
            .with_policy(ServicePolicy::Cooperative);
        // Two overlapping MBRs both covering the origin corner.
        let objs = svc
            .handle(Request::CoopFilterByMbrs {
                mbrs: vec![
                    Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                    Rect::from_coords(0.0, 0.0, 1.0, 1.0),
                ],
                eps: 0.0,
            })
            .into_objects();
        let mut ids: Vec<u32> = objs.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), objs.len(), "duplicates leaked");
        assert_eq!(objs.len(), 4);
    }

    #[test]
    fn bucket_parallel_matches_sequential() {
        let store = RTreeStore::new(lattice(40)); // 1600 points
        let probes: Vec<SpatialObject> = lattice(40)
            .into_iter()
            .step_by(2)
            .take(PARALLEL_BUCKET_THRESHOLD + 100)
            .collect();

        let seq = SpatialService::new(RTreeStore::new(lattice(40))).with_bucket_workers(1);
        let par = SpatialService::new(store).with_bucket_workers(4);
        let a = seq
            .handle(Request::BucketEpsRange {
                probes: probes.clone(),
                eps: 1.5,
            })
            .into_buckets();
        let b = par
            .handle(Request::BucketEpsRange { probes, eps: 1.5 })
            .into_buckets();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            let mut xi: Vec<u32> = x.iter().map(|o| o.id).collect();
            let mut yi: Vec<u32> = y.iter().map(|o| o.id).collect();
            xi.sort_unstable();
            yi.sort_unstable();
            assert_eq!(xi, yi);
        }
    }

    #[test]
    fn frozen_service_refuses_updates() {
        let svc = SpatialService::new(ScanStore::new(lattice(4)));
        assert_eq!(
            svc.handle(Request::ApplyUpdates(vec![])),
            Response::Refused,
            "frozen stores must refuse updates"
        );
    }

    #[test]
    fn live_service_acks_updates_and_stamps_generations() {
        use crate::versioned::VersionedStore;
        use asj_net::codec::decode_response_gen;
        use asj_net::Update;

        let svc = SpatialService::new(VersionedStore::new(lattice(10), RTreeStore::new));
        let w = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        // Generation 0 serves bit-identically to a frozen service.
        let mut live_buf = BytesMut::new();
        svc.handle_into(Request::Window(w), WireVersion::V1, &mut live_buf);
        let frozen = SpatialService::new(RTreeStore::new(lattice(10)));
        let mut frozen_buf = BytesMut::new();
        frozen.handle_into(Request::Window(w), WireVersion::V1, &mut frozen_buf);
        assert_eq!(
            live_buf.freeze(),
            frozen_buf.freeze(),
            "generation 0 must be bit-identical to the frozen path"
        );
        // An update batch is acknowledged with the new generation,
        // unstamped.
        let mut ack_buf = BytesMut::new();
        svc.handle_into(
            Request::ApplyUpdates(vec![Update::Delete(0)]),
            WireVersion::V1,
            &mut ack_buf,
        );
        let (ack, stamp) = decode_response_gen(ack_buf.freeze()).unwrap();
        assert_eq!(stamp, 0, "Ack frames are never stamped");
        assert_eq!(ack, Response::Ack { generation: 1 });
        // Queries now serve generation 1 and say so on the wire.
        let mut buf = BytesMut::new();
        svc.handle_into(Request::Window(w), WireVersion::V1, &mut buf);
        let (resp, stamp) = decode_response_gen(buf.freeze()).unwrap();
        assert_eq!(stamp, 1);
        assert_eq!(resp.into_objects().len(), 8); // 9 lattice points minus id 0
        assert_eq!(svc.handle(Request::Count(w)).into_count(), 8);
        assert_eq!(
            svc.handle(Request::ApplyUpdates(vec![])),
            Response::Ack { generation: 2 },
            "empty batches still tick the generation"
        );
    }

    #[test]
    fn duplicate_tagged_deliveries_never_double_bump() {
        use crate::versioned::VersionedStore;
        use asj_net::Update;

        let svc = SpatialService::new(VersionedStore::new(lattice(4), RTreeStore::new));
        let tag = |nonce, seq| DedupTag { nonce, seq };
        let batch = vec![Update::Delete(0)];
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 0), batch.clone()),
            Response::Ack { generation: 1 }
        );
        // The retried delivery replays the remembered Ack: same
        // generation, nothing re-applied.
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 0), batch.clone()),
            Response::Ack { generation: 1 }
        );
        assert_eq!(svc.store().generation(), 1);
        assert_eq!(svc.store().len(), 15, "the delete applied exactly once");
        // The next batch from the same sender advances normally.
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 1), vec![Update::Delete(1)]),
            Response::Ack { generation: 2 }
        );
        // A straggler retry of the superseded batch is refused, never
        // re-applied.
        assert_eq!(
            svc.handle_tagged_updates(tag(1, 0), batch),
            Response::Refused
        );
        assert_eq!(svc.store().generation(), 2);
        // Senders are independent: a different nonce with seq 0 applies.
        assert_eq!(
            svc.handle_tagged_updates(tag(2, 0), vec![]),
            Response::Ack { generation: 3 }
        );
    }

    #[test]
    fn frozen_service_refuses_tagged_updates_without_recording() {
        let svc = SpatialService::new(ScanStore::new(lattice(4)));
        let tag = DedupTag { nonce: 7, seq: 0 };
        assert_eq!(svc.handle_tagged_updates(tag, vec![]), Response::Refused);
        // The refusal was not recorded: the retry takes the same path and
        // is refused again (not replayed as a phantom Ack).
        assert_eq!(svc.handle_tagged_updates(tag, vec![]), Response::Refused);
    }

    #[test]
    fn join_push_empty_outer() {
        let svc =
            SpatialService::new(ScanStore::new(lattice(4))).with_policy(ServicePolicy::Cooperative);
        let pairs = svc
            .handle(Request::CoopJoinPush {
                objects: vec![],
                eps: 5.0,
            })
            .into_pairs();
        assert!(pairs.is_empty());
    }
}
