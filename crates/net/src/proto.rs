//! The query protocol of a non-cooperative spatial server.

use asj_geom::{Rect, SpatialObject};

/// A request from the device to one server.
///
/// The first five variants are the paper's primitive interface (Section 3):
/// `WINDOW`, `COUNT`, `ε-RANGE`, the bucket ε-RANGE of Section 3.1, and the
/// average-MBR-area aggregate mentioned for polygon datasets. The
/// `Coop*` variants are the *cooperative extension* that only the SemiJoin
/// baseline uses (Section 5.3) — real non-cooperative servers would reject
/// them, and [`crate::proto::Request::is_cooperative`] lets servers do so.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// All objects intersecting `w`.
    Window(Rect),
    /// Number of objects intersecting `w` (the aggregate/COUNT query).
    Count(Rect),
    /// All objects within distance `eps` of `q` (degenerate `q` = a point,
    /// the paper's original form; a proper rectangle subsumes the
    /// "WINDOW with sides 2ε" simulation the paper describes).
    EpsRange { q: Rect, eps: f64 },
    /// Bucket submission: one ε-RANGE probe per object, answered together
    /// so TCP header overhead is amortized (Section 3.1).
    BucketEpsRange {
        probes: Vec<SpatialObject>,
        eps: f64,
    },
    /// Average MBR area of objects intersecting `w` — the extra aggregate
    /// the paper piggybacks on COUNT for polygon datasets.
    AvgArea(Rect),
    /// Batched statistics: one COUNT per window, answered together in a
    /// single [`Response::Counts`] so message framing and packet headers
    /// are amortized across all probes (the `2k²·Taq` of one
    /// repartitioning round collapses to two round trips). An *extension*
    /// to the paper's interface — devices only send it when
    /// `NetConfig::batched_stats` is on; the default is the paper-faithful
    /// per-query COUNT.
    MultiCount(Vec<Rect>),
    /// Cooperative: the MBRs of one R-tree level (`levels_above_leaves`).
    CoopLevelMbrs(u8),
    /// Cooperative: objects within `eps` of any of the given MBRs (the
    /// semi-join filter step executed at the other server).
    CoopFilterByMbrs { mbrs: Vec<Rect>, eps: f64 },
    /// Cooperative: join the pushed objects against the local dataset and
    /// return qualifying `(pushed_id, local_id)` pairs.
    CoopJoinPush {
        objects: Vec<SpatialObject>,
        eps: f64,
    },
    /// A batched dataset update (inserts/deletes/moves), applied
    /// copy-on-write into a fresh store generation and acknowledged with
    /// the new generation number. Frozen stores answer [`Response::Refused`].
    ApplyUpdates(Vec<Update>),
}

/// One element of a batched dataset update.
///
/// Semantics are upsert-like so flat and sharded deployments agree without
/// coordination: `Insert` replaces any existing object with the same id,
/// `Delete` of an absent id is a no-op, and `Move` is an upsert of the
/// object at its new MBR.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Insert (or replace, by id) one object.
    Insert(SpatialObject),
    /// Remove the object with this id, if present.
    Delete(u32),
    /// Re-place object `id` at MBR `to` (insert if absent).
    Move { id: u32, to: Rect },
}

impl Request {
    /// `true` for the cooperative-extension queries that a faithful
    /// non-cooperative server refuses.
    pub fn is_cooperative(&self) -> bool {
        matches!(
            self,
            Request::CoopLevelMbrs(_)
                | Request::CoopFilterByMbrs { .. }
                | Request::CoopJoinPush { .. }
        )
    }

    /// `true` for aggregate (statistics) queries, the paper's `Taq` class.
    pub fn is_aggregate(&self) -> bool {
        matches!(
            self,
            Request::Count(_) | Request::AvgArea(_) | Request::MultiCount(_)
        )
    }
}

/// A server's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Objects, for `WINDOW` / `ε-RANGE` / `CoopFilterByMbrs`.
    Objects(Vec<SpatialObject>),
    /// Scalar count (`BA` = 8 bytes on the wire, "one long integer").
    Count(u64),
    /// Per-window counts for [`Request::MultiCount`], probe order
    /// preserved.
    Counts(Vec<u64>),
    /// Scalar area average.
    Area(f64),
    /// Per-probe result lists for `BucketEpsRange`, probe order preserved.
    Buckets(Vec<Vec<SpatialObject>>),
    /// MBRs for `CoopLevelMbrs`.
    Rects(Vec<Rect>),
    /// Qualifying id pairs for `CoopJoinPush`.
    Pairs(Vec<(u32, u32)>),
    /// The server refuses the request (e.g. cooperative query to a
    /// non-cooperative server).
    Refused,
    /// Acknowledges [`Request::ApplyUpdates`]: the generation number of the
    /// freshly published snapshot.
    Ack { generation: u64 },
    /// The server could not decode the request frame. A *typed* error
    /// reply — answering it instead of panicking is what keeps a shared
    /// server thread serving its other devices when one client garbles a
    /// frame. One opcode byte on the wire.
    Malformed,
    /// The carrier's peer is gone (server dropped mid-session). This
    /// variant never crosses the wire: carriers fabricate it locally in
    /// place of a reply, and meters must not charge either direction for
    /// it — nothing was sent or received.
    Unavailable,
}

impl Response {
    /// Spatial objects this answer carries — what the meters charge as
    /// "objects received". The single source of truth for that count:
    /// every metering site (plain link, shard router, cache layer) must
    /// agree, or the differential byte-identity suites diverge.
    pub fn object_count(&self) -> u64 {
        match self {
            Response::Objects(v) => v.len() as u64,
            Response::Buckets(b) => b.iter().map(|x| x.len() as u64).sum(),
            _ => 0,
        }
    }

    /// Unwraps an update acknowledgement into its generation number.
    pub fn into_ack(self) -> u64 {
        match self {
            Response::Ack { generation } => generation,
            other => panic!("protocol mismatch: expected Ack, got {other:?}"),
        }
    }

    /// Unwraps an object list, panicking on protocol mismatch — server
    /// implementations in this repo are type-correct by construction, so a
    /// mismatch is a bug, not a runtime condition.
    pub fn into_objects(self) -> Vec<SpatialObject> {
        match self {
            Response::Objects(v) => v,
            other => panic!("protocol mismatch: expected Objects, got {other:?}"),
        }
    }

    /// Unwraps a count.
    pub fn into_count(self) -> u64 {
        match self {
            Response::Count(c) => c,
            other => panic!("protocol mismatch: expected Count, got {other:?}"),
        }
    }

    /// Unwraps a batched count list.
    pub fn into_counts(self) -> Vec<u64> {
        match self {
            Response::Counts(c) => c,
            other => panic!("protocol mismatch: expected Counts, got {other:?}"),
        }
    }

    /// Unwraps bucket lists.
    pub fn into_buckets(self) -> Vec<Vec<SpatialObject>> {
        match self {
            Response::Buckets(b) => b,
            other => panic!("protocol mismatch: expected Buckets, got {other:?}"),
        }
    }

    /// Unwraps level MBRs.
    pub fn into_rects(self) -> Vec<Rect> {
        match self {
            Response::Rects(r) => r,
            other => panic!("protocol mismatch: expected Rects, got {other:?}"),
        }
    }

    /// Unwraps join pairs.
    pub fn into_pairs(self) -> Vec<(u32, u32)> {
        match self {
            Response::Pairs(p) => p,
            other => panic!("protocol mismatch: expected Pairs, got {other:?}"),
        }
    }
}

/// Server-side request handler. Implemented by `asj-server`; `asj-net` only
/// needs the shape to wire transports.
pub trait QueryHandler: Send + Sync {
    fn handle(&self, req: Request) -> Response;

    /// Handles a request by encoding the answer directly into `buf`
    /// (appending; callers clear between requests to reuse the
    /// allocation) in the wire version the request arrived in. The
    /// default materializes a [`Response`] and encodes it; servers with
    /// streaming storage (the visitor-style `SpatialStore` queries)
    /// override this to encode qualifying objects into the wire buffer as
    /// they are visited — **byte-identical** to the default, without the
    /// intermediate `Vec` and `Response`.
    fn handle_into(
        &self,
        req: Request,
        wire: crate::codec::WireVersion,
        buf: &mut bytes::BytesMut,
    ) {
        let ctx = crate::codec::QuantCtx::for_request(&req);
        crate::codec::encode_response_versioned(&self.handle(req), wire, ctx.as_ref(), buf);
    }

    /// Handles an `ApplyUpdates` batch delivered under the retry-dedup
    /// envelope (`codec::wrap_dedup`): `tag` identifies this delivery's
    /// `(sender nonce, batch seq)`, identical across every retry of the
    /// same batch. The default ignores the tag and applies the batch
    /// plainly — correct for handlers that refuse updates anyway.
    /// Stateful update servers (`SpatialService` over a live store)
    /// override this with an at-most-once check: a duplicate `(nonce,
    /// seq)` replays the remembered `Ack` instead of re-applying, so a
    /// retried delivery can never double-bump a generation or
    /// double-apply a move.
    fn handle_tagged_updates(
        &self,
        _tag: crate::codec::DedupTag,
        updates: Vec<Update>,
    ) -> Response {
        self.handle(Request::ApplyUpdates(updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooperative_classification() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(!Request::Window(w).is_cooperative());
        assert!(!Request::Count(w).is_cooperative());
        assert!(Request::CoopLevelMbrs(0).is_cooperative());
        assert!(Request::CoopJoinPush {
            objects: vec![],
            eps: 1.0
        }
        .is_cooperative());
    }

    #[test]
    fn aggregate_classification() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(Request::Count(w).is_aggregate());
        assert!(Request::AvgArea(w).is_aggregate());
        assert!(Request::MultiCount(vec![w, w]).is_aggregate());
        assert!(!Request::Window(w).is_aggregate());
        assert!(!Request::MultiCount(vec![w]).is_cooperative());
    }

    #[test]
    fn update_requests_are_neither_cooperative_nor_aggregate() {
        let batch = Request::ApplyUpdates(vec![
            Update::Insert(SpatialObject::point(1, 0.0, 0.0)),
            Update::Delete(2),
            Update::Move {
                id: 3,
                to: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            },
        ]);
        assert!(!batch.is_cooperative());
        assert!(!batch.is_aggregate());
        assert_eq!(Response::Ack { generation: 4 }.object_count(), 0);
        assert_eq!(Response::Ack { generation: 4 }.into_ack(), 4);
    }

    #[test]
    fn unwrap_helpers() {
        assert_eq!(Response::Count(5).into_count(), 5);
        assert_eq!(Response::Counts(vec![1, 2, 3]).into_counts(), vec![1, 2, 3]);
        assert_eq!(Response::Objects(vec![]).into_objects(), vec![]);
        assert_eq!(Response::Pairs(vec![(1, 2)]).into_pairs(), vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "protocol mismatch")]
    fn unwrap_mismatch_panics() {
        Response::Count(1).into_objects();
    }
}
