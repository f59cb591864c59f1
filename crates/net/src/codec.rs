//! Binary wire format.
//!
//! Objects travel as `id: u32 + 4 × f32` = **20 bytes** — the `Bobj` of the
//! paper's cost model (constant across point and MBR workloads). Rectangles
//! are 16 bytes, counts 8 ("one long integer", the paper's `BA`).
//!
//! Coordinates are carried as `f32`. For the round trip to be lossless the
//! dataset coordinates must be f32-representable; every generator in
//! `asj-workloads` rounds coordinates through `f32` at creation time, which
//! the integration tests rely on when comparing against brute-force ground
//! truth computed on the original data.

use asj_geom::{Point, Rect, SpatialObject};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::proto::{Request, Response, Update};

/// Wire size of one spatial object (`Bobj`).
pub const OBJ_BYTES: u64 = 20;
/// Wire size of one rectangle.
pub const RECT_BYTES: u64 = 16;
/// Wire size of a `WINDOW`/`COUNT`/`AvgArea` request (opcode + rect): the
/// paper's `BQ` for simple queries.
pub const QUERY_BYTES: u64 = 1 + RECT_BYTES;
/// Wire size of a scalar `Count` response (opcode + u64): the paper's `BA`.
pub const ANSWER_BYTES: u64 = 1 + 8;
/// Wire size of a single ε-RANGE request (opcode + rect + f32 ε).
pub const EPS_QUERY_BYTES: u64 = 1 + RECT_BYTES + 4;
/// Fixed overhead of a bucket ε-RANGE request (opcode + f32 ε + u32 n);
/// each probe adds [`OBJ_BYTES`].
pub const BUCKET_REQ_HEADER_BYTES: u64 = 1 + 4 + 4;
/// Fixed overhead of an `Objects` response (opcode + u32 length).
pub const OBJECTS_HEADER_BYTES: u64 = 1 + 4;
/// Per-probe framing overhead inside a `Buckets` response (u32 length).
pub const BUCKET_FRAME_BYTES: u64 = 4;
/// Fixed overhead of a batched `MultiCount` request (opcode + u32 n);
/// each probe window adds [`RECT_BYTES`].
pub const MULTI_COUNT_HEADER_BYTES: u64 = 1 + 4;
/// Fixed overhead of a `Counts` response (opcode + u32 n); each count adds
/// [`COUNT_ENTRY_BYTES`].
pub const COUNTS_HEADER_BYTES: u64 = 1 + 4;
/// Wire size of one count inside a `Counts` response (u64).
pub const COUNT_ENTRY_BYTES: u64 = 8;
/// Wire size of a scalar `Area` response (opcode + f64).
pub const AREA_BYTES: u64 = 1 + 8;
/// Wire size of a `CoopLevelMbrs` request (opcode + u8 level).
pub const COOP_LEVEL_REQ_BYTES: u64 = 1 + 1;
/// Fixed overhead of a `CoopFilterByMbrs` request (opcode + f32 ε + u32 n);
/// each MBR adds [`RECT_BYTES`].
pub const COOP_FILTER_HEADER_BYTES: u64 = 1 + 4 + 4;
/// Fixed overhead of a `CoopJoinPush` request (opcode + f32 ε + u32 n);
/// each object adds [`OBJ_BYTES`].
pub const COOP_JOIN_HEADER_BYTES: u64 = 1 + 4 + 4;
/// Fixed overhead of a `Rects` response (opcode + u32 n); each rectangle
/// adds [`RECT_BYTES`].
pub const RECTS_HEADER_BYTES: u64 = 1 + 4;
/// Fixed overhead of a `Pairs` response (opcode + u32 n); each pair adds
/// [`PAIR_BYTES`].
pub const PAIRS_HEADER_BYTES: u64 = 1 + 4;
/// Wire size of one id pair inside a `Pairs` response (2 × u32).
pub const PAIR_BYTES: u64 = 8;
/// Wire size of a `Refused` response (opcode only).
pub const REFUSED_BYTES: u64 = 1;
/// Wire size of a `Malformed` response (opcode only) — the typed error
/// frame a server answers an undecodable request with, instead of dying.
pub const MALFORMED_BYTES: u64 = 1;
/// Wire size of the `Unavailable` pseudo-frame (opcode only). Never sent
/// by a server: carriers fabricate it locally when the peer is gone, so
/// the client degrades to a typed [`crate::proto::Response::Unavailable`]
/// instead of panicking. Zero wire bytes actually cross for it.
pub const UNAVAILABLE_BYTES: u64 = 1;
/// Fixed overhead of an `ApplyUpdates` request (opcode + u32 n); each
/// update adds its tagged wire size ([`UPDATE_INSERT_BYTES`],
/// [`UPDATE_DELETE_BYTES`] or [`UPDATE_MOVE_BYTES`]).
pub const UPDATES_HEADER_BYTES: u64 = 1 + 4;
/// Wire size of one `Insert` update (tag + object).
pub const UPDATE_INSERT_BYTES: u64 = 1 + OBJ_BYTES;
/// Wire size of one `Delete` update (tag + u32 id).
pub const UPDATE_DELETE_BYTES: u64 = 1 + 4;
/// Wire size of one `Move` update (tag + u32 id + rect).
pub const UPDATE_MOVE_BYTES: u64 = 1 + 4 + RECT_BYTES;
/// Wire size of an `Ack` response (opcode + u64 generation).
pub const ACK_BYTES: u64 = 1 + 8;
/// Wire size of the generation-stamp envelope prefixed to response frames
/// served from a generation > 0 (opcode + u64 generation). Generation-0
/// frames carry **no** stamp, so frozen-store traffic is bit-for-bit the
/// pre-generation wire format.
pub const GEN_STAMP_BYTES: u64 = 1 + 8;
/// Wire size of the retry-dedup envelope prefixed to `ApplyUpdates`
/// requests when a [`crate::packet::RetryPolicy`] is enabled (opcode +
/// u64 nonce + u64 seq). With retries off the envelope is never attached
/// and update traffic is bit-for-bit the plain format.
pub const DEDUP_HEADER_BYTES: u64 = 1 + 8 + 8;

/// Frame-layout strategy of one physical link — the negotiated wire
/// protocol version. `V1` is the seed format every peer speaks; `V2` is a
/// strict superset a link may upgrade to via the `HELLO`/`ACCEPT`
/// handshake ([`encode_hello`], [`try_answer_hello`]): requests gain a
/// 1-byte envelope marker, object frames switch to the compact layout
/// ([`ObjectsEncoder`]), counts and acks travel as LEB128 varints, and
/// generation stamps shrink to a varint. Everything else keeps its v1
/// layout — a v2 decoder accepts both, so the upgrade is per-frame
/// self-describing and stateless on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireVersion {
    /// The seed wire format — always spoken when negotiation is off.
    #[default]
    V1,
    /// Compact frames: varint ids/counts, quantized coordinates.
    V2,
}

/// Highest wire protocol version this build speaks.
pub const MAX_WIRE_VERSION: u8 = 2;
/// Wire size of a `HELLO` handshake probe (opcode + u8 max version).
pub const HELLO_BYTES: u64 = 2;
/// Wire size of an `ACCEPT` handshake reply (opcode + u8 version).
pub const ACCEPT_BYTES: u64 = 2;
/// Per-request envelope overhead on a v2 link (the marker byte that asks
/// the server to answer in v2 framing).
pub const V2_MARK_BYTES: u64 = 1;
/// Worst-case wire size of one object inside a v2 `Objects` frame: tag
/// byte + 5-byte zigzag id delta + full exact-`f32` rect escape. This is
/// the per-object bound the exact-count reservation uses; typical point
/// objects encode in 6–11 bytes (see the quantization contract on
/// [`QuantCtx`]).
pub const OBJ_BYTES_V2_MAX: u64 = 1 + 5 + RECT_BYTES;
/// Best-case wire size of one v2 object: a fully quantized point (tag +
/// 1-byte id delta + one u16 per axis).
pub const OBJ_BYTES_V2_MIN: u64 = 1 + 1 + 4;
/// Planning estimate of the v2 per-object wire size the cost model prices
/// window downloads with when [`crate::NetConfig::wire_v2`] is on: tag +
/// short id delta + one escaped-`f32` point pair (the dominant shape on
/// the point workloads). Deliberately conservative — quantized points are
/// smaller, full-rect escapes larger.
pub const OBJ_BYTES_V2_EST: f64 = 11.0;
/// Worst-case wire size of a v2 generation stamp (opcode + 10-byte
/// varint); small generations take 2–3 bytes instead of v1's fixed 9.
pub const GEN_STAMP_BYTES_V2_MAX: u64 = 1 + 10;

/// Decoding failure: corrupt or truncated message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    Truncated,
    UnknownOpcode(u8),
    /// A compact v2 frame carries quantized coordinates but the decoder
    /// was given no request window to dequantize against.
    MissingContext,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            CodecError::MissingContext => {
                write!(f, "quantized frame requires the request window context")
            }
        }
    }
}

impl std::error::Error for CodecError {}

pub(crate) mod op {
    pub const WINDOW: u8 = 0x01;
    pub const COUNT: u8 = 0x02;
    pub const EPS_RANGE: u8 = 0x03;
    pub const BUCKET_EPS_RANGE: u8 = 0x04;
    pub const AVG_AREA: u8 = 0x05;
    pub const MULTI_COUNT: u8 = 0x06;
    pub const APPLY_UPDATES: u8 = 0x07;
    /// Idempotency envelope for retried update deliveries:
    /// `[APPLY_UPDATES_SEQ][u64 nonce][u64 seq][inner request frame]`.
    /// Attached by a link only when its retry policy is enabled; every
    /// re-delivery of the same batch carries the same `(nonce, seq)`, so
    /// the server can detect a duplicate and replay the remembered `Ack`
    /// instead of double-applying (see `QueryHandler::
    /// handle_tagged_updates`).
    pub const APPLY_UPDATES_SEQ: u8 = 0x08;
    pub const COOP_LEVEL_MBRS: u8 = 0x10;
    pub const COOP_FILTER: u8 = 0x11;
    pub const COOP_JOIN_PUSH: u8 = 0x12;

    pub const R_OBJECTS: u8 = 0x81;
    pub const R_COUNT: u8 = 0x82;
    pub const R_AREA: u8 = 0x83;
    pub const R_BUCKETS: u8 = 0x84;
    pub const R_RECTS: u8 = 0x85;
    pub const R_PAIRS: u8 = 0x86;
    pub const R_REFUSED: u8 = 0x87;
    pub const R_COUNTS: u8 = 0x88;
    pub const R_ACK: u8 = 0x89;
    /// Not a response in its own right: the generation-stamp envelope
    /// prefix. `[R_GEN][u64 generation][response frame]`.
    pub const R_GEN: u8 = 0x8A;

    /// Wire tags of the three [`crate::proto::Update`] kinds.
    pub const UPD_INSERT: u8 = 0x01;
    pub const UPD_DELETE: u8 = 0x02;
    pub const UPD_MOVE: u8 = 0x03;

    // ---- wire protocol v2 (negotiated; see `WireVersion`) ----

    /// Link-control probe `[HELLO][u8 max_version]` — the only frame a
    /// negotiating client sends before knowing the peer's version.
    pub const HELLO: u8 = 0x70;
    /// Request-envelope prefix `[V2_MARK][v1-layout request]`: marks a
    /// request whose sender wants the reply in v2 framing. Stateless —
    /// a server can interleave v1 and v2 peers on one queue.
    pub const V2_MARK: u8 = 0x71;
    /// Handshake reply `[R_ACCEPT][u8 version]`.
    pub const R_ACCEPT: u8 = 0x8B;
    /// Compact objects frame: `[R_OBJECTS_V2][u32 count]` then per-object
    /// `[tag][zigzag varint Δid][coords]` (see [`QuantCtx`]).
    pub const R_OBJECTS_V2: u8 = 0x8C;
    /// Compact count: `[R_COUNT_V2][varint]`.
    pub const R_COUNT_V2: u8 = 0x8D;
    /// Compact batched counts: `[R_COUNTS_V2][varint n][varint × n]`.
    pub const R_COUNTS_V2: u8 = 0x8E;
    /// Compact update ack: `[R_ACK_V2][varint generation]`.
    pub const R_ACK_V2: u8 = 0x8F;
    /// Compact generation-stamp envelope: `[R_GEN_V2][varint generation]`.
    pub const R_GEN_V2: u8 = 0x90;
    /// Typed decode-error reply `[R_MALFORMED]`: the server could not
    /// decode the request and is telling the sender so — and nobody
    /// else. A garbled frame from one client must never take down a
    /// server thread shared by every other client.
    pub const R_MALFORMED: u8 = 0x91;
    /// Local transport-failure pseudo-frame `[R_UNAVAILABLE]`: fabricated
    /// by a carrier whose peer is gone (server thread terminated, reply
    /// channel dropped). Reserved — a live server never sends it.
    pub const R_UNAVAILABLE: u8 = 0x92;
    /// Marker a deterministic fault injector stamps over byte 0 of a
    /// frame it garbles (see `crate::fault::FaultLayer`). Deliberately
    /// outside every valid opcode range so a garbled frame can never
    /// silently decode as a different valid value — decoders reject it as
    /// `UnknownOpcode(0xEE)` — while chaos-aware stats (the event loop's
    /// `garbled` gauge) can still tell an injected garble from a
    /// genuinely alien frame.
    pub const GARBLE: u8 = 0xEE;

    /// v2 object tag bit: min == max on both axes (a point) — the max
    /// coordinates are omitted entirely.
    pub const V2_POINT: u8 = 0x01;
    /// v2 object tag bit: x coordinates are u16 grid cells, not f32.
    pub const V2_QX: u8 = 0x02;
    /// v2 object tag bit: y coordinates are u16 grid cells, not f32.
    pub const V2_QY: u8 = 0x04;
}

/// Exact wire size of one encoded update.
pub fn update_wire_bytes(u: &Update) -> u64 {
    match u {
        Update::Insert(_) => UPDATE_INSERT_BYTES,
        Update::Delete(_) => UPDATE_DELETE_BYTES,
        Update::Move { .. } => UPDATE_MOVE_BYTES,
    }
}

fn put_rect(buf: &mut BytesMut, r: &Rect) {
    buf.put_f32(r.min.x as f32);
    buf.put_f32(r.min.y as f32);
    buf.put_f32(r.max.x as f32);
    buf.put_f32(r.max.y as f32);
}

/// Exact wire size of an encoded request, from the published constants —
/// what [`encode_request_into`] reserves and debug-asserts against, so the
/// cost-model constants can never drift from the real wire format.
pub fn request_wire_bytes(req: &Request) -> u64 {
    match req {
        Request::Window(_) | Request::Count(_) | Request::AvgArea(_) => QUERY_BYTES,
        Request::EpsRange { .. } => EPS_QUERY_BYTES,
        Request::BucketEpsRange { probes, .. } => {
            BUCKET_REQ_HEADER_BYTES + probes.len() as u64 * OBJ_BYTES
        }
        Request::MultiCount(windows) => {
            MULTI_COUNT_HEADER_BYTES + windows.len() as u64 * RECT_BYTES
        }
        Request::CoopLevelMbrs(_) => COOP_LEVEL_REQ_BYTES,
        Request::CoopFilterByMbrs { mbrs, .. } => {
            COOP_FILTER_HEADER_BYTES + mbrs.len() as u64 * RECT_BYTES
        }
        Request::CoopJoinPush { objects, .. } => {
            COOP_JOIN_HEADER_BYTES + objects.len() as u64 * OBJ_BYTES
        }
        Request::ApplyUpdates(batch) => {
            UPDATES_HEADER_BYTES + batch.iter().map(update_wire_bytes).sum::<u64>()
        }
    }
}

/// Exact wire size of an encoded response, from the published constants —
/// what [`encode_response_into`] reserves and debug-asserts against.
pub fn response_wire_bytes(resp: &Response) -> u64 {
    match resp {
        Response::Objects(objs) => OBJECTS_HEADER_BYTES + objs.len() as u64 * OBJ_BYTES,
        Response::Count(_) => ANSWER_BYTES,
        Response::Counts(counts) => COUNTS_HEADER_BYTES + counts.len() as u64 * COUNT_ENTRY_BYTES,
        Response::Area(_) => AREA_BYTES,
        Response::Buckets(buckets) => {
            OBJECTS_HEADER_BYTES
                + buckets
                    .iter()
                    .map(|b| BUCKET_FRAME_BYTES + b.len() as u64 * OBJ_BYTES)
                    .sum::<u64>()
        }
        Response::Rects(rects) => RECTS_HEADER_BYTES + rects.len() as u64 * RECT_BYTES,
        Response::Pairs(pairs) => PAIRS_HEADER_BYTES + pairs.len() as u64 * PAIR_BYTES,
        Response::Refused => REFUSED_BYTES,
        Response::Malformed => MALFORMED_BYTES,
        Response::Unavailable => UNAVAILABLE_BYTES,
        Response::Ack { .. } => ACK_BYTES,
    }
}

fn get_rect(buf: &mut Bytes) -> Result<Rect, CodecError> {
    if buf.remaining() < 16 {
        return Err(CodecError::Truncated);
    }
    let min_x = buf.get_f32() as f64;
    let min_y = buf.get_f32() as f64;
    let max_x = buf.get_f32() as f64;
    let max_y = buf.get_f32() as f64;
    Ok(Rect::new(
        Point::new(min_x, min_y),
        Point::new(max_x, max_y),
    ))
}

fn put_object(buf: &mut BytesMut, o: &SpatialObject) {
    buf.put_u32(o.id);
    put_rect(buf, &o.mbr);
}

fn get_object(buf: &mut Bytes) -> Result<SpatialObject, CodecError> {
    if buf.remaining() < 20 {
        return Err(CodecError::Truncated);
    }
    let id = buf.get_u32();
    let mbr = get_rect(buf)?;
    Ok(SpatialObject::new(id, mbr))
}

fn get_u32(buf: &mut Bytes) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_f32(buf: &mut Bytes) -> Result<f32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_f32())
}

/// Encodes a request.
pub fn encode_request(req: &Request) -> Bytes {
    let mut buf = BytesMut::new();
    encode_request_into(req, &mut buf);
    buf.freeze()
}

/// Encodes a request by appending to `buf`, reserving the exact capacity
/// [`request_wire_bytes`] publishes up front (one allocation at most) and
/// debug-asserting the encoded length against it.
pub fn encode_request_into(req: &Request, buf: &mut BytesMut) {
    let expected = request_wire_bytes(req);
    let start = buf.len();
    buf.reserve(expected as usize);
    match req {
        Request::Window(w) => {
            buf.put_u8(op::WINDOW);
            put_rect(buf, w);
        }
        Request::Count(w) => {
            buf.put_u8(op::COUNT);
            put_rect(buf, w);
        }
        Request::EpsRange { q, eps } => {
            buf.put_u8(op::EPS_RANGE);
            put_rect(buf, q);
            buf.put_f32(*eps as f32);
        }
        Request::BucketEpsRange { probes, eps } => {
            buf.put_u8(op::BUCKET_EPS_RANGE);
            buf.put_f32(*eps as f32);
            buf.put_u32(probes.len() as u32);
            for p in probes {
                put_object(buf, p);
            }
        }
        Request::AvgArea(w) => {
            buf.put_u8(op::AVG_AREA);
            put_rect(buf, w);
        }
        Request::MultiCount(windows) => {
            buf.put_u8(op::MULTI_COUNT);
            buf.put_u32(windows.len() as u32);
            for w in windows {
                put_rect(buf, w);
            }
        }
        Request::CoopLevelMbrs(level) => {
            buf.put_u8(op::COOP_LEVEL_MBRS);
            buf.put_u8(*level);
        }
        Request::CoopFilterByMbrs { mbrs, eps } => {
            buf.put_u8(op::COOP_FILTER);
            buf.put_f32(*eps as f32);
            buf.put_u32(mbrs.len() as u32);
            for m in mbrs {
                put_rect(buf, m);
            }
        }
        Request::CoopJoinPush { objects, eps } => {
            buf.put_u8(op::COOP_JOIN_PUSH);
            buf.put_f32(*eps as f32);
            buf.put_u32(objects.len() as u32);
            for o in objects {
                put_object(buf, o);
            }
        }
        Request::ApplyUpdates(batch) => {
            buf.put_u8(op::APPLY_UPDATES);
            buf.put_u32(batch.len() as u32);
            for u in batch {
                match u {
                    Update::Insert(o) => {
                        buf.put_u8(op::UPD_INSERT);
                        put_object(buf, o);
                    }
                    Update::Delete(id) => {
                        buf.put_u8(op::UPD_DELETE);
                        buf.put_u32(*id);
                    }
                    Update::Move { id, to } => {
                        buf.put_u8(op::UPD_MOVE);
                        buf.put_u32(*id);
                        put_rect(buf, to);
                    }
                }
            }
        }
    }
    debug_assert_eq!(
        (buf.len() - start) as u64,
        expected,
        "request wire size diverged from the published constants"
    );
}

/// Encodes a request in the negotiated wire version: v1 requests are
/// exactly [`encode_request`]; v2 requests prepend the 1-byte
/// [`op::V2_MARK`] envelope to the unchanged v1 body, telling the server
/// to answer in v2 framing. Request bodies are not recoded — they are
/// dominated by rectangles both peers must read exactly, and the marker
/// keeps the server stateless.
pub fn encode_request_versioned(req: &Request, wire: WireVersion) -> Bytes {
    let mut buf = BytesMut::new();
    encode_request_versioned_into(req, wire, &mut buf);
    buf.freeze()
}

/// Appending form of [`encode_request_versioned`].
pub fn encode_request_versioned_into(req: &Request, wire: WireVersion, buf: &mut BytesMut) {
    if wire == WireVersion::V2 {
        buf.reserve((V2_MARK_BYTES + request_wire_bytes(req)) as usize);
        buf.put_u8(op::V2_MARK);
    }
    encode_request_into(req, buf);
}

/// Decodes a request, accepting both the bare v1 layout and the
/// v2-marked envelope; the returned [`WireVersion`] is the framing the
/// sender wants the *reply* in.
pub fn decode_request_versioned(mut buf: Bytes) -> Result<(Request, WireVersion), CodecError> {
    if buf.remaining() >= 1 && buf[0] == op::V2_MARK {
        buf.advance(1);
        Ok((decode_request_body(buf)?, WireVersion::V2))
    } else {
        Ok((decode_request_body(buf)?, WireVersion::V1))
    }
}

/// Decodes a request (either version), discarding the reply framing.
pub fn decode_request(buf: Bytes) -> Result<Request, CodecError> {
    Ok(decode_request_versioned(buf)?.0)
}

fn decode_request_body(mut buf: Bytes) -> Result<Request, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let opcode = buf.get_u8();
    match opcode {
        op::WINDOW => Ok(Request::Window(get_rect(&mut buf)?)),
        op::COUNT => Ok(Request::Count(get_rect(&mut buf)?)),
        op::EPS_RANGE => {
            let q = get_rect(&mut buf)?;
            let eps = get_f32(&mut buf)? as f64;
            Ok(Request::EpsRange { q, eps })
        }
        op::BUCKET_EPS_RANGE => {
            let eps = get_f32(&mut buf)? as f64;
            let n = get_u32(&mut buf)? as usize;
            let mut probes = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                probes.push(get_object(&mut buf)?);
            }
            Ok(Request::BucketEpsRange { probes, eps })
        }
        op::AVG_AREA => Ok(Request::AvgArea(get_rect(&mut buf)?)),
        op::MULTI_COUNT => {
            let n = get_u32(&mut buf)? as usize;
            let mut windows = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                windows.push(get_rect(&mut buf)?);
            }
            Ok(Request::MultiCount(windows))
        }
        op::COOP_LEVEL_MBRS => {
            if buf.remaining() < 1 {
                return Err(CodecError::Truncated);
            }
            Ok(Request::CoopLevelMbrs(buf.get_u8()))
        }
        op::COOP_FILTER => {
            let eps = get_f32(&mut buf)? as f64;
            let n = get_u32(&mut buf)? as usize;
            let mut mbrs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                mbrs.push(get_rect(&mut buf)?);
            }
            Ok(Request::CoopFilterByMbrs { mbrs, eps })
        }
        op::COOP_JOIN_PUSH => {
            let eps = get_f32(&mut buf)? as f64;
            let n = get_u32(&mut buf)? as usize;
            let mut objects = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                objects.push(get_object(&mut buf)?);
            }
            Ok(Request::CoopJoinPush { objects, eps })
        }
        op::APPLY_UPDATES => {
            let n = get_u32(&mut buf)? as usize;
            let mut batch = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                batch.push(match buf.get_u8() {
                    op::UPD_INSERT => Update::Insert(get_object(&mut buf)?),
                    op::UPD_DELETE => Update::Delete(get_u32(&mut buf)?),
                    op::UPD_MOVE => Update::Move {
                        id: get_u32(&mut buf)?,
                        to: get_rect(&mut buf)?,
                    },
                    tag => return Err(CodecError::UnknownOpcode(tag)),
                });
            }
            Ok(Request::ApplyUpdates(batch))
        }
        other => Err(CodecError::UnknownOpcode(other)),
    }
}

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::new();
    encode_response_into(resp, &mut buf);
    buf.freeze()
}

/// Encodes a response by appending to `buf`, reserving the exact capacity
/// [`response_wire_bytes`] publishes up front (one allocation at most) and
/// debug-asserting the encoded length against it. Servers call this with a
/// reused buffer, so steady-state encoding allocates nothing.
pub fn encode_response_into(resp: &Response, buf: &mut BytesMut) {
    let expected = response_wire_bytes(resp);
    let start = buf.len();
    buf.reserve(expected as usize);
    match resp {
        Response::Objects(objs) => {
            buf.put_u8(op::R_OBJECTS);
            buf.put_u32(objs.len() as u32);
            for o in objs {
                put_object(buf, o);
            }
        }
        Response::Count(c) => {
            buf.put_u8(op::R_COUNT);
            buf.put_u64(*c);
        }
        Response::Counts(counts) => {
            buf.put_u8(op::R_COUNTS);
            buf.put_u32(counts.len() as u32);
            for c in counts {
                buf.put_u64(*c);
            }
        }
        Response::Area(a) => {
            buf.put_u8(op::R_AREA);
            buf.put_f64(*a);
        }
        Response::Buckets(buckets) => {
            buf.put_u8(op::R_BUCKETS);
            buf.put_u32(buckets.len() as u32);
            for b in buckets {
                buf.put_u32(b.len() as u32);
                for o in b {
                    put_object(buf, o);
                }
            }
        }
        Response::Rects(rects) => {
            buf.put_u8(op::R_RECTS);
            buf.put_u32(rects.len() as u32);
            for r in rects {
                put_rect(buf, r);
            }
        }
        Response::Pairs(pairs) => {
            buf.put_u8(op::R_PAIRS);
            buf.put_u32(pairs.len() as u32);
            for (a, b) in pairs {
                buf.put_u32(*a);
                buf.put_u32(*b);
            }
        }
        Response::Refused => {
            buf.put_u8(op::R_REFUSED);
        }
        Response::Malformed => {
            buf.put_u8(op::R_MALFORMED);
        }
        Response::Unavailable => {
            buf.put_u8(op::R_UNAVAILABLE);
        }
        Response::Ack { generation } => {
            buf.put_u8(op::R_ACK);
            buf.put_u64(*generation);
        }
    }
    debug_assert_eq!(
        (buf.len() - start) as u64,
        expected,
        "response wire size diverged from the published constants"
    );
}

/// Streaming encoder for an `Objects` response — the zero-copy serving
/// path. The header and every object go **directly into the wire
/// buffer**: no intermediate object `Vec`, no `Response`. Two modes:
///
/// * [`ObjectsEncoder::new`] — count unknown: a placeholder length prefix
///   is written and **patched** on [`finish`](ObjectsEncoder::finish), so
///   the store is traversed exactly once (a second counting pass would
///   cost a scan-backed store as much as the query itself). Only the
///   header is reserved; a reused server buffer grows to its high-water
///   capacity once and never again.
/// * [`ObjectsEncoder::with_exact_count`] — count known exactly *and
///   cheaply* (the aR-tree's aggregate `COUNT`): the exact frame capacity
///   is reserved up front from the published constants and the count is
///   hard-asserted on finish (in every build — a frame whose length
///   prefix lies would corrupt the stream for the peer).
///
/// Either mode produces bytes identical to encoding `Response::Objects`
/// over the same object sequence.
pub struct ObjectsEncoder<'a> {
    buf: &'a mut BytesMut,
    announced: Option<u64>,
    len_at: usize,
    written: u64,
    wire: WireVersion,
    ctx: Option<QuantCtx>,
    prev_id: u32,
}

impl<'a> ObjectsEncoder<'a> {
    /// Opens a v1 frame whose length prefix is patched on `finish`.
    pub fn new(buf: &'a mut BytesMut) -> Self {
        Self::new_versioned(buf, WireVersion::V1, None)
    }

    /// Opens a v1 frame for exactly `count` objects, reserving the exact
    /// frame capacity.
    pub fn with_exact_count(buf: &'a mut BytesMut, count: u64) -> Self {
        Self::with_exact_count_versioned(buf, count, WireVersion::V1, None)
    }

    /// Opens a patched-length frame in the negotiated wire version. Under
    /// [`WireVersion::V2`] objects stream in the compact layout, quantized
    /// against `ctx` when one exists (escaping per the [`QuantCtx`]
    /// contract); under `V1` this is exactly [`ObjectsEncoder::new`].
    pub fn new_versioned(buf: &'a mut BytesMut, wire: WireVersion, ctx: Option<QuantCtx>) -> Self {
        buf.reserve(OBJECTS_HEADER_BYTES as usize);
        buf.put_u8(match wire {
            WireVersion::V1 => op::R_OBJECTS,
            WireVersion::V2 => op::R_OBJECTS_V2,
        });
        let len_at = buf.len();
        buf.put_u32(0);
        ObjectsEncoder {
            buf,
            announced: None,
            len_at,
            written: 0,
            wire,
            ctx,
            prev_id: 0,
        }
    }

    /// Opens an exact-count frame in the negotiated wire version. v2
    /// objects are variable-width, so the reservation uses the published
    /// per-object *bound* [`OBJ_BYTES_V2_MAX`] — still one allocation at
    /// most, never less than the frame needs.
    pub fn with_exact_count_versioned(
        buf: &'a mut BytesMut,
        count: u64,
        wire: WireVersion,
        ctx: Option<QuantCtx>,
    ) -> Self {
        let (opcode, per_obj) = match wire {
            WireVersion::V1 => (op::R_OBJECTS, OBJ_BYTES),
            WireVersion::V2 => (op::R_OBJECTS_V2, OBJ_BYTES_V2_MAX),
        };
        buf.reserve((OBJECTS_HEADER_BYTES + count * per_obj) as usize);
        buf.put_u8(opcode);
        let len_at = buf.len();
        buf.put_u32(count as u32);
        ObjectsEncoder {
            buf,
            announced: Some(count),
            len_at,
            written: 0,
            wire,
            ctx,
            prev_id: 0,
        }
    }

    /// Appends one object to the frame.
    pub fn push(&mut self, o: &SpatialObject) {
        match self.wire {
            WireVersion::V1 => put_object(self.buf, o),
            WireVersion::V2 => {
                put_object_v2(self.buf, o, self.prev_id, self.ctx.as_ref());
                self.prev_id = o.id;
            }
        }
        self.written += 1;
    }

    /// Closes the frame: patches the streamed count in, or asserts the
    /// announced one was honoured.
    pub fn finish(self) {
        match self.announced {
            Some(count) => assert_eq!(
                self.written, count,
                "objects-response framing mismatch: announced {count} objects, streamed {}",
                self.written
            ),
            None => self.buf[self.len_at..self.len_at + 4]
                .copy_from_slice(&(self.written as u32).to_be_bytes()),
        }
    }
}

/// Decodes a response.
pub fn decode_response(mut buf: Bytes) -> Result<Response, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let opcode = buf.get_u8();
    match opcode {
        op::R_OBJECTS => {
            let n = get_u32(&mut buf)? as usize;
            let mut objs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                objs.push(get_object(&mut buf)?);
            }
            Ok(Response::Objects(objs))
        }
        op::R_COUNT => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(Response::Count(buf.get_u64()))
        }
        op::R_AREA => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(Response::Area(buf.get_f64()))
        }
        op::R_BUCKETS => {
            let n = get_u32(&mut buf)? as usize;
            let mut buckets = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let len = get_u32(&mut buf)? as usize;
                let mut objs = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    objs.push(get_object(&mut buf)?);
                }
                buckets.push(objs);
            }
            Ok(Response::Buckets(buckets))
        }
        op::R_RECTS => {
            let n = get_u32(&mut buf)? as usize;
            let mut rects = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                rects.push(get_rect(&mut buf)?);
            }
            Ok(Response::Rects(rects))
        }
        op::R_PAIRS => {
            let n = get_u32(&mut buf)? as usize;
            let mut pairs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                pairs.push((get_u32(&mut buf)?, get_u32(&mut buf)?));
            }
            Ok(Response::Pairs(pairs))
        }
        op::R_COUNTS => {
            let n = get_u32(&mut buf)? as usize;
            let mut counts = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                counts.push(buf.get_u64());
            }
            Ok(Response::Counts(counts))
        }
        op::R_REFUSED => Ok(Response::Refused),
        op::R_MALFORMED => Ok(Response::Malformed),
        op::R_UNAVAILABLE => Ok(Response::Unavailable),
        op::R_ACK => {
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok(Response::Ack {
                generation: buf.get_u64(),
            })
        }
        other => Err(CodecError::UnknownOpcode(other)),
    }
}

/// Prefixes `buf` (appending) with the generation-stamp envelope — a no-op
/// at generation 0, so frozen-store frames stay bit-identical to the
/// pre-generation wire format. Callers stamp **before** encoding the
/// response frame: `[R_GEN][u64 gen][frame]`.
pub fn stamp_generation(generation: u64, buf: &mut BytesMut) {
    if generation > 0 {
        buf.reserve(GEN_STAMP_BYTES as usize);
        buf.put_u8(op::R_GEN);
        buf.put_u64(generation);
    }
}

/// Decodes a response frame that may carry a generation stamp. Unstamped
/// frames (everything a frozen, generation-0 store serves) decode exactly
/// as [`decode_response`] and report generation 0.
pub fn decode_response_gen(buf: Bytes) -> Result<(Response, u64), CodecError> {
    decode_response_gen_ctx(buf, None)
}

// ---------------------------------------------------------------------------
// Wire protocol v2: varint primitives, the quantization grid, compact frames.
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let b = buf.get_u8();
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Truncated);
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_u16be(buf: &mut BytesMut, v: u16) {
    buf.put_u8((v >> 8) as u8);
    buf.put_u8(v as u8);
}

fn get_u16be(buf: &mut Bytes) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    Ok(u16::from(buf.get_u8()) << 8 | u16::from(buf.get_u8()))
}

fn snap_rect_f32(r: &Rect) -> Rect {
    Rect::new(
        Point::new((r.min.x as f32) as f64, (r.min.y as f32) as f64),
        Point::new((r.max.x as f32) as f64, (r.max.y as f32) as f64),
    )
}

/// The request exactly as a server decodes it: every rectangle, object
/// MBR and ε snapped through `f32` like the v1 wire layout carries them,
/// so `wire_form(req) == decode_request(encode_request(req))`. Layers
/// that reason about a request instead of shipping it — cache
/// containment, router pruning and owner routing — must see this form,
/// or float rounding could make a local answer diverge from a remote
/// one. Snapping is idempotent, and a snapped request encodes to the
/// same bytes as the original.
pub fn wire_form(req: &Request) -> Request {
    let eps32 = |eps: f64| (eps as f32) as f64;
    let obj = |o: &SpatialObject| SpatialObject::new(o.id, snap_rect_f32(&o.mbr));
    match req {
        Request::Window(w) => Request::Window(snap_rect_f32(w)),
        Request::Count(w) => Request::Count(snap_rect_f32(w)),
        Request::AvgArea(w) => Request::AvgArea(snap_rect_f32(w)),
        Request::EpsRange { q, eps } => Request::EpsRange {
            q: snap_rect_f32(q),
            eps: eps32(*eps),
        },
        Request::BucketEpsRange { probes, eps } => Request::BucketEpsRange {
            probes: probes.iter().map(obj).collect(),
            eps: eps32(*eps),
        },
        Request::MultiCount(windows) => {
            Request::MultiCount(windows.iter().map(snap_rect_f32).collect())
        }
        Request::CoopLevelMbrs(level) => Request::CoopLevelMbrs(*level),
        Request::CoopFilterByMbrs { mbrs, eps } => Request::CoopFilterByMbrs {
            mbrs: mbrs.iter().map(snap_rect_f32).collect(),
            eps: eps32(*eps),
        },
        Request::CoopJoinPush { objects, eps } => Request::CoopJoinPush {
            objects: objects.iter().map(obj).collect(),
            eps: eps32(*eps),
        },
        Request::ApplyUpdates(batch) => Request::ApplyUpdates(
            batch
                .iter()
                .map(|u| match u {
                    Update::Insert(o) => Update::Insert(obj(o)),
                    Update::Delete(id) => Update::Delete(*id),
                    Update::Move { id, to } => Update::Move {
                        id: *id,
                        to: snap_rect_f32(to),
                    },
                })
                .collect(),
        ),
    }
}

/// The u16 coordinate grid of one request/response exchange — the request
/// window both peers of a v2 link derive it from.
///
/// # The quantization contract
///
/// v2 object frames may carry coordinates as u16 grid cells relative to
/// the request window instead of exact `f32` values. Three clauses make
/// that safe:
///
/// 1. **Shared grid.** Both peers derive the grid from the *wire form* of
///    the request: rect coordinates and ε are snapped through `f32`
///    exactly as [`decode_request`] delivers them, so the server (which
///    only sees the decoded request) and the client (which knows the
///    original) compute bit-identical grids. `WINDOW` grids over the
///    window itself, `ε-RANGE` over the probe expanded by ε; requests
///    without a natural window have no grid and every coordinate escapes.
/// 2. **Verified round trip.** The encoder quantizes a coordinate only if
///    dequantizing the candidate cell reproduces — compared bitwise — the
///    exact `f64` value v1's `f32` wire cast would deliver (`(v as f32)
///    as f64`). Anything else (out-of-window, off-grid, degenerate or
///    non-finite spans) **escapes** to the exact `f32`. A v2 decode is
///    therefore bit-equal to the v1 decode of the same objects, always:
///    join results cannot depend on the negotiated version.
/// 3. **Exact endpoints.** Cell 0 dequantizes to exactly the window min
///    and cell 65535 to exactly the max, so window-edge and grid-aligned
///    coordinates always quantize.
///
/// Density on the point workloads comes mostly from the tag's POINT bit
/// (min == max ships one coordinate pair, not two) and the delta-varint
/// ids; quantization adds a further 2× on grid-aligned data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantCtx {
    rect: Rect,
}

impl QuantCtx {
    /// Grid over the f32-snapped `rect`; `None` when either axis span is
    /// degenerate or non-finite (no grid exists — every coordinate would
    /// escape anyway).
    pub fn new(rect: Rect) -> Option<QuantCtx> {
        let r = snap_rect_f32(&rect);
        let ok = |min: f64, max: f64| (max - min).is_finite() && max - min > 0.0;
        (ok(r.min.x, r.max.x) && ok(r.min.y, r.max.y)).then_some(QuantCtx { rect: r })
    }

    /// The grid both peers of `req` agree on (clause 1 of the contract).
    /// Callers on the *client* side pass the request they are about to
    /// encode; the server passes the request it decoded — both land on
    /// the same grid because the derivation starts from the f32 wire
    /// form.
    pub fn for_request(req: &Request) -> Option<QuantCtx> {
        match req {
            Request::Window(w) => QuantCtx::new(*w),
            Request::EpsRange { q, eps } => {
                QuantCtx::new(snap_rect_f32(q).expand((*eps as f32) as f64))
            }
            _ => None,
        }
    }

    fn quant(min: f64, max: f64, v: f64) -> Option<u16> {
        if !(v >= min && v <= max) {
            return None;
        }
        let t = ((v - min) / (max - min) * 65535.0).round();
        if !(0.0..=65535.0).contains(&t) {
            return None;
        }
        let q = t as u16;
        (Self::dequant(min, max, q).to_bits() == v.to_bits()).then_some(q)
    }

    fn dequant(min: f64, max: f64, q: u16) -> f64 {
        match q {
            0 => min,
            u16::MAX => max,
            q => min + (f64::from(q) / 65535.0) * (max - min),
        }
    }

    fn quant_x(&self, v: f64) -> Option<u16> {
        Self::quant(self.rect.min.x, self.rect.max.x, v)
    }

    fn quant_y(&self, v: f64) -> Option<u16> {
        Self::quant(self.rect.min.y, self.rect.max.y, v)
    }

    fn dequant_x(&self, q: u16) -> f64 {
        Self::dequant(self.rect.min.x, self.rect.max.x, q)
    }

    fn dequant_y(&self, q: u16) -> f64 {
        Self::dequant(self.rect.min.y, self.rect.max.y, q)
    }
}

fn put_object_v2(buf: &mut BytesMut, o: &SpatialObject, prev_id: u32, ctx: Option<&QuantCtx>) {
    // The f32 values a v1 frame would deliver — the bit-faithfulness
    // target every quantization candidate is verified against.
    let xmin = (o.mbr.min.x as f32) as f64;
    let ymin = (o.mbr.min.y as f32) as f64;
    let xmax = (o.mbr.max.x as f32) as f64;
    let ymax = (o.mbr.max.y as f32) as f64;
    let point = xmin.to_bits() == xmax.to_bits() && ymin.to_bits() == ymax.to_bits();
    let qx = ctx.and_then(|c| {
        let lo = c.quant_x(xmin)?;
        let hi = if point { lo } else { c.quant_x(xmax)? };
        Some((lo, hi))
    });
    let qy = ctx.and_then(|c| {
        let lo = c.quant_y(ymin)?;
        let hi = if point { lo } else { c.quant_y(ymax)? };
        Some((lo, hi))
    });
    let mut tag = 0u8;
    if point {
        tag |= op::V2_POINT;
    }
    if qx.is_some() {
        tag |= op::V2_QX;
    }
    if qy.is_some() {
        tag |= op::V2_QY;
    }
    buf.put_u8(tag);
    put_varint(buf, zigzag(i64::from(o.id) - i64::from(prev_id)));
    match qx {
        Some((lo, hi)) => {
            put_u16be(buf, lo);
            if !point {
                put_u16be(buf, hi);
            }
        }
        None => {
            buf.put_f32(xmin as f32);
            if !point {
                buf.put_f32(xmax as f32);
            }
        }
    }
    match qy {
        Some((lo, hi)) => {
            put_u16be(buf, lo);
            if !point {
                put_u16be(buf, hi);
            }
        }
        None => {
            buf.put_f32(ymin as f32);
            if !point {
                buf.put_f32(ymax as f32);
            }
        }
    }
}

fn get_object_v2(
    buf: &mut Bytes,
    prev_id: u32,
    ctx: Option<&QuantCtx>,
) -> Result<SpatialObject, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let tag = buf.get_u8();
    let point = tag & op::V2_POINT != 0;
    let delta = unzigzag(get_varint(buf)?);
    let id =
        u32::try_from(i64::from(prev_id).wrapping_add(delta)).map_err(|_| CodecError::Truncated)?;
    let (xmin, xmax) = if tag & op::V2_QX != 0 {
        let c = ctx.ok_or(CodecError::MissingContext)?;
        let lo = c.dequant_x(get_u16be(buf)?);
        let hi = if point {
            lo
        } else {
            c.dequant_x(get_u16be(buf)?)
        };
        (lo, hi)
    } else {
        let lo = get_f32(buf)? as f64;
        let hi = if point { lo } else { get_f32(buf)? as f64 };
        (lo, hi)
    };
    let (ymin, ymax) = if tag & op::V2_QY != 0 {
        let c = ctx.ok_or(CodecError::MissingContext)?;
        let lo = c.dequant_y(get_u16be(buf)?);
        let hi = if point {
            lo
        } else {
            c.dequant_y(get_u16be(buf)?)
        };
        (lo, hi)
    } else {
        let lo = get_f32(buf)? as f64;
        let hi = if point { lo } else { get_f32(buf)? as f64 };
        (lo, hi)
    };
    Ok(SpatialObject::new(
        id,
        Rect::new(Point::new(xmin, ymin), Point::new(xmax, ymax)),
    ))
}

/// Encodes a response in the negotiated wire version. `V1` is exactly
/// [`encode_response_into`]. `V2` swaps in the compact layouts — objects
/// (delta-varint ids, quantized/escaped coordinates), varint counts and
/// acks — and keeps the v1 layout for everything else (buckets, rects,
/// pairs, areas, refusals): v2 is a superset, the decoder dispatches on
/// the opcode.
pub fn encode_response_versioned(
    resp: &Response,
    wire: WireVersion,
    ctx: Option<&QuantCtx>,
    buf: &mut BytesMut,
) {
    if wire == WireVersion::V1 {
        return encode_response_into(resp, buf);
    }
    match resp {
        Response::Objects(objs) => {
            let mut enc = ObjectsEncoder::with_exact_count_versioned(
                buf,
                objs.len() as u64,
                wire,
                ctx.copied(),
            );
            for o in objs {
                enc.push(o);
            }
            enc.finish();
        }
        Response::Count(c) => {
            buf.put_u8(op::R_COUNT_V2);
            put_varint(buf, *c);
        }
        Response::Counts(counts) => {
            buf.put_u8(op::R_COUNTS_V2);
            put_varint(buf, counts.len() as u64);
            for c in counts {
                put_varint(buf, *c);
            }
        }
        Response::Ack { generation } => {
            buf.put_u8(op::R_ACK_V2);
            put_varint(buf, *generation);
        }
        other => encode_response_into(other, buf),
    }
}

/// Decodes a response frame of either version. `ctx` is the request's
/// quantization grid ([`QuantCtx::for_request`]); it is only consulted for
/// quantized v2 object frames — pass `None` when the request had no
/// window (such frames never quantize).
pub fn decode_response_ctx(mut buf: Bytes, ctx: Option<&QuantCtx>) -> Result<Response, CodecError> {
    if buf.remaining() >= 1 && buf[0] == op::R_OBJECTS_V2 {
        buf.advance(1);
        let n = get_u32(&mut buf)? as usize;
        let mut objs = Vec::with_capacity(n.min(1 << 20));
        let mut prev_id = 0u32;
        for _ in 0..n {
            let o = get_object_v2(&mut buf, prev_id, ctx)?;
            prev_id = o.id;
            objs.push(o);
        }
        return Ok(Response::Objects(objs));
    }
    if buf.remaining() >= 1 {
        match buf[0] {
            op::R_COUNT_V2 => {
                buf.advance(1);
                return Ok(Response::Count(get_varint(&mut buf)?));
            }
            op::R_COUNTS_V2 => {
                buf.advance(1);
                let n = get_varint(&mut buf)? as usize;
                let mut counts = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    counts.push(get_varint(&mut buf)?);
                }
                return Ok(Response::Counts(counts));
            }
            op::R_ACK_V2 => {
                buf.advance(1);
                return Ok(Response::Ack {
                    generation: get_varint(&mut buf)?,
                });
            }
            _ => {}
        }
    }
    decode_response(buf)
}

/// Versioned [`stamp_generation`]: v1 stamps the fixed 9-byte envelope,
/// v2 a varint one ([`op::R_GEN_V2`]). Generation 0 stamps nothing in
/// either version.
pub fn stamp_generation_versioned(generation: u64, wire: WireVersion, buf: &mut BytesMut) {
    match wire {
        WireVersion::V1 => stamp_generation(generation, buf),
        WireVersion::V2 => {
            if generation > 0 {
                buf.reserve(GEN_STAMP_BYTES_V2_MAX as usize);
                buf.put_u8(op::R_GEN_V2);
                put_varint(buf, generation);
            }
        }
    }
}

/// [`decode_response_gen`] for frames of either version: handles both
/// stamp envelopes (v1's fixed `[R_GEN][u64]` and v2's
/// `[R_GEN_V2][varint]`), then decodes with `ctx`. Unstamped frames report
/// generation 0; a truncated stamp, or a stamp with no frame behind it,
/// is rejected rather than misread.
pub fn decode_response_gen_ctx(
    mut buf: Bytes,
    ctx: Option<&QuantCtx>,
) -> Result<(Response, u64), CodecError> {
    let generation = match buf.first() {
        Some(&op::R_GEN) => {
            buf.advance(1);
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            buf.get_u64()
        }
        Some(&op::R_GEN_V2) => {
            buf.advance(1);
            get_varint(&mut buf)?
        }
        _ => return Ok((decode_response_ctx(buf, ctx)?, 0)),
    };
    if buf.is_empty() {
        return Err(CodecError::Truncated);
    }
    Ok((decode_response_ctx(buf, ctx)?, generation))
}

/// Encodes the `HELLO` probe a negotiating client opens a link with.
pub fn encode_hello(max_version: u8) -> Bytes {
    Bytes::copy_from_slice(&[op::HELLO, max_version])
}

///// Answers a raw frame if — and only if — it is a `HELLO` probe: the
/// transport-adapter intercept servers use so version negotiation never
/// reaches the query handler. Returns the `ACCEPT` reply to send back, or
/// `None` for every non-handshake frame.
pub fn try_answer_hello(raw: &[u8]) -> Option<Bytes> {
    (raw.len() == HELLO_BYTES as usize && raw[0] == op::HELLO).then(|| {
        let version = raw[1].clamp(1, MAX_WIRE_VERSION);
        Bytes::copy_from_slice(&[op::R_ACCEPT, version])
    })
}

/// Parses an `ACCEPT` handshake reply. Anything else — including a v1
/// peer's `UnknownOpcode` refusal or garbage — means the link must fall
/// back to v1, so this returns `Option`, not `Result`.
pub fn decode_accept(raw: &[u8]) -> Option<u8> {
    (raw.len() == ACCEPT_BYTES as usize && raw[0] == op::R_ACCEPT).then(|| raw[1])
}

/// The typed error reply a transport adapter sends back when it cannot
/// decode a request frame ([`op::R_MALFORMED`]). Answering — instead of
/// `expect`ing — is what keeps a shared server thread alive when one
/// client garbles a frame.
pub fn malformed_frame() -> Bytes {
    Bytes::copy_from_slice(&[op::R_MALFORMED])
}

/// The locally fabricated pseudo-reply of a carrier whose peer is gone
/// ([`op::R_UNAVAILABLE`]). Decodes to
/// [`crate::proto::Response::Unavailable`]; metering layers must treat it
/// as zero wire traffic — nothing crossed.
pub fn unavailable_frame() -> Bytes {
    Bytes::copy_from_slice(&[op::R_UNAVAILABLE])
}

/// `true` iff `raw` is the carrier-fabricated [`unavailable_frame`] — the
/// check metering sites use to skip charging an exchange that never
/// happened.
pub fn is_unavailable(raw: &[u8]) -> bool {
    raw.len() == UNAVAILABLE_BYTES as usize && raw[0] == op::R_UNAVAILABLE
}

/// Identity of one at-most-once update delivery: `nonce` names the sender
/// (one per link, process-unique), `seq` the batch within that sender.
/// Every retry of the same batch carries the identical tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DedupTag {
    pub nonce: u64,
    pub seq: u64,
}

/// Wraps an encoded `ApplyUpdates` frame in the retry-dedup envelope
/// `[APPLY_UPDATES_SEQ][u64 nonce][u64 seq][inner frame]`. Only attached
/// when retries are enabled — see [`DEDUP_HEADER_BYTES`].
pub fn wrap_dedup(tag: DedupTag, inner: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(DEDUP_HEADER_BYTES as usize + inner.len());
    buf.push(op::APPLY_UPDATES_SEQ);
    buf.extend_from_slice(&tag.nonce.to_be_bytes());
    buf.extend_from_slice(&tag.seq.to_be_bytes());
    buf.extend_from_slice(inner);
    Bytes::from(buf)
}

/// Splits a retry-dedup envelope off a request frame: `Some((tag,
/// inner))` when `raw` is a well-formed envelope, `None` for every other
/// frame (including a truncated envelope, which the caller's ordinary
/// request decoder then rejects as malformed).
pub fn peel_dedup(raw: &Bytes) -> Option<(DedupTag, Bytes)> {
    if raw.len() < DEDUP_HEADER_BYTES as usize || raw[0] != op::APPLY_UPDATES_SEQ {
        return None;
    }
    let nonce = u64::from_be_bytes(raw[1..9].try_into().expect("8-byte nonce"));
    let seq = u64::from_be_bytes(raw[9..17].try_into().expect("8-byte seq"));
    Some((
        DedupTag { nonce, seq },
        raw.slice(DEDUP_HEADER_BYTES as usize..raw.len()),
    ))
}

/// Stamps [`op::GARBLE`] over byte 0 of a frame — the deterministic
/// fault injector's reply corruption. The result never decodes to any
/// valid value (the marker is outside every opcode range), so a garbled
/// reply always surfaces as a typed `Malformed`, never as a silently
/// different answer.
pub fn garble_frame(raw: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(raw.len().max(1));
    out.push(op::GARBLE);
    if raw.len() > 1 {
        out.extend_from_slice(&raw[1..]);
    }
    Bytes::from(out)
}

/// `true` iff `raw` leads with the injected-garble marker — how
/// chaos-aware stats distinguish injected corruption from genuinely
/// alien frames.
pub fn is_injected_garble(raw: &[u8]) -> bool {
    !raw.is_empty() && raw[0] == op::GARBLE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u32, x: f64, y: f64) -> SpatialObject {
        SpatialObject::point(id, x, y)
    }

    #[test]
    fn dedup_envelope_roundtrips_and_rejects_short_frames() {
        let inner = encode_request(&Request::ApplyUpdates(vec![Update::Delete(7)]));
        let tag = DedupTag {
            nonce: 0xDEAD_BEEF,
            seq: 42,
        };
        let wrapped = wrap_dedup(tag, &inner);
        assert_eq!(
            wrapped.len() as u64,
            DEDUP_HEADER_BYTES + inner.len() as u64
        );
        let (back_tag, back_inner) = peel_dedup(&wrapped).expect("well-formed envelope");
        assert_eq!(back_tag, tag);
        assert_eq!(back_inner.as_ref(), inner.as_ref());
        // The inner frame still decodes as the plain request.
        assert_eq!(
            decode_request(back_inner).unwrap(),
            Request::ApplyUpdates(vec![Update::Delete(7)])
        );
        // Non-envelope and truncated-envelope frames peel to None; the
        // truncated one then fails ordinary decoding (typed, no panic).
        assert!(peel_dedup(&inner).is_none());
        let truncated = wrapped.slice(0..DEDUP_HEADER_BYTES as usize - 1);
        assert!(peel_dedup(&truncated).is_none());
        assert!(decode_request(truncated).is_err());
    }

    #[test]
    fn garbled_frames_are_typed_errors_never_values() {
        let frames = [
            encode_response(&Response::Count(7)),
            encode_response(&Response::Objects(vec![obj(1, 1.0, 2.0)])),
            encode_response(&Response::Ack { generation: 3 }),
        ];
        for f in frames {
            let g = garble_frame(&f);
            assert!(is_injected_garble(&g));
            assert_eq!(g.len(), f.len());
            assert_eq!(
                decode_response(g.clone()),
                Err(CodecError::UnknownOpcode(op::GARBLE))
            );
            assert_eq!(
                decode_response_gen_ctx(g, None),
                Err(CodecError::UnknownOpcode(op::GARBLE))
            );
        }
        assert!(!is_injected_garble(&encode_response(&Response::Refused)));
        assert!(!is_injected_garble(&[]));
    }

    #[test]
    fn request_roundtrips() {
        let w = Rect::from_coords(1.0, 2.0, 3.0, 4.0);
        let reqs = vec![
            Request::Window(w),
            Request::Count(w),
            Request::EpsRange { q: w, eps: 0.5 },
            Request::BucketEpsRange {
                probes: vec![obj(1, 1.0, 2.0), obj(2, 3.0, 4.0)],
                eps: 2.0,
            },
            Request::AvgArea(w),
            Request::MultiCount(vec![w, w, w]),
            Request::MultiCount(vec![]),
            Request::CoopLevelMbrs(3),
            Request::CoopFilterByMbrs {
                mbrs: vec![w, w],
                eps: 1.5,
            },
            Request::CoopJoinPush {
                objects: vec![obj(9, 5.0, 5.0)],
                eps: 0.25,
            },
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let back = decode_request(bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            Response::Objects(vec![obj(1, 1.0, 1.0), obj(2, 2.0, 2.0)]),
            Response::Count(123_456),
            Response::Counts(vec![0, 7, u64::MAX]),
            Response::Counts(vec![]),
            Response::Area(42.5),
            Response::Buckets(vec![vec![obj(1, 0.0, 0.0)], vec![], vec![obj(2, 1.0, 1.0)]]),
            Response::Rects(vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0)]),
            Response::Pairs(vec![(1, 2), (3, 4)]),
            Response::Refused,
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            let back = decode_response(bytes).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn wire_sizes_match_constants() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            encode_request(&Request::Window(w)).len() as u64,
            QUERY_BYTES
        );
        assert_eq!(encode_request(&Request::Count(w)).len() as u64, QUERY_BYTES);
        assert_eq!(
            encode_response(&Response::Count(7)).len() as u64,
            ANSWER_BYTES
        );
        let objs = vec![obj(1, 0.0, 0.0), obj(2, 1.0, 1.0), obj(3, 2.0, 2.0)];
        assert_eq!(
            encode_response(&Response::Objects(objs)).len() as u64,
            OBJECTS_HEADER_BYTES + 3 * OBJ_BYTES
        );
    }

    #[test]
    fn eps_and_bucket_request_sizes() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            encode_request(&Request::EpsRange { q: w, eps: 1.0 }).len() as u64,
            EPS_QUERY_BYTES
        );
        let probes = vec![obj(1, 0.0, 0.0), obj(2, 1.0, 1.0)];
        assert_eq!(
            encode_request(&Request::BucketEpsRange { probes, eps: 1.0 }).len() as u64,
            BUCKET_REQ_HEADER_BYTES + 2 * OBJ_BYTES
        );
    }

    #[test]
    fn multi_count_wire_sizes() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        // One MultiCount of 4 windows replaces 4 COUNT round trips.
        assert_eq!(
            encode_request(&Request::MultiCount(vec![w; 4])).len() as u64,
            MULTI_COUNT_HEADER_BYTES + 4 * RECT_BYTES
        );
        assert_eq!(
            encode_response(&Response::Counts(vec![1, 2, 3, 4])).len() as u64,
            COUNTS_HEADER_BYTES + 4 * COUNT_ENTRY_BYTES
        );
        // Raw payload is a wash (106 vs 104 bytes for k=4); the win is the
        // per-message packet headers the batch amortizes.
        let p = crate::packet::PacketModel::default();
        let batched = p.tb(MULTI_COUNT_HEADER_BYTES + 4 * RECT_BYTES)
            + p.tb(COUNTS_HEADER_BYTES + 4 * COUNT_ENTRY_BYTES);
        let single = 4 * (p.tb(QUERY_BYTES) + p.tb(ANSWER_BYTES));
        assert!(batched < single, "batched {batched} vs single {single}");
    }

    #[test]
    fn multi_count_truncation_rejected() {
        let full = encode_request(&Request::MultiCount(vec![
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            Rect::from_coords(1.0, 1.0, 2.0, 2.0),
        ]));
        for cut in [1, 4, 5, 20, 36] {
            assert_eq!(
                decode_request(full.slice(0..cut)),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
        let resp = encode_response(&Response::Counts(vec![1, 2]));
        for cut in [1, 4, 12, 20] {
            assert_eq!(
                decode_response(resp.slice(0..cut)),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bucket_wire_size() {
        let b = Response::Buckets(vec![vec![obj(1, 0.0, 0.0)], vec![]]);
        // opcode + outer u32 + (frame + obj) + frame
        assert_eq!(
            encode_response(&b).len() as u64,
            OBJECTS_HEADER_BYTES + (BUCKET_FRAME_BYTES + OBJ_BYTES) + BUCKET_FRAME_BYTES
        );
    }

    #[test]
    fn truncated_messages_rejected() {
        let full = encode_request(&Request::Window(Rect::from_coords(0.0, 0.0, 1.0, 1.0)));
        for cut in [0, 1, 5, 16] {
            let r = decode_request(full.slice(0..cut));
            assert_eq!(r, Err(CodecError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let bad = Bytes::from_static(&[0x7f, 0, 0, 0]);
        assert_eq!(
            decode_request(bad.clone()),
            Err(CodecError::UnknownOpcode(0x7f))
        );
        assert_eq!(decode_response(bad), Err(CodecError::UnknownOpcode(0x7f)));
    }

    #[test]
    fn update_batch_roundtrips_and_matches_constants() {
        let batch = Request::ApplyUpdates(vec![
            Update::Insert(obj(1, 1.0, 2.0)),
            Update::Delete(7),
            Update::Move {
                id: 9,
                to: Rect::from_coords(1.0, 1.0, 2.0, 2.0),
            },
        ]);
        let bytes = encode_request(&batch);
        assert_eq!(
            bytes.len() as u64,
            UPDATES_HEADER_BYTES + UPDATE_INSERT_BYTES + UPDATE_DELETE_BYTES + UPDATE_MOVE_BYTES
        );
        assert_eq!(decode_request(bytes).unwrap(), batch);
        let empty = Request::ApplyUpdates(vec![]);
        assert_eq!(
            decode_request(encode_request(&empty)).unwrap(),
            Request::ApplyUpdates(vec![])
        );
    }

    #[test]
    fn update_truncation_and_bad_tag_rejected() {
        let full = encode_request(&Request::ApplyUpdates(vec![
            Update::Insert(obj(1, 1.0, 2.0)),
            Update::Delete(7),
        ]));
        for cut in [1, 4, 5, 6, 25, 26] {
            assert_eq!(
                decode_request(full.slice(0..cut)),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
        let mut bad = full.as_slice().to_vec();
        bad[UPDATES_HEADER_BYTES as usize] = 0x7e; // corrupt the first tag
        assert_eq!(
            decode_request(Bytes::from(bad)),
            Err(CodecError::UnknownOpcode(0x7e))
        );
    }

    #[test]
    fn ack_roundtrips() {
        let ack = Response::Ack { generation: 42 };
        let bytes = encode_response(&ack);
        assert_eq!(bytes.len() as u64, ACK_BYTES);
        assert_eq!(decode_response(bytes.clone()).unwrap(), ack);
        assert_eq!(decode_response_gen(bytes).unwrap(), (ack, 0));
        assert_eq!(
            decode_response(encode_response(&Response::Ack { generation: 42 }).slice(0..5)),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn generation_zero_stamps_nothing() {
        // The bit-for-bit compatibility proof at the codec level: stamping
        // generation 0 appends no bytes, so a frozen store's frames are
        // exactly the pre-generation encoding, and they decode to gen 0.
        let resp = Response::Objects(vec![obj(1, 1.0, 1.0)]);
        let mut buf = BytesMut::new();
        stamp_generation(0, &mut buf);
        assert!(buf.is_empty());
        encode_response_into(&resp, &mut buf);
        assert_eq!(buf.freeze(), encode_response(&resp));
        let (back, gen) = decode_response_gen(encode_response(&resp)).unwrap();
        assert_eq!((back, gen), (resp, 0));
    }

    #[test]
    fn stamped_frames_roundtrip_and_peel() {
        let resp = Response::Objects(vec![obj(1, 1.0, 1.0), obj(2, 2.0, 2.0)]);
        let mut buf = BytesMut::new();
        stamp_generation(3, &mut buf);
        encode_response_into(&resp, &mut buf);
        let raw = buf.freeze();
        assert_eq!(
            raw.len() as u64,
            GEN_STAMP_BYTES + response_wire_bytes(&resp)
        );
        assert_eq!(decode_response_gen(raw.clone()).unwrap(), (resp.clone(), 3));
        // The v2 envelope peels to the same generation and frame.
        let mut v2 = BytesMut::new();
        stamp_generation_versioned(3, WireVersion::V2, &mut v2);
        encode_response_into(&resp, &mut v2);
        let v2 = v2.freeze();
        assert_eq!(
            decode_response_gen_ctx(v2.clone(), None).unwrap(),
            (resp.clone(), 3)
        );
        // An unstamped frame decodes at generation 0.
        let plain = encode_response(&resp);
        assert_eq!(decode_response_gen_ctx(plain, None).unwrap(), (resp, 0));
        // A truncated stamp is rejected, not misread as generation 0.
        for cut in [1, 5, 8] {
            assert_eq!(
                decode_response_gen(raw.slice(0..cut)),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
        assert_eq!(
            decode_response_gen_ctx(v2.slice(0..1), None),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            decode_response_gen_ctx(v2.slice(0..2), None),
            Err(CodecError::Truncated),
            "a bare v2 stamp"
        );
        // A bare stamp with no frame behind it is also truncated.
        assert_eq!(
            decode_response_gen(raw.slice(0..GEN_STAMP_BYTES as usize)),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn f32_representable_coordinates_are_lossless() {
        // The generator invariant: coords rounded through f32 survive.
        let x = 1234.5678_f32 as f64;
        let y = 9_876.543_f32 as f64;
        let o = obj(7, x, y);
        let back = decode_response(encode_response(&Response::Objects(vec![o])))
            .unwrap()
            .into_objects();
        assert_eq!(back[0], o);
    }

    #[test]
    fn hello_accept_handshake() {
        let hello = encode_hello(2);
        assert_eq!(hello.len() as u64, HELLO_BYTES);
        let accept = try_answer_hello(&hello).expect("a HELLO probe must be intercepted");
        assert_eq!(accept.len() as u64, ACCEPT_BYTES);
        assert_eq!(decode_accept(&accept), Some(2));
        // An over-eager client is clamped to what the server speaks; an
        // ancient one is lifted to v1.
        let answer = |max| decode_accept(&try_answer_hello(&encode_hello(max)).unwrap());
        assert_eq!(answer(9), Some(MAX_WIRE_VERSION));
        assert_eq!(answer(0), Some(1));
        // Ordinary request frames are not the handshake's business.
        let count = encode_request(&Request::Count(Rect::from_coords(0.0, 0.0, 1.0, 1.0)));
        assert_eq!(try_answer_hello(&count), None);
        // A v1 peer's refusal byte — or any garbage — is not an ACCEPT:
        // the link must fall back, not error.
        assert_eq!(decode_accept(&[0x00]), None);
        assert_eq!(decode_accept(&encode_response(&Response::Refused)), None);
        assert_eq!(decode_accept(&[]), None);
    }

    #[test]
    fn v2_object_frames_hit_published_bounds() {
        let ctx = QuantCtx::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        // Densest layout: a point on the window corner (cell 0 is exact
        // by construction) one id away from its predecessor.
        let densest = Response::Objects(vec![obj(1, 0.0, 0.0)]);
        let mut buf = BytesMut::new();
        encode_response_versioned(&densest, WireVersion::V2, ctx.as_ref(), &mut buf);
        assert_eq!(buf.len() as u64, OBJECTS_HEADER_BYTES + OBJ_BYTES_V2_MIN);
        // Widest layout: an out-of-window rectangle (both axes escape to
        // exact f32 pairs) under the worst-case id delta.
        let widest = Response::Objects(vec![SpatialObject::new(
            u32::MAX,
            Rect::from_coords(5.0, 5.0, 6.0, 7.0),
        )]);
        let mut buf = BytesMut::new();
        encode_response_versioned(&widest, WireVersion::V2, ctx.as_ref(), &mut buf);
        assert_eq!(buf.len() as u64, OBJECTS_HEADER_BYTES + OBJ_BYTES_V2_MAX);
        // Either extreme decodes bit-equal to its v1 self.
        for resp in [densest, widest] {
            let mut buf = BytesMut::new();
            encode_response_versioned(&resp, WireVersion::V2, ctx.as_ref(), &mut buf);
            assert_eq!(
                decode_response_ctx(buf.freeze(), ctx.as_ref()).unwrap(),
                decode_response(encode_response(&resp)).unwrap()
            );
        }
    }

    #[test]
    fn versioned_encoders_at_v1_are_the_v1_encoders() {
        // The structural half of the off-means-off guarantee: asking the
        // versioned entry points for V1 produces the v1 bytes exactly.
        let resps = [
            Response::Objects(vec![obj(1, 1.0, 1.0), obj(2, 2.0, 2.0)]),
            Response::Count(123_456),
            Response::Counts(vec![0, 7, u64::MAX]),
            Response::Ack { generation: 4 },
            Response::Refused,
        ];
        for resp in resps {
            let mut buf = BytesMut::new();
            encode_response_versioned(&resp, WireVersion::V1, None, &mut buf);
            assert_eq!(buf.freeze(), encode_response(&resp));
        }
        let mut versioned = BytesMut::new();
        stamp_generation_versioned(5, WireVersion::V1, &mut versioned);
        let mut plain = BytesMut::new();
        stamp_generation(5, &mut plain);
        assert_eq!(versioned.freeze(), plain.freeze());
        // And v2's generation-0 stamp is as silent as v1's.
        let mut empty = BytesMut::new();
        stamp_generation_versioned(0, WireVersion::V2, &mut empty);
        assert!(empty.is_empty());
    }
}
