//! Property tests for the wire-v2 codec against its v1 oracle.
//!
//! Two properties pin the compact object frames:
//!
//! * **Bit-faithfulness** — for random objects and windows (degenerate
//!   rectangles, out-of-window coordinates, f32 extremes, values that
//!   only snap on the wire), the v2 decode is *bit-equal* to the v1
//!   decode of the same objects. This is the verify-else-escape
//!   contract: a coordinate ships quantized only when dequantizing
//!   reproduces, bitwise, the `f64` the v1 `f32` cast would deliver.
//! * **Density** — a v2 `Objects` frame is never larger than the v1
//!   frame **for ids below 2^20**. Both headers are 5 bytes (opcode +
//!   u32 count), and the worst-case v2 object — both axes escaped — is
//!   1 tag + delta-id varint + 16 coordinate bytes. With every id below
//!   2^20 the signed delta stays below 2^20 in magnitude, its zigzag
//!   below 2^21, so the varint is at most 3 bytes: 1 + 3 + 16 = 20 =
//!   `OBJ_BYTES`. Point objects and quantized axes only shrink from
//!   there. Beyond 2^20 the bound genuinely fails — a sequence
//!   alternating id 0 with id `u32::MAX` needs 5-byte deltas (22 > 20
//!   per object) — which is why the property documents the id range
//!   instead of claiming universality.
//!
//! A third suite round-trips the scalar v2 frames (varint counts, acks,
//! generation stamps), which have no quantization to verify but share
//! the varint primitives.
//!
//! A fourth pins `wire_form` — the request exactly as a server decodes
//! it, which cache containment and router pruning reason about — to the
//! codec itself, for every request kind and coordinates that only snap
//! on the wire.

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::codec::{
    decode_request, decode_response, decode_response_ctx, decode_response_gen_ctx, encode_request,
    encode_response, encode_response_versioned, stamp_generation_versioned, wire_form, QuantCtx,
    WireVersion, OBJ_BYTES,
};
use asj_net::{Request, Response, Update};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

/// Grid-aligned, exactly-f32 coordinates. Windows are built from the
/// same grid as object coordinates, so objects frequently sit exactly
/// on window endpoints — exercising the cell-0/cell-65535 exactness
/// clause of the quantization contract.
fn grid_coord() -> impl Strategy<Value = f64> {
    (-16i32..=16).prop_map(|v| (v as f32 * 0.5) as f64)
}

/// Coordinates stressing every encoder branch: in-window grid values
/// (quantize), far out-of-window values and f32 extremes (escape), and
/// f64 values that are not f32-representable (snap on the wire first,
/// then quantize or escape — bit-faithfulness must hold either way).
fn wild_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        grid_coord(),
        (-16i32..=16).prop_map(|v| f64::from(v) * 1.0e6),
        Just(f64::from(f32::MAX)),
        Just(-f64::from(f32::MAX)),
        Just(f64::from(f32::MIN_POSITIVE)),
        (0u32..1000).prop_map(|v| f64::from(v) * 0.123456789),
    ]
}

/// Object geometry: a general rectangle or a degenerate point rect
/// (min == max), which takes the `V2_POINT` single-pair layout.
fn shape() -> impl Strategy<Value = Rect> {
    prop_oneof![
        (wild_coord(), wild_coord(), wild_coord(), wild_coord())
            .prop_map(|(a, b, c, d)| Rect::new(Point::new(a, b), Point::new(c, d))),
        (wild_coord(), wild_coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y))),
    ]
}

/// Unrestricted ids — deltas between neighbours span the whole i64
/// zigzag range.
fn any_id() -> impl Strategy<Value = u32> {
    any::<u64>().prop_map(|v| v as u32)
}

fn object() -> impl Strategy<Value = SpatialObject> {
    (any_id(), shape()).prop_map(|(id, r)| SpatialObject::new(id, r))
}

/// An ε that is rarely f32-representable.
fn wild_eps() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..4000).prop_map(|v| f64::from(v) * 0.25),
        (0u32..4000).prop_map(|v| f64::from(v) * 0.123456789),
    ]
}

fn update() -> impl Strategy<Value = Update> {
    prop_oneof![
        object().prop_map(Update::Insert),
        any_id().prop_map(Update::Delete),
        (any_id(), shape()).prop_map(|(id, to)| Update::Move { id, to }),
    ]
}

/// Every request kind, over coordinates and ε that snap on the wire.
fn request() -> impl Strategy<Value = Request> {
    let shapes = || prop::collection::vec(shape(), 0..12);
    let objects = || prop::collection::vec(object(), 0..12);
    prop_oneof![
        shape().prop_map(Request::Window),
        shape().prop_map(Request::Count),
        shape().prop_map(Request::AvgArea),
        (shape(), wild_eps()).prop_map(|(q, eps)| Request::EpsRange { q, eps }),
        (objects(), wild_eps()).prop_map(|(probes, eps)| Request::BucketEpsRange { probes, eps }),
        shapes().prop_map(Request::MultiCount),
        any::<u8>().prop_map(Request::CoopLevelMbrs),
        (shapes(), wild_eps()).prop_map(|(mbrs, eps)| Request::CoopFilterByMbrs { mbrs, eps }),
        (objects(), wild_eps()).prop_map(|(objects, eps)| Request::CoopJoinPush { objects, eps }),
        prop::collection::vec(update(), 0..12).prop_map(Request::ApplyUpdates),
    ]
}

/// Objects under the documented density bound: ids below 2^20 keep
/// every delta varint at three bytes or fewer.
fn small_id_object() -> impl Strategy<Value = SpatialObject> {
    (0u32..(1 << 20), shape()).prop_map(|(id, r)| SpatialObject::new(id, r))
}

/// Request windows, including degenerate ones: a point window has no
/// grid (`QuantCtx::new` returns `None`) and every coordinate escapes.
fn window() -> impl Strategy<Value = Rect> {
    prop_oneof![
        (grid_coord(), grid_coord(), grid_coord(), grid_coord())
            .prop_map(|(a, b, c, d)| Rect::new(Point::new(a, b), Point::new(c, d))),
        (grid_coord(), grid_coord()).prop_map(|(x, y)| Rect::point(Point::new(x, y))),
    ]
}

/// The bit pattern a decode delivered — `PartialEq` on `f64` would pass
/// `-0.0 == 0.0` and miss a byte-level divergence.
fn bits(o: &SpatialObject) -> (u32, [u64; 4]) {
    (
        o.id,
        [
            o.mbr.min.x.to_bits(),
            o.mbr.min.y.to_bits(),
            o.mbr.max.x.to_bits(),
            o.mbr.max.y.to_bits(),
        ],
    )
}

fn encode_v2(resp: &Response, ctx: Option<&QuantCtx>) -> bytes::Bytes {
    let mut buf = BytesMut::new();
    encode_response_versioned(resp, WireVersion::V2, ctx, &mut buf);
    buf.freeze()
}

/// A deterministic LCG (Knuth's MMIX constants) for the seeded garble
/// sweep — byte positions and replacement values replay from the seed.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// A corpus of valid frames in both wire versions: every response shape
/// the retry loops re-decode, as v1 frames and as generation-stamped v2
/// frames, plus request frames (the server-facing decode surface).
fn garble_corpus() -> Vec<(Bytes, Option<QuantCtx>)> {
    use asj_net::codec::{encode_request_versioned, ANSWER_BYTES};
    let _ = ANSWER_BYTES; // corpus shapes mirror the costed frames
    let win = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
    let ctx = QuantCtx::new(win);
    let objs = vec![
        SpatialObject::point(1, 1.0, 1.0),
        SpatialObject::new(900, Rect::from_coords(2.0, 2.0, 1.0e7, 3.0)),
        SpatialObject::point(901, -4.5, 9.5),
    ];
    let responses = [
        Response::Objects(objs),
        Response::Count(123_456),
        Response::Counts(vec![0, 7, u64::MAX, 42]),
        Response::Ack { generation: 7 },
    ];
    let mut corpus = Vec::new();
    for resp in &responses {
        corpus.push((encode_response(resp), None));
        let mut buf = BytesMut::new();
        stamp_generation_versioned(9, WireVersion::V2, &mut buf);
        encode_response_versioned(resp, WireVersion::V2, ctx.as_ref(), &mut buf);
        corpus.push((buf.freeze(), ctx));
    }
    for req in [
        asj_net::Request::Count(win),
        asj_net::Request::Window(win),
        asj_net::Request::MultiCount(vec![win, win]),
    ] {
        for wire in [WireVersion::V1, WireVersion::V2] {
            corpus.push((encode_request_versioned(&req, wire), None));
        }
    }
    corpus
}

/// The seeded garble sweep: 10 000 LCG-mutated valid frames (v1 and v2,
/// responses and requests) must decode to a typed error or a value —
/// never panic. The injected-garble marker specifically must *never*
/// silently decode to a valid value, and truncating any frame anywhere
/// is always caught.
#[test]
fn seeded_garble_sweep_decodes_typed_or_errors_never_panics() {
    use asj_net::codec::{decode_request_versioned, garble_frame, is_injected_garble};
    let corpus = garble_corpus();
    let mut state = 0x5eed_0dd5_u64;
    let (mut ok, mut err) = (0u64, 0u64);
    for _ in 0..10_000 {
        let (frame, ctx) = &corpus[lcg(&mut state) as usize % corpus.len()];
        let mut bytes = frame.to_vec();
        let pos = lcg(&mut state) as usize % bytes.len();
        bytes[pos] = lcg(&mut state) as u8;
        let mutated = Bytes::from(bytes);
        // Both decode surfaces must stay total on the mutated frame: the
        // client-side response path and the server-side request path.
        let as_resp = decode_response_gen_ctx(mutated.clone(), ctx.as_ref());
        let as_req = decode_request_versioned(mutated);
        match (as_resp.is_ok(), as_req.is_ok()) {
            (false, false) => err += 1,
            _ => ok += 1,
        }
    }
    assert_eq!(ok + err, 10_000);
    assert!(err > 1_000, "the sweep must actually reach the decoders");
    assert!(ok > 0, "some single-byte mutations stay well-formed");

    for (frame, ctx) in &corpus {
        // The injected-garble marker (byte 0 stamped) can never silently
        // decode to a different valid value — it is always a typed error.
        let garbled = garble_frame(frame);
        assert!(is_injected_garble(&garbled));
        assert!(decode_response_gen_ctx(garbled.clone(), ctx.as_ref()).is_err());
        assert!(decode_request_versioned(garbled).is_err());
        // Every truncation — the frame cut short at *any* length, the
        // single-byte tail loss included — leaves a frame both decoders
        // reject: no strict prefix of a valid frame is itself valid.
        for len in 0..frame.len() {
            let truncated = frame.slice(0..len);
            assert!(
                decode_response_gen_ctx(truncated.clone(), ctx.as_ref()).is_err()
                    && decode_request_versioned(truncated).is_err(),
                "a {len}-byte prefix of a {}-byte frame must not decode",
                frame.len()
            );
        }
    }
}

proptest! {
    // Verify-else-escape, end to end: whatever the window grid makes of
    // each coordinate, the v2 decode is bit-equal to the v1 decode.
    #[test]
    fn v2_decode_is_bit_equal_to_v1_decode(
        objs in prop::collection::vec(object(), 0..80),
        win in window(),
    ) {
        let resp = Response::Objects(objs);
        let ctx = QuantCtx::new(win);
        let v1 = decode_response(encode_response(&resp)).expect("v1 decode");
        let v2 = decode_response_ctx(encode_v2(&resp, ctx.as_ref()), ctx.as_ref())
            .expect("v2 decode");
        let (Response::Objects(want), Response::Objects(got)) = (v1, v2) else {
            panic!("objects frame decoded to a non-objects response");
        };
        prop_assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            prop_assert_eq!(
                bits(w), bits(g),
                "object {} diverged bitwise under window {:?}", w.id, win
            );
        }
    }

    // The density bound (see the module docs for why ids < 2^20 is the
    // documented requirement): even with every coordinate escaping, a
    // v2 frame never exceeds the fixed-width v1 frame.
    #[test]
    fn v2_frame_never_larger_for_ids_below_2_20(
        objs in prop::collection::vec(small_id_object(), 0..80),
        win in window(),
    ) {
        let n = objs.len() as u64;
        let resp = Response::Objects(objs);
        let ctx = QuantCtx::new(win);
        let v1 = encode_response(&resp);
        let v2 = encode_v2(&resp, ctx.as_ref());
        prop_assert!(
            v2.len() <= v1.len(),
            "{n} objects: v2 frame {} bytes > v1 frame {} bytes", v2.len(), v1.len()
        );
        // Non-vacuousness: the per-object bound derivation assumed the
        // v1 frame is exactly header + 20n.
        prop_assert_eq!(v1.len() as u64, 5 + n * OBJ_BYTES);
    }

    // Scalar v2 frames and the varint generation stamp round-trip for
    // the full u64 range (no quantization involved — this pins the
    // varint primitives and the stamp-peeling envelope).
    #[test]
    fn v2_scalars_and_stamps_round_trip(
        count in any::<u64>(),
        counts in prop::collection::vec(any::<u64>(), 0..20),
        generation in any::<u64>(),
    ) {
        for resp in [
            Response::Count(count),
            Response::Counts(counts.clone()),
            Response::Ack { generation: count },
        ] {
            let mut buf = BytesMut::new();
            stamp_generation_versioned(generation, WireVersion::V2, &mut buf);
            encode_response_versioned(&resp, WireVersion::V2, None, &mut buf);
            let (got, gen) = decode_response_gen_ctx(buf.freeze(), None).expect("v2 decode");
            prop_assert_eq!(got, resp);
            prop_assert_eq!(gen, generation, "generation stamp did not survive the peel");
        }
    }

    // The wire form is exactly what a server decodes — for every request
    // kind — and snapping is idempotent and leaves the frame unchanged.
    #[test]
    fn wire_form_is_the_decoded_request(req in request()) {
        let snapped = wire_form(&req);
        prop_assert_eq!(&snapped, &decode_request(encode_request(&req)).expect("decode"));
        prop_assert_eq!(&wire_form(&snapped), &snapped);
        prop_assert_eq!(encode_request(&snapped), encode_request(&req));
    }
}
