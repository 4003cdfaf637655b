//! Property tests for the distributed tier's wire messages.
//!
//! The distrib counterpart of `ustream-serve`'s `protocol_fuzz` suite:
//!
//! 1. **Round-trip**: every `SiteRequest`/`CoordResponse` variant survives
//!    encode → frame → decode bit for bit, with NaN payloads, ±∞, −0.0
//!    and subnormals in every ECF component.
//! 2. **Payload fuzz behind a valid checksum**: random and bit-flipped
//!    payloads wrapped by `encode_frame` decode to `FrameError::Payload`
//!    or to a message whose encoding is exactly those bytes — never a
//!    panic.
//! 3. **Typed rejections**: hostile counts, bad tags, bool and `Option`
//!    bytes, unsorted cluster ids, trailing bytes and version-1 frames.
//!
//! Debug builds run 256 cases per property; release builds run 4096.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use umicro::Ecf;
use ustream_common::codec::{decode_exact, put_count, put_f64s};
use ustream_common::{AdditiveFeature, CodecError};
use ustream_distrib::protocol::{
    decode_coord_response, decode_site_request, encode_coord_response, encode_site_request,
    CoordRecovery, CoordResponse, CoordStats, DeltaFrame, SiteHealth, SiteRequest,
    DEFAULT_MAX_FRAME_BYTES,
};
use ustream_serve::protocol::{decode_frame, encode_frame, FrameError, HEADER_LEN};

const MAX: usize = DEFAULT_MAX_FRAME_BYTES;
const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

/// Any f64, weighted towards NaN payloads, ±∞, −0.0 and subnormals.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0u8..8, 0u64..u64::MAX).prop_map(|(kind, raw)| match kind {
        0 => f64::from_bits(raw),
        1 => f64::from_bits(0x7ff0_0000_0000_0001 | raw), // NaN, any payload/sign
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        5 => f64::from_bits(raw & 0x800f_ffff_ffff_ffff), // subnormal or ±0
        6 => f64::MIN_POSITIVE,
        _ => (raw % 2_000_001) as f64 / 7.0 - 1e5,
    })
}

/// An ECF with arbitrary bits in every component. `Ecf`'s fields are
/// private and its constructors keep the moments consistent, so the test
/// writes the wire layout by hand and decodes it.
fn arb_ecf() -> impl Strategy<Value = Ecf> {
    (
        1usize..5,
        pvec(arb_f64(), 13),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(|(d, floats, (last_update, last_decay, count))| {
            let mut bytes = Vec::new();
            put_count(&mut bytes, d);
            put_f64s(&mut bytes, &floats[..3 * d]);
            bytes.extend_from_slice(&last_update.to_le_bytes());
            bytes.extend_from_slice(&last_decay.to_le_bytes());
            bytes.extend_from_slice(&floats[12].to_bits().to_le_bytes());
            bytes.extend_from_slice(&count.to_le_bytes());
            decode_exact(&bytes).expect("hand-written ECF layout decodes")
        })
}

fn arb_clusters() -> impl Strategy<Value = BTreeMap<u64, Ecf>> {
    pvec((0u64..u64::MAX, arb_ecf()), 0..6).prop_map(|v| v.into_iter().collect())
}

fn arb_frame() -> impl Strategy<Value = DeltaFrame> {
    (
        (0u64..u64::MAX, 0u64..u64::MAX, 0u8..2),
        arb_clusters(),
        pvec(0u64..u64::MAX, 0..6),
        (0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(
            |((site, seq, full), updates, removes, (points, last_tick))| DeltaFrame {
                site,
                seq,
                full: full == 1,
                updates,
                removes,
                points,
                last_tick,
            },
        )
}

fn arb_site_request() -> impl Strategy<Value = SiteRequest> {
    (0u8..5, 0u64..u64::MAX, arb_frame()).prop_map(|(idx, site, frame)| match idx {
        0 => SiteRequest::Hello { site },
        1 => SiteRequest::Delta { frame },
        2 => SiteRequest::Stats,
        3 => SiteRequest::GlobalClusters,
        _ => SiteRequest::SiteClusters { site },
    })
}

fn arb_health() -> impl Strategy<Value = SiteHealth> {
    (
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u8..2),
    )
        .prop_map(
            |((site, last_applied, points), (last_tick, last_heard_ms, suspect))| SiteHealth {
                site,
                last_applied,
                points,
                last_tick,
                last_heard_ms,
                suspect: suspect == 1,
            },
        )
}

fn arb_stats() -> impl Strategy<Value = CoordStats> {
    (
        pvec(arb_health(), 0..4),
        (
            0u64..u64::MAX,
            0u64..1000,
            0u64..1000,
            0u64..1000,
            0u64..u64::MAX,
        ),
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..1000,
            0u64..u64::MAX,
        ),
        (0u64..100, 0u64..100),
        (
            0u8..2,
            0u64..100,
            0u64..100,
            0u64..100,
            0u8..2,
            0u64..u64::MAX,
        ),
    )
        .prop_map(
            |(
                sites,
                (epochs_applied, duplicates_dropped, gaps_nacked, frames_rejected, frames_received),
                (bytes_received, global_clusters, total_points, wal_records, wal_bytes),
                (snapshots_written, last_snapshot_age_epochs),
                (has_recovery, snapshot_epochs, skipped, replayed, truncated, dropped),
            )| CoordStats {
                sites,
                epochs_applied,
                duplicates_dropped,
                gaps_nacked,
                frames_rejected,
                frames_received,
                bytes_received,
                global_clusters,
                total_points,
                wal_records,
                wal_bytes,
                snapshots_written,
                last_snapshot_age_epochs,
                recovery: (has_recovery == 1).then_some(CoordRecovery {
                    snapshot_epochs,
                    corrupt_generations_skipped: skipped,
                    wal_records_replayed: replayed,
                    wal_truncated: truncated == 1,
                    wal_bytes_dropped: dropped,
                }),
            },
        )
}

fn arb_coord_response() -> impl Strategy<Value = CoordResponse> {
    (
        (0u8..6, 0u64..u64::MAX, 0u64..u64::MAX),
        arb_stats(),
        arb_clusters(),
        (0u64..10_000).prop_map(|n| format!("coordinator error #{n} ✗")),
    )
        .prop_map(|((idx, a, b), stats, clusters, message)| match idx {
            0 => CoordResponse::HelloAck { last_applied: a },
            1 => CoordResponse::DeltaAck {
                site: a,
                applied: b,
            },
            2 => CoordResponse::DeltaNack {
                site: a,
                expected: b,
            },
            3 => CoordResponse::Stats { stats },
            4 => CoordResponse::Clusters { clusters },
            _ => CoordResponse::Error { message },
        })
}

/// Every component of an ECF, floats as their bits.
fn ecf_bits(e: &Ecf) -> Vec<u64> {
    let mut bits: Vec<u64> = [e.cf2(), e.ef2(), e.cf1()]
        .concat()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    bits.extend([
        e.weight().to_bits(),
        e.last_update(),
        e.last_decay(),
        e.point_count(),
    ]);
    bits
}

fn clusters_bits(m: &BTreeMap<u64, Ecf>) -> Vec<(u64, Vec<u64>)> {
    m.iter().map(|(k, e)| (*k, ecf_bits(e))).collect()
}

/// Asserts bit-for-bit equality: `PartialEq` on `Ecf` would call a NaN
/// moment unequal to itself and −0.0 equal to 0.0.
fn assert_same_frame(a: &DeltaFrame, b: &DeltaFrame) {
    assert_eq!(clusters_bits(&a.updates), clusters_bits(&b.updates));
    assert_eq!(
        (a.site, a.seq, a.full, &a.removes, a.points, a.last_tick),
        (b.site, b.seq, b.full, &b.removes, b.points, b.last_tick)
    );
}

fn site_payload(req: &SiteRequest) -> Vec<u8> {
    encode_site_request(req, MAX).expect("message frames")[HEADER_LEN..].to_vec()
}

fn coord_payload(resp: &CoordResponse) -> Vec<u8> {
    encode_coord_response(resp, MAX).expect("message frames")[HEADER_LEN..].to_vec()
}

/// Wraps `payload` in a frame with a valid checksum; decoding must give a
/// payload error or a message whose encoding is exactly `payload`.
fn check_payload(payload: &[u8]) {
    let frame = encode_frame(payload, MAX).expect("message frames");
    let verified = decode_frame(&frame, MAX).expect("frame verifies");
    match decode_site_request(verified) {
        Ok(req) => assert_eq!(site_payload(&req), payload),
        Err(e) => assert!(matches!(e, FrameError::Payload(_)), "{e}"),
    }
    match decode_coord_response(verified) {
        Ok(resp) => assert_eq!(coord_payload(&resp), payload),
        Err(e) => assert!(matches!(e, FrameError::Payload(_)), "{e}"),
    }
}

fn site_error(payload: &[u8]) -> CodecError {
    let frame = encode_frame(payload, MAX).expect("message frames");
    match decode_site_request(decode_frame(&frame, MAX).expect("frame verifies")) {
        Err(FrameError::Payload(e)) => e,
        other => panic!("expected a payload error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every site request survives encode → frame → decode bit for bit.
    #[test]
    fn site_request_round_trip(req in arb_site_request()) {
        let frame = encode_site_request(&req, MAX).unwrap();
        let back = decode_site_request(decode_frame(&frame, MAX).unwrap()).unwrap();
        match (&back, &req) {
            (SiteRequest::Delta { frame: a }, SiteRequest::Delta { frame: b }) => {
                assert_same_frame(a, b);
            }
            _ => prop_assert_eq!(back, req),
        }
    }

    /// Every coordinator response survives encode → frame → decode bit
    /// for bit.
    #[test]
    fn coord_response_round_trip(resp in arb_coord_response()) {
        let frame = encode_coord_response(&resp, MAX).unwrap();
        let back = decode_coord_response(decode_frame(&frame, MAX).unwrap()).unwrap();
        match (&back, &resp) {
            (CoordResponse::Clusters { clusters: a }, CoordResponse::Clusters { clusters: b }) => {
                prop_assert_eq!(clusters_bits(a), clusters_bits(b));
            }
            _ => prop_assert_eq!(back, resp),
        }
    }

    /// Random payload bytes behind a valid checksum never panic the
    /// decoder.
    #[test]
    fn random_payload_behind_valid_checksum(
        bytes in pvec((0u16..256).prop_map(|b| b as u8), 0..160),
    ) {
        check_payload(&bytes);
    }

    /// A bit flipped anywhere in a valid payload, re-wrapped with a valid
    /// checksum, is a payload error or a canonical message.
    #[test]
    fn flipped_payload_behind_valid_checksum(
        req in arb_site_request(),
        resp in arb_coord_response(),
        pos in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        for mut payload in [site_payload(&req), coord_payload(&resp)] {
            let idx = ((payload.len() as f64) * pos) as usize % payload.len();
            payload[idx] ^= 1 << bit;
            check_payload(&payload);
        }
    }

    /// Every proper prefix of a valid delta payload, and the payload with a
    /// byte appended, is a payload error.
    #[test]
    fn cut_or_padded_payload_is_a_payload_error(req in arb_site_request(), frac in 0.0..1.0f64) {
        let payload = site_payload(&req);
        let cut = ((payload.len() as f64) * frac) as usize;
        prop_assert!(cut < payload.len());
        let _ = site_error(&payload[..cut]);
        let mut padded = payload;
        padded.push(0);
        prop_assert_eq!(site_error(&padded), CodecError::Trailing(1));
    }
}

fn delta_payload() -> Vec<u8> {
    let p = ustream_common::UncertainPoint::new(vec![1.5, -2.0], vec![0.25, 0.5], 7, None);
    let frame = DeltaFrame {
        site: 1,
        seq: 2,
        full: false,
        updates: [(4, Ecf::from_point(&p)), (9, Ecf::from_point(&p))]
            .into_iter()
            .collect(),
        removes: vec![],
        points: 3,
        last_tick: 7,
    };
    site_payload(&SiteRequest::Delta { frame })
}

/// Offsets into [`delta_payload`]: tag, site, seq, then `full`.
const FULL_AT: usize = 1 + 8 + 8;
const UPDATES_AT: usize = FULL_AT + 1;
const FIRST_KEY_AT: usize = UPDATES_AT + 4;
/// Tag, site, seq, full, update count, key: the first ECF's dimension count.
const FIRST_DIMS_AT: usize = FIRST_KEY_AT + 8;
/// The second cluster id, after the first 2-d ECF.
const SECOND_KEY_AT: usize = FIRST_DIMS_AT + 4 + 3 * 2 * 8 + 4 * 8;

#[test]
fn payload_offsets_match_the_layout() {
    let payload = delta_payload();
    assert_eq!(payload[FULL_AT], 0);
    assert_eq!(payload[UPDATES_AT..FIRST_KEY_AT], 2u32.to_le_bytes());
    assert_eq!(payload[FIRST_KEY_AT..FIRST_DIMS_AT], 4u64.to_le_bytes());
    assert_eq!(
        payload[FIRST_DIMS_AT..FIRST_DIMS_AT + 4],
        2u32.to_le_bytes()
    );
    assert_eq!(
        payload[SECOND_KEY_AT..SECOND_KEY_AT + 8],
        9u64.to_le_bytes()
    );
}

#[test]
fn bad_tag_bool_and_key_order_are_typed_errors() {
    for tag in 5..=255u8 {
        assert_eq!(
            site_error(&[tag]),
            CodecError::BadTag {
                ty: "SiteRequest",
                tag
            }
        );
    }
    let frame = encode_frame(&[6], MAX).unwrap();
    assert_eq!(
        decode_coord_response(decode_frame(&frame, MAX).unwrap()),
        Err(FrameError::Payload(CodecError::BadTag {
            ty: "CoordResponse",
            tag: 6
        }))
    );

    let mut bad_bool = delta_payload();
    bad_bool[FULL_AT] = 2;
    assert_eq!(site_error(&bad_bool), CodecError::BadBool(2));

    // Second cluster id equal to the first: keys must strictly ascend.
    let mut dup = delta_payload();
    dup[SECOND_KEY_AT..SECOND_KEY_AT + 8].copy_from_slice(&4u64.to_le_bytes());
    assert_eq!(site_error(&dup), CodecError::UnsortedKeys);

    let mut trailing = delta_payload();
    trailing.push(0);
    assert_eq!(site_error(&trailing), CodecError::Trailing(1));
}

#[test]
fn bad_option_byte_in_stats_is_a_typed_error() {
    let resp = CoordResponse::Stats {
        stats: CoordStats::default(),
    };
    let mut payload = coord_payload(&resp);
    // `recovery` is the last field: its tag is the final byte.
    let last = payload.len() - 1;
    assert_eq!(payload[last], 0);
    payload[last] = 2;
    let frame = encode_frame(&payload, MAX).unwrap();
    assert_eq!(
        decode_coord_response(decode_frame(&frame, MAX).unwrap()),
        Err(FrameError::Payload(CodecError::BadOption(2)))
    );
}

/// Counts of `u32::MAX` elements are refused by the bytes-left check
/// before any allocation: the update count, and an ECF's dimensions.
#[test]
fn hostile_inner_counts_are_rejected_before_allocating() {
    let huge = u32::MAX.to_le_bytes();
    let mut updates = delta_payload();
    updates[UPDATES_AT..FIRST_KEY_AT].copy_from_slice(&huge);
    let mut dims = delta_payload();
    dims[FIRST_DIMS_AT..FIRST_DIMS_AT + 4].copy_from_slice(&huge);
    let mut removes = [&[1u8][..], &[0; 17], &0u32.to_le_bytes(), &huge].concat();
    removes.resize(40, 0);
    for payload in [updates, dims, removes] {
        assert!(
            matches!(
                site_error(&payload),
                CodecError::Length { declared, .. } if declared == u32::MAX as usize
            ),
            "{:?}",
            site_error(&payload)
        );
    }
}

#[test]
fn version_one_frame_is_rejected() {
    let mut frame = encode_site_request(&SiteRequest::Hello { site: 3 }, MAX).unwrap();
    frame[4] = 1;
    assert_eq!(decode_frame(&frame, MAX), Err(FrameError::BadVersion(1)));
}
