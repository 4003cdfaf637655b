//! Property tests for the serving wire protocol.
//!
//! Three families:
//!
//! 1. **Round-trip**: every `Request`/`Response` variant, with randomised
//!    payloads, survives encode → frame → decode bit for bit — NaN
//!    payloads, ±∞, −0.0 and subnormals in every f64 field included.
//! 2. **Malformed-frame fuzz**: random bytes, truncations at every cut
//!    point, single-bit corruption and hostile length prefixes must come
//!    back as typed `FrameError`s — never a panic, never an allocation
//!    driven by an unvalidated length.
//! 3. **Payload fuzz behind a valid checksum**: random, bit-flipped and
//!    cut payloads wrapped by `encode_frame` reach the binary decoder,
//!    which must answer `FrameError::Payload` or a message whose encoding
//!    is exactly those bytes — never a panic.
//!
//! Debug builds run 256 cases per property; release builds run 4096, so
//! the CI step that reruns this suite with `--release` adds coverage.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use ustream_serve::protocol::{
    decode_frame, decode_request, decode_response, encode_frame, encode_request, encode_response,
    ErrorCode, FrameError, Request, Response, TenantSpec, WireCluster, WirePoint, WireServerStats,
    WireTenantStats, DEFAULT_MAX_FRAME_BYTES, HEADER_LEN, PROTOCOL_VERSION,
};

const MAX: usize = DEFAULT_MAX_FRAME_BYTES;
const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

fn arb_name() -> impl Strategy<Value = String> {
    (0u64..10_000).prop_map(|n| format!("tenant-{n}"))
}

/// Any f64, weighted towards the values a text codec loses: NaNs with
/// arbitrary payloads and signs, ±∞, −0.0 and subnormals.
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

/// Wire points are *unvalidated* on purpose: mismatched lengths and
/// non-finite values reach the decoder and must round-trip (validation
/// happens at admission, not in the codec).
fn arb_point() -> impl Strategy<Value = WirePoint> {
    (pvec(arb_f64(), 0..5), pvec(arb_f64(), 0..5), 0u64..u64::MAX).prop_map(
        |(values, errors, timestamp)| WirePoint {
            values,
            errors,
            timestamp,
        },
    )
}

fn arb_spec() -> impl Strategy<Value = TenantSpec> {
    (
        (0usize..64, 0usize..8, 0u64..u64::MAX),
        (0u64..5, 0u32..u32::MAX, 0u8..8),
        (arb_f64(), 0usize..100, 0u64..u64::MAX),
    )
        .prop_map(
            |((n_micro, dims, snapshot_every), (alpha, l, opts), (hl, max_snaps, max_bytes))| {
                TenantSpec {
                    n_micro,
                    dims,
                    snapshot_every,
                    alpha,
                    l,
                    decay_half_life: (opts & 1 != 0).then_some(hl),
                    max_snapshots: (opts & 2 != 0).then_some(max_snaps),
                    max_snapshot_bytes: (opts & 4 != 0).then_some(max_bytes),
                }
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        (0u8..10, arb_name(), arb_spec()),
        (pvec(arb_point(), 0..8), 0u64..u64::MAX, 0usize..usize::MAX),
        0u64..u64::MAX,
    )
        .prop_map(
            |((idx, name, spec), (points, horizon, k), seed)| match idx {
                0 => Request::Ping,
                1 => Request::CreateTenant { name, spec },
                2 => Request::RemoveTenant { name },
                3 => Request::Ingest { name, points },
                4 => Request::HorizonClusters { name, horizon },
                5 => Request::MacroCluster { name, k, seed },
                6 => Request::TenantStats { name },
                7 => Request::ServerStats,
                8 => Request::Checkpoint,
                _ => Request::Shutdown,
            },
        )
}

fn arb_cluster() -> impl Strategy<Value = WireCluster> {
    (0u64..u64::MAX, pvec(arb_f64(), 0..5), arb_f64()).prop_map(|(id, centroid, weight)| {
        WireCluster {
            id,
            centroid,
            weight,
        }
    })
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0u8..9).prop_map(|i| match i {
        0 => ErrorCode::NoSuchTenant,
        1 => ErrorCode::TenantExists,
        2 => ErrorCode::InvalidRequest,
        3 => ErrorCode::HorizonUnavailable,
        4 => ErrorCode::InvalidPoint,
        5 => ErrorCode::Overloaded,
        6 => ErrorCode::Shed,
        7 => ErrorCode::Deadline,
        _ => ErrorCode::Internal,
    })
}

fn arb_tenant_stats() -> impl Strategy<Value = WireTenantStats> {
    (
        (0u64..1_000_000, 0usize..1000, 0u64..u64::MAX),
        (0u8..255, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000, 0usize..100),
        0u64..u64::MAX,
    )
        .prop_map(
            |(
                (points_processed, num_clusters, approx_memory_bytes),
                (stage, accepted, sampled_out),
                (shed, rejected, snapshots_retained),
                last_tick,
            )| WireTenantStats {
                points_processed,
                num_clusters,
                approx_memory_bytes,
                stage,
                accepted,
                sampled_out,
                shed,
                rejected,
                snapshots_retained,
                last_tick,
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        (0u8..11, pvec(arb_cluster(), 0..8), arb_tenant_stats()),
        (
            pvec(pvec(arb_f64(), 0..4), 0..6),
            pvec(arb_f64(), 0..6),
            arb_f64(),
        ),
        (
            (0u64..u64::MAX, 0u64..1_000_000, 0u64..1_000_000),
            arb_error_code(),
            arb_name(),
        ),
    )
        .prop_map(
            |((idx, clusters, tstats), (centroids, weights, ssq), ((a, b, c), code, message))| {
                match idx {
                    0 => Response::Pong,
                    1 => Response::Created,
                    2 => Response::Removed,
                    3 => Response::Ingested {
                        accepted: a,
                        sampled_out: b,
                        shed: c,
                        rejected: a.min(b),
                        stage: (c % 4) as u8,
                    },
                    4 => Response::Clusters {
                        clusters,
                        total_weight: ssq,
                    },
                    5 => Response::Macro {
                        centroids,
                        weights,
                        ssq,
                    },
                    6 => Response::TenantStats { stats: tstats },
                    7 => Response::ServerStats {
                        stats: WireServerStats {
                            tenants: a,
                            frames: b,
                            points: c,
                            jobs_rejected: a.min(c),
                            workers: (b % 64) as usize,
                            queue_capacity: (c % 4096) as usize,
                            kernel_backend: if a % 2 == 0 {
                                String::from("scalar")
                            } else {
                                String::from("avx-512 ✓")
                            },
                        },
                    },
                    8 => Response::CheckpointWritten { bytes: a },
                    9 => Response::ShuttingDown,
                    _ => Response::Error { code, message },
                }
            },
        )
}

/// Moves every f64 in `xs` into `bits` and zeroes it. After that the
/// float-free remainder compares with `PartialEq` and the bits compare
/// exactly — `PartialEq` on the floats themselves would call a NaN unequal
/// to itself and −0.0 equal to 0.0.
fn take_bits(bits: &mut Vec<u64>, xs: &mut [f64]) {
    for x in xs {
        bits.push(x.to_bits());
        *x = 0.0;
    }
}

fn split_request(mut req: Request) -> (Request, Vec<u64>) {
    let mut bits = Vec::new();
    match &mut req {
        Request::CreateTenant { spec, .. } => {
            take_bits(&mut bits, spec.decay_half_life.as_mut_slice());
        }
        Request::Ingest { points, .. } => {
            for p in points {
                take_bits(&mut bits, &mut p.values);
                take_bits(&mut bits, &mut p.errors);
            }
        }
        _ => {}
    }
    (req, bits)
}

fn split_response(mut resp: Response) -> (Response, Vec<u64>) {
    let mut bits = Vec::new();
    match &mut resp {
        Response::Clusters {
            clusters,
            total_weight,
        } => {
            for c in clusters {
                take_bits(&mut bits, &mut c.centroid);
                take_bits(&mut bits, std::slice::from_mut(&mut c.weight));
            }
            take_bits(&mut bits, std::slice::from_mut(total_weight));
        }
        Response::Macro {
            centroids,
            weights,
            ssq,
        } => {
            for c in centroids {
                take_bits(&mut bits, c);
            }
            take_bits(&mut bits, weights);
            take_bits(&mut bits, std::slice::from_mut(ssq));
        }
        _ => {}
    }
    (resp, bits)
}

fn request_payload(req: &Request) -> Vec<u8> {
    encode_request(req, MAX).expect("message frames")[HEADER_LEN..].to_vec()
}

/// Wraps `payload` in a frame with a valid checksum and decodes it: the
/// answer must be `FrameError::Payload` or a request whose encoding is
/// exactly `payload` (the layout has one encoding per value).
fn check_request_payload(payload: &[u8]) {
    let frame = encode_frame(payload, MAX).expect("message frames");
    let verified = decode_frame(&frame, MAX).expect("frame verifies");
    match decode_request(verified) {
        Ok(req) => assert_eq!(request_payload(&req), payload),
        Err(FrameError::Payload(_)) => {}
        Err(other) => panic!("expected a payload error, got {other}"),
    }
}

fn check_response_payload(payload: &[u8]) {
    let frame = encode_frame(payload, MAX).expect("message frames");
    let verified = decode_frame(&frame, MAX).expect("frame verifies");
    match decode_response(verified) {
        Ok(resp) => {
            assert_eq!(
                &encode_response(&resp, MAX).expect("message frames")[HEADER_LEN..],
                payload
            )
        }
        Err(FrameError::Payload(_)) => {}
        Err(other) => panic!("expected a payload error, got {other}"),
    }
}

fn payload_error(payload: &[u8]) -> FrameError {
    let frame = encode_frame(payload, MAX).expect("message frames");
    decode_request(decode_frame(&frame, MAX).expect("frame verifies"))
        .expect_err("payload is malformed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every request variant survives encode → frame → decode bit for bit.
    #[test]
    fn request_round_trip(req in arb_request()) {
        let frame = encode_request(&req, MAX).unwrap();
        let payload = decode_frame(&frame, MAX).unwrap();
        let back = decode_request(payload).unwrap();
        prop_assert_eq!(split_request(back), split_request(req));
    }

    /// Every response variant survives encode → frame → decode bit for
    /// bit, including every float (centroids, weights, ssq).
    #[test]
    fn response_round_trip(resp in arb_response()) {
        let frame = encode_response(&resp, MAX).unwrap();
        let payload = decode_frame(&frame, MAX).unwrap();
        let back = decode_response(payload).unwrap();
        prop_assert_eq!(split_response(back), split_response(resp));
    }

    /// Arbitrary byte soup is a typed error (or, vanishingly unlikely, a
    /// valid frame) — never a panic.
    #[test]
    fn random_bytes_never_panic(bytes in pvec((0u16..256).prop_map(|b| b as u8), 0..200)) {
        let _ = decode_frame(&bytes, MAX);
    }

    /// Random payload bytes behind a valid checksum reach the binary
    /// decoder, which answers a payload error or a canonical message.
    #[test]
    fn random_payload_behind_valid_checksum(
        bytes in pvec((0u16..256).prop_map(|b| b as u8), 0..120),
    ) {
        check_request_payload(&bytes);
        check_response_payload(&bytes);
    }

    /// A bit flipped anywhere in a valid payload, re-wrapped with a valid
    /// checksum, is a payload error or decodes to a message that encodes
    /// back to the flipped bytes.
    #[test]
    fn flipped_payload_behind_valid_checksum(
        req in arb_request(),
        resp in arb_response(),
        pos in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let mut payload = request_payload(&req);
        let idx = ((payload.len() as f64) * pos) as usize % payload.len();
        payload[idx] ^= 1 << bit;
        check_request_payload(&payload);

        let mut payload = encode_response(&resp, MAX).unwrap()[HEADER_LEN..].to_vec();
        let idx = ((payload.len() as f64) * pos) as usize % payload.len();
        payload[idx] ^= 1 << bit;
        check_response_payload(&payload);
    }

    /// Every proper prefix of a valid payload, and the payload with a byte
    /// appended, is a payload error: the layout is self-delimiting.
    #[test]
    fn cut_or_padded_payload_is_a_payload_error(req in arb_request(), frac in 0.0..1.0f64) {
        let payload = request_payload(&req);
        let cut = ((payload.len() as f64) * frac) as usize;
        prop_assert!(cut < payload.len());
        prop_assert!(matches!(payload_error(&payload[..cut]), FrameError::Payload(_)));
        let mut padded = payload;
        padded.push(0);
        prop_assert!(matches!(payload_error(&padded), FrameError::Payload(_)));
    }

    /// A valid frame truncated anywhere strictly before its end is a
    /// `Truncated` error with honest byte counts.
    #[test]
    fn truncation_is_always_detected(req in arb_request(), frac in 0.0..1.0f64) {
        let frame = encode_request(&req, MAX).unwrap();
        let cut = ((frame.len() as f64) * frac) as usize;
        prop_assert!(cut < frame.len());
        match decode_frame(&frame[..cut], MAX) {
            Err(FrameError::Truncated { needed, have }) => {
                prop_assert!(have < needed);
            }
            Err(other) => prop_assert!(false, "expected Truncated, got {}", other),
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
        }
    }

    /// Any single-bit flip anywhere in a frame is detected: in the header
    /// it breaks magic/version/length/checksum parsing, in the payload it
    /// breaks the fnv1a64 checksum. No flip can yield `Ok`.
    #[test]
    fn single_bit_corruption_is_always_detected(
        req in arb_request(),
        pos in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let mut frame = encode_request(&req, MAX).unwrap();
        let idx = ((frame.len() as f64) * pos) as usize % frame.len();
        frame[idx] ^= 1 << bit;
        prop_assert!(decode_frame(&frame, MAX).is_err(), "flip at {} bit {} decoded", idx, bit);
    }

    /// A hostile length prefix beyond the frame bound is rejected before
    /// any allocation, regardless of what follows the header.
    #[test]
    fn hostile_length_prefix_is_rejected(declared in 0u64..u64::from(u32::MAX)) {
        let small_max = 4096usize;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(b"USRV");
        header.push(PROTOCOL_VERSION);
        header.push(0); // flags
        header.extend_from_slice(&(declared as u32).to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // bogus checksum
        let res = decode_frame(&header, small_max);
        if declared as usize > small_max {
            match res {
                Err(FrameError::Oversized { declared: d, max }) => {
                    prop_assert_eq!(d, declared as usize);
                    prop_assert_eq!(max, small_max);
                }
                other => prop_assert!(false, "expected Oversized, got {:?}", other.err()),
            }
        } else {
            // In-bounds length with no payload bytes: truncated, checksum
            // failure, or (declared == 0 with matching checksum) a decode —
            // but never a panic.
            let _ = res;
        }
    }
}

/// Deterministic exhaustive sweep (not property-based): every cut point of
/// a real frame, byte-by-byte, is a typed error.
#[test]
fn exhaustive_cut_points_of_a_real_request() {
    let req = Request::CreateTenant {
        name: "edge".into(),
        spec: TenantSpec::new(16, 3),
    };
    let frame = encode_request(&req, MAX).unwrap();
    for cut in 0..frame.len() {
        assert!(
            decode_frame(&frame[..cut], MAX).is_err(),
            "cut at {cut} decoded"
        );
    }
    assert!(decode_frame(&frame, MAX).is_ok());
}

/// A frame from a version-1 (JSON payload) peer is refused at the header.
#[test]
fn version_one_frame_is_rejected() {
    let mut frame = encode_request(&Request::Ping, MAX).unwrap();
    frame[4] = 1;
    assert_eq!(decode_frame(&frame, MAX), Err(FrameError::BadVersion(1)));
}

/// Counts of `u32::MAX` elements inside a 20-byte payload are refused by
/// the bytes-left check before the decoder allocates for them — at every
/// nesting level that carries a count.
#[test]
fn hostile_inner_counts_are_rejected_before_allocating() {
    let huge = u32::MAX.to_le_bytes();
    let pad = |mut p: Vec<u8>, len: usize| {
        p.resize(len, 0);
        p
    };
    // Ingest: tag, empty name, then the point count.
    let points = pad([&[3u8][..], &[0; 4], &huge].concat(), 20);
    // RemoveTenant: a name of u32::MAX bytes.
    let name = pad([&[2u8][..], &huge].concat(), 20);
    // Ingest: one point (room for its 16-byte minimum) whose value vector
    // claims u32::MAX entries.
    let values = pad(
        [&[3u8][..], &[0; 4], &1u32.to_le_bytes(), &huge].concat(),
        25,
    );
    for payload in [points, name, values] {
        match payload_error(&payload) {
            FrameError::Payload(e) => assert!(
                matches!(
                    e,
                    ustream_common::CodecError::Length {
                        declared,
                        ..
                    } if declared == u32::MAX as usize
                ),
                "{e}"
            ),
            other => panic!("expected a payload error, got {other}"),
        }
    }
    // Macro: u32::MAX centroid rows in a response.
    let macro_rows = pad([&[5u8][..], &huge].concat(), 20);
    let frame = encode_frame(&macro_rows, MAX).unwrap();
    assert!(matches!(
        decode_response(decode_frame(&frame, MAX).unwrap()),
        Err(FrameError::Payload(
            ustream_common::CodecError::Length { .. }
        ))
    ));
}

/// Each malformed byte class is its own typed error.
#[test]
fn bad_tags_bytes_and_strings_are_typed_errors() {
    use ustream_common::CodecError;
    let err = |payload: &[u8]| match payload_error(payload) {
        FrameError::Payload(e) => e,
        other => panic!("expected a payload error, got {other}"),
    };
    // Unknown request tags.
    for tag in 10..=255u8 {
        assert_eq!(err(&[tag]), CodecError::BadTag { ty: "Request", tag });
    }
    // Unknown response tag, and an unknown error code inside a response.
    let frame = encode_frame(&[11], MAX).unwrap();
    assert_eq!(
        decode_response(decode_frame(&frame, MAX).unwrap()),
        Err(FrameError::Payload(CodecError::BadTag {
            ty: "Response",
            tag: 11
        }))
    );
    let frame = encode_frame(&[10, 9, 0, 0, 0, 0], MAX).unwrap();
    assert_eq!(
        decode_response(decode_frame(&frame, MAX).unwrap()),
        Err(FrameError::Payload(CodecError::BadTag {
            ty: "ErrorCode",
            tag: 9
        }))
    );
    // An Option tag other than 0/1 (TenantSpec::decay_half_life).
    let good = request_payload(&Request::CreateTenant {
        name: String::new(),
        spec: TenantSpec::new(4, 2),
    });
    let opt_at = 1 + 4 + 8 + 8; // tag, name count, n_micro, dims
    assert_eq!(good[opt_at], 0);
    let mut bad = good.clone();
    bad[opt_at] = 2;
    assert_eq!(err(&bad), CodecError::BadOption(2));
    // A tenant name that is not UTF-8.
    assert_eq!(err(&[2, 2, 0, 0, 0, 0xc3, 0x28]), CodecError::Utf8);
    // Trailing bytes after a complete message.
    let mut trailing = good;
    trailing.extend_from_slice(&[0, 0, 0]);
    assert_eq!(err(&trailing), CodecError::Trailing(3));
}
