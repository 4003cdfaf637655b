//! The wire protocol: length-prefixed, checksummed frames carrying
//! binary request/response payloads.
//!
//! ## Frame layout
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"USRV"
//! 4       1     version (this build speaks 2)
//! 5       1     flags (reserved, must be 0)
//! 6       4     payload length, u32 little-endian
//! 10      8     FNV-1a 64 checksum of the payload, u64 little-endian
//! 18      n     payload: one Request or Response in the binary layout
//! ```
//!
//! The payload layout is [`ustream_common::codec`]'s: little-endian
//! integers, f64s as their bits, `u32` counts before strings, vectors and
//! maps, and one tag byte per enum variant (tables in DESIGN.md §13).
//! Client and server ship together, so a version-1 (JSON) frame is
//! rejected with [`FrameError::BadVersion`]; there is no fallback.
//!
//! The checksum is the same [`fnv1a64`] the engine's checkpoint file format
//! uses — corruption *detection*, not authentication. The length field is
//! bounded by the receiver's configured maximum before any allocation
//! happens, so a hostile or corrupt length prefix cannot OOM the server;
//! inside the payload every count is bounded by the bytes left. Every
//! malformed-frame condition decodes to a typed [`FrameError`]; nothing in
//! this module panics on wire input.

use serde::{Deserialize, Serialize};
use ustream_common::codec::{decode_exact, Codec, CodecError, Reader};
use ustream_common::codec_struct;
use ustream_engine::checkpoint::fnv1a64;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"USRV";
/// Protocol version written and accepted by this build.
pub const PROTOCOL_VERSION: u8 = 2;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 18;
/// Default ceiling on payload bytes; configurable per server/client.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Everything that can be wrong with a frame, as data — the connection
/// loop maps these to error responses or disconnects without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte names a protocol this build does not speak.
    BadVersion(u8),
    /// The flags byte carried bits this build does not understand.
    BadFlags(u8),
    /// The declared payload length exceeds the configured ceiling.
    Oversized {
        /// Length the header declared.
        declared: usize,
        /// The receiver's ceiling.
        max: usize,
    },
    /// Fewer bytes were available than the header (or its declared
    /// payload) requires.
    Truncated {
        /// Bytes needed to finish the header or payload.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The payload checksum did not match the header.
    Checksum {
        /// Checksum the header declared.
        declared: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// The payload does not decode as the expected message type.
    Payload(CodecError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})")
            }
            FrameError::BadFlags(b) => write!(f, "unsupported frame flags {b:#04x}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, ceiling is {max}")
            }
            FrameError::Truncated { needed, have } => {
                write!(f, "frame truncated: need {needed} bytes, have {have}")
            }
            FrameError::Checksum { declared, actual } => write!(
                f,
                "payload checksum mismatch: header says {declared:016x}, payload hashes to {actual:016x}"
            ),
            FrameError::Payload(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for ustream_common::UStreamError {
    fn from(e: FrameError) -> Self {
        ustream_common::UStreamError::Serde(format!("wire frame: {e}"))
    }
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Declared payload length in bytes (already bounded by the ceiling).
    pub payload_len: usize,
    /// Declared FNV-1a 64 checksum of the payload.
    pub checksum: u64,
}

/// Parses and validates the fixed-size header; `max` bounds the declared
/// payload length before the caller allocates anything.
pub fn parse_header(bytes: &[u8], max: usize) -> Result<FrameHeader, FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[..4]);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if bytes[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(bytes[4]));
    }
    if bytes[5] != 0 {
        return Err(FrameError::BadFlags(bytes[5]));
    }
    let mut len = [0u8; 4];
    len.copy_from_slice(&bytes[6..10]);
    let payload_len = u32::from_le_bytes(len) as usize;
    if payload_len > max {
        return Err(FrameError::Oversized {
            declared: payload_len,
            max,
        });
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[10..18]);
    Ok(FrameHeader {
        payload_len,
        checksum: u64::from_le_bytes(sum),
    })
}

/// Verifies a received payload against its parsed header.
pub fn verify_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() != header.payload_len {
        return Err(FrameError::Truncated {
            needed: header.payload_len,
            have: payload.len(),
        });
    }
    let actual = fnv1a64(payload);
    if actual != header.checksum {
        return Err(FrameError::Checksum {
            declared: header.checksum,
            actual,
        });
    }
    Ok(())
}

/// Starts a frame buffer: magic, version and flags, then zeroed length and
/// checksum fields that [`seal_frame`] fills in once the payload follows.
fn frame_buffer(payload_capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_capacity);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(0); // flags
    out.resize(HEADER_LEN, 0);
    out
}

/// Patches the payload length and checksum into a [`frame_buffer`] whose
/// payload has been appended, refusing payloads over `max`.
fn seal_frame(mut out: Vec<u8>, max: usize) -> Result<Vec<u8>, FrameError> {
    let payload_len = out.len() - HEADER_LEN;
    let declared = match u32::try_from(payload_len) {
        Ok(n) if payload_len <= max => n,
        _ => {
            return Err(FrameError::Oversized {
                declared: payload_len,
                max: max.min(u32::MAX as usize),
            })
        }
    };
    let sum = fnv1a64(&out[HEADER_LEN..]);
    out[6..10].copy_from_slice(&declared.to_le_bytes());
    out[10..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Wraps a payload into one complete frame (header + payload bytes).
pub fn encode_frame(payload: &[u8], max: usize) -> Result<Vec<u8>, FrameError> {
    let mut out = frame_buffer(payload.len());
    out.extend_from_slice(payload);
    seal_frame(out, max)
}

/// Decodes one complete frame from a contiguous buffer, returning the
/// verified payload bytes. The single entry point the fuzz tests hammer:
/// any byte soup must come back as a [`FrameError`], never a panic.
pub fn decode_frame(bytes: &[u8], max: usize) -> Result<&[u8], FrameError> {
    let header = parse_header(bytes, max)?;
    let payload = &bytes[HEADER_LEN..];
    verify_payload(&header, payload)?;
    Ok(payload)
}

/// One uncertain record on the wire: instantiated values plus the
/// per-dimension error standard deviations `ψ(X)` and the arrival tick.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePoint {
    /// The observed attribute values.
    pub values: Vec<f64>,
    /// The error standard deviations; must be finite and non-negative.
    pub errors: Vec<f64>,
    /// Arrival tick on the tenant's stream clock.
    pub timestamp: u64,
}

impl WirePoint {
    /// Validates and converts into an [`ustream_common::UncertainPoint`].
    ///
    /// The constructor over there *panics* on malformed error vectors —
    /// appropriate for in-process generator bugs, fatal for a network
    /// server — so every check happens here first and malformed records
    /// come back as `Err` strings the server maps to an error response.
    pub fn into_point(self) -> Result<ustream_common::UncertainPoint, String> {
        if self.values.is_empty() {
            return Err("point has no dimensions".into());
        }
        if self.values.len() != self.errors.len() {
            return Err(format!(
                "value/error dimensionality mismatch: {} vs {}",
                self.values.len(),
                self.errors.len()
            ));
        }
        if !self.values.iter().all(|v| v.is_finite()) {
            return Err("non-finite attribute value".into());
        }
        if !self.errors.iter().all(|e| e.is_finite() && *e >= 0.0) {
            return Err("error standard deviations must be finite and non-negative".into());
        }
        Ok(ustream_common::UncertainPoint::new(
            self.values,
            self.errors,
            self.timestamp,
            None,
        ))
    }
}

/// Per-tenant clustering configuration supplied at tenant creation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Micro-cluster budget for this tenant's clusterer.
    pub n_micro: usize,
    /// Dimensionality every ingested point must match.
    pub dims: usize,
    /// Half-life for the decayed UMicro variant; `None` runs undecayed.
    pub decay_half_life: Option<f64>,
    /// Ticks between pyramidal snapshots of the tenant's cluster set.
    pub snapshot_every: u64,
    /// Pyramid base α.
    pub alpha: u64,
    /// Pyramid order count l.
    pub l: u32,
    /// Snapshot-count ceiling for the tenant's pyramid (budget).
    pub max_snapshots: Option<usize>,
    /// Snapshot-byte ceiling for the tenant's pyramid (budget).
    pub max_snapshot_bytes: Option<u64>,
}

impl TenantSpec {
    /// A spec with the workspace's default snapshot geometry (α = 2,
    /// l = 6, snapshot every 256 ticks, no budget, undecayed).
    pub fn new(n_micro: usize, dims: usize) -> Self {
        Self {
            n_micro,
            dims,
            decay_half_life: None,
            snapshot_every: 256,
            alpha: 2,
            l: 6,
            max_snapshots: None,
            max_snapshot_bytes: None,
        }
    }
}

/// Every operation a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Creates a tenant with its own clusterer and pyramid.
    CreateTenant {
        /// Tenant name (the multiplexing key; must be unique).
        name: String,
        /// Clustering configuration for the tenant.
        spec: TenantSpec,
    },
    /// Removes a tenant and drops its state.
    RemoveTenant {
        /// Tenant to remove.
        name: String,
    },
    /// Appends a batch of records to a tenant's stream.
    Ingest {
        /// Target tenant.
        name: String,
        /// Records in arrival order.
        points: Vec<WirePoint>,
    },
    /// Micro-clusters of the trailing window `(now − horizon, now]`.
    HorizonClusters {
        /// Target tenant.
        name: String,
        /// Window length in stream ticks.
        horizon: u64,
    },
    /// On-demand offline macro-clustering of the live micro-clusters.
    MacroCluster {
        /// Target tenant.
        name: String,
        /// Number of macro-clusters.
        k: usize,
        /// k-means seed, for reproducible answers.
        seed: u64,
    },
    /// Per-tenant health and accounting.
    TenantStats {
        /// Target tenant.
        name: String,
    },
    /// Whole-server accounting.
    ServerStats,
    /// Writes an atomic checkpoint of the entire tenant map to the
    /// server's configured checkpoint path.
    Checkpoint,
    /// Asks the server to stop accepting work and drain.
    Shutdown,
}

/// Machine-readable error class carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named tenant does not exist.
    NoSuchTenant,
    /// A tenant with that name already exists.
    TenantExists,
    /// The request was structurally invalid (bad spec, bad frame payload).
    InvalidRequest,
    /// No stored snapshot covers the requested horizon.
    HorizonUnavailable,
    /// A record failed validation and was rejected.
    InvalidPoint,
    /// The server's worker queue is full; retry with backoff.
    Overloaded,
    /// The tenant's admission ladder is at `Shed`; the batch was dropped.
    Shed,
    /// The operation missed its deadline.
    Deadline,
    /// Anything else; the message carries details.
    Internal,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::NoSuchTenant => "no-such-tenant",
            ErrorCode::TenantExists => "tenant-exists",
            ErrorCode::InvalidRequest => "invalid-request",
            ErrorCode::HorizonUnavailable => "horizon-unavailable",
            ErrorCode::InvalidPoint => "invalid-point",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Shed => "shed",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// One micro-cluster in a query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCluster {
    /// Stable cluster id.
    pub id: u64,
    /// Cluster centroid.
    pub centroid: Vec<f64>,
    /// Point count (or decayed weight) of the cluster.
    pub weight: f64,
}

/// Per-tenant statistics and admission state.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTenantStats {
    /// Points absorbed into the tenant's model.
    pub points_processed: u64,
    /// Live micro-clusters.
    pub num_clusters: usize,
    /// Estimated resident bytes of the tenant's model.
    pub approx_memory_bytes: u64,
    /// Admission-ladder stage (`LoadStage::as_u8` encoding).
    pub stage: u8,
    /// Records accepted at admission (before validation).
    pub accepted: u64,
    /// Records dropped by `Sample`-stage probabilistic admission.
    pub sampled_out: u64,
    /// Records dropped by `Shed`-stage admission control.
    pub shed: u64,
    /// Records rejected by validation (NaN values, bad ψ, wrong dims).
    pub rejected: u64,
    /// Snapshots currently retained in the tenant's pyramid.
    pub snapshots_retained: usize,
    /// Latest stream tick the tenant has observed.
    pub last_tick: u64,
}

/// Whole-server statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WireServerStats {
    /// Live tenants.
    pub tenants: u64,
    /// Frames successfully decoded since boot.
    pub frames: u64,
    /// Points accepted across all tenants since boot.
    pub points: u64,
    /// Requests bounced with `Overloaded` (worker queue full).
    pub jobs_rejected: u64,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Capacity of the bounded worker queue.
    pub queue_capacity: usize,
    /// Name of the kernel SIMD backend live in the serving process
    /// (`scalar`, `portable`, `avx2`, `avx512`, `neon`) — lets operators
    /// confirm which compute path production traffic is on.
    pub kernel_backend: String,
}

/// Every answer the server can give.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The tenant was created.
    Created,
    /// The tenant was removed.
    Removed,
    /// Ingest accounting for one batch.
    Ingested {
        /// Records absorbed into the model.
        accepted: u64,
        /// Records dropped by `Sample`-stage admission.
        sampled_out: u64,
        /// Records dropped by `Shed`-stage admission.
        shed: u64,
        /// Records rejected by validation.
        rejected: u64,
        /// The tenant's admission stage after the batch
        /// (`LoadStage::as_u8` encoding).
        stage: u8,
    },
    /// Micro-clusters of a horizon window.
    Clusters {
        /// The window's micro-clusters.
        clusters: Vec<WireCluster>,
        /// Total weight across the window.
        total_weight: f64,
    },
    /// A macro-clustering.
    Macro {
        /// Macro-cluster centroids (`k × d`).
        centroids: Vec<Vec<f64>>,
        /// Total micro-cluster weight under each centroid.
        weights: Vec<f64>,
        /// Weighted SSQ of micro-centroids about their macro centroids.
        ssq: f64,
    },
    /// Per-tenant statistics.
    TenantStats {
        /// The statistics.
        stats: WireTenantStats,
    },
    /// Whole-server statistics.
    ServerStats {
        /// The statistics.
        stats: WireServerStats,
    },
    /// A checkpoint was written.
    CheckpointWritten {
        /// Bytes in the checkpoint file.
        bytes: u64,
    },
    /// The server acknowledged a shutdown request and is draining.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

codec_struct!(WirePoint {
    values: Vec<f64>,
    errors: Vec<f64>,
    timestamp: u64,
});

codec_struct!(TenantSpec {
    n_micro: usize,
    dims: usize,
    decay_half_life: Option<f64>,
    snapshot_every: u64,
    alpha: u64,
    l: u32,
    max_snapshots: Option<usize>,
    max_snapshot_bytes: Option<u64>,
});

codec_struct!(WireCluster {
    id: u64,
    centroid: Vec<f64>,
    weight: f64,
});

codec_struct!(WireTenantStats {
    points_processed: u64,
    num_clusters: usize,
    approx_memory_bytes: u64,
    stage: u8,
    accepted: u64,
    sampled_out: u64,
    shed: u64,
    rejected: u64,
    snapshots_retained: usize,
    last_tick: u64,
});

codec_struct!(WireServerStats {
    tenants: u64,
    frames: u64,
    points: u64,
    jobs_rejected: u64,
    workers: usize,
    queue_capacity: usize,
    kernel_backend: String,
});

impl Codec for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0),
            Request::CreateTenant { name, spec } => {
                out.push(1);
                name.encode(out);
                spec.encode(out);
            }
            Request::RemoveTenant { name } => {
                out.push(2);
                name.encode(out);
            }
            Request::Ingest { name, points } => {
                out.push(3);
                name.encode(out);
                points.encode(out);
            }
            Request::HorizonClusters { name, horizon } => {
                out.push(4);
                name.encode(out);
                horizon.encode(out);
            }
            Request::MacroCluster { name, k, seed } => {
                out.push(5);
                name.encode(out);
                k.encode(out);
                seed.encode(out);
            }
            Request::TenantStats { name } => {
                out.push(6);
                name.encode(out);
            }
            Request::ServerStats => out.push(7),
            Request::Checkpoint => out.push(8),
            Request::Shutdown => out.push(9),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Request::Ping,
            1 => Request::CreateTenant {
                name: Codec::decode(r)?,
                spec: Codec::decode(r)?,
            },
            2 => Request::RemoveTenant {
                name: Codec::decode(r)?,
            },
            3 => Request::Ingest {
                name: Codec::decode(r)?,
                points: Codec::decode(r)?,
            },
            4 => Request::HorizonClusters {
                name: Codec::decode(r)?,
                horizon: Codec::decode(r)?,
            },
            5 => Request::MacroCluster {
                name: Codec::decode(r)?,
                k: Codec::decode(r)?,
                seed: Codec::decode(r)?,
            },
            6 => Request::TenantStats {
                name: Codec::decode(r)?,
            },
            7 => Request::ServerStats,
            8 => Request::Checkpoint,
            9 => Request::Shutdown,
            tag => return Err(CodecError::BadTag { ty: "Request", tag }),
        })
    }
}

/// Tag bytes of [`ErrorCode`], in declaration order.
const ERROR_CODES: [ErrorCode; 9] = [
    ErrorCode::NoSuchTenant,
    ErrorCode::TenantExists,
    ErrorCode::InvalidRequest,
    ErrorCode::HorizonUnavailable,
    ErrorCode::InvalidPoint,
    ErrorCode::Overloaded,
    ErrorCode::Shed,
    ErrorCode::Deadline,
    ErrorCode::Internal,
];

impl Codec for ErrorCode {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        ERROR_CODES
            .get(usize::from(tag))
            .copied()
            .ok_or(CodecError::BadTag {
                ty: "ErrorCode",
                tag,
            })
    }
}

impl Codec for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::Created => out.push(1),
            Response::Removed => out.push(2),
            Response::Ingested {
                accepted,
                sampled_out,
                shed,
                rejected,
                stage,
            } => {
                out.push(3);
                accepted.encode(out);
                sampled_out.encode(out);
                shed.encode(out);
                rejected.encode(out);
                stage.encode(out);
            }
            Response::Clusters {
                clusters,
                total_weight,
            } => {
                out.push(4);
                clusters.encode(out);
                total_weight.encode(out);
            }
            Response::Macro {
                centroids,
                weights,
                ssq,
            } => {
                out.push(5);
                centroids.encode(out);
                weights.encode(out);
                ssq.encode(out);
            }
            Response::TenantStats { stats } => {
                out.push(6);
                stats.encode(out);
            }
            Response::ServerStats { stats } => {
                out.push(7);
                stats.encode(out);
            }
            Response::CheckpointWritten { bytes } => {
                out.push(8);
                bytes.encode(out);
            }
            Response::ShuttingDown => out.push(9),
            Response::Error { code, message } => {
                out.push(10);
                code.encode(out);
                message.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Response::Pong,
            1 => Response::Created,
            2 => Response::Removed,
            3 => Response::Ingested {
                accepted: Codec::decode(r)?,
                sampled_out: Codec::decode(r)?,
                shed: Codec::decode(r)?,
                rejected: Codec::decode(r)?,
                stage: Codec::decode(r)?,
            },
            4 => Response::Clusters {
                clusters: Codec::decode(r)?,
                total_weight: Codec::decode(r)?,
            },
            5 => Response::Macro {
                centroids: Codec::decode(r)?,
                weights: Codec::decode(r)?,
                ssq: Codec::decode(r)?,
            },
            6 => Response::TenantStats {
                stats: Codec::decode(r)?,
            },
            7 => Response::ServerStats {
                stats: Codec::decode(r)?,
            },
            8 => Response::CheckpointWritten {
                bytes: Codec::decode(r)?,
            },
            9 => Response::ShuttingDown,
            10 => Response::Error {
                code: Codec::decode(r)?,
                message: Codec::decode(r)?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    ty: "Response",
                    tag,
                })
            }
        })
    }
}

/// Encodes any message into a complete USRV frame — the shared codec
/// entry point. The serving front-end's requests/responses and the
/// distributed tier's delta frames (`ustream-distrib`) all go through this
/// pair, so the length-prefix + fnv1a64 checksum discipline is enforced in
/// exactly one place.
///
/// The payload is encoded straight into the frame buffer behind the
/// reserved header, whose length and checksum are patched in afterwards,
/// so there is no intermediate payload buffer to copy from.
pub fn encode_message<T: Codec>(msg: &T, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut out = frame_buffer(0);
    msg.encode(&mut out);
    seal_frame(out, max)
}

/// Decodes a verified frame payload as a typed message (the inverse of
/// [`encode_message`]); the payload must hold exactly one message.
pub fn decode_message<T: Codec>(payload: &[u8]) -> Result<T, FrameError> {
    decode_exact(payload).map_err(FrameError::Payload)
}

/// Serialises a request into a complete frame.
pub fn encode_request(req: &Request, max: usize) -> Result<Vec<u8>, FrameError> {
    encode_message(req, max)
}

/// Parses a verified frame payload as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    decode_message(payload)
}

/// Serialises a response into a complete frame.
pub fn encode_response(resp: &Response, max: usize) -> Result<Vec<u8>, FrameError> {
    encode_message(resp, max)
}

/// Parses a verified frame payload as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    decode_message(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let payload = b"\x00 any payload bytes";
        let frame = encode_frame(payload, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let back = decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn truncated_header_and_payload_are_typed_errors() {
        let frame = encode_frame(b"abcdef", 1024).unwrap();
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut], 1024).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut frame = encode_frame(b"x", 1024).unwrap();
        frame[0] = b'Z';
        assert!(matches!(
            decode_frame(&frame, 1024).unwrap_err(),
            FrameError::BadMagic(_)
        ));
    }

    #[test]
    fn bad_version_and_flags_detected() {
        let mut frame = encode_frame(b"x", 1024).unwrap();
        frame[4] = 9;
        assert_eq!(
            decode_frame(&frame, 1024).unwrap_err(),
            FrameError::BadVersion(9)
        );
        let mut frame = encode_frame(b"x", 1024).unwrap();
        frame[5] = 0x80;
        assert_eq!(
            decode_frame(&frame, 1024).unwrap_err(),
            FrameError::BadFlags(0x80)
        );
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(b"x", 1024).unwrap();
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, 1024).unwrap_err(),
            FrameError::Oversized { max: 1024, .. }
        ));
        // Encoding refuses over-limit payloads symmetrically.
        assert!(matches!(
            encode_frame(&[0u8; 32], 16).unwrap_err(),
            FrameError::Oversized {
                declared: 32,
                max: 16
            }
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut frame = encode_frame(b"hello world", 1024).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&frame, 1024).unwrap_err(),
            FrameError::Checksum { .. }
        ));
    }

    #[test]
    fn request_and_response_round_trip_through_frames() {
        let req = Request::Ingest {
            name: "acme".into(),
            points: vec![WirePoint {
                values: vec![1.0, 2.0],
                errors: vec![0.1, 0.2],
                timestamp: 7,
            }],
        };
        let frame = encode_request(&req, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let payload = decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(decode_request(payload).unwrap(), req);

        let resp = Response::Ingested {
            accepted: 1,
            sampled_out: 0,
            shed: 0,
            rejected: 0,
            stage: 0,
        };
        let frame = encode_response(&resp, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let payload = decode_frame(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(decode_response(payload).unwrap(), resp);
    }

    #[test]
    fn malformed_payload_is_an_error_not_a_panic() {
        for bad in [&b"{not json"[..], &[0xff, 0xfe], &[], &[0, 0]] {
            let frame = encode_frame(bad, 1024).unwrap();
            let payload = decode_frame(&frame, 1024).unwrap();
            assert!(matches!(
                decode_request(payload).unwrap_err(),
                FrameError::Payload(_)
            ));
        }
    }

    #[test]
    fn encode_message_matches_encode_frame_of_the_payload() {
        let req = Request::RemoveTenant { name: "t".into() };
        let frame = encode_request(&req, 1024).unwrap();
        let mut payload = Vec::new();
        req.encode(&mut payload);
        assert_eq!(payload, [2, 1, 0, 0, 0, b't']);
        assert_eq!(frame, encode_frame(&payload, 1024).unwrap());
        assert!(matches!(
            encode_request(&req, 5).unwrap_err(),
            FrameError::Oversized {
                declared: 6,
                max: 5
            }
        ));
    }

    #[test]
    fn error_code_tags_follow_declaration_order() {
        for (tag, code) in ERROR_CODES.iter().enumerate() {
            assert_eq!(*code as usize, tag);
            assert_eq!(decode_exact::<ErrorCode>(&[tag as u8]), Ok(*code));
        }
        assert!(decode_exact::<ErrorCode>(&[9]).is_err());
    }

    #[test]
    fn wire_point_validation_rejects_what_the_constructor_panics_on() {
        let bad_psi = WirePoint {
            values: vec![1.0],
            errors: vec![-0.5],
            timestamp: 1,
        };
        assert!(bad_psi.into_point().is_err());
        let mismatched = WirePoint {
            values: vec![1.0, 2.0],
            errors: vec![0.1],
            timestamp: 1,
        };
        assert!(mismatched.into_point().is_err());
        let nan = WirePoint {
            values: vec![f64::NAN],
            errors: vec![0.1],
            timestamp: 1,
        };
        assert!(nan.into_point().is_err());
        let empty = WirePoint {
            values: vec![],
            errors: vec![],
            timestamp: 1,
        };
        assert!(empty.into_point().is_err());
        let good = WirePoint {
            values: vec![1.0, 2.0],
            errors: vec![0.1, 0.0],
            timestamp: 3,
        };
        let p = good.into_point().unwrap();
        assert_eq!(p.timestamp(), 3);
        assert_eq!(p.dims(), 2);
    }

    #[test]
    fn error_code_display_is_kebab() {
        assert_eq!(ErrorCode::NoSuchTenant.to_string(), "no-such-tenant");
        assert_eq!(ErrorCode::Overloaded.to_string(), "overloaded");
    }
}
