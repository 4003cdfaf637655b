//! Wire messages of the distributed tier.
//!
//! Every message crosses the wire inside a USRV frame (length prefix +
//! fnv1a64 checksum), reusing the serving front-end's codec via
//! [`ustream_serve::protocol::encode_message`] — the distrib tier adds no
//! second framing discipline. Payloads use the binary layout of
//! [`ustream_common::codec`]: a delta frame carries each changed ECF as
//! its raw f64 bits, so the coordinator receives exactly the site's
//! summaries. The WAL keeps its own JSON record format (see [`crate::wal`]).
//!
//! ## Delta semantics: replace, not add
//!
//! A [`DeltaFrame`] carries the *full current ECF* of every micro-cluster
//! that changed since the site's last acknowledged epoch (`updates`), plus
//! the ids that disappeared (`removes`). Applying a delta means
//! `map[id] = ecf` / `map.remove(id)` — never arithmetic. Replace
//! semantics make application idempotent by construction: applying the
//! same frame twice yields the same map, so a duplicated or replayed
//! epoch can corrupt nothing even before the sequence-number dedup
//! rejects it. They also sidestep f64 non-associativity — the coordinator
//! holds bit-for-bit the site's own summaries, which is what the
//! exactness proptest pins down.
//!
//! ## Epoch/ack state machine
//!
//! Each site numbers its delta frames with a contiguous sequence starting
//! at 1. The coordinator tracks `last_applied` per site and:
//!
//! * `seq == last_applied + 1` → apply, ack with the new `last_applied`;
//! * `seq <= last_applied` → duplicate (retransmit race, replayed frame):
//!   drop without re-merging, re-ack so the sender can make progress;
//! * `seq > last_applied + 1` → gap (the coordinator lost state, e.g. it
//!   restarted): nack with the expected sequence; the site responds with
//!   a `full` frame that replaces its whole per-site map.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use umicro::Ecf;
use ustream_common::codec::{Codec, CodecError, Reader};
use ustream_common::codec_struct;
use ustream_serve::protocol::{decode_message, encode_message, FrameError};

/// Default frame ceiling — same as the serving protocol's.
pub use ustream_serve::protocol::DEFAULT_MAX_FRAME_BYTES;

/// One epoch's worth of micro-cluster changes from one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaFrame {
    /// Originating site id.
    pub site: u64,
    /// Contiguous per-site epoch number, starting at 1.
    pub seq: u64,
    /// When set, `updates` is the site's *complete* cluster map and the
    /// coordinator must drop everything it previously held for this site
    /// (resync after a crash, restart, or nacked gap).
    pub full: bool,
    /// Micro-clusters changed since the last acked epoch, keyed by the
    /// site's shard-namespaced local id, each carrying its full current
    /// ECF (replace semantics).
    pub updates: BTreeMap<u64, Ecf>,
    /// Local ids that existed at the last acked epoch but no longer do.
    pub removes: Vec<u64>,
    /// Records the site has processed up to this epoch.
    pub points: u64,
    /// The site's stream clock (latest tick observed).
    pub last_tick: u64,
}

/// Messages a site (or an observer) sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteRequest {
    /// Session open: tells the coordinator who is calling and asks for its
    /// `last_applied` so a respawned site can resume from its last acked
    /// epoch.
    Hello {
        /// Calling site id.
        site: u64,
    },
    /// One delta epoch.
    Delta {
        /// The epoch's changes.
        frame: DeltaFrame,
    },
    /// Coordinator statistics (liveness, counters).
    Stats,
    /// The merged global micro-cluster map, keyed by global cluster id.
    GlobalClusters,
    /// The micro-clusters of one site as the coordinator holds them.
    SiteClusters {
        /// Site to inspect.
        site: u64,
    },
}

/// Coordinator replies.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordResponse {
    /// Reply to [`SiteRequest::Hello`].
    HelloAck {
        /// Highest epoch the coordinator has applied for the caller.
        last_applied: u64,
    },
    /// The delta was applied, or was a duplicate of an already-applied
    /// epoch; either way `applied` is the coordinator's current
    /// `last_applied` for the site.
    DeltaAck {
        /// Site the ack is for.
        site: u64,
        /// Coordinator's `last_applied` after handling the frame.
        applied: u64,
    },
    /// The delta skipped ahead of the coordinator's state: the site must
    /// resync with a `full` frame carrying the expected sequence number.
    DeltaNack {
        /// Site the nack is for.
        site: u64,
        /// The sequence number the coordinator expects next.
        expected: u64,
    },
    /// Reply to [`SiteRequest::Stats`].
    Stats {
        /// Counters and per-site health.
        stats: CoordStats,
    },
    /// Reply to the cluster queries.
    Clusters {
        /// Cluster map; globally namespaced ids for `GlobalClusters`,
        /// site-local ids for `SiteClusters`.
        clusters: BTreeMap<u64, Ecf>,
    },
    /// The request could not be served.
    Error {
        /// Human-readable detail.
        message: String,
    },
}

/// Liveness and progress of one site as the coordinator sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteHealth {
    /// Site id.
    pub site: u64,
    /// Highest applied epoch.
    pub last_applied: u64,
    /// Records the site reported processing.
    pub points: u64,
    /// The site's stream clock at its last applied epoch.
    pub last_tick: u64,
    /// Milliseconds since the coordinator last heard from the site.
    pub last_heard_ms: u64,
    /// Whether `last_heard_ms` exceeds the configured suspicion timeout.
    pub suspect: bool,
}

/// What [`crate::Coordinator::resume`] recovered, carried in
/// [`CoordStats`] so operators can audit a restart after the fact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordRecovery {
    /// Epochs the loaded snapshot generation covered.
    pub snapshot_epochs: u64,
    /// Corrupt/unreadable snapshot generations skipped on the way to the
    /// one that loaded (non-zero means the snapshot directory is rotting).
    pub corrupt_generations_skipped: u64,
    /// Intact WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Whether a torn/corrupt WAL tail was found and cut off. A torn tail
    /// is benign by construction — the record was written before any ack,
    /// so the epoch it carried was never promised durable.
    pub wal_truncated: bool,
    /// Bytes the WAL truncation discarded.
    pub wal_bytes_dropped: u64,
}

/// Coordinator counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Per-site health, ordered by site id.
    pub sites: Vec<SiteHealth>,
    /// Delta epochs applied (duplicates excluded).
    pub epochs_applied: u64,
    /// Duplicate epochs dropped (re-acked, never re-merged).
    pub duplicates_dropped: u64,
    /// Gap frames nacked.
    pub gaps_nacked: u64,
    /// Frames rejected at the codec layer (bad checksum, oversized,
    /// malformed payload).
    pub frames_rejected: u64,
    /// Frames accepted by the codec layer.
    pub frames_received: u64,
    /// Wire bytes received across all sessions.
    pub bytes_received: u64,
    /// Micro-clusters in the merged global view.
    pub global_clusters: u64,
    /// Total records processed across all sites.
    pub total_points: u64,
    /// Records currently in the epoch-commit WAL (0 when not durable).
    pub wal_records: u64,
    /// Bytes currently in the epoch-commit WAL (0 when not durable).
    pub wal_bytes: u64,
    /// Durable snapshot generations written since this process started.
    pub snapshots_written: u64,
    /// Epochs applied since the last durable snapshot — the recovery
    /// cost ceiling, in WAL records, if the coordinator died right now.
    pub last_snapshot_age_epochs: u64,
    /// Set when this coordinator came up via `--resume`: what the
    /// recovery found. `None` for fresh starts and non-durable runs.
    pub recovery: Option<CoordRecovery>,
}

codec_struct!(DeltaFrame {
    site: u64,
    seq: u64,
    full: bool,
    updates: BTreeMap<u64, Ecf>,
    removes: Vec<u64>,
    points: u64,
    last_tick: u64,
});

codec_struct!(SiteHealth {
    site: u64,
    last_applied: u64,
    points: u64,
    last_tick: u64,
    last_heard_ms: u64,
    suspect: bool,
});

codec_struct!(CoordRecovery {
    snapshot_epochs: u64,
    corrupt_generations_skipped: u64,
    wal_records_replayed: u64,
    wal_truncated: bool,
    wal_bytes_dropped: u64,
});

codec_struct!(CoordStats {
    sites: Vec<SiteHealth>,
    epochs_applied: u64,
    duplicates_dropped: u64,
    gaps_nacked: u64,
    frames_rejected: u64,
    frames_received: u64,
    bytes_received: u64,
    global_clusters: u64,
    total_points: u64,
    wal_records: u64,
    wal_bytes: u64,
    snapshots_written: u64,
    last_snapshot_age_epochs: u64,
    recovery: Option<CoordRecovery>,
});

impl Codec for SiteRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SiteRequest::Hello { site } => {
                out.push(0);
                site.encode(out);
            }
            SiteRequest::Delta { frame } => {
                out.push(1);
                frame.encode(out);
            }
            SiteRequest::Stats => out.push(2),
            SiteRequest::GlobalClusters => out.push(3),
            SiteRequest::SiteClusters { site } => {
                out.push(4);
                site.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => SiteRequest::Hello {
                site: Codec::decode(r)?,
            },
            1 => SiteRequest::Delta {
                frame: Codec::decode(r)?,
            },
            2 => SiteRequest::Stats,
            3 => SiteRequest::GlobalClusters,
            4 => SiteRequest::SiteClusters {
                site: Codec::decode(r)?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    ty: "SiteRequest",
                    tag,
                })
            }
        })
    }
}

impl Codec for CoordResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CoordResponse::HelloAck { last_applied } => {
                out.push(0);
                last_applied.encode(out);
            }
            CoordResponse::DeltaAck { site, applied } => {
                out.push(1);
                site.encode(out);
                applied.encode(out);
            }
            CoordResponse::DeltaNack { site, expected } => {
                out.push(2);
                site.encode(out);
                expected.encode(out);
            }
            CoordResponse::Stats { stats } => {
                out.push(3);
                stats.encode(out);
            }
            CoordResponse::Clusters { clusters } => {
                out.push(4);
                clusters.encode(out);
            }
            CoordResponse::Error { message } => {
                out.push(5);
                message.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => CoordResponse::HelloAck {
                last_applied: Codec::decode(r)?,
            },
            1 => CoordResponse::DeltaAck {
                site: Codec::decode(r)?,
                applied: Codec::decode(r)?,
            },
            2 => CoordResponse::DeltaNack {
                site: Codec::decode(r)?,
                expected: Codec::decode(r)?,
            },
            3 => CoordResponse::Stats {
                stats: Codec::decode(r)?,
            },
            4 => CoordResponse::Clusters {
                clusters: Codec::decode(r)?,
            },
            5 => CoordResponse::Error {
                message: Codec::decode(r)?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    ty: "CoordResponse",
                    tag,
                })
            }
        })
    }
}

/// Serialises a site request into a complete USRV frame.
pub fn encode_site_request(req: &SiteRequest, max: usize) -> Result<Vec<u8>, FrameError> {
    encode_message(req, max)
}

/// Parses a verified frame payload as a site request.
pub fn decode_site_request(payload: &[u8]) -> Result<SiteRequest, FrameError> {
    decode_message(payload)
}

/// Serialises a coordinator response into a complete USRV frame.
pub fn encode_coord_response(resp: &CoordResponse, max: usize) -> Result<Vec<u8>, FrameError> {
    encode_message(resp, max)
}

/// Parses a verified frame payload as a coordinator response.
pub fn decode_coord_response(payload: &[u8]) -> Result<CoordResponse, FrameError> {
    decode_message(payload)
}

/// Bits of the global cluster id that carry the site index. The low 56
/// bits hold the site's shard-namespaced local id (16 shard bits over 48
/// local-id bits, see `ustream_snapshot::SHARD_ID_BITS`), so site count
/// and per-site shard count are both bounded by [`MAX_SITES`].
pub const SITE_ID_SHIFT: u32 = 56;
/// Maximum sites (and maximum shards per site) the global id space holds.
pub const MAX_SITES: u64 = 1 << (64 - SITE_ID_SHIFT);

/// Composes the coordinator's global cluster id from a site id and that
/// site's (shard-namespaced) local cluster id.
///
/// Debug builds assert both components fit their fields; release builds
/// mask, matching the engine's own namespacing helper.
#[must_use]
pub fn global_cluster_id(site: u64, local: u64) -> u64 {
    debug_assert!(site < MAX_SITES, "site id {site} overflows its field");
    debug_assert!(
        local < (1 << SITE_ID_SHIFT),
        "local id {local:#x} overflows its field (shard index too large?)"
    );
    (site << SITE_ID_SHIFT) | (local & ((1 << SITE_ID_SHIFT) - 1))
}

/// The site component of a global cluster id.
#[must_use]
pub fn site_of_global(id: u64) -> u64 {
    id >> SITE_ID_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ecf() -> Ecf {
        let p = ustream_common::UncertainPoint::new(vec![1.5, -2.0], vec![0.25, 0.5], 7, None);
        Ecf::from_point(&p)
    }

    #[test]
    fn delta_frame_round_trips_bit_for_bit() {
        let mut updates = BTreeMap::new();
        updates.insert(3u64, tiny_ecf());
        updates.insert((1u64 << 48) | 9, tiny_ecf());
        let frame = DeltaFrame {
            site: 2,
            seq: 41,
            full: false,
            updates,
            removes: vec![5, 6],
            points: 1234,
            last_tick: 999,
        };
        let req = SiteRequest::Delta {
            frame: frame.clone(),
        };
        let bytes = encode_site_request(&req, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let payload =
            ustream_serve::protocol::decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
        match decode_site_request(payload).unwrap() {
            SiteRequest::Delta { frame: back } => assert_eq!(back, frame),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            CoordResponse::HelloAck { last_applied: 7 },
            CoordResponse::DeltaAck {
                site: 1,
                applied: 3,
            },
            CoordResponse::DeltaNack {
                site: 1,
                expected: 4,
            },
            CoordResponse::Error {
                message: "nope".into(),
            },
        ] {
            let bytes = encode_coord_response(&resp, DEFAULT_MAX_FRAME_BYTES).unwrap();
            let payload =
                ustream_serve::protocol::decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(decode_coord_response(payload).unwrap(), resp);
        }
    }

    #[test]
    fn corrupt_frame_is_rejected_by_the_codec() {
        let req = SiteRequest::Hello { site: 1 };
        let mut bytes = encode_site_request(&req, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(ustream_serve::protocol::decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES).is_err());
    }

    #[test]
    fn global_id_composition() {
        let local = (3u64 << 48) | 17; // shard 3, local cluster 17
        let id = global_cluster_id(5, local);
        assert_eq!(site_of_global(id), 5);
        assert_eq!(id & ((1 << SITE_ID_SHIFT) - 1), local);
    }
}
