//! Portable clusterer state for checkpoint/restore.
//!
//! [`crate::UMicro::snapshot`] captures only the cluster *summaries* — the
//! part the pyramidal store needs. Fault-tolerant engines need more: the id
//! allocator, the insertion counter, the variance-refresh phase and the
//! cached global variances all influence future insertions, so restoring
//! from a summary-only snapshot would diverge from the uninterrupted run at
//! the next refresh boundary. [`ClustererState`] is the complete picture: a
//! restore from it continues the stream bit-for-bit identically (the
//! property `tests/checkpoint_roundtrip.rs` checks end to end).
//!
//! Cluster order is preserved explicitly (`ids[i]` pairs with
//! `summaries[i]` in the owner's ranking order) because UMicro's
//! tie-breaking and `swap_remove` eviction make the in-memory order
//! observable: a restore that re-sorted clusters by id could rank a
//! distance tie differently from the run it restored.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use ustream_common::Timestamp;

/// Complete serialisable state of an online clusterer.
///
/// Generic over the summary type `S` (ECF for UMicro, CF for deterministic
/// baselines) so any [`crate::OnlineClusterer`] implementation can opt in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClustererState<S> {
    /// Stable cluster ids, in the owner's internal ranking order.
    pub ids: Vec<u64>,
    /// One summary per entry of `ids`, same order; shared with the
    /// snapshots that hold the same value, and serialized as `S`.
    pub summaries: Vec<Arc<S>>,
    /// Next id the allocator would hand out.
    pub next_id: u64,
    /// Points processed so far.
    pub points_processed: u64,
    /// Insertions since the last global-variance refresh (so the restored
    /// instance refreshes at the same stream position the original would).
    pub since_refresh: u64,
    /// Cached global per-dimension variances; empty means "recompute from
    /// the summaries on import".
    pub variances: Vec<f64>,
    /// Latest stream tick observed (meaningful for decayed variants; 0
    /// otherwise).
    pub last_seen: Timestamp,
}

impl<S> ClustererState<S> {
    /// Structural sanity check shared by importers: parallel arrays must
    /// agree and the id allocator must be ahead of every live id.
    pub fn validate(&self) -> Result<(), String> {
        if self.ids.len() != self.summaries.len() {
            return Err(format!(
                "state has {} ids but {} summaries",
                self.ids.len(),
                self.summaries.len()
            ));
        }
        if let Some(max_id) = self.ids.iter().max() {
            if self.next_id <= *max_id {
                return Err(format!(
                    "next_id {} does not exceed live id {}",
                    self.next_id, max_id
                ));
            }
        }
        let mut seen = self.ids.clone();
        seen.sort_unstable();
        // lint:allow(hot-panic): windows(2) yields exactly-2-element slices
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate cluster ids in state".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(ids: Vec<u64>, next_id: u64) -> ClustererState<u64> {
        let summaries = ids.iter().map(|_| Arc::new(0u64)).collect();
        ClustererState {
            ids,
            summaries,
            next_id,
            points_processed: 0,
            since_refresh: 0,
            variances: Vec::new(),
            last_seen: 0,
        }
    }

    #[test]
    fn valid_state_passes() {
        assert!(state(vec![0, 3, 1], 4).validate().is_ok());
        assert!(state(Vec::new(), 0).validate().is_ok());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut s = state(vec![0, 1], 2);
        s.summaries.pop();
        assert!(s.validate().is_err());
    }

    #[test]
    fn stale_allocator_rejected() {
        assert!(state(vec![0, 5], 5).validate().is_err());
    }

    #[test]
    fn duplicate_ids_rejected() {
        assert!(state(vec![2, 2], 3).validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let s = state(vec![0, 7, 2], 8);
        let v = s.to_value();
        let back = ClustererState::<u64>::from_value(&v).unwrap();
        assert_eq!(s, back);
    }
}
