//! Memory governance for the pyramidal snapshot store.
//!
//! The pyramid's per-order retention cap (`α^l + 1`) bounds the snapshot
//! count only as a function of the geometry; on a long-running engine the
//! *payload* of each snapshot (a full micro-cluster set) is what dominates
//! memory. [`SnapshotBudget`] adds an operator-facing ceiling — max bytes
//! and/or max snapshots — that the store enforces with order-aware eviction:
//!
//! * victims are popped from the *front* (oldest) of the **fullest** ring,
//!   ties broken toward the lowest order, so all orders degrade evenly and
//!   the most recent snapshot of every order survives longest;
//! * a ring is never emptied while any ring still holds more than one
//!   snapshot, keeping at least one reachable base per order for horizon
//!   queries;
//! * once every ring is down to one snapshot, the globally oldest snapshot
//!   is dropped — the hard budget wins over retention;
//! * the newest snapshot is never dropped, even when it alone exceeds the
//!   ceiling: it is the current cluster set, the base of every query and
//!   the seed a respawned engine shard restores from.
//!
//! Trimming a ring below `α^l + 1` weakens the paper's horizon-error
//! guarantee for horizons that resolve through that order: retaining `m`
//! snapshots per order behaves like an effective `l_eff = ⌊log_α(m − 1)⌋`,
//! inflating the relative-error bound from `1/α^{l−1}` to `1/α^{l_eff−1}`.
//! The store tracks the worst (smallest) post-eviction ring length and
//! reports the inflated bound so callers can see exactly what the budget
//! cost them.

use serde::{Deserialize, Serialize};

/// A memory ceiling for a [`crate::SnapshotStore`].
///
/// Either limit may be left unset; an unset limit never triggers eviction.
/// A budget with both limits unset is valid and inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SnapshotBudget {
    /// Maximum estimated payload bytes retained across all orders.
    pub max_bytes: Option<u64>,
    /// Maximum number of snapshots retained across all orders.
    pub max_snapshots: Option<usize>,
}

impl SnapshotBudget {
    /// A byte-only budget.
    pub fn by_bytes(max_bytes: u64) -> Self {
        Self {
            max_bytes: Some(max_bytes),
            max_snapshots: None,
        }
    }

    /// A count-only budget.
    pub fn by_snapshots(max_snapshots: usize) -> Self {
        Self {
            max_bytes: None,
            max_snapshots: Some(max_snapshots),
        }
    }

    /// Whether the given store occupancy violates this budget.
    pub fn exceeded_by(&self, snapshots: usize, bytes: u64) -> bool {
        self.max_snapshots.is_some_and(|m| snapshots > m)
            || self.max_bytes.is_some_and(|m| bytes > m)
    }
}

/// What budget enforcement has cost a store so far.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetReport {
    /// Snapshots evicted by the budget (beyond normal pyramid retention).
    pub evictions: u64,
    /// Estimated payload bytes currently retained.
    pub retained_bytes: u64,
    /// Snapshots currently retained.
    pub retained: usize,
    /// The horizon-error bound actually in force: the configured
    /// `1/α^{l−1}` when the budget never bit, the inflated
    /// `1/α^{l_eff−1}` otherwise. Values ≥ 1 mean the guarantee is void
    /// for horizons resolving through the trimmed orders.
    pub effective_error_bound: f64,
    /// `effective_error_bound / configured bound` — 1.0 means the budget
    /// has not weakened the paper's guarantee.
    pub error_inflation: f64,
}

/// Effective `l` when only `retained` snapshots survive in an order:
/// the largest `l_eff` with `α^l_eff + 1 ≤ retained`.
pub(crate) fn effective_l(alpha: u64, retained: usize) -> u32 {
    if retained < 2 {
        return 0;
    }
    let mut l_eff = 0u32;
    let mut pow = 1u64;
    loop {
        match pow.checked_mul(alpha) {
            Some(next) if (next as u128) < retained as u128 => {
                pow = next;
                l_eff += 1;
            }
            _ => return l_eff,
        }
    }
}

/// The relative horizon-error bound `1/α^{l−1}` for an effective `l`.
/// `l = 0` yields `α` (no guarantee at all).
pub(crate) fn error_bound_for(alpha: u64, l: u32) -> f64 {
    let a = alpha as f64;
    a.powi(1 - l as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_predicates() {
        let b = SnapshotBudget {
            max_bytes: Some(1000),
            max_snapshots: Some(10),
        };
        assert!(!b.exceeded_by(10, 1000));
        assert!(b.exceeded_by(11, 0));
        assert!(b.exceeded_by(0, 1001));
        assert!(!SnapshotBudget::default().exceeded_by(usize::MAX, u64::MAX));
    }

    #[test]
    fn effective_l_matches_capacity_formula() {
        // α=2: capacity for l is 2^l + 1 → retaining exactly that many
        // preserves l; one fewer drops to l−1.
        for l in 1..=6u32 {
            let cap = 2u64.pow(l) as usize + 1;
            assert_eq!(effective_l(2, cap), l);
            assert_eq!(effective_l(2, cap - 1), l - 1);
        }
        assert_eq!(effective_l(2, 0), 0);
        assert_eq!(effective_l(2, 1), 0);
        assert_eq!(effective_l(2, 2), 0);
        assert_eq!(effective_l(2, 3), 1);
    }

    #[test]
    fn error_bound_inflates_as_l_shrinks() {
        assert!((error_bound_for(2, 4) - 0.125).abs() < 1e-12);
        assert!((error_bound_for(2, 1) - 1.0).abs() < 1e-12);
        assert!((error_bound_for(2, 0) - 2.0).abs() < 1e-12);
        assert!(error_bound_for(2, 0) > error_bound_for(2, 1));
    }
}
