//! # ustream-snapshot
//!
//! The *pyramidal time frame* used by CluStream and UMicro (§II-D of the
//! ICDE'08 paper) to store micro-cluster snapshots at geometrically spaced
//! intervals:
//!
//! * snapshots of order `i` are taken whenever the clock is divisible by
//!   `α^i` (and stored at the *highest* order they qualify for);
//! * at most `α^l + 1` snapshots are retained per order;
//! * for any user horizon `h` there is a stored snapshot at `t_c − h'` with
//!   `h ≤ h' ≤ (1 + 1/α^{l−1})·h`, so horizon statistics can be
//!   reconstructed by the subtractive property with bounded error.
//!
//! The store is generic over the snapshot payload, and
//! [`ClusterSetSnapshot`] implements the paper's keyed subtraction semantics
//! for any [`ustream_common::AdditiveFeature`]: clusters removed during the
//! horizon are discarded, clusters created during the horizon are retained
//! as-is.

pub mod budget;
pub mod form;
pub mod merge;
pub mod persist;
pub mod pyramid;
pub mod store;
pub mod tracker;

pub use budget::{BudgetReport, SnapshotBudget};
pub use form::{PackedSnapshot, SnapshotForm};
pub use merge::{merge_namespaced, namespaced_id, shard_of_id, SHARD_ID_BITS};
pub use pyramid::{snapshot_order, PyramidConfig};
pub use store::{ClusterSetSnapshot, SnapshotStore, StoredSnapshot};
pub use tracker::HorizonTracker;
