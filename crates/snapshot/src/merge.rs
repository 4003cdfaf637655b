//! Exact merging of per-shard micro-cluster sets into one global view.
//!
//! The ECF's additive property (Property 2.1 of the paper) means a cluster
//! set maintained over any partition of the stream can be folded into a
//! single set without information loss: the union of the shards' summaries
//! carries exactly the statistics a single clusterer would carry for the
//! same point-to-cluster assignment. The sharded ingestion engine relies on
//! this: each shard clusters its slice of the stream independently, and the
//! periodic merge is a pure union of namespaced summaries.
//!
//! Cluster ids are only unique *within* a shard, so the merge namespaces
//! them: the shard index occupies the top [`SHARD_ID_BITS`]-complement bits
//! of the 64-bit id and the shard-local id keeps the low bits. Shard 0 maps
//! to the identity, so a single-shard engine produces exactly the ids an
//! unsharded run would.

use crate::store::ClusterSetSnapshot;
use ustream_common::AdditiveFeature;

/// Bits of a global cluster id reserved for the shard-local id.
pub const SHARD_ID_BITS: u32 = 48;

/// Mask selecting the shard-local bits of a global id.
pub const LOCAL_ID_MASK: u64 = (1 << SHARD_ID_BITS) - 1;

/// Maps a shard-local cluster id into the global id space.
///
/// # Panics
/// Debug builds assert the local id fits in [`SHARD_ID_BITS`] bits and the
/// shard index fits in the remaining bits (2^16 shards is far beyond any
/// sane configuration).
pub fn namespaced_id(shard: usize, local_id: u64) -> u64 {
    debug_assert!(local_id <= LOCAL_ID_MASK, "local cluster id overflow");
    debug_assert!(
        (shard as u64) < (1 << (64 - SHARD_ID_BITS)),
        "shard index overflow"
    );
    ((shard as u64) << SHARD_ID_BITS) | local_id
}

/// The shard index encoded in a global cluster id.
pub fn shard_of_id(id: u64) -> usize {
    (id >> SHARD_ID_BITS) as usize
}

/// The shard-local cluster id encoded in a global cluster id.
pub fn local_id_of(id: u64) -> u64 {
    id & LOCAL_ID_MASK
}

/// Folds per-shard snapshots into one global snapshot by namespacing every
/// cluster id with its shard index. The fold is exact: no summaries are
/// combined or dropped, so every additive statistic (weight, first and
/// second moments, error moments) of the union equals the sum over shards.
///
/// Features move by pointer, never by copy. Shard 0's ids are their own
/// namespaced ids, so its map becomes the merged map as it is, and a
/// single-shard engine merges without rebuilding anything.
pub fn merge_namespaced<F: AdditiveFeature>(
    parts: impl IntoIterator<Item = (usize, ClusterSetSnapshot<F>)>,
) -> ClusterSetSnapshot<F> {
    let mut merged = ClusterSetSnapshot::default();
    for (shard, part) in parts {
        if shard == 0 && merged.is_empty() {
            merged = part;
            continue;
        }
        for (local, feature) in part.clusters {
            merged.clusters.insert(namespaced_id(shard, local), feature);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_common::Timestamp;

    /// Minimal additive feature: a 1-d sum + count.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        sum: f64,
        n: f64,
    }

    impl AdditiveFeature for Toy {
        fn dims(&self) -> usize {
            1
        }
        fn count(&self) -> f64 {
            self.n
        }
        fn last_update(&self) -> Timestamp {
            0
        }
        fn merge(&mut self, other: &Self) {
            self.sum += other.sum;
            self.n += other.n;
        }
        fn subtract(&mut self, other: &Self) {
            self.sum -= other.sum;
            self.n = (self.n - other.n).max(0.0);
        }
        fn centroid(&self) -> Vec<f64> {
            vec![self.sum / self.n.max(1e-12)]
        }
    }

    fn cf(x: f64, n: usize) -> Toy {
        Toy {
            sum: x * n as f64,
            n: n as f64,
        }
    }

    #[test]
    fn id_namespacing_round_trips() {
        let id = namespaced_id(3, 42);
        assert_eq!(shard_of_id(id), 3);
        assert_eq!(local_id_of(id), 42);
        // Shard 0 is the identity mapping.
        assert_eq!(namespaced_id(0, 7), 7);
    }

    #[test]
    fn merge_preserves_total_count() {
        let a = ClusterSetSnapshot::from_pairs([(0u64, cf(0.0, 3)), (1, cf(5.0, 2))]);
        let b = ClusterSetSnapshot::from_pairs([(0u64, cf(9.0, 4))]);
        let merged = merge_namespaced([(0, a.clone()), (1, b.clone())]);
        assert_eq!(merged.len(), 3);
        assert!((merged.total_count() - (a.total_count() + b.total_count())).abs() < 1e-12);
        // Same local id on different shards must not collide.
        assert!(merged.clusters.contains_key(&0));
        assert!(merged.clusters.contains_key(&namespaced_id(1, 0)));
    }

    #[test]
    fn merge_moves_features_by_pointer() {
        let a = ClusterSetSnapshot::from_pairs([(4u64, cf(1.0, 2)), (9, cf(2.0, 1))]);
        let b = ClusterSetSnapshot::from_pairs([(4u64, cf(3.0, 1))]);
        // Shard 1 first: shard 0's ids must still land unchanged.
        let merged = merge_namespaced([(1, b.clone()), (0, a.clone())]);
        assert_eq!(merged.len(), 3);
        for (id, f) in &a.clusters {
            assert!(std::sync::Arc::ptr_eq(f, &merged.clusters[id]));
        }
        assert!(std::sync::Arc::ptr_eq(
            &b.clusters[&4],
            &merged.clusters[&namespaced_id(1, 4)]
        ));
    }

    #[test]
    fn merge_of_single_shard_is_identity() {
        let a = ClusterSetSnapshot::from_pairs([(4u64, cf(1.0, 2)), (9, cf(2.0, 1))]);
        let merged = merge_namespaced([(0, a.clone())]);
        assert_eq!(
            merged.clusters.keys().collect::<Vec<_>>(),
            a.clusters.keys().collect::<Vec<_>>()
        );
    }
}
