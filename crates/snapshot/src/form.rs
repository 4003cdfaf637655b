//! The form a [`crate::HorizonTracker`] keeps its snapshots in.
//!
//! Every query is answered from [`ClusterSetSnapshot`]s; a
//! [`SnapshotForm`] only decides what sits in the pyramid between a record
//! and a query. The snapshot itself is the default form. An
//! `Arc<ClusterSetSnapshot>` lets a reader copy a snapshot's pointer out
//! of a pyramid behind a lock and read it after releasing the lock.
//! [`PackedSnapshot`] keeps the cluster map in its binary [`Codec`] layout
//! instead, for callers that hold many pyramids at once.

use crate::store::ClusterSetSnapshot;
use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::Arc;
use ustream_common::codec::{decode_exact, Codec};
use ustream_common::{AdditiveFeature, Result, UStreamError};

/// How a tracker stores one recorded snapshot.
pub trait SnapshotForm<F: AdditiveFeature>: Clone {
    /// The stored form of a captured snapshot.
    fn pack(snap: ClusterSetSnapshot<F>) -> Self;

    /// The captured snapshot back, bit for bit.
    fn unpack(&self) -> Result<Cow<'_, ClusterSetSnapshot<F>>>;

    /// [`ClusterSetSnapshot::approx_bytes`] of the unpacked snapshot. A
    /// [`crate::SnapshotBudget`] measures this, so it evicts the same
    /// snapshots whatever the form.
    fn approx_bytes(&self) -> usize;
}

impl<F: AdditiveFeature> SnapshotForm<F> for ClusterSetSnapshot<F> {
    fn pack(snap: ClusterSetSnapshot<F>) -> Self {
        snap
    }

    fn unpack(&self) -> Result<Cow<'_, ClusterSetSnapshot<F>>> {
        Ok(Cow::Borrowed(self))
    }

    fn approx_bytes(&self) -> usize {
        ClusterSetSnapshot::approx_bytes(self)
    }
}

impl<F: AdditiveFeature> SnapshotForm<F> for Arc<ClusterSetSnapshot<F>> {
    fn pack(snap: ClusterSetSnapshot<F>) -> Self {
        Arc::new(snap)
    }

    fn unpack(&self) -> Result<Cow<'_, ClusterSetSnapshot<F>>> {
        Ok(Cow::Borrowed(self))
    }

    fn approx_bytes(&self) -> usize {
        ClusterSetSnapshot::approx_bytes(self)
    }
}

/// A snapshot held as the [`Codec`] encoding of its cluster map.
///
/// Unpacked, a snapshot is a B-tree node plus the heap vectors of every
/// cluster (three per ECF); packed, it is one exactly sized allocation of
/// the f64 bits and a fraction of the bytes. Every unpack decodes it
/// again, so a horizon query pays two decodes for the memory saved.
#[derive(Debug, Clone)]
pub struct PackedSnapshot<F> {
    bytes: Box<[u8]>,
    approx_bytes: usize,
    feature: PhantomData<fn() -> F>,
}

impl<F: AdditiveFeature + Codec> SnapshotForm<F> for PackedSnapshot<F> {
    fn pack(snap: ClusterSetSnapshot<F>) -> Self {
        let mut bytes = Vec::with_capacity(snap.clusters.encoded_len());
        snap.clusters.encode(&mut bytes);
        Self {
            bytes: bytes.into_boxed_slice(),
            approx_bytes: snap.approx_bytes(),
            feature: PhantomData,
        }
    }

    fn unpack(&self) -> Result<Cow<'_, ClusterSetSnapshot<F>>> {
        decode_exact(&self.bytes)
            .map(|clusters| Cow::Owned(ClusterSetSnapshot { clusters }))
            .map_err(|e| UStreamError::Serde(format!("packed snapshot: {e}")))
    }

    fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }
}
