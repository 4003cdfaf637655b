//! # ustream-common
//!
//! Core abstractions shared by every crate in the *uncertain-streams*
//! workspace: uncertain data points with per-dimension error vectors, class
//! labels, stream sources, timestamps, additive cluster-feature traits and
//! small numerical helpers.
//!
//! The vocabulary follows the ICDE 2008 paper *"A Framework for Clustering
//! Uncertain Data Streams"* (Aggarwal & Yu): a stream delivers pairs
//! `(X_i, ψ(X_i))` where `X_i` is a `d`-dimensional record and `ψ_j(X_i)` is
//! the standard deviation of the error on dimension `j`.

pub mod backoff;
pub mod codec;
pub mod error;
pub mod feature;
pub mod label;
pub mod ordered;
pub mod point;
pub mod quantile;
pub mod stats;
pub mod stream;
pub mod time;

pub use backoff::Backoff;
pub use codec::{Codec, CodecError};
pub use error::UStreamError;
pub use feature::{AdditiveFeature, DecayableFeature};
pub use label::ClassLabel;
pub use point::{DeterministicPoint, UncertainPoint};
pub use quantile::P2Quantile;
pub use stream::{DataStream, VecStream};
pub use time::Timestamp;

/// Convenient `Result` alias used across the workspace.
pub type Result<T> = std::result::Result<T, UStreamError>;
