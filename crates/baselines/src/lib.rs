//! Baseline redundancy schemes the paper compares against (§V).
//!
//! * [`rs::ReedSolomon`] — systematic RS(k, m) built from a Cauchy generator
//!   over GF(2^8): splits a source into `k` data shards, adds `m` parity
//!   shards, and reconstructs from **any** k of the k+m shards. RS codes are
//!   the paper's "ideal code" baseline: storage-optimal, but a single-shard
//!   repair reads k shards and moves k·B bytes (§I).
//! * [`replication::Replication`] — n-way replication: n parallel paths,
//!   zero decode cost, (n−1)·100% storage overhead.
//!
//! Both implement [`RedundancyScheme`], whose `repair_cost` carries the
//! reads per repair and the storage overhead the simulation crate's cost
//! comparisons need (Table IV, Figs 11–13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replication;
pub mod rs;
pub mod scheme;

pub use ae_api::RedundancyScheme;
pub use replication::Replication;
pub use rs::{ReedSolomon, RsError, DEFAULT_DECODE_CACHE_MAX};
