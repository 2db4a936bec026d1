//! Simulated distributed storage substrate for entangled storage systems.
//!
//! The paper's evaluation (§V.C) and use cases (§IV) assume a storage layer
//! with *locations* (disks, machines or peers) that hold blocks and fail —
//! individually or en masse. This crate builds that layer. Every backend
//! implements the **unified** `ae_api` family ([`ae_api::BlockSource`] /
//! [`ae_api::BlockSink`] / [`ae_api::BlockRepo`]) directly — there is no
//! store-side trait family or adapter anymore — so archives, encoders and
//! repair planners run over any of them unchanged:
//!
//! * [`store`] — [`store::MemStore`], the thread-safe in-memory backend
//!   with checksum verification on reads.
//! * [`cluster`] — failure domains: a set of locations with availability
//!   state, plus disaster injection ("simulates disasters by changing the
//!   availability of a certain number of locations", §V.C).
//! * [`placement`] — the store-side half of block placement: the canonical
//!   [`ae_api::Placement`] policies applied to per-id keys
//!   ([`placement::PlaceBlocks`]).
//! * [`distributed`] — [`distributed::DistributedStore`]: a backend
//!   sharded over cluster locations; reads fail while a block's location
//!   is down, and a write to a down location lands on a live one.
//! * [`tiered`] — [`tiered::TieredStore`]: a fast local tier (data) over a
//!   shared remote tier (redundancy), the §IV.A two-tier flow as a
//!   first-class backend. The local tier is any backend (a [`MemStore`]
//!   by default): with a partitioned [`DistributedStore`] on each tier it
//!   is the data drives and the parity drives of a §IV.B.1 mirror array.
//! * [`fault`] — [`fault::FaultyStore`]: a fault-injecting wrapper for
//!   disaster drills over any inner backend.
//! * [`chain`] — the α = 1 open/closed entanglement chain of §IV.B.1 as a
//!   first-class [`ae_api::RedundancyScheme`]
//!   ([`chain::EntangledChain`]): AE(1,-,-) plus a closing parity, with
//!   the typed open-chain [`chain::ExtremityWarning`]. Use case B, the
//!   entangled mirror array, is an [`archive::Archive`] over it on two
//!   tiers of drives (the [`chain`] module docs).
//! * [`geo`] — use case A (§IV.A): the two-tier cooperative backup, one
//!   [`archive::Archive`] per user over a [`tiered::TieredStore`] whose
//!   remote tier is a shared [`distributed::DistributedStore`]; the
//!   namespaced per-user lattice as a roster scheme
//!   ([`geo::GeoLattice`]).
//! * [`archive`] — the user-facing layer: an append-only file archive,
//!   generic over `Arc<dyn RedundancyScheme>` *and* over the backend, with
//!   a manifest, degraded reads, scrubbing and end-to-end verification —
//!   crash-recoverable via [`archive::Archive::open`].
//! * [`meta`] — the archive's on-backend metadata journal: the versioned,
//!   checksummed record format persisting the manifest, the block
//!   counters and the encoder frontier through any backend. (Where the
//!   records go and in what order is the crate-private `journal`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod chain;
pub mod cluster;
pub mod distributed;
pub mod fault;
pub mod geo;
mod journal;
pub mod meta;
pub mod placement;
pub mod store;
pub mod tiered;

pub use archive::{Archive, ArchiveError, MetaDamage, RecoveryError};
pub use chain::{ChainMode, EntangledChain, ExtremityWarning};
pub use cluster::{Cluster, LocationId};
pub use distributed::DistributedStore;
pub use fault::FaultyStore;
pub use geo::GeoLattice;
pub use meta::MetaConfig;
pub use placement::{PlaceBlocks, Placement};
pub use store::{MemStore, StoreError};
pub use tiered::TieredStore;
