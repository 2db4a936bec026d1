//! Scheme-agnostic public API for redundancy codes.
//!
//! The paper compares alpha entanglement codes against Reed-Solomon and
//! replication; this crate defines the one interface all three implement so
//! that every other layer — stores, archives, simulations, benchmarks,
//! examples — is written once against [`RedundancyScheme`] and runs against
//! any code:
//!
//! * [`RedundancyScheme`] — the object-safe trait: batch-first encoding
//!   ([`RedundancyScheme::encode_batch`]), single-block and round-based
//!   repair ([`RedundancyScheme::repair_block`],
//!   [`RedundancyScheme::repair_missing`]), the Table IV cost model
//!   ([`RedundancyScheme::repair_cost`]) and the structural hooks the
//!   availability-plane simulation drives
//!   ([`RedundancyScheme::is_repairable`] and friends). Encoding state
//!   lives behind interior mutability, so a scheme is shared as
//!   `Arc<dyn RedundancyScheme>` between archives, planes and repair
//!   workers.
//! * [`BlockSource`] / [`BlockSink`] / [`BlockRepo`] — the **one** backend
//!   family: where blocks come from and go to, plus the failure surface
//!   every backend shares (`None` for unavailable, the error-typed
//!   [`BlockSource::read`] distinguishing absent from corrupted via
//!   [`StoreError`], and [`BlockSink::remove`] for deletion). Every method
//!   takes `&self`; backends are interior-mutable and shared by `Arc` or
//!   `&` handle. Implemented by the in-memory [`BlockMap`] and by every
//!   `ae_store` backend (plain, distributed, tiered, fault-injecting), so
//!   encode, repair and archival never care where bytes live — and there
//!   is no adapter layer between "repair-facing" and "store-facing" trait
//!   families, because there is only one family.
//! * [`AsyncBlockSource`] / [`AsyncBlockSink`] / [`AsyncBlockRepo`] — the
//!   object-safe **async mirror** of the backend family, with the
//!   [`BlockSource::as_async`] discovery hook through which
//!   latency-aware wrappers expose their native async interior to
//!   pipelined callers (see `ae_aio`).
//! * [`Placement`] — the canonical placement policies shared by the store
//!   and simulation layers.
//! * [`AeError`] / [`RepairError`] / [`StoreError`] — the error hierarchy.
//!   Repairs report *which* tuple members were missing instead of a bare
//!   `None`.
//!
//! Implementations live next to each code: `ae_core::Code` (alpha
//! entanglement), `ae_baselines::ReedSolomon`, `ae_baselines::Replication`
//! and the `ae_store` use-case schemes (`EntangledChain`, `GeoLattice`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aio;
pub mod error;
pub mod frontier;
pub mod hist;
pub mod io;
pub mod par;
pub mod placement;
pub mod scheme;

pub use aio::{
    AsyncBlockRepo, AsyncBlockSink, AsyncBlockSource, AsyncHandle, BlockOnDriver, BoxFuture,
};
pub use error::{AeError, RepairError, StoreError};
pub use frontier::{SnapshotReader, SnapshotWriter};
pub use hist::LogHistogram;
pub use io::{BlockMap, BlockRepo, BlockSink, BlockSource, Overlay};
pub use par::repair_threads;
pub use placement::{mix64, Placement, SplitMix64};
pub use scheme::{EncodeReport, RedundancyScheme, RepairCost, RepairSummary, RoundStats};
