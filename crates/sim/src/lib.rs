//! Disaster-recovery simulation framework (§V.C of the paper).
//!
//! Reproduces the paper's evaluation environment: one million data blocks,
//! encoded under each redundancy scheme, spread uniformly at random over
//! `n = 100` locations; a disaster takes out 10–50% of the locations; the
//! decoder then repairs what it can. Simulations run on the *availability
//! plane* — blocks are flags, not bytes — because every §V.C metric depends
//! only on which blocks are reachable (the byte plane is exercised by the
//! `ae-core` and integration tests instead).
//!
//! * [`schemes`] — the scheme roster: Table IV's schemes plus the §IV
//!   use-case schemes (entangled mirror chains, namespaced geo lattices),
//!   each instantiable as `Box<dyn RedundancyScheme>` via
//!   [`schemes::Scheme::build`].
//! * [`scheme_plane`] — the one generic availability-plane engine, driven
//!   by any [`ae_api::RedundancyScheme`]: placement, disasters,
//!   round-based repair to fixpoint and minimal maintenance. The
//!   scheme's `dense_index`/`block_at` bijection is the only id ⇄
//!   position path, so the plane holds no per-block id state at all (no
//!   materialized universe, no hash index, no location table — pure
//!   arithmetic).
//! * [`mirror`] — the entangled-mirror reliability Monte Carlo (§IV.B.1:
//!   mirroring vs open/closed chains).
//! * [`experiments`] — the sweep drivers behind each figure and table
//!   binary (`fig11_data_loss`, `table6_rounds`, …) and the ablations
//!   (placement policy, puncturing, repair traffic): one [`Scheme`] →
//!   one [`SchemePlane`] per series, healed between disaster sizes.
//! * [`report`] — plain-text table and CSV rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod cli;
pub mod experiments;
pub mod mirror;
pub mod report;
pub mod scheme_plane;
pub mod schemes;

// The paper-shape suites of the three scheme families (§V.C), as cases
// over `Scheme` on the one plane; the module names are their test ids.
#[cfg(test)]
mod ae_plane;
#[cfg(test)]
mod repl_plane;
#[cfg(test)]
mod rs_plane;

pub use bitset::BitSet;
pub use scheme_plane::{
    failed_location_groups, failed_locations, upgrade_wave, FullRepairOutcome,
    MinimalRepairOutcome, SchemePlane, SimPlacement,
};
pub use schemes::Scheme;
