//! The helical lattice geometry of alpha entanglement codes.
//!
//! AE(α, s, p) tangles each new data block with α existing parities, growing
//! a mesh of strands: `s` horizontal strands plus, for α ≥ 2, `p`
//! right-handed and, for α = 3, `p` left-handed helical strands (§III of the
//! DSN 2018 paper). This crate implements the *geometry* of that mesh —
//! which blocks connect to which — independent of block contents:
//!
//! * [`config::Config`] — validated code parameters (α, s, p) and derived
//!   quantities (code rate, storage overhead, strand count).
//! * [`rules`] — the paper's Tables I and II: for a node `d_i`, the indices
//!   of its input parity `p_{h,i}` and output parity `p_{i,j}` on each
//!   strand class, including the `s = 1` degenerate family.
//! * [`graph`] — navigation built on the rules: incident edges of a node,
//!   endpoints of an edge, and the one definition of the **repair tuples**
//!   every decoder reads (pp-tuples for nodes, dp-tuples for edges).
//! * [`strand`] — walking strands and locating strand heads.
//! * [`me`] — minimal-erasure analysis: a branch-and-bound search for the
//!   smallest irreducible erasure patterns `ME(x)`, replacing the authors'
//!   private Prolog verification tool (§V.A, Figs 6–9).
//! * [`patterns`] — constructive pattern families (primitive forms, the
//!   α = 2 square, the α = 3 cube), giving instant upper bounds that the
//!   search certifies.
//! * [`render`] — ASCII rendering of lattice windows and erasure patterns
//!   (Fig 4-style diagrams).
//!
//! Positions are `i64` throughout this crate: indices at or below zero
//! denote the virtual all-zero blocks "before" the lattice, which the rules
//! produce naturally near the origin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod me;
pub mod patterns;
pub mod render;
pub mod rules;
pub mod strand;

pub use config::{Config, ConfigError};
pub use graph::{Endpoints, LatticeBlock, Tuple, VirtualPosition};
pub use me::{MePattern, MeSearch};
pub use rules::NodeCategory;
