//! GF(2^8) arithmetic and matrix algebra.
//!
//! The paper evaluates alpha entanglement codes against Reed-Solomon codes,
//! "a sort of de-facto industry standard for erasure coding" (§IV.B.2). This
//! crate is the arithmetic substrate for that baseline, built from scratch:
//!
//! * [`field`] — the finite field GF(2^8) with the primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11D, the usual Reed-Solomon choice),
//!   using log/exp tables for O(1) multiplication and division.
//! * [`matrix`] — dense matrices over GF(2^8): multiplication, Gaussian
//!   elimination, inversion, and the Cauchy construction of the systematic
//!   RS generator `[I; C]`.
//!
//! Nothing in this crate is specific to storage; it is plain coding-theory
//! machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod matrix;

pub use field::Gf256;
pub use matrix::Matrix;
