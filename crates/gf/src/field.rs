//! The finite field GF(2^8).
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial
//! multiplication modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (bit pattern `0x11D`), the conventional
//! choice for Reed-Solomon storage codes (Plank's tutorial, reference \[2\] of
//! the paper). The generator `g = 2` is primitive for this polynomial, so
//! `exp`/`log` tables over powers of 2 give O(1) multiplication, division
//! and exponentiation.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// The primitive polynomial, including the x^8 term.
const PRIM_POLY: u16 = 0x11D;

/// Order of the multiplicative group.
const GROUP_ORDER: usize = 255;

struct Tables {
    /// `exp[i] = g^i` for i in 0..510 (doubled so lookups skip a mod).
    exp: [u8; 510],
    /// `log[x]` for x in 1..=255; `log[0]` is unused and set to 0.
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 510];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GROUP_ORDER) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIM_POLY;
            }
        }
        // Duplicate the cycle so exp[log a + log b] needs no reduction.
        for i in GROUP_ORDER..510 {
            exp[i] = exp[i - GROUP_ORDER];
        }
        Tables { exp, log }
    })
}

/// An element of GF(2^8).
///
/// # Examples
///
/// ```
/// use ae_gf::Gf256;
///
/// let a = Gf256(0x53);
/// let b = Gf256(0xCA);
/// // Addition is XOR and every element is its own additive inverse.
/// assert_eq!(a + b, Gf256(0x99));
/// assert_eq!(a + a, Gf256(0));
/// // Multiplication distributes and inverts.
/// let prod = a * b;
/// assert_eq!(prod / b, a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The canonical generator of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Whether this is the zero element.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self^e` by table lookup (O(1)); `0^0 = 1` by convention.
    pub fn pow(self, e: u64) -> Gf256 {
        if self.is_zero() {
            return if e == 0 { Gf256::ONE } else { Gf256::ZERO };
        }
        let t = tables();
        let l = t.log[self.0 as usize] as u64;
        Gf256(t.exp[((l * (e % GROUP_ORDER as u64)) % GROUP_ORDER as u64) as usize])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero, which has no inverse; hitting this means a singular
    /// matrix slipped past the construction-time checks.
    pub fn inv(self) -> Gf256 {
        assert!(
            !self.is_zero(),
            "zero has no multiplicative inverse in GF(2^8)"
        );
        let t = tables();
        Gf256(t.exp[GROUP_ORDER - t.log[self.0 as usize] as usize])
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // In characteristic 2, addition IS XOR.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    // Characteristic 2: subtraction and addition coincide.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction and addition coincide.
        self + rhs
    }
}

impl SubAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Gf256) {
        *self += rhs;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.is_zero() || rhs.is_zero() {
            return Gf256::ZERO;
        }
        let t = tables();
        Gf256(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

impl MulAssign for Gf256 {
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: Gf256) -> Gf256 {
        assert!(!rhs.is_zero(), "division by zero in GF(2^8)");
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let t = tables();
        let diff = GROUP_ORDER + t.log[self.0 as usize] as usize - t.log[rhs.0 as usize] as usize;
        Gf256(t.exp[diff % GROUP_ORDER])
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

impl From<u8> for Gf256 {
    fn from(b: u8) -> Self {
        Gf256(b)
    }
}

/// `outs[r][i] = Σ_c coeffs[r·k + c] · srcs[c][i]` with `k = srcs.len()`:
/// the row-major `outs.len() × k` coefficient matrix applied to the source
/// byte slices, overwriting the outputs — the one byte-slice operation of
/// RS encoding and decoding (and of [`crate::Matrix::mul`]).
///
/// Delegates to the runtime-dispatched [`ae_kernels::mul_rows`], which
/// computes every output row in one pass over the sources (split-nibble
/// `VPSHUFB` on AVX2 hosts, the per-row split-nibble multiply-accumulate
/// elsewhere).
///
/// # Panics
///
/// Panics if `coeffs.len() != outs.len() · srcs.len()` or the slices
/// differ in length.
pub fn mul_rows(coeffs: &[Gf256], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    let coeffs: Vec<u8> = coeffs.iter().map(|c| c.0).collect();
    ae_kernels::mul_rows(&coeffs, srcs, outs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            let x = Gf256(a);
            assert_eq!(x + x, Gf256::ZERO);
            assert_eq!(x + Gf256::ZERO, x);
            assert_eq!(-x, x);
            assert_eq!(x - x, Gf256::ZERO);
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            let x = Gf256(a);
            assert_eq!(x * Gf256::ONE, x);
            assert_eq!(x * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let x = Gf256(a);
            assert_eq!(x * x.inv(), Gf256::ONE, "inverse of {a:#04x}");
            assert_eq!(x / x, Gf256::ONE);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // g^k for k in 0..255 must enumerate all 255 nonzero elements.
        let mut seen = [false; 256];
        for k in 0..255u64 {
            let v = Gf256::GENERATOR.pow(k);
            assert!(!v.is_zero());
            assert!(!seen[v.0 as usize], "g^{k} repeated");
            seen[v.0 as usize] = true;
        }
    }

    #[test]
    fn known_products() {
        // Hand-checked against the 0x11D tables used by Plank's tutorial.
        assert_eq!(Gf256(2) * Gf256(2), Gf256(4));
        assert_eq!(Gf256(0x80) * Gf256(2), Gf256(0x1D)); // wraps the polynomial
        assert_eq!(Gf256(0xFF) * Gf256(0xFF), Gf256(0xE2));
    }

    #[test]
    fn mul_is_commutative_and_associative_spot() {
        for &(a, b, c) in &[(3u8, 7u8, 200u8), (0x53, 0xCA, 0x01), (255, 254, 253)] {
            let (x, y, z) = (Gf256(a), Gf256(b), Gf256(c));
            assert_eq!(x * y, y * x);
            assert_eq!((x * y) * z, x * (y * z));
            assert_eq!(x * (y + z), x * y + x * z, "distributivity");
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = Gf256(0x37);
        let mut acc = Gf256::ONE;
        for e in 0..300u64 {
            assert_eq!(x.pow(e), acc, "exponent {e}");
            acc *= x;
        }
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_of_zero_panics() {
        Gf256::ZERO.inv();
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Gf256(3) / Gf256::ZERO;
    }

    #[test]
    fn mul_rows_matches_scalar_loop() {
        let srcs: Vec<Vec<u8>> = (0..3u8)
            .map(|s| (0..64u8).map(|x| x.wrapping_mul(11) ^ s).collect())
            .collect();
        let srcs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let coeffs: Vec<Gf256> = [0u8, 1, 2, 0x1D, 0xFF, 0x53].map(Gf256).to_vec();
        let mut outs = vec![vec![0xA5u8; 64]; 2];
        let mut views: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        mul_rows(&coeffs, &srcs, &mut views);
        for (r, out) in outs.iter().enumerate() {
            for (i, &got) in out.iter().enumerate() {
                let want = (0..3).fold(Gf256::ZERO, |acc, c| {
                    acc + coeffs[r * 3 + c] * Gf256(srcs[c][i])
                });
                assert_eq!(Gf256(got), want, "row {r} byte {i}");
            }
        }
    }
}
