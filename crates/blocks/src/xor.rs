//! XOR kernels.
//!
//! The entanglement function of AE(α, s, p) computes each parity as the XOR
//! of two consecutive blocks at the head of a strand (§III of the paper), and
//! every repair — of a data block from a pp-tuple or of a parity block from a
//! dp-tuple — is again a single XOR of two blocks. These kernels are the
//! entire arithmetic of the code.
//!
//! The byte-moving bodies live in [`ae_kernels`], which selects the widest
//! implementation the host supports at first use (AVX2/SSE2 on x86-64, NEON
//! on AArch64, an autovectorized portable loop elsewhere or under
//! `AE_KERNEL=scalar`). This module contributes the block-level contracts:
//! equal-length validation and the zero-block identity of [`xor_all`]. Its
//! functions return fresh vectors, which is what a repair wants: one block
//! rebuilt, owned by whoever asked. The encoder does not come through here
//! — it writes a batch's parities in place into slabs
//! ([`Block::xor_slab`](crate::Block::xor_slab)).

/// XORs `src` into `dst` in place: `dst[i] ^= src[i]`.
///
/// Delegates to the runtime-dispatched [`ae_kernels::xor_into`] kernel —
/// four-register unrolled AVX2/SSE2/NEON where available, a 32-byte-per-step
/// portable loop otherwise.
///
/// # Panics
///
/// Panics if the slices have different lengths. Blocks in one lattice always
/// share a size; mismatched lengths indicate a logic error upstream, not a
/// runtime condition to recover from.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "xor_into requires equal-length blocks"
    );
    ae_kernels::xor_into(dst, src);
}

/// Returns the XOR of two equal-length slices as a fresh vector.
///
/// The repair path: this is the exact cost of a single-failure repair in
/// an entangled storage system, `SF = 2` block reads plus one `xor_of`
/// (§V.C.3, Table IV). The output is produced in one fused pass
/// ([`ae_kernels::xor3`]) rather than copy-then-XOR, so each operand byte
/// is read once and each output byte written once.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_of(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len(), "xor_of requires equal-length blocks");
    let mut out = vec![0u8; a.len()];
    ae_kernels::xor3(&mut out, a, b);
    out
}

/// XORs all `srcs` together into a fresh vector of `len` bytes.
///
/// Used by punctured-lattice repairs and by the RS baseline's XOR fast path.
/// The accumulator is initialized by copying the first source — not by
/// zero-filling and XORing it in, which would cost one extra full pass —
/// and every further source folds in through the wide [`xor_into`] kernel.
/// An empty `srcs` yields the all-zero block, which is also the virtual
/// parity at a strand head (blocks before the start of the lattice read as
/// zeros).
///
/// # Panics
///
/// Panics if any source has a length other than `len`.
pub fn xor_all<'a, I>(len: usize, srcs: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut srcs = srcs.into_iter();
    let Some(first) = srcs.next() else {
        return vec![0u8; len];
    };
    assert_eq!(first.len(), len, "xor_all requires equal-length sources");
    let mut out = first.to_vec();
    for s in srcs {
        xor_into(&mut out, s);
    }
    out
}

/// Returns `true` if every byte of `b` is zero.
///
/// Zero blocks act as the virtual parities at strand heads; the decoder uses
/// this to recognize them cheaply.
pub fn is_zero(b: &[u8]) -> bool {
    b.iter().all(|&x| x == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_into_basic() {
        let mut a = vec![0b1010_1010u8; 20];
        let b = vec![0b0101_0101u8; 20];
        xor_into(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0xFF));
    }

    #[test]
    fn xor_into_handles_unaligned_tail() {
        for len in 0..=33 {
            let a: Vec<u8> = (0..len as u8).collect();
            let b: Vec<u8> = (0..len as u8).map(|x| x.wrapping_mul(7)).collect();
            let mut got = a.clone();
            xor_into(&mut got, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn xor_of_is_involutive() {
        let a: Vec<u8> = (0..255).collect();
        let b: Vec<u8> = (0..255)
            .map(|x: u8| x.wrapping_mul(31).wrapping_add(5))
            .collect();
        let p = xor_of(&a, &b);
        assert_eq!(xor_of(&p, &b), a, "a ^ b ^ b == a");
        assert_eq!(xor_of(&p, &a), b, "a ^ b ^ a == b");
    }

    #[test]
    fn xor_all_empty_is_zero() {
        let z = xor_all(16, std::iter::empty());
        assert!(is_zero(&z));
    }

    #[test]
    fn xor_all_three_sources() {
        let a = vec![1u8; 8];
        let b = vec![2u8; 8];
        let c = vec![4u8; 8];
        let out = xor_all(8, [a.as_slice(), b.as_slice(), c.as_slice()]);
        assert!(out.iter().all(|&x| x == 7));
    }

    #[test]
    fn xor_all_single_source_is_a_copy() {
        let a: Vec<u8> = (0..37).collect();
        assert_eq!(xor_all(37, [a.as_slice()]), a);
    }

    #[test]
    fn xor_all_matches_bytewise_reference_across_widths() {
        // Lengths straddling the 32-byte kernel, the 8-byte tail and the
        // byte tail.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 100] {
            let srcs: Vec<Vec<u8>> = (0..4u8)
                .map(|s| (0..len).map(|i| (i as u8).wrapping_mul(s + 3)).collect())
                .collect();
            let want: Vec<u8> = (0..len)
                .map(|i| srcs.iter().fold(0u8, |acc, s| acc ^ s[i]))
                .collect();
            let got = xor_all(len, srcs.iter().map(|s| s.as_slice()));
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_into_rejects_mismatched_lengths() {
        let mut a = vec![0u8; 4];
        xor_into(&mut a, &[0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_all_rejects_mismatched_first_source() {
        xor_all(4, [&[0u8; 5][..]]);
    }

    #[test]
    fn is_zero_detects_nonzero() {
        assert!(is_zero(&[0, 0, 0]));
        assert!(!is_zero(&[0, 1, 0]));
        assert!(is_zero(&[]));
    }
}
