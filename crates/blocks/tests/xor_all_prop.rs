//! Property tests for [`ae_blocks::xor::xor_all`] under the dispatched
//! SIMD kernels: source counts of 0, 1, 2 and many, odd lengths straddling
//! every vector width, and unaligned sub-slice views (offset by 1..=31
//! bytes) must all match a byte-at-a-time reference.

use ae_blocks::xor::{is_zero, xor_all, xor_of};
use proptest::prelude::*;

/// Deterministic pseudo-random buffer.
fn buf(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Byte-at-a-time fold over all sources — the ground truth.
fn reference_xor(len: usize, srcs: &[&[u8]]) -> Vec<u8> {
    (0..len)
        .map(|i| srcs.iter().fold(0u8, |acc, s| acc ^ s[i]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 0, 1, 2 or many sources, odd lengths, and views starting 1..=31
    /// bytes into their backing buffers (every misalignment class of the
    /// widest 32-byte vector path).
    #[test]
    fn xor_all_matches_reference_for_any_source_count(
        n_srcs in 0usize..=7,
        len_idx in 0usize..17,
        offset in 1usize..=31,
        seed: u64,
    ) {
        const LENS: [usize; 17] =
            [0, 1, 3, 7, 9, 13, 17, 31, 33, 63, 65, 127, 129, 255, 257, 511, 1021];
        let len = LENS[len_idx];
        let backing: Vec<Vec<u8>> = (0..n_srcs)
            .map(|i| buf(len + offset, seed.wrapping_add(i as u64 * 0x9E37_79B9)))
            .collect();
        let views: Vec<&[u8]> = backing.iter().map(|b| &b[offset..]).collect();
        let want = reference_xor(len, &views);
        let got = xor_all(len, views.iter().copied());
        prop_assert_eq!(&got, &want, "n_srcs={} len={} offset={}", n_srcs, len, offset);
        if n_srcs == 0 {
            prop_assert!(is_zero(&got));
        }
    }

    /// `xor_of` agrees with the reference over unaligned views.
    #[test]
    fn xor_of_variants_agree(
        len in 0usize..700,
        offset in 1usize..=31,
        seed: u64,
    ) {
        let a = buf(len + offset, seed);
        let b = buf(len + offset, seed ^ 0x5555_5555_5555_5555);
        let (av, bv) = (&a[offset..], &b[offset..]);
        let want = reference_xor(len, &[av, bv]);
        prop_assert_eq!(&xor_of(av, bv), &want);
    }
}
