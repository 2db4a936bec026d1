//! Pins the dispatched GF(2^8) multi-row kernel ([`ae_gf::field::mul_rows`])
//! byte-identical to the log/exp reference (`Gf256` arithmetic, byte by
//! byte) for all 256 constants, and spot-checks the kernel-backed matrix
//! product against an element-at-a-time triple loop.

use ae_gf::field::mul_rows;
use ae_gf::{Gf256, Matrix};
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

/// The log/exp product `outs[r][i] = Σ_c coeffs[r·k + c] · srcs[c][i]`.
fn reference(coeffs: &[Gf256], srcs: &[&[u8]], rows: usize, len: usize) -> Vec<Vec<u8>> {
    (0..rows)
        .map(|r| {
            (0..len)
                .map(|i| {
                    let sum = srcs.iter().enumerate().fold(Gf256::ZERO, |acc, (c, src)| {
                        acc + coeffs[r * srcs.len() + c] * Gf256(src[i])
                    });
                    sum.0
                })
                .collect()
        })
        .collect()
}

/// Runs the dispatched kernel into `rows` garbage-filled outputs.
fn dispatched(coeffs: &[Gf256], srcs: &[&[u8]], rows: usize, len: usize) -> Vec<Vec<u8>> {
    let mut outs = vec![vec![0xEEu8; len]; rows];
    let mut views: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
    mul_rows(coeffs, srcs, &mut views);
    outs
}

#[test]
fn dispatched_mul_matches_log_exp_reference_for_all_256_constants() {
    // A 16 × 16 coefficient matrix holding every constant once.
    let backing: Vec<Vec<u8>> = (0..16).map(|c| buf(997, 42 + c)).collect();
    let srcs: Vec<&[u8]> = backing.iter().map(Vec::as_slice).collect();
    let coeffs: Vec<Gf256> = (0..=255u8).map(Gf256).collect();
    assert_eq!(
        dispatched(&coeffs, &srcs, 16, 997),
        reference(&coeffs, &srcs, 16, 997)
    );
}

#[test]
fn matrix_mul_matches_element_wise_product() {
    let a = Matrix::from_fn(5, 7, |r, c| Gf256((r * 31 + c * 7 + 1) as u8));
    let b = Matrix::from_fn(7, 6, |r, c| Gf256((r * 13 + c * 17 + 3) as u8));
    let got = a.mul(&b).unwrap();
    for r in 0..5 {
        for c in 0..6 {
            let mut want = Gf256::ZERO;
            for k in 0..7 {
                want += a[(r, k)] * b[(k, c)];
            }
            assert_eq!(got[(r, c)], want, "({r},{c})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Dispatched vs reference over random shapes, constants, lengths and
    /// unaligned views.
    #[test]
    fn dispatched_matches_reference(
        rows in 1usize..7,
        k in 0usize..13,
        len in 0usize..600,
        offset in 0usize..32,
        seed: u64,
    ) {
        let backing: Vec<Vec<u8>> = (0..k as u64).map(|c| buf(len + offset, seed ^ c)).collect();
        let srcs: Vec<&[u8]> = backing.iter().map(|b| &b[offset..]).collect();
        let coeffs: Vec<Gf256> = buf(rows * k, seed ^ 0xABCD).into_iter().map(Gf256).collect();
        prop_assert_eq!(
            dispatched(&coeffs, &srcs, rows, len),
            reference(&coeffs, &srcs, rows, len)
        );
    }
}
