//! Parity proptests: every kernel tier the host supports must be
//! byte-identical to ground truth, across lengths straddling every
//! vector width, unaligned sub-slice views, and all 256 GF constants.
//!
//! Ground truth is deliberately naive — byte-at-a-time XOR, the
//! carry-less [`tables::gf_mul`] product, bitwise CRC32 — so nothing in
//! the fast paths (tables included) is assumed by the reference.

use ae_kernels::{supported_sets, tables};
use proptest::prelude::*;

/// Bitwise (table-free) CRC32 state update, reflected IEEE 802.3.
fn crc32_bitwise(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ tables::CRC_POLY
            } else {
                c >> 1
            };
        }
    }
    c
}

/// Deterministic pseudo-random buffer with `len` bytes.
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

/// Lengths straddling the byte tail, the 8-byte lanes, one XMM, one YMM,
/// the 64/128-byte unrolled bodies and the 64-byte PCLMUL threshold; the
/// GFNI body's steps (191, 192, 193: one double step, one single step,
/// then the scalar tail); then the paths of the 512-bit CRC body: its
/// 256-byte threshold, 64 and 192 bytes of XMM tail after the first 256
/// (320, 448), one turn of the four-ZMM loop (512), XMM and scalar tails
/// after each, and a 4 KiB block ± a byte.
const EDGE_LENS: &[usize] = &[
    0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 79, 127, 128, 129, 191, 192, 193, 255, 256,
    257, 319, 320, 383, 384, 447, 448, 511, 512, 513, 575, 576, 1024, 1088, 4095, 4096, 4097, 4160,
];

#[test]
fn xor_matches_reference_at_edge_lengths_and_alignments() {
    for set in supported_sets() {
        for &len in EDGE_LENS {
            for offset in [0usize, 1, 3, 8, 13, 31] {
                let a = buf(len + offset, 11 * len as u64 + 1);
                let b = buf(len + offset, 17 * len as u64 + 3);
                // Unaligned views: start `offset` bytes into the buffers.
                let (a, b) = (&a[offset..], &b[offset..]);
                let want: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();

                let mut dst = a.to_vec();
                set.xor_into(&mut dst, b);
                assert_eq!(dst, want, "{} xor_into len={len} off={offset}", set.name);

                let mut dst3 = vec![0u8; len];
                set.xor3(&mut dst3, a, b);
                assert_eq!(dst3, want, "{} xor3 len={len} off={offset}", set.name);
            }
        }
    }
}

#[test]
fn gf_multiply_matches_reference_for_all_256_constants() {
    // Every constant × every tier, over a length that exercises the
    // vector body and a ragged tail, plus an unaligned view.
    let data = buf(1000, 77);
    let data = &data[3..]; // 997 bytes, offset 3
    for set in supported_sets() {
        for c in 0..=255u8 {
            let mut acc = buf(997, 99);
            let want: Vec<u8> = acc
                .iter()
                .zip(data)
                .map(|(a, &d)| a ^ tables::gf_mul(c, d))
                .collect();
            set.mul_slice_acc(c, data, &mut acc);
            assert_eq!(acc, want, "{} mul_slice_acc c={c:#04x}", set.name);
        }
    }
}

#[test]
fn multi_row_product_matches_reference_across_shapes_lengths_and_alignments() {
    // 1–5 rows cross the four-row register block; 1–12 sources; every
    // coefficient matrix holds 0 and 1 beside arbitrary constants; the
    // outputs start as garbage, since the product overwrites them.
    for rows in 1..=5usize {
        for k in 1..=12usize {
            let mut coeffs = buf(rows * k, (rows * 31 + k) as u64);
            coeffs[0] = 0;
            coeffs[rows * k / 2] = 1;
            for (i, &len) in EDGE_LENS.iter().enumerate() {
                let offset = [0usize, 1, 13, 31][(rows + k + i) % 4];
                let backing: Vec<Vec<u8>> = (0..k)
                    .map(|c| buf(len + offset, (c * 131 + len) as u64))
                    .collect();
                let srcs: Vec<&[u8]> = backing.iter().map(|b| &b[offset..]).collect();
                let want = mul_rows_reference(&coeffs, &srcs, rows, len);
                for set in supported_sets() {
                    let mut backing_out = vec![vec![0xEEu8; len + offset]; rows];
                    let mut outs: Vec<&mut [u8]> =
                        backing_out.iter_mut().map(|o| &mut o[offset..]).collect();
                    set.mul_rows(&coeffs, &srcs, &mut outs);
                    for (r, out) in outs.iter().enumerate() {
                        assert_eq!(
                            *out,
                            &want[r][..],
                            "{} mul_rows rows={rows} k={k} row={r} len={len} off={offset}",
                            set.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn crc32_matches_bitwise_reference_at_edge_lengths_and_alignments() {
    for set in supported_sets() {
        for &len in EDGE_LENS {
            for offset in [0usize, 1, 5, 15] {
                let data = buf(len + offset, 31 * len as u64 + 7);
                let data = &data[offset..];
                for state in [0xFFFF_FFFFu32, 0, 0xDEAD_BEEF] {
                    assert_eq!(
                        set.crc32_update(state, data),
                        crc32_bitwise(state, data),
                        "{} crc len={len} off={offset} state={state:#010x}",
                        set.name
                    );
                }
            }
        }
    }
}

/// Every CRC and GF body the host can run sits in some supported set, so
/// the tests here pin each against the reference: for the CRC slice-by-16
/// everywhere, the 128-bit `PCLMULQDQ` body in the `sse2` set and the
/// 512-bit `VPCLMULQDQ` body wherever AVX-512 has it; for GF the nibble
/// tables everywhere, SSSE3 `PSHUFB` in the `sse2` set and the GFNI
/// affine body wherever GFNI runs on ZMM. Prints each set, so a run's log
/// shows which bodies it exercised.
#[test]
fn every_crc_and_gf_body_the_host_detects_is_in_a_supported_set() {
    let sets = supported_sets();
    for set in &sets {
        println!("{}", set.describe());
    }
    let crc_of = |name: &str| sets.iter().find(|s| s.name == name).map(|s| s.crc_name);
    let gf_of = |name: &str| sets.iter().find(|s| s.name == name).map(|s| s.mul_name);
    assert_eq!(crc_of("scalar"), Some("slice16"));
    assert_eq!(gf_of("scalar"), Some("scalar-nibble"));
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("ssse3") {
            assert_eq!(gf_of("sse2"), Some("ssse3-pshufb"));
        }
        if has!("gfni") && has!("avx512f") && has!("avx512bw") {
            assert!(
                sets.iter().any(|s| s.mul_name == "gfni512"),
                "the host has GFNI and AVX-512 but no set runs the affine GF body"
            );
        }
        if has!("pclmulqdq") && has!("sse4.1") {
            assert_eq!(crc_of("sse2"), Some("pclmul"));
            if has!("avx512f") && has!("vpclmulqdq") {
                assert!(
                    sets.iter().any(|s| s.crc_name == "vpclmul512"),
                    "the host has AVX-512 VPCLMULQDQ but no set runs its CRC body"
                );
            }
        }
    }
}

/// Random lengths up to 2600: half below 600, where the XOR, GF and
/// 128-bit CRC bodies have their thresholds and tails, half from 600 on,
/// where the 512-bit CRC body runs its loop several turns.
fn lens() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..600, 600usize..2600]
}

/// `outs[r] = Σ_c coeffs[r·k + c] · srcs[c]`, byte by byte through a
/// table of every carry-less product.
fn mul_rows_reference(coeffs: &[u8], srcs: &[&[u8]], rows: usize, len: usize) -> Vec<Vec<u8>> {
    static PRODUCT: std::sync::OnceLock<Vec<[u8; 256]>> = std::sync::OnceLock::new();
    let product = PRODUCT.get_or_init(|| {
        (0..=255u8)
            .map(|c| std::array::from_fn(|d| tables::gf_mul(c, d as u8)))
            .collect()
    });
    let k = srcs.len();
    (0..rows)
        .map(|r| {
            (0..len)
                .map(|at| {
                    srcs.iter().enumerate().fold(0u8, |acc, (c, src)| {
                        acc ^ product[coeffs[r * k + c] as usize][src[at] as usize]
                    })
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random lengths, offsets and constants: every supported tier
    /// agrees with ground truth on XOR, GF multiply (one row, and 1–5
    /// rows over 1–12 sources) and CRC at once.
    #[test]
    fn all_tiers_agree_with_reference(
        len in lens(),
        offset in 0usize..32,
        c: u8,
        seed: u64,
        rows in 1usize..=5,
        k in 1usize..=12,
    ) {
        let a = buf(len + offset, seed);
        let b = buf(len + offset, seed ^ 0x5555_5555_5555_5555);
        let (a, b) = (&a[offset..], &b[offset..]);
        let want_xor: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
        let want_mul: Vec<u8> = a
            .iter()
            .zip(b)
            .map(|(x, &d)| x ^ tables::gf_mul(c, d))
            .collect();
        let want_crc = crc32_bitwise(0xFFFF_FFFF, a);
        let coeffs = buf(rows * k, seed ^ 0xC0EF);
        let backing: Vec<Vec<u8>> = (0..k)
            .map(|c| buf(len + offset, seed.wrapping_add(c as u64 + 1)))
            .collect();
        let srcs: Vec<&[u8]> = backing.iter().map(|b| &b[offset..]).collect();
        let want_rows = mul_rows_reference(&coeffs, &srcs, rows, len);
        for set in supported_sets() {
            let mut dst = a.to_vec();
            set.xor_into(&mut dst, b);
            prop_assert_eq!(&dst, &want_xor, "{} xor_into", set.name);

            let mut dst3 = vec![0u8; len];
            set.xor3(&mut dst3, a, b);
            prop_assert_eq!(&dst3, &want_xor, "{} xor3", set.name);

            let mut acc = a.to_vec();
            set.mul_slice_acc(c, b, &mut acc);
            prop_assert_eq!(&acc, &want_mul, "{} mul_slice_acc", set.name);

            let mut backing_out = vec![vec![0xEEu8; len + offset]; rows];
            let mut outs: Vec<&mut [u8]> =
                backing_out.iter_mut().map(|o| &mut o[offset..]).collect();
            set.mul_rows(&coeffs, &srcs, &mut outs);
            for (r, out) in outs.iter().enumerate() {
                prop_assert_eq!(&out[..], &want_rows[r][..], "{} mul_rows row {}", set.name, r);
            }

            prop_assert_eq!(
                set.crc32_update(0xFFFF_FFFF, a),
                want_crc,
                "{} crc32",
                set.name
            );
        }
    }

    /// Streaming CRC splits at arbitrary points must compose: the state
    /// convention is identical across tiers, so a split fed through two
    /// different tiers still matches one-shot ground truth.
    #[test]
    fn crc_state_composes_across_tiers(len in lens(), split in 0usize..2600, seed: u64) {
        let data = buf(len, seed);
        // Anywhere in the buffer, ends included, whatever its length.
        let split = split % (len + 1);
        let want = crc32_bitwise(0xFFFF_FFFF, &data);
        for first in supported_sets() {
            for second in supported_sets() {
                let mid = first.crc32_update(0xFFFF_FFFF, &data[..split]);
                prop_assert_eq!(
                    second.crc32_update(mid, &data[split..]),
                    want,
                    "{} then {}",
                    first.name,
                    second.name
                );
            }
        }
    }
}
