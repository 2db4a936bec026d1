//! Portable scalar reference kernels.
//!
//! These are the byte-for-byte ground truth the SIMD paths are pinned
//! against (and the bodies behind `AE_KERNEL=scalar`). They are not
//! naive: XOR moves 32 bytes per step
//! through `u64` lanes the compiler autovectorizes, the GF(2^8) multiply
//! is a branch-free two-level nibble lookup (no per-byte `d != 0`
//! mispredict, no log/exp dependency chain), and CRC32 is slice-by-16.

use crate::tables::{CRC_TABLES, GF_NIBBLE};

/// `dst[i] ^= src[i]`, 32 bytes (four `u64` lanes) per step with an
/// 8-byte then byte-wise tail. Lengths must match (checked by callers).
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    let mut dst_wide = dst.chunks_exact_mut(32);
    let mut src_wide = src.chunks_exact(32);
    for (d, s) in dst_wide.by_ref().zip(src_wide.by_ref()) {
        for lane in 0..4 {
            let at = lane * 8;
            let x = u64::from_ne_bytes(d[at..at + 8].try_into().expect("lane of 8"))
                ^ u64::from_ne_bytes(s[at..at + 8].try_into().expect("lane of 8"));
            d[at..at + 8].copy_from_slice(&x.to_ne_bytes());
        }
    }
    let mut dst_chunks = dst_wide.into_remainder().chunks_exact_mut(8);
    let mut src_chunks = src_wide.remainder().chunks_exact(8);
    for (d, s) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
        let x = u64::from_ne_bytes(d.try_into().expect("chunk of 8"))
            ^ u64::from_ne_bytes(s.try_into().expect("chunk of 8"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d ^= *s;
    }
}

/// `dst[i] = a[i] ^ b[i]` in one fused pass (no copy-then-xor).
pub fn xor3(dst: &mut [u8], a: &[u8], b: &[u8]) {
    let mut out = dst.chunks_exact_mut(8);
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for ((d, x), y) in out.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
        let v = u64::from_ne_bytes(x.try_into().expect("chunk of 8"))
            ^ u64::from_ne_bytes(y.try_into().expect("chunk of 8"));
        d.copy_from_slice(&v.to_ne_bytes());
    }
    for ((d, x), y) in out
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *d = *x ^ *y;
    }
}

/// `acc[i] ^= c · data[i]` over GF(2^8) via the split-nibble tables:
/// two 16-entry lookups per byte, no branch on the data byte.
pub fn mul_slice_acc(c: u8, data: &[u8], acc: &mut [u8]) {
    let t = &GF_NIBBLE[c as usize];
    let (lo, hi) = t.split_at(16);
    for (a, &d) in acc.iter_mut().zip(data) {
        *a ^= lo[(d & 0x0F) as usize] ^ hi[(d >> 4) as usize];
    }
}

/// `out[i] = c · data[i]` over GF(2^8) (overwriting variant).
pub fn mul_slice(c: u8, data: &[u8], out: &mut [u8]) {
    let t = &GF_NIBBLE[c as usize];
    let (lo, hi) = t.split_at(16);
    for (o, &d) in out.iter_mut().zip(data) {
        *o = lo[(d & 0x0F) as usize] ^ hi[(d >> 4) as usize];
    }
}

/// Advances a raw (pre-inversion) CRC32 state over `data`, sixteen bytes
/// per step through the slicing tables with a byte-wise tail.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut chunks = data.chunks_exact(16);
    for chunk in chunks.by_ref() {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4-byte word")) ^ c;
        let b = |i: usize| chunk[i] as usize;
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b(4)]
            ^ t[10][b(5)]
            ^ t[9][b(6)]
            ^ t[8][b(7)]
            ^ t[7][b(8)]
            ^ t[6][b(9)]
            ^ t[5][b(10)]
            ^ t[4][b(11)]
            ^ t[3][b(12)]
            ^ t[2][b(13)]
            ^ t[1][b(14)]
            ^ t[0][b(15)];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::gf_mul;

    #[test]
    fn crc_slice_by_16_matches_known_vectors() {
        // state convention: init 0xFFFF_FFFF, final xor 0xFFFF_FFFF.
        let crc = |data: &[u8]| crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF;
        assert_eq!(crc(b""), 0x0000_0000);
        assert_eq!(crc(b"a"), 0xE8B7_BE43);
        assert_eq!(crc(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn mul_slice_acc_is_branch_free_table_product() {
        let data: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x1D, 0x8E, 0xFF] {
            let mut acc = vec![0x5Au8; 256];
            mul_slice_acc(c, &data, &mut acc);
            for (i, &a) in acc.iter().enumerate() {
                assert_eq!(a, 0x5A ^ gf_mul(c, data[i]), "c={c:#04x} i={i}");
            }
            let mut out = vec![0u8; 256];
            mul_slice(c, &data, &mut out);
            for (i, &o) in out.iter().enumerate() {
                assert_eq!(o, gf_mul(c, data[i]), "c={c:#04x} i={i}");
            }
        }
    }

    #[test]
    fn xor3_fuses_copy_and_xor() {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 100] {
            let a: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let mut dst = vec![0u8; len];
            xor3(&mut dst, &a, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(dst, want, "len={len}");
        }
    }
}
