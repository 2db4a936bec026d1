//! AArch64 kernels: NEON XOR, `TBL` split-nibble GF(2^8) multiply, and
//! CRC32 via the ARMv8 CRC32 instructions (which implement exactly the
//! reflected IEEE 802.3 polynomial this workspace uses).
//!
//! Mirrors the x86 module: `*_entry` wrappers with plain `fn` types for
//! the dispatch table, installed only after
//! [`std::arch::is_aarch64_feature_detected!`] confirmed the feature;
//! tails fall through to the scalar kernels.

use crate::scalar;
use crate::tables::GF_NIBBLE;
use std::arch::aarch64::*;

// ---------------------------------------------------------------- XOR --

/// Dispatch entry: `dst ^= src` with NEON.
pub fn xor_into_neon_entry(dst: &mut [u8], src: &[u8]) {
    // Safety: installed only after `is_aarch64_feature_detected!("neon")`.
    unsafe { xor_into_neon(dst, src) }
}

/// Dispatch entry: fused `dst = a ^ b` with NEON.
pub fn xor3_neon_entry(dst: &mut [u8], a: &[u8], b: &[u8]) {
    // Safety: installed only after `is_aarch64_feature_detected!("neon")`.
    unsafe { xor3_neon(dst, a, b) }
}

/// 64 bytes per iteration: four Q-register accumulators in flight.
#[target_feature(enable = "neon")]
fn xor_into_neon(dst: &mut [u8], src: &[u8]) {
    let n = dst.len() & !63;
    let mut i = 0;
    while i < n {
        // Safety: i + 63 < dst.len() == src.len().
        unsafe {
            let d = dst.as_mut_ptr().add(i);
            let s = src.as_ptr().add(i);
            let x0 = veorq_u8(vld1q_u8(d), vld1q_u8(s));
            let x1 = veorq_u8(vld1q_u8(d.add(16)), vld1q_u8(s.add(16)));
            let x2 = veorq_u8(vld1q_u8(d.add(32)), vld1q_u8(s.add(32)));
            let x3 = veorq_u8(vld1q_u8(d.add(48)), vld1q_u8(s.add(48)));
            vst1q_u8(d, x0);
            vst1q_u8(d.add(16), x1);
            vst1q_u8(d.add(32), x2);
            vst1q_u8(d.add(48), x3);
        }
        i += 64;
    }
    scalar::xor_into(&mut dst[n..], &src[n..]);
}

#[target_feature(enable = "neon")]
fn xor3_neon(dst: &mut [u8], a: &[u8], b: &[u8]) {
    let n = dst.len() & !15;
    let mut i = 0;
    while i < n {
        // Safety: i + 15 < len of all three equal-length slices.
        unsafe {
            let x = vld1q_u8(a.as_ptr().add(i));
            let y = vld1q_u8(b.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(x, y));
        }
        i += 16;
    }
    scalar::xor3(&mut dst[n..], &a[n..], &b[n..]);
}

// ------------------------------------------------ GF(2^8) TBL multiply --

/// Dispatch entry: `acc ^= c · data` with NEON `TBL`.
pub fn mul_slice_acc_neon_entry(c: u8, data: &[u8], acc: &mut [u8]) {
    // Safety: installed only after `is_aarch64_feature_detected!("neon")`.
    unsafe { mul_slice_acc_neon(c, data, acc) }
}

/// Dispatch entry: the multi-row product composed from the per-row NEON
/// kernel (one pass over the sources per output row).
pub fn mul_rows_neon_entry(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    scalar::mul_rows_with(mul_slice_acc_neon_entry, coeffs, srcs, outs);
}

/// Split-nibble multiply, 16 bytes per `TBL` pair — the NEON analogue of
/// `PSHUFB`: both 16-entry half-product tables live in Q registers, each
/// data vector is looked up nibble-wise and the halves XOR to the product.
#[target_feature(enable = "neon")]
fn mul_slice_acc_neon(c: u8, data: &[u8], acc: &mut [u8]) {
    let t = &GF_NIBBLE[c as usize];
    // Safety: GF_NIBBLE rows are 32 bytes: two adjacent 16-byte tables.
    let (lo, hi) = unsafe { (vld1q_u8(t.as_ptr()), vld1q_u8(t.as_ptr().add(16))) };
    let mask = vdupq_n_u8(0x0F);
    let n = data.len() & !15;
    let mut i = 0;
    while i < n {
        // Safety: i + 15 < data.len() == acc.len().
        unsafe {
            let d = vld1q_u8(data.as_ptr().add(i));
            let dl = vandq_u8(d, mask);
            let dh = vshrq_n_u8(d, 4);
            let p = veorq_u8(vqtbl1q_u8(lo, dl), vqtbl1q_u8(hi, dh));
            let o = acc.as_mut_ptr().add(i);
            vst1q_u8(o, veorq_u8(p, vld1q_u8(o)));
        }
        i += 16;
    }
    scalar::mul_slice_acc(c, &data[n..], &mut acc[n..]);
}

// ------------------------------------------- CRC32 via ARMv8 crc32x/b --

/// Dispatch entry: raw-state CRC32 update via the ARMv8 CRC32
/// instructions (`crc32x`/`crc32b` — the IEEE variant, not `crc32c*`).
pub fn crc32_update_armv8_entry(state: u32, data: &[u8]) -> u32 {
    // Safety: installed only after `is_aarch64_feature_detected!("crc")`.
    unsafe { crc32_armv8(state, data) }
}

#[target_feature(enable = "crc")]
fn crc32_armv8(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in chunks.by_ref() {
        c = __crc32d(c, u64::from_le_bytes(chunk.try_into().expect("chunk of 8")));
    }
    for &b in chunks.remainder() {
        c = __crc32b(c, b);
    }
    c
}
