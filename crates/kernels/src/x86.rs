//! x86-64 kernels: SSE2/AVX2 XOR, SSSE3/AVX2 `PSHUFB` split-nibble
//! GF(2^8) multiply and the AVX2 multi-row product built on it, the same
//! two GF kernels with GFNI's `GF2P8AFFINEQB` on ZMM (each constant an
//! 8×8 bit matrix over GF(2), since `GF2P8MULB` is fixed to the AES
//! polynomial `0x11B` and this field is mod `0x11D`), and CRC32 by
//! carry-less folding: one 128-bit `PCLMULQDQ` lane at a time, or, from
//! 256 bytes on, four ZMM registers at a time with AVX-512 `VPCLMULQDQ`,
//! which reduces to one XMM and ends in the 128-bit body's tail and
//! Barrett reduction.
//!
//! Every function here has a `*_entry` wrapper with a plain `fn` type so
//! it can sit in the dispatch table; the wrappers are only ever installed
//! after [`std::arch::is_x86_feature_detected!`] confirmed the feature,
//! which is what makes the `unsafe` call sound. Tails shorter than one
//! vector fall through to the scalar kernels, so every length and
//! alignment is handled.

use crate::scalar;
use crate::tables::{GF_AFFINE, GF_NIBBLE};
use std::arch::x86_64::*;

// ---------------------------------------------------------------- XOR --

/// Dispatch entry: `dst ^= src` with SSE2 (baseline on x86-64).
pub fn xor_into_sse2_entry(dst: &mut [u8], src: &[u8]) {
    // Safety: SSE2 is part of the x86-64 baseline.
    unsafe { xor_into_sse2(dst, src) }
}

/// Dispatch entry: `dst ^= src` with AVX2.
pub fn xor_into_avx2_entry(dst: &mut [u8], src: &[u8]) {
    // Safety: installed only after `is_x86_feature_detected!("avx2")`.
    unsafe { xor_into_avx2(dst, src) }
}

/// Dispatch entry: fused `dst = a ^ b` with SSE2.
pub fn xor3_sse2_entry(dst: &mut [u8], a: &[u8], b: &[u8]) {
    // Safety: SSE2 is part of the x86-64 baseline.
    unsafe { xor3_sse2(dst, a, b) }
}

/// Dispatch entry: fused `dst = a ^ b` with AVX2.
pub fn xor3_avx2_entry(dst: &mut [u8], a: &[u8], b: &[u8]) {
    // Safety: installed only after `is_x86_feature_detected!("avx2")`.
    unsafe { xor3_avx2(dst, a, b) }
}

/// 64 bytes per iteration: four XMM accumulators in flight so the loads,
/// XORs and stores of independent lanes overlap.
#[target_feature(enable = "sse2")]
fn xor_into_sse2(dst: &mut [u8], src: &[u8]) {
    let n = dst.len() & !63;
    let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
    let mut i = 0;
    while i < n {
        // Safety: i + 63 < dst.len() == src.len(); loads/stores unaligned.
        unsafe {
            let p = d.add(i) as *mut __m128i;
            let q = s.add(i) as *const __m128i;
            let x0 = _mm_xor_si128(_mm_loadu_si128(p), _mm_loadu_si128(q));
            let x1 = _mm_xor_si128(_mm_loadu_si128(p.add(1)), _mm_loadu_si128(q.add(1)));
            let x2 = _mm_xor_si128(_mm_loadu_si128(p.add(2)), _mm_loadu_si128(q.add(2)));
            let x3 = _mm_xor_si128(_mm_loadu_si128(p.add(3)), _mm_loadu_si128(q.add(3)));
            _mm_storeu_si128(p, x0);
            _mm_storeu_si128(p.add(1), x1);
            _mm_storeu_si128(p.add(2), x2);
            _mm_storeu_si128(p.add(3), x3);
        }
        i += 64;
    }
    scalar::xor_into(&mut dst[n..], &src[n..]);
}

/// 128 bytes per iteration: four YMM accumulators in flight.
#[target_feature(enable = "avx2")]
fn xor_into_avx2(dst: &mut [u8], src: &[u8]) {
    let n = dst.len() & !127;
    let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
    let mut i = 0;
    while i < n {
        // Safety: i + 127 < dst.len() == src.len(); loads/stores unaligned.
        unsafe {
            let p = d.add(i) as *mut __m256i;
            let q = s.add(i) as *const __m256i;
            let x0 = _mm256_xor_si256(_mm256_loadu_si256(p), _mm256_loadu_si256(q));
            let x1 = _mm256_xor_si256(_mm256_loadu_si256(p.add(1)), _mm256_loadu_si256(q.add(1)));
            let x2 = _mm256_xor_si256(_mm256_loadu_si256(p.add(2)), _mm256_loadu_si256(q.add(2)));
            let x3 = _mm256_xor_si256(_mm256_loadu_si256(p.add(3)), _mm256_loadu_si256(q.add(3)));
            _mm256_storeu_si256(p, x0);
            _mm256_storeu_si256(p.add(1), x1);
            _mm256_storeu_si256(p.add(2), x2);
            _mm256_storeu_si256(p.add(3), x3);
        }
        i += 128;
    }
    // Sub-128 tail: one 32-byte step at a time, then scalar.
    let m = dst.len() & !31;
    while i < m {
        // Safety: i + 31 < dst.len() == src.len().
        unsafe {
            let p = d.add(i) as *mut __m256i;
            let q = s.add(i) as *const __m256i;
            _mm256_storeu_si256(
                p,
                _mm256_xor_si256(_mm256_loadu_si256(p), _mm256_loadu_si256(q)),
            );
        }
        i += 32;
    }
    scalar::xor_into(&mut dst[m..], &src[m..]);
}

#[target_feature(enable = "sse2")]
fn xor3_sse2(dst: &mut [u8], a: &[u8], b: &[u8]) {
    let n = dst.len() & !15;
    let mut i = 0;
    while i < n {
        // Safety: i + 15 < len of all three equal-length slices.
        unsafe {
            let x = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let y = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_xor_si128(x, y));
        }
        i += 16;
    }
    scalar::xor3(&mut dst[n..], &a[n..], &b[n..]);
}

#[target_feature(enable = "avx2")]
fn xor3_avx2(dst: &mut [u8], a: &[u8], b: &[u8]) {
    let n = dst.len() & !31;
    let mut i = 0;
    while i < n {
        // Safety: i + 31 < len of all three equal-length slices.
        unsafe {
            let x = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let y = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_xor_si256(x, y),
            );
        }
        i += 32;
    }
    scalar::xor3(&mut dst[n..], &a[n..], &b[n..]);
}

// --------------------------------------------- GF(2^8) PSHUFB multiply --

/// Dispatch entry: `acc ^= c · data` with SSSE3 `PSHUFB`.
pub fn mul_slice_acc_ssse3_entry(c: u8, data: &[u8], acc: &mut [u8]) {
    // Safety: installed only after `is_x86_feature_detected!("ssse3")`.
    unsafe { mul_slice_acc_ssse3(c, data, acc) }
}

/// Dispatch entry: `acc ^= c · data` with AVX2 `VPSHUFB`.
pub fn mul_slice_acc_avx2_entry(c: u8, data: &[u8], acc: &mut [u8]) {
    // Safety: installed only after `is_x86_feature_detected!("avx2")`.
    unsafe { mul_slice_acc_avx2(c, data, acc) }
}

/// Dispatch entry: the multi-row product composed from the per-row SSSE3
/// kernel (one pass over the sources per output row).
pub fn mul_rows_ssse3_entry(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    scalar::mul_rows_with(mul_slice_acc_ssse3_entry, coeffs, srcs, outs);
}

/// Dispatch entry: the multi-row product with AVX2 `VPSHUFB`, up to
/// [`ROW_BLOCK`] output rows per pass over the sources.
pub fn mul_rows_avx2_entry(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    // Safety: installed only after `is_x86_feature_detected!("avx2")`.
    unsafe { mul_rows_avx2(coeffs, srcs, outs) }
}

/// Split-nibble multiply, 16 bytes per `PSHUFB` pair: the two 16-entry
/// half-product tables for `c` live in two XMM registers; each data
/// vector is split into nibbles, both halves are looked up in one shuffle
/// each, and the XOR of the halves is the product (GF multiplication
/// distributes over the nibble decomposition).
#[target_feature(enable = "ssse3")]
fn mul_slice_acc_ssse3(c: u8, data: &[u8], acc: &mut [u8]) {
    let t = &GF_NIBBLE[c as usize];
    // Safety: GF_NIBBLE rows are 32 bytes: two adjacent 16-byte tables.
    let (lo, hi) = unsafe {
        (
            _mm_loadu_si128(t.as_ptr() as *const __m128i),
            _mm_loadu_si128(t.as_ptr().add(16) as *const __m128i),
        )
    };
    let mask = _mm_set1_epi8(0x0F);
    let n = data.len() & !15;
    let mut i = 0;
    while i < n {
        // Safety: i + 15 < data.len() == acc.len().
        unsafe {
            let d = _mm_loadu_si128(data.as_ptr().add(i) as *const __m128i);
            let dl = _mm_and_si128(d, mask);
            let dh = _mm_and_si128(_mm_srli_epi64(d, 4), mask);
            let p = _mm_xor_si128(_mm_shuffle_epi8(lo, dl), _mm_shuffle_epi8(hi, dh));
            let o = acc.as_mut_ptr().add(i) as *mut __m128i;
            _mm_storeu_si128(o, _mm_xor_si128(p, _mm_loadu_si128(o)));
        }
        i += 16;
    }
    scalar::mul_slice_acc(c, &data[n..], &mut acc[n..]);
}

/// Split-nibble multiply, 32 bytes per `VPSHUFB` pair (the half-product
/// tables are broadcast into both 128-bit lanes, since `VPSHUFB`
/// shuffles within lanes).
#[target_feature(enable = "avx2")]
fn mul_slice_acc_avx2(c: u8, data: &[u8], acc: &mut [u8]) {
    let (lo, hi) = nibble_tables_avx2(c);
    let mask = _mm256_set1_epi8(0x0F);
    let n = data.len() & !31;
    let mut i = 0;
    while i < n {
        // Safety: i + 31 < data.len() == acc.len().
        unsafe {
            let d = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
            let dl = _mm256_and_si256(d, mask);
            let dh = _mm256_and_si256(_mm256_srli_epi64(d, 4), mask);
            let p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, dl), _mm256_shuffle_epi8(hi, dh));
            let o = acc.as_mut_ptr().add(i) as *mut __m256i;
            _mm256_storeu_si256(o, _mm256_xor_si256(p, _mm256_loadu_si256(o)));
        }
        i += 32;
    }
    scalar::mul_slice_acc(c, &data[n..], &mut acc[n..]);
}

/// The low- and high-nibble half-product tables of `c`, each broadcast
/// into both 128-bit lanes.
#[target_feature(enable = "avx2")]
fn nibble_tables_avx2(c: u8) -> (__m256i, __m256i) {
    let t = &GF_NIBBLE[c as usize];
    // Safety: GF_NIBBLE rows are 32 bytes: two adjacent 16-byte tables.
    unsafe {
        (
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr() as *const __m128i)),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().add(16) as *const __m128i)),
        )
    }
}

/// Output rows whose accumulators stay in YMM registers through one pass
/// over the sources.
const ROW_BLOCK: usize = 4;

/// Vectors of every row per step: `ROW_BLOCK × STEP` accumulators, the
/// `2 × STEP` nibble vectors of a source, its two tables and the mask
/// fill the sixteen YMM registers, and two independent chains per row
/// keep a single-row product (one lost block) as fast as the per-row
/// kernel.
const STEP: usize = 2;

/// `out_r = Σ_c coeffs[r·k + c] · srcs[c]`. The rows go in blocks of up
/// to [`ROW_BLOCK`]; within a block each source vector is loaded and split
/// into nibbles once and feeds every row's accumulator, and each
/// accumulator is stored once, without ever being loaded. The
/// sub-32-byte tail goes through the scalar kernel.
#[target_feature(enable = "avx2")]
fn mul_rows_avx2(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    mul_rows_in_blocks(coeffs, srcs, outs, 32, |coeffs, block, n| {
        match block.len() {
            4 => mul_row_block_avx2::<4>(coeffs, srcs, block, n),
            3 => mul_row_block_avx2::<3>(coeffs, srcs, block, n),
            2 => mul_row_block_avx2::<2>(coeffs, srcs, block, n),
            _ => mul_row_block_avx2::<1>(coeffs, srcs, block, n),
        }
    });
}

/// The multi-row product's row-block loop, shared by the vector bodies:
/// the rows go to `block` in blocks of up to [`ROW_BLOCK`], with their
/// coefficient rows and the length `n` — the rows' length rounded down
/// to a multiple of `vector` bytes — that the block covers; the tail
/// past `n` goes through the scalar kernel.
fn mul_rows_in_blocks(
    coeffs: &[u8],
    srcs: &[&[u8]],
    outs: &mut [&mut [u8]],
    vector: usize,
    block: impl Fn(&[u8], &mut [&mut [u8]], usize),
) {
    let k = srcs.len();
    let len = outs.first().map_or(0, |o| o.len());
    let n = len - len % vector;
    for (b, rows) in outs.chunks_mut(ROW_BLOCK).enumerate() {
        let at = b * ROW_BLOCK * k;
        block(&coeffs[at..at + rows.len() * k], rows, n);
    }
    for (r, out) in outs.iter_mut().enumerate() {
        let tail = &mut out[n..];
        tail.fill(0);
        for (c, src) in srcs.iter().enumerate() {
            scalar::mul_slice_acc(coeffs[r * k + c], &src[n..], tail);
        }
    }
}

/// One block of `R` rows over the first `n` bytes (a multiple of 32),
/// [`STEP`] vectors of every row at a time, then one. The half-product
/// tables of the block's `R × k` coefficients are built once, laid out by
/// source, so the inner loop loads them in order.
#[target_feature(enable = "avx2")]
fn mul_row_block_avx2<const R: usize>(
    coeffs: &[u8],
    srcs: &[&[u8]],
    outs: &mut [&mut [u8]],
    n: usize,
) {
    let k = srcs.len();
    let mut tables = vec![[[_mm256_setzero_si256(); 2]; R]; k];
    for (c, by_row) in tables.iter_mut().enumerate() {
        for (r, t) in by_row.iter_mut().enumerate() {
            let (lo, hi) = nibble_tables_avx2(coeffs[r * k + c]);
            *t = [lo, hi];
        }
    }
    let wide = n - n % (32 * STEP);
    let mut i = 0;
    while i < wide {
        mul_row_step_avx2::<R, STEP>(&tables, srcs, outs, i);
        i += 32 * STEP;
    }
    while i < n {
        mul_row_step_avx2::<R, 1>(&tables, srcs, outs, i);
        i += 32;
    }
}

/// Bytes `i..i + 32·W` of every row of a block.
#[target_feature(enable = "avx2")]
#[inline]
fn mul_row_step_avx2<const R: usize, const W: usize>(
    tables: &[[[__m256i; 2]; R]],
    srcs: &[&[u8]],
    outs: &mut [&mut [u8]],
    i: usize,
) {
    let mask = _mm256_set1_epi8(0x0F);
    let mut acc = [[_mm256_setzero_si256(); W]; R];
    for (src, by_row) in srcs.iter().zip(tables) {
        let mut dl = [_mm256_setzero_si256(); W];
        let mut dh = [_mm256_setzero_si256(); W];
        for w in 0..W {
            // Safety: i + 32·W <= n <= src.len(): `Kernels::mul_rows`
            // checked that every source and output has one length.
            let d = unsafe { _mm256_loadu_si256(src.as_ptr().add(i + 32 * w) as *const __m256i) };
            dl[w] = _mm256_and_si256(d, mask);
            dh[w] = _mm256_and_si256(_mm256_srli_epi64(d, 4), mask);
        }
        for (a, [lo, hi]) in acc.iter_mut().zip(by_row) {
            for w in 0..W {
                let p = _mm256_xor_si256(
                    _mm256_shuffle_epi8(*lo, dl[w]),
                    _mm256_shuffle_epi8(*hi, dh[w]),
                );
                a[w] = _mm256_xor_si256(a[w], p);
            }
        }
    }
    for (out, a) in outs.iter_mut().zip(acc) {
        for (w, v) in a.into_iter().enumerate() {
            // Safety: i + 32·W <= n <= out.len().
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i + 32 * w) as *mut __m256i, v) };
        }
    }
}

// ------------------------------------------ GF(2^8) GFNI affine multiply --

/// Dispatch entry: `acc ^= c · data` with GFNI `VGF2P8AFFINEQB` on ZMM.
pub fn mul_slice_acc_gfni512_entry(c: u8, data: &[u8], acc: &mut [u8]) {
    // Safety: installed only after detection of gfni + avx512f + avx512bw.
    unsafe { mul_slice_acc_gfni512(c, data, acc) }
}

/// Dispatch entry: the multi-row product with GFNI `VGF2P8AFFINEQB` on
/// ZMM, up to [`ROW_BLOCK`] output rows per pass over the sources.
pub fn mul_rows_gfni512_entry(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    // Safety: installed only after detection of gfni + avx512f + avx512bw.
    unsafe { mul_rows_gfni512(coeffs, srcs, outs) }
}

/// `c`'s bit matrix ([`GF_AFFINE`]) in every qword of a ZMM: the affine
/// transform by it, with a zero constant, is `c · d` for each byte `d`.
/// (`GF2P8MULB` would need no matrix, but it multiplies mod the AES
/// polynomial `0x11B`, not `0x11D`.)
#[target_feature(enable = "avx512f")]
#[inline]
fn affine_matrix(c: u8) -> __m512i {
    _mm512_set1_epi64(GF_AFFINE[c as usize] as i64)
}

/// One affine and one XOR per 64 bytes; the sub-64-byte tail goes
/// through the scalar kernel.
#[target_feature(enable = "gfni", enable = "avx512f", enable = "avx512bw")]
fn mul_slice_acc_gfni512(c: u8, data: &[u8], acc: &mut [u8]) {
    let matrix = affine_matrix(c);
    let n = data.len() & !63;
    let mut i = 0;
    while i < n {
        // Safety: i + 63 < data.len() == acc.len(); loads/stores unaligned.
        unsafe {
            let d = _mm512_loadu_si512(data.as_ptr().add(i) as *const __m512i);
            let o = acc.as_mut_ptr().add(i) as *mut __m512i;
            _mm512_storeu_si512(
                o,
                _mm512_xor_si512(
                    _mm512_gf2p8affine_epi64_epi8::<0>(d, matrix),
                    _mm512_loadu_si512(o),
                ),
            );
        }
        i += 64;
    }
    scalar::mul_slice_acc(c, &data[n..], &mut acc[n..]);
}

/// [`mul_rows_avx2`]'s shape on ZMM: the rows go in blocks of up to
/// [`ROW_BLOCK`], each source vector is loaded once and multiplied into
/// every row's accumulator, and each accumulator is stored once, without
/// ever being loaded. The sub-64-byte tail goes through the scalar
/// kernel.
#[target_feature(enable = "gfni", enable = "avx512f", enable = "avx512bw")]
fn mul_rows_gfni512(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    mul_rows_in_blocks(coeffs, srcs, outs, 64, |coeffs, block, n| {
        match block.len() {
            4 => mul_row_block_gfni512::<4>(coeffs, srcs, block, n),
            3 => mul_row_block_gfni512::<3>(coeffs, srcs, block, n),
            2 => mul_row_block_gfni512::<2>(coeffs, srcs, block, n),
            _ => mul_row_block_gfni512::<1>(coeffs, srcs, block, n),
        }
    });
}

/// One block of `R` rows over the first `n` bytes (a multiple of 64),
/// [`STEP`] vectors of every row at a time, then one.
#[target_feature(enable = "gfni", enable = "avx512f", enable = "avx512bw")]
fn mul_row_block_gfni512<const R: usize>(
    coeffs: &[u8],
    srcs: &[&[u8]],
    outs: &mut [&mut [u8]],
    n: usize,
) {
    let wide = n - n % (64 * STEP);
    let mut i = 0;
    while i < wide {
        mul_row_step_gfni512::<R, STEP>(coeffs, srcs, outs, i);
        i += 64 * STEP;
    }
    while i < n {
        mul_row_step_gfni512::<R, 1>(coeffs, srcs, outs, i);
        i += 64;
    }
}

/// Bytes `i..i + 64·W` of every row of a block; each row's matrix for a
/// source is broadcast from [`GF_AFFINE`] as it is used.
#[target_feature(enable = "gfni", enable = "avx512f", enable = "avx512bw")]
#[inline]
fn mul_row_step_gfni512<const R: usize, const W: usize>(
    coeffs: &[u8],
    srcs: &[&[u8]],
    outs: &mut [&mut [u8]],
    i: usize,
) {
    let k = srcs.len();
    let mut acc = [[_mm512_setzero_si512(); W]; R];
    for (c, src) in srcs.iter().enumerate() {
        let mut d = [_mm512_setzero_si512(); W];
        for (w, v) in d.iter_mut().enumerate() {
            // Safety: i + 64·W <= n <= src.len(): `Kernels::mul_rows`
            // checked that every source and output has one length.
            *v = unsafe { _mm512_loadu_si512(src.as_ptr().add(i + 64 * w) as *const __m512i) };
        }
        for (r, a) in acc.iter_mut().enumerate() {
            let matrix = affine_matrix(coeffs[r * k + c]);
            for w in 0..W {
                a[w] = _mm512_xor_si512(a[w], _mm512_gf2p8affine_epi64_epi8::<0>(d[w], matrix));
            }
        }
    }
    for (out, a) in outs.iter_mut().zip(acc) {
        for (w, v) in a.into_iter().enumerate() {
            // Safety: i + 64·W <= n <= out.len().
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().add(i + 64 * w) as *mut __m512i, v) };
        }
    }
}

// --------------------------------------------- CRC32 via (V)PCLMULQDQ --

// Folding constants for the reflected IEEE 802.3 polynomial, from
// Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
// (the values used by the Linux kernel's crc32-pclmul and zlib). Each is
// `k(n) = reflect32(x^n mod P) << 1`, and a fold over a distance of `d`
// bits multiplies a lane's low qword by `k(d + 32)` and its high qword by
// `k(d - 32)`.
const K1: i64 = 0x0001_5444_2bd4; // k(512 + 32) — fold 512 bits
const K2: i64 = 0x0001_c6e4_1596; // k(512 - 32)
const K3: i64 = 0x0001_7519_97d0; // k(128 + 32) — fold 128 bits
const K4: i64 = 0x0000_ccaa_009e; // k(128 - 32)
const K5: i64 = 0x0001_63cd_6124; // k(64) — fold 64 → 32 bits
const P_X: i64 = 0x0001_DB71_0641; // P(x), reflected, for Barrett reduction
const U_PRIME: i64 = 0x0001_F701_1641; // floor(x^64 / P(x)), reflected

// The 512-bit body's distances, each as `(k(d + 32), k(d - 32))`.
const K2048: (i64, i64) = (0x0001_1542_778a, 0x0001_322d_1430); // fold 2048 bits
const K384: (i64, i64) = (0x3db1_ecdc, 0x0001_7435_9406); // fold 384 bits
const K256: (i64, i64) = (0xf1da_05aa, 0x0001_5a54_6366); // fold 256 bits

/// Dispatch entry: raw-state CRC32 update via `PCLMULQDQ` folding.
///
/// Buffers shorter than 64 bytes (and sub-16-byte tails) go through the
/// scalar slice-by-16 kernel; the carry-less path folds four XMM lanes of
/// input down to one, then Barrett-reduces to the 32-bit state.
pub fn crc32_update_pclmul_entry(state: u32, data: &[u8]) -> u32 {
    if data.len() < 64 {
        return scalar::crc32_update(state, data);
    }
    let split = data.len() & !15;
    // Safety: installed only after detection of pclmulqdq + sse4.1.
    let folded = unsafe { crc32_pclmul(state, &data[..split]) };
    scalar::crc32_update(folded, &data[split..])
}

/// Dispatch entry: raw-state CRC32 update via `VPCLMULQDQ` folding of
/// four ZMM registers, 256 bytes per iteration.
///
/// Buffers shorter than 256 bytes go through
/// [`crc32_update_pclmul_entry`] (most journal records are that short),
/// sub-16-byte tails through the scalar slice-by-16 kernel.
pub fn crc32_update_vpclmul512_entry(state: u32, data: &[u8]) -> u32 {
    if data.len() < 256 {
        return crc32_update_pclmul_entry(state, data);
    }
    let split = data.len() & !15;
    // Safety: installed only after detection of avx512f + vpclmulqdq
    // (and of pclmulqdq + sse4.1, which the XMM tail uses).
    let folded = unsafe { crc32_vpclmul512(state, &data[..split]) };
    scalar::crc32_update(folded, &data[split..])
}

/// `data.len()` must be a multiple of 16 and at least 64.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
fn crc32_pclmul(state: u32, data: &[u8]) -> u32 {
    debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    // Safety throughout: every 16-byte load below stays inside `data`,
    // maintained by the chunk arithmetic.
    let mut p = data.as_ptr() as *const __m128i;
    let mut remaining = data.len();
    let x = unsafe {
        let (mut x3, mut x2, mut x1, mut x0) = (
            _mm_loadu_si128(p),
            _mm_loadu_si128(p.add(1)),
            _mm_loadu_si128(p.add(2)),
            _mm_loadu_si128(p.add(3)),
        );
        p = p.add(4);
        remaining -= 64;
        // The running state enters as the low dword of the first lane.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

        // Fold 64 bytes at a time: each 128-bit lane multiplied by
        // x^(4·128±32) lands exactly on the next block's lane.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while remaining >= 64 {
            x3 = fold16(x3, _mm_loadu_si128(p), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(p.add(1)), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(p.add(2)), k1k2);
            x0 = fold16(x0, _mm_loadu_si128(p.add(3)), k1k2);
            p = p.add(4);
            remaining -= 64;
        }

        // Fold the four lanes into one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let x = fold16(x3, x2, k3k4);
        let x = fold16(x, x1, k3k4);
        fold16(x, x0, k3k4)
    };
    fold_tail_and_reduce(x, &data[data.len() - remaining..])
}

/// `data.len()` must be a multiple of 16 and at least 256.
#[target_feature(
    enable = "avx512f",
    enable = "vpclmulqdq",
    enable = "pclmulqdq",
    enable = "sse4.1"
)]
fn crc32_vpclmul512(state: u32, data: &[u8]) -> u32 {
    assert!(data.len() >= 256, "the 512-bit CRC body needs 256 bytes");
    debug_assert!(data.len().is_multiple_of(16));
    // Safety throughout: every 64-byte load below stays inside `data`,
    // maintained by the length check above and the chunk arithmetic.
    let mut p = data.as_ptr() as *const __m512i;
    let mut remaining = data.len();
    let x = unsafe {
        let (mut z0, mut z1, mut z2, mut z3) = (
            _mm512_loadu_si512(p),
            _mm512_loadu_si512(p.add(1)),
            _mm512_loadu_si512(p.add(2)),
            _mm512_loadu_si512(p.add(3)),
        );
        p = p.add(4);
        remaining -= 256;
        // The running state enters as the low dword of the first lane.
        z0 = _mm512_xor_si512(z0, _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)));

        // Fold 256 bytes at a time: each 128-bit lane multiplied by
        // x^(2048±32) lands exactly on the same lane of the next block.
        let k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2048.1, K2048.0));
        while remaining >= 256 {
            z0 = fold64(z0, _mm512_loadu_si512(p), k2048);
            z1 = fold64(z1, _mm512_loadu_si512(p.add(1)), k2048);
            z2 = fold64(z2, _mm512_loadu_si512(p.add(2)), k2048);
            z3 = fold64(z3, _mm512_loadu_si512(p.add(3)), k2048);
            p = p.add(4);
            remaining -= 256;
        }

        // Fold the four accumulators into one, each a 512-bit distance
        // on. Whatever is left after the loop (under 256 bytes) is folded
        // 16 bytes at a time by `fold_tail_and_reduce`.
        let k512 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let z = fold64(z0, z1, k512);
        let z = fold64(z, z2, k512);
        let z = fold64(z, z3, k512);

        // Fold the ZMM's four lanes into the last one: the first lies
        // 384 bits before it, the second 256, the third 128.
        let x = fold16(
            _mm512_extracti32x4_epi32::<0>(z),
            _mm512_extracti32x4_epi32::<3>(z),
            _mm_set_epi64x(K384.1, K384.0),
        );
        let x = fold16(
            _mm512_extracti32x4_epi32::<1>(z),
            x,
            _mm_set_epi64x(K256.1, K256.0),
        );
        fold16(_mm512_extracti32x4_epi32::<2>(z), x, _mm_set_epi64x(K4, K3))
    };
    fold_tail_and_reduce(x, &data[data.len() - remaining..])
}

/// Folds the 16-byte blocks of `tail` (a multiple of 16 bytes long) into
/// `x`, 128 bits at a time, then reduces 128 → 64 → 32 bits and
/// Barrett-reduces to the CRC state.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
fn fold_tail_and_reduce(mut x: __m128i, tail: &[u8]) -> u32 {
    debug_assert!(tail.len().is_multiple_of(16));
    let k3k4 = _mm_set_epi64x(K4, K3);
    for block in tail.chunks_exact(16) {
        // Safety: `block` is 16 bytes; the load is unaligned.
        x = fold16(
            x,
            unsafe { _mm_loadu_si128(block.as_ptr() as *const __m128i) },
            k3k4,
        );
    }

    let mask32 = _mm_set_epi32(0, 0, 0, !0);
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
}

/// One folding step: `a · (K_hi, K_lo) ⊕ b` over GF(2)[x].
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(a, keys, 0x00);
    let hi = _mm_clmulepi64_si128(a, keys, 0x11);
    _mm_xor_si128(b, _mm_xor_si128(lo, hi))
}

/// [`fold16`] on each of a ZMM's four 128-bit lanes, the three-way XOR
/// in one ternary-logic op (`0x96` is `a ^ b ^ c`).
#[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
fn fold64(a: __m512i, b: __m512i, keys: __m512i) -> __m512i {
    let lo = _mm512_clmulepi64_epi128(a, keys, 0x00);
    let hi = _mm512_clmulepi64_epi128(a, keys, 0x11);
    _mm512_ternarylogic_epi64::<0x96>(lo, hi, b)
}

// ----------------------------------------------------------- prefetch --

/// `PREFETCHT0` for every 64-byte line `data` touches: the line of each
/// 64th byte, then the line of the last byte.
pub fn prefetch(data: &[u8]) {
    let lines = (0..data.len()).step_by(64).map(|k| &data[k]);
    for byte in lines.chain(data.last()) {
        // Safety: SSE is part of the x86-64 baseline, and a prefetch is
        // a hint about an address taken from a live reference: it never
        // reads, writes or faults.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((byte as *const u8).cast()) }
    }
}
