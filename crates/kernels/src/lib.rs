//! Runtime-dispatched data-path kernels: XOR, GF(2^8) multiply, CRC32.
//!
//! Every byte this workspace stores or repairs flows through these
//! kernels — the XOR that *is* the arithmetic of alpha entanglement
//! (`dst ^= src` and the fused `dst = a ^ b`), the GF(2^8) multi-row
//! product at the heart of Reed-Solomon encode/decode (every parity, or
//! every lost member, of a stripe in one pass over its sources) with the
//! single constant-multiply-accumulate it is built from, and the CRC32
//! that guards every block and every metadata journal record. This crate
//! owns all of them, in two forms:
//!
//! * **Scalar reference kernels** ([`scalar`]) — portable, branch-free,
//!   and the byte-for-byte ground truth. XOR moves 32 bytes per step
//!   through `u64` lanes, the GF multiply is a two-level split-nibble
//!   table lookup (no per-byte `d != 0` branch), CRC32 is slice-by-16.
//! * **Hardware kernels** — explicit SSE2/AVX2 XOR and SSSE3/AVX2
//!   `PSHUFB` split-nibble GF multiply with `PCLMULQDQ`-folded CRC32 on
//!   x86-64; where the CPU has AVX-512, the CRC folded four ZMM registers
//!   at a time by `VPCLMULQDQ` and the GF multiply done by GFNI's
//!   `GF2P8AFFINEQB` on ZMM, each constant an 8×8 bit matrix
//!   ([`tables::GF_AFFINE`]); NEON XOR, `TBL` GF multiply and the ARMv8
//!   CRC32 instructions on AArch64. The multi-row GF product has a body
//!   of its own in the scalar, AVX2 and GFNI forms; SSSE3 and NEON
//!   compose it from their per-row multiply.
//!
//! Beside the kernels sits one cache hint, [`prefetch`]: a verified read
//! of a run of cold blocks loads the next ones while it checksums this
//! one. It is not a tier — it is the same under every `AE_KERNEL` — and
//! it never reads or changes a byte.
//!
//! # Dispatch contract
//!
//! CPU features are detected **once**, on first use, via
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!`; the
//! chosen [`Kernels`] set of plain function pointers is cached for the
//! life of the process ([`active`]). Selection override order is
//! **environment > auto-detection**:
//!
//! 1. `AE_KERNEL=scalar|sse2|avx2|neon|auto` picks a tier at runtime.
//!    A tier the host CPU does not support (or an unknown value) falls
//!    back to `auto`.
//! 2. Otherwise, on x86-64, the best tier the CPU supports wins. On
//!    AArch64 `auto` is the scalar tier: code that has never run on its
//!    target is not dispatched, so NEON is selected only by
//!    `AE_KERNEL=neon` — and [`supported_sets`] still lists it, so the
//!    parity suite exercises it on any ARM host.
//!
//! Within a tier a slot whose instructions are an extension of their own
//! is filled by detection and named truthfully in [`Kernels::describe`]:
//! the `sse2` tier's GF slot needs SSSE3 and its CRC slot `PCLMULQDQ`
//! and SSE4.1 (`crc=pclmul`); the `avx2` tier's CRC slot takes the
//! 512-bit body (`crc=vpclmul512`) where AVX-512F and `VPCLMULQDQ` are
//! detected too, and its GF slot, both the multiply-accumulate and the
//! multi-row product, the GFNI body (`gf=gfni512`) where GFNI, AVX-512F
//! and AVX-512BW are. A slot whose extension is missing keeps the body
//! below it, so no tier name depends on AVX-512 or GFNI.
//!
//! The GFNI body multiplies with the affine instruction, not with
//! `GF2P8MULB`: the latter multiplies mod the AES polynomial `0x11B`,
//! while Reed-Solomon here works mod `0x11D`
//! ([`tables::GF_POLY`]). Multiplying by a constant is linear over GF(2)
//! whatever the polynomial, so one bit matrix per constant gives the same
//! bytes as the tables.
//!
//! Every vectorized kernel is pinned byte-identical to the scalar
//! reference by exhaustive proptests (all 256 GF constants, lengths
//! straddling every vector width, unaligned sub-slice views); CI's
//! reference leg (the whole suite under `AE_KERNEL=scalar`) plus a
//! dispatched-vs-scalar parity step keep that contract enforced on
//! whatever ISA CI runs.

#![warn(missing_docs)]

pub mod scalar;
pub mod tables;

#[cfg(target_arch = "aarch64")]
mod aarch64;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// The multi-row GF(2^8) product: coefficients, sources, outputs.
type MulRows = fn(&[u8], &[&[u8]], &mut [&mut [u8]]);

/// A resolved set of kernel function pointers plus reporting names.
///
/// Obtain the process-wide set with [`active`] (or use the free
/// functions, which do exactly that), or enumerate every set the host
/// supports with [`supported_sets`] for parity testing and benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct Kernels {
    /// Tier name: `scalar`, `sse2`, `avx2` or `neon`.
    pub name: &'static str,
    /// Name of the XOR implementation in this set.
    pub xor_name: &'static str,
    /// Name of the GF(2^8) multiply implementation in this set.
    pub mul_name: &'static str,
    /// Name of the CRC32 implementation in this set.
    pub crc_name: &'static str,
    xor_into: fn(&mut [u8], &[u8]),
    xor3: fn(&mut [u8], &[u8], &[u8]),
    mul_slice_acc: fn(u8, &[u8], &mut [u8]),
    mul_rows: MulRows,
    crc32_update: fn(u32, &[u8]) -> u32,
}

impl Kernels {
    /// `dst[i] ^= src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "xor_into requires equal-length slices"
        );
        (self.xor_into)(dst, src);
    }

    /// Fused `dst[i] = a[i] ^ b[i]` — one pass, no copy-then-xor.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn xor3(&self, dst: &mut [u8], a: &[u8], b: &[u8]) {
        assert_eq!(dst.len(), a.len(), "xor3 requires equal-length slices");
        assert_eq!(dst.len(), b.len(), "xor3 requires equal-length slices");
        (self.xor3)(dst, a, b);
    }

    /// `acc[i] ^= c · data[i]` over GF(2^8) mod `0x11D`.
    ///
    /// `c = 0` is a no-op and `c = 1` degenerates to [`Self::xor_into`];
    /// both short-circuit before the table path.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_slice_acc(&self, c: u8, data: &[u8], acc: &mut [u8]) {
        assert_eq!(
            data.len(),
            acc.len(),
            "mul_slice_acc requires equal-length slices"
        );
        match c {
            0 => {}
            1 => (self.xor_into)(acc, data),
            _ => (self.mul_slice_acc)(c, data, acc),
        }
    }

    /// `outs[r][i] = Σ_c coeffs[r·k + c] · srcs[c][i]` over GF(2^8) mod
    /// `0x11D`, with `k = srcs.len()`: every output row in one pass over
    /// the sources, overwriting the outputs (no sources zero them).
    /// `coeffs` is the row-major `outs.len() × k` coefficient matrix.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != outs.len() · srcs.len()` or the slices
    /// have different lengths.
    pub fn mul_rows(&self, coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
        assert_eq!(
            coeffs.len(),
            outs.len() * srcs.len(),
            "mul_rows requires one coefficient per output row and source"
        );
        let len = outs.first().map_or(0, |o| o.len());
        assert!(
            srcs.iter()
                .map(|s| s.len())
                .chain(outs.iter().map(|o| o.len()))
                .all(|l| l == len),
            "mul_rows requires equal-length slices"
        );
        (self.mul_rows)(coeffs, srcs, outs);
    }

    /// Advances a raw CRC32 state (reflected IEEE 802.3, pre-inversion
    /// form: initial state `0xFFFF_FFFF`, finalize by XOR with
    /// `0xFFFF_FFFF`) over `data`.
    pub fn crc32_update(&self, state: u32, data: &[u8]) -> u32 {
        (self.crc32_update)(state, data)
    }

    /// One-line description, e.g. `avx2 (xor=avx2 gf=gfni512
    /// crc=vpclmul512)`.
    pub fn describe(&self) -> String {
        format!(
            "{} (xor={} gf={} crc={})",
            self.name, self.xor_name, self.mul_name, self.crc_name
        )
    }
}

const SCALAR_SET: Kernels = Kernels {
    name: "scalar",
    xor_name: "scalar",
    mul_name: "scalar-nibble",
    crc_name: "slice16",
    xor_into: scalar::xor_into,
    xor3: scalar::xor3,
    mul_slice_acc: scalar::mul_slice_acc,
    mul_rows: scalar::mul_rows,
    crc32_update: scalar::crc32_update,
};

#[cfg(target_arch = "x86_64")]
fn sse2_set() -> Kernels {
    // SSE2 is the x86-64 baseline; PSHUFB needs SSSE3 and the CRC
    // folding needs PCLMULQDQ + SSE4.1, so those two slots are filled by
    // detection and reported truthfully.
    let mut k = Kernels {
        name: "sse2",
        xor_name: "sse2",
        xor_into: x86::xor_into_sse2_entry,
        xor3: x86::xor3_sse2_entry,
        ..SCALAR_SET
    };
    if std::arch::is_x86_feature_detected!("ssse3") {
        k.mul_name = "ssse3-pshufb";
        k.mul_slice_acc = x86::mul_slice_acc_ssse3_entry;
        k.mul_rows = x86::mul_rows_ssse3_entry;
    }
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        k.crc_name = "pclmul";
        k.crc32_update = x86::crc32_update_pclmul_entry;
    }
    k
}

#[cfg(target_arch = "x86_64")]
fn avx2_set() -> Option<Kernels> {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    let mut k = sse2_set();
    k.name = "avx2";
    k.xor_name = "avx2";
    k.xor_into = x86::xor_into_avx2_entry;
    k.xor3 = x86::xor3_avx2_entry;
    k.mul_name = "avx2-pshufb";
    k.mul_slice_acc = x86::mul_slice_acc_avx2_entry;
    k.mul_rows = x86::mul_rows_avx2_entry;
    // The GF slot takes the affine body where GFNI can run on ZMM.
    if std::arch::is_x86_feature_detected!("gfni")
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
    {
        k.mul_name = "gfni512";
        k.mul_slice_acc = x86::mul_slice_acc_gfni512_entry;
        k.mul_rows = x86::mul_rows_gfni512_entry;
    }
    // The 512-bit CRC body also needs the 128-bit one (inputs under 256
    // bytes go there), so it is installed only where `sse2_set` put
    // `pclmul`; otherwise the slot stays as `sse2_set` left it.
    if k.crc_name == "pclmul"
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
    {
        k.crc_name = "vpclmul512";
        k.crc32_update = x86::crc32_update_vpclmul512_entry;
    }
    Some(k)
}

#[cfg(target_arch = "aarch64")]
fn neon_set() -> Option<Kernels> {
    if !std::arch::is_aarch64_feature_detected!("neon") {
        return None;
    }
    let mut k = Kernels {
        name: "neon",
        xor_name: "neon",
        mul_name: "neon-tbl",
        xor_into: aarch64::xor_into_neon_entry,
        xor3: aarch64::xor3_neon_entry,
        mul_slice_acc: aarch64::mul_slice_acc_neon_entry,
        mul_rows: aarch64::mul_rows_neon_entry,
        ..SCALAR_SET
    };
    if std::arch::is_aarch64_feature_detected!("crc") {
        k.crc_name = "armv8-crc32";
        k.crc32_update = aarch64::crc32_update_armv8_entry;
    }
    Some(k)
}

/// Every kernel set the host CPU supports, scalar first.
///
/// Used by the parity proptests (every vectorized tier is pinned against
/// scalar on whatever ISA the host provides) and by the kernel
/// benchmarks.
pub fn supported_sets() -> Vec<Kernels> {
    #[allow(unused_mut)]
    let mut sets = vec![SCALAR_SET];
    #[cfg(target_arch = "x86_64")]
    {
        sets.push(sse2_set());
        sets.extend(avx2_set());
    }
    #[cfg(target_arch = "aarch64")]
    {
        sets.extend(neon_set());
    }
    sets
}

fn auto_set() -> Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(k) = avx2_set() {
            return k;
        }
        return sse2_set();
    }
    // AArch64 stays scalar: the NEON tier has never run on ARM hardware,
    // so it is opt-in (`AE_KERNEL=neon`) until a CI leg runs its parity
    // suite there.
    #[allow(unreachable_code)]
    SCALAR_SET
}

/// Resolves a tier name; `None` for unknown names or unsupported tiers.
fn by_name(name: &str) -> Option<Kernels> {
    match name {
        "scalar" => Some(SCALAR_SET),
        "auto" => Some(auto_set()),
        #[cfg(target_arch = "x86_64")]
        "sse2" => Some(sse2_set()),
        #[cfg(target_arch = "x86_64")]
        "avx2" => avx2_set(),
        #[cfg(target_arch = "aarch64")]
        "neon" => neon_set(),
        _ => None,
    }
}

fn select() -> Kernels {
    if let Ok(requested) = std::env::var("AE_KERNEL") {
        if !requested.is_empty() {
            // An unsupported or unknown tier falls back to
            // auto-detection (documented contract).
            return by_name(&requested).unwrap_or_else(auto_set);
        }
    }
    auto_set()
}

/// The process-wide kernel set: detected once, cached forever.
pub fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<Kernels> = OnceLock::new();
    ACTIVE.get_or_init(select)
}

/// Name of the active tier (`scalar`, `sse2`, `avx2` or `neon`).
pub fn kernel_name() -> &'static str {
    active().name
}

/// `dst[i] ^= src[i]` through the active kernel set.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    active().xor_into(dst, src);
}

/// Fused `dst[i] = a[i] ^ b[i]` through the active kernel set.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor3(dst: &mut [u8], a: &[u8], b: &[u8]) {
    active().xor3(dst, a, b);
}

/// `acc[i] ^= c · data[i]` over GF(2^8) through the active kernel set.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice_acc(c: u8, data: &[u8], acc: &mut [u8]) {
    active().mul_slice_acc(c, data, acc);
}

/// `outs[r][i] = Σ_c coeffs[r·k + c] · srcs[c][i]` over GF(2^8) through
/// the active kernel set (see [`Kernels::mul_rows`]).
///
/// # Panics
///
/// Panics if `coeffs.len() != outs.len() · srcs.len()` or the slices have
/// different lengths.
pub fn mul_rows(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    active().mul_rows(coeffs, srcs, outs);
}

/// Advances a raw CRC32 state through the active kernel set (see
/// [`Kernels::crc32_update`] for the state convention).
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    active().crc32_update(state, data)
}

/// Hints the cache to load `data` ahead of a read: on x86-64 one
/// `PREFETCHT0` per 64-byte line, elsewhere nothing. A cache hint, not a
/// kernel tier — the same under every `AE_KERNEL` — it never reads or
/// changes a byte and never faults. A reader that checksums a run of
/// cold blocks prefetches the next ones while it sums this one.
pub fn prefetch(data: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    x86::prefetch(data);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_set_is_always_supported() {
        let sets = supported_sets();
        assert_eq!(sets[0].name, "scalar");
        assert!(by_name("scalar").is_some());
        assert!(by_name("auto").is_some());
        assert!(by_name("riscv-vector").is_none());
    }

    #[test]
    fn active_is_stable_across_calls() {
        let a = active().describe();
        let b = active().describe();
        assert_eq!(a, b);
    }

    #[test]
    fn wrappers_agree_with_active_set() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut a = vec![0x11u8; 100];
        let mut b = vec![0x11u8; 100];
        xor_into(&mut a, &data);
        active().xor_into(&mut b, &data);
        assert_eq!(a, b);
        assert_eq!(
            crc32_update(0xFFFF_FFFF, &data),
            active().crc32_update(0xFFFF_FFFF, &data)
        );
    }

    #[test]
    fn mul_fast_paths_match_tables() {
        let data: Vec<u8> = (0..=255u8).collect();
        for set in supported_sets() {
            for c in [0u8, 1] {
                let mut acc = vec![0xA5u8; 256];
                set.mul_slice_acc(c, &data, &mut acc);
                let mut want = vec![0xA5u8; 256];
                scalar::mul_slice_acc(c, &data, &mut want);
                assert_eq!(acc, want, "{} c={c}", set.name);
            }
        }
    }

    #[test]
    fn prefetch_is_a_hint_on_any_slice() {
        let bytes: Vec<u8> = (0..4161u32).map(|i| (i * 7 + 3) as u8).collect();
        let before = bytes.clone();
        // Empty, one byte, unaligned short, unaligned 4097 bytes, the
        // whole buffer.
        for view in [
            &bytes[..0],
            &bytes[..1],
            &bytes[3..67],
            &bytes[1..4098],
            &bytes[..],
        ] {
            prefetch(view);
        }
        assert_eq!(bytes, before);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_into_rejects_mismatched_lengths() {
        xor_into(&mut [0u8; 4], &[0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor3_rejects_mismatched_lengths() {
        xor3(&mut [0u8; 4], &[0u8; 4], &[0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_rows_rejects_mismatched_lengths() {
        mul_rows(&[2, 3], &[&[0u8; 4], &[0u8; 5]], &mut [&mut [0u8; 4]]);
    }
}
