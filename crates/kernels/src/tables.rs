//! Compile-time lookup tables shared by the scalar and SIMD kernels.
//!
//! Everything here is produced by `const fn` evaluation from first
//! principles — the GF(2^8) tables by carry-less (Russian peasant)
//! multiplication modulo the primitive polynomial `0x11D`, the CRC32
//! tables from the reflected IEEE 802.3 polynomial — so the tables carry
//! no runtime initialization cost, no locks, and cannot drift from the
//! definitions they are derived from.

/// The GF(2^8) primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1`,
/// including the `x^8` term (the conventional Reed-Solomon choice).
pub const GF_POLY: u16 = 0x11D;

/// The reflected IEEE 802.3 CRC32 polynomial.
pub const CRC_POLY: u32 = 0xEDB8_8320;

/// Carry-less multiplication in GF(2^8) modulo [`GF_POLY`].
///
/// Shift-and-xor (Russian peasant) product: branchy and slow, but
/// obviously correct — it is the ground truth every table below is built
/// from, and the reference the parity proptests multiply against.
pub const fn gf_mul(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b as u16;
    let mut p: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= GF_POLY;
        }
        b >>= 1;
    }
    p as u8
}

/// Split-nibble half-product tables for every GF(2^8) constant.
///
/// `GF_NIBBLE[c]` holds 32 bytes: entries `0..16` are `c · i` for the low
/// nibble values `i`, entries `16..32` are `c · (i << 4)` for the high
/// nibble values. Because multiplication distributes over XOR,
/// `c · d = lo[d & 0xF] ^ hi[d >> 4]` — two 16-entry lookups per byte with
/// no branch, and exactly the layout `PSHUFB`/`TBL` consume 16 (or 32)
/// bytes at a time. 8 KiB total, resident in L1 after first touch.
pub static GF_NIBBLE: [[u8; 32]; 256] = build_gf_nibble();

const fn build_gf_nibble() -> [[u8; 32]; 256] {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut i = 0usize;
        while i < 16 {
            t[c][i] = gf_mul(c as u8, i as u8);
            t[c][16 + i] = gf_mul(c as u8, (i << 4) as u8);
            i += 1;
        }
        c += 1;
    }
    t
}

/// GF(2^8) multiplication by each constant as an 8×8 bit matrix, in the
/// layout of GFNI's `GF2P8AFFINEQB`.
///
/// Multiplying by a constant `c` mod [`GF_POLY`] is linear over GF(2):
/// bit `i` of `c · x` is the parity of `x` masked by the byte whose bit
/// `j` is bit `i` of `c · 2^j`. `GF2P8AFFINEQB` reads that row for output
/// bit `i` from byte `7 − i` of a 64-bit matrix, so `GF_AFFINE[c]` holds
/// the row of output bit `i` in byte `7 − i`. (`GF2P8MULB` would need no
/// table, but it multiplies mod the AES polynomial `0x11B`, not
/// [`GF_POLY`].) 2 KiB total.
pub static GF_AFFINE: [u64; 256] = build_gf_affine();

const fn build_gf_affine() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut m = 0u64;
        let mut i = 0;
        while i < 8 {
            let mut row = 0u64;
            let mut j = 0;
            while j < 8 {
                row |= ((gf_mul(c as u8, 1 << j) >> i) & 1) as u64 * (1 << j);
                j += 1;
            }
            m |= row << (8 * (7 - i));
            i += 1;
        }
        t[c] = m;
        c += 1;
    }
    t
}

/// Slice-by-16 CRC32 tables: `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so sixteen lookups advance the state by
/// sixteen input bytes at once (Intel's slicing construction).
/// `CRC_TABLES[0]` is the classic byte-at-a-time table used for tails.
pub static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_mul_agrees_with_known_products() {
        // Hand-checked against the 0x11D tables of Plank's tutorial.
        assert_eq!(gf_mul(2, 2), 4);
        assert_eq!(gf_mul(0x80, 2), 0x1D);
        assert_eq!(gf_mul(0xFF, 0xFF), 0xE2);
        for x in 0..=255u8 {
            assert_eq!(gf_mul(x, 1), x);
            assert_eq!(gf_mul(1, x), x);
            assert_eq!(gf_mul(x, 0), 0);
        }
    }

    #[test]
    fn nibble_tables_reassemble_every_product() {
        for c in 0..=255u8 {
            let t = &GF_NIBBLE[c as usize];
            for d in 0..=255u8 {
                let via_nibbles = t[(d & 0x0F) as usize] ^ t[16 + (d >> 4) as usize];
                assert_eq!(via_nibbles, gf_mul(c, d), "c={c:#04x} d={d:#04x}");
            }
        }
    }

    #[test]
    fn affine_matrices_multiply_as_gf2p8affineqb_reads_them() {
        // Output bit i of `GF2P8AFFINEQB` is the parity of the matrix's
        // byte 7 − i masked by the input byte: evaluated here bit by bit,
        // so the table is pinned on every host, GFNI or not.
        for c in 0..=255u8 {
            let rows = GF_AFFINE[c as usize].to_le_bytes();
            for x in 0..=255u8 {
                let product = (0..8).fold(0u8, |p, i| {
                    p | (((rows[7 - i] & x).count_ones() & 1) as u8) << i
                });
                assert_eq!(product, gf_mul(c, x), "c={c:#04x} x={x:#04x}");
            }
        }
    }

    #[test]
    fn crc_tables_chain_correctly() {
        // T[k][b] must equal the CRC state after feeding b then k zeros.
        for (k, table) in CRC_TABLES.iter().enumerate() {
            for b in [0u8, 1, 0x55, 0xAA, 0xFF] {
                let mut c = b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        (c >> 1) ^ CRC_POLY
                    } else {
                        c >> 1
                    };
                }
                for _ in 0..k {
                    c = CRC_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
                }
                assert_eq!(table[b as usize], c, "k={k} b={b:#04x}");
            }
        }
    }
}
