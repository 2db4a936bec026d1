//! CRC32 (IEEE 802.3 polynomial) over the dispatched kernel layer.
//!
//! Entangled storage systems place parity blocks on untrusted remote nodes
//! (§IV.A). Before a fetched block participates in a repair XOR, the store
//! verifies its checksum; otherwise a corrupted block would poison every
//! block reconstructed from it. CRC32 is not cryptographic — the paper's
//! anti-tampering property comes from redundancy propagation, not from the
//! checksum — but it reliably catches accidental corruption.
//!
//! The state update is [`ae_kernels::crc32_update`]: carry-less folding on
//! x86-64 (four ZMM registers at a time by AVX-512 VPCLMULQDQ where the CPU
//! has it, one 128-bit PCLMULQDQ lane at a time otherwise and below 256
//! bytes), the ARMv8 CRC32 instructions on AArch64, slice-by-16 tables
//! otherwise. Every body computes the same polynomial, so a checksum never
//! depends on the host that wrote it. This module keeps the protocol pieces — init/final inversion,
//! streaming, the XOR-linearity identity behind [`crc32_of_xor`] that lets
//! `Block::xor` derive the parity checksum in O(1), and *combination*
//! ([`Crc32Append`]): the checksum of a concatenation from the checksums
//! of its parts, so a file cut into blocks is CRC'd once, block by block.

use std::fmt;

/// A streaming CRC32 hasher.
///
/// # Examples
///
/// ```
/// use ae_blocks::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), ae_blocks::crc32(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// A hasher that has already been fed the bytes `crc` is the
    /// checksum of: feeding it `tail` and finalizing yields the checksum
    /// of those bytes followed by `tail`.
    pub fn resume(crc: u32) -> Self {
        Crc32 {
            state: crc ^ 0xFFFF_FFFF,
        }
    }

    /// Feeds `data` into the hasher.
    ///
    /// Advances the raw state through the runtime-dispatched kernel:
    /// hardware carry-less-multiply folding where the host supports it,
    /// slice-by-16 tables otherwise.
    pub fn update(&mut self, data: &[u8]) {
        self.state = ae_kernels::crc32_update(self.state, data);
    }

    /// Returns the checksum of everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// The "append `len` zero bytes" operator of CRC32, for one fixed `len`.
///
/// Appending a zero byte to a message is a linear map of its checksum
/// over GF(2) (the init and final inversions cancel), so appending `len`
/// of them is that 32×32 bit matrix raised to the `len`-th power — built
/// here once, by squaring, and kept as four 256-entry tables, one per
/// byte of the checksum it maps (4 KiB): applying it is four loads and
/// four XORs. Each entry is the XOR of an earlier entry and one column
/// of the matrix, so the tables cost 1 024 XORs over the O(log `len`)
/// matrix products (5–8 µs for `len` = 4096 on a 2-vCPU Xeon VM). With
/// it the checksum of a concatenation follows from the parts' checksums
/// alone: `crc(a ‖ b) = shift(crc(a), |b|) ⊕ crc(b)` (zlib's
/// `crc32_combine`). Build one per block size; a right part of any other
/// length continues from a [`Crc32::resume`]d hasher instead.
///
/// # Examples
///
/// ```
/// use ae_blocks::{crc32, Crc32Append};
///
/// let append5 = Crc32Append::new(5);
/// assert_eq!(
///     append5.combine(crc32(b"hello "), crc32(b"world")),
///     crc32(b"hello world")
/// );
/// ```
#[derive(Clone)]
pub struct Crc32Append {
    /// `tables[j][b]` is the image of the checksum `b << 8j`.
    tables: Box<[[u32; 256]; 4]>,
    len: usize,
}

impl Crc32Append {
    /// Builds the operator for right-hand parts of `len` bytes.
    pub fn new(len: usize) -> Self {
        let columns = append_zeros(len);
        let mut tables = Box::new([[0u32; 256]; 4]);
        for (j, table) in tables.iter_mut().enumerate() {
            for b in 1..256 {
                // `b` less its lowest set bit is an earlier entry.
                table[b] = table[b & (b - 1)] ^ columns[8 * j + b.trailing_zeros() as usize];
            }
        }
        Crc32Append { tables, len }
    }

    /// The checksum of `a ‖ b` from `left = crc32(a)` and `right =
    /// crc32(b)`, where `b` is `len` bytes long. `combine(0, c)` is `c`:
    /// the empty message's checksum is 0.
    pub fn combine(&self, left: u32, right: u32) -> u32 {
        let [b0, b1, b2, b3] = left.to_le_bytes().map(usize::from);
        let [t0, t1, t2, t3] = &*self.tables;
        t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ right
    }
}

impl fmt::Debug for Crc32Append {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Crc32Append")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// The matrix of appending `len` zero bytes: column `n` is the image of
/// checksum bit `n`.
fn append_zeros(len: usize) -> [u32; 32] {
    // One zero *bit*: a right shift of the reflected register, the
    // polynomial folded in when a one falls off.
    let mut power: [u32; 32] = std::array::from_fn(|n| match n {
        0 => 0xEDB8_8320,
        _ => 1 << (n - 1),
    });
    for _ in 0..3 {
        power = compose(&power, &power);
    }
    // `power` is now one zero byte; square-and-multiply up to `len`.
    let mut columns: [u32; 32] = std::array::from_fn(|n| 1 << n);
    let mut left = len;
    while left != 0 {
        if left & 1 != 0 {
            columns = compose(&power, &columns);
        }
        left >>= 1;
        if left != 0 {
            power = compose(&power, &power);
        }
    }
    columns
}

/// `matrix · vector` over GF(2), branch-free: each column is masked by
/// its bit of `vector`.
fn apply(columns: &[u32; 32], vector: u32) -> u32 {
    let masked = |n: usize| columns[n] & ((vector >> n) & 1).wrapping_neg();
    (0..32).fold(0, |sum, n| sum ^ masked(n))
}

/// The operator "`second`, then `first`".
fn compose(first: &[u32; 32], second: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|n| apply(first, second[n]))
}

/// CRC32 of `len` zero bytes, cached per length.
///
/// CRC32 is affine-linear over GF(2): for equal-length inputs,
/// `crc(a ⊕ b) = crc(a) ⊕ crc(b) ⊕ crc(0…0)`. With this cached zero term,
/// the checksum of an XOR of two blocks (the entanglement hot path) costs
/// O(1) instead of a full pass over the bytes — see [`crc32_of_xor`].
pub fn crc32_zeros(len: usize) -> u32 {
    use std::cell::Cell;
    // Hot path: a code works with one block size, so a thread-local
    // single-entry memo answers every call after the first without
    // touching shared state (the XOR fast path must not take a global
    // lock per parity).
    thread_local! {
        static LAST: Cell<(usize, u32)> = const { Cell::new((usize::MAX, 0)) };
    }
    LAST.with(|last| {
        let (cached_len, cached_crc) = last.get();
        if cached_len == len {
            return cached_crc;
        }
        let c = crc32_zeros_uncached(len);
        last.set((len, c));
        c
    })
}

/// Cross-thread cache behind the thread-local memo: computed zero-CRCs
/// are shared so each distinct length is scanned once per process.
fn crc32_zeros_uncached(len: usize) -> u32 {
    use std::collections::HashMap;
    use std::sync::{OnceLock, RwLock};
    static CACHE: OnceLock<RwLock<HashMap<usize, u32>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(&c) = cache.read().expect("cache lock").get(&len) {
        return c;
    }
    let c = crc32(&vec![0u8; len]);
    cache.write().expect("cache lock").insert(len, c);
    c
}

/// CRC32 of the XOR of two equal-length inputs, from their checksums
/// alone (see [`crc32_zeros`] for the linearity identity).
pub fn crc32_of_xor(crc_a: u32, crc_b: u32, len: usize) -> u32 {
    crc_a ^ crc_b ^ crc32_zeros(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 test vectors (IEEE 802.3 / zlib).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bitwise (table-free) reference implementation.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        const POLY: u32 = 0xEDB8_8320;
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_matches_bitwise_reference_at_all_alignments() {
        let data: Vec<u8> = (0..97u32).map(|i| (i * 151 + 13) as u8).collect();
        for start in 0..9 {
            for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 88] {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 9, 4999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        let clean = crc32(&data);
        data[2048] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"xyz");
        assert_eq!(h.finalize(), h.finalize());
    }

    #[test]
    fn xor_linearity_identity() {
        for len in [0usize, 1, 7, 64, 4096] {
            let a: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 17 + 3) as u8).collect();
            let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
            assert_eq!(
                crc32_of_xor(crc32(&a), crc32(&b), len),
                crc32(&x),
                "len {len}"
            );
        }
    }

    #[test]
    fn append_operator_combines_known_vectors() {
        let whole = b"The quick brown fox jumps over the lazy dog";
        for split in [0, 1, 9, 42, whole.len()] {
            let (a, b) = whole.split_at(split);
            let op = Crc32Append::new(b.len());
            assert_eq!(op.combine(crc32(a), crc32(b)), 0x414F_A339, "split {split}");
            let mut resumed = Crc32::resume(crc32(a));
            resumed.update(b);
            assert_eq!(resumed.finalize(), 0x414F_A339, "split {split}");
        }
        // Appending zero bytes to the empty message is `crc32_zeros`.
        assert_eq!(Crc32Append::new(4096).combine(0, 0), 0);
        assert_eq!(
            Crc32Append::new(4096).combine(crc32(&[]), crc32_zeros(4096)),
            crc32_zeros(4096)
        );
    }

    /// The tables hold the matrix they were built from: every
    /// single-bit checksum maps to its column, and to what the matrix
    /// product gives it.
    #[test]
    fn tables_map_each_checksum_bit_as_the_matrix_does() {
        for len in [0, 1, 4096] {
            let (op, matrix) = (Crc32Append::new(len), append_zeros(len));
            for (n, &column) in matrix.iter().enumerate() {
                let bit = 1u32 << n;
                assert_eq!(op.combine(bit, 0), column, "len {len}, bit {n}");
                assert_eq!(
                    op.combine(bit, 0),
                    apply(&matrix, bit),
                    "len {len}, bit {n}"
                );
            }
        }
        let identity: [u32; 32] = std::array::from_fn(|n| 1 << n);
        assert_eq!(append_zeros(0), identity);
        assert_eq!(
            format!("{:?}", Crc32Append::new(4096)),
            "Crc32Append { len: 4096, .. }"
        );
    }

    #[test]
    fn zeros_cache_consistent() {
        assert_eq!(crc32_zeros(64), crc32(&[0u8; 64]));
        assert_eq!(crc32_zeros(64), crc32_zeros(64));
        assert_eq!(crc32_zeros(0), 0);
    }
}
