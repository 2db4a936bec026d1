//! Property tests for CRC32 *combination*: the checksum of a
//! concatenation, from the checksums of its parts alone
//! ([`Crc32Append`], [`Crc32::resume`]), must equal one pass over the
//! concatenated bytes under whichever CRC kernel is dispatched — and the
//! operator's tables must be the matrix they stand for, checked against
//! a reference built and applied one bit at a time.

use ae_blocks::{crc32, Crc32, Crc32Append};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Right-hand lengths: empty, a byte, sub-word, a cache line, the block
/// size the archives use, one that is no power of two, and a 64 KiB
/// block.
const RIGHT_LENS: [usize; 7] = [0, 1, 7, 64, 4096, 5000, 65_536];

/// The raw CRC32 register after `len` zero bytes, one bit at a time.
fn shift_bitwise(mut register: u32, len: usize) -> u32 {
    for _ in 0..8 * len {
        let carry = register & 1 != 0;
        register >>= 1;
        if carry {
            register ^= 0xEDB8_8320;
        }
    }
    register
}

/// The reference "append `RIGHT_LENS[k]` zero bytes" matrix: column `n`
/// is the image of checksum bit `n`, shifted bit by bit.
fn reference(k: usize) -> &'static [u32; 32] {
    static MATRICES: OnceLock<Vec<[u32; 32]>> = OnceLock::new();
    let matrices = MATRICES.get_or_init(|| {
        let matrix = |len| std::array::from_fn(|n| shift_bitwise(1 << n, len));
        RIGHT_LENS.iter().map(|&len| matrix(len)).collect()
    });
    &matrices[k]
}

/// `matrix · vector` over GF(2), one bit at a time.
fn apply_bitwise(matrix: &[u32; 32], vector: u32) -> u32 {
    let set = (0..32).filter(|n| vector >> n & 1 != 0);
    set.fold(0, |sum, n| sum ^ matrix[n])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn combining_equals_the_crc_of_the_concatenation(
        left in proptest::collection::vec(any::<u8>(), 0..300),
        right_idx in 0usize..RIGHT_LENS.len(),
        seed: u8,
    ) {
        let len = RIGHT_LENS[right_idx];
        let right: Vec<u8> = (0..len).map(|i| (i * 37) as u8 ^ seed).collect();
        let whole = [&left[..], &right[..]].concat();
        let append = Crc32Append::new(len);
        prop_assert_eq!(append.combine(crc32(&left), crc32(&right)), crc32(&whole));
        // The empty left part is the identity.
        prop_assert_eq!(append.combine(0, crc32(&right)), crc32(&right));
    }

    /// Any `u32` is some message's checksum: `combine` of an arbitrary
    /// left checksum is the reference matrix applied to it, and what a
    /// hasher resumed from it makes of the right part.
    #[test]
    fn combine_is_the_reference_matrix_for_any_left_checksum(
        left: u32,
        right_idx in 0usize..RIGHT_LENS.len(),
        seed: u8,
    ) {
        let len = RIGHT_LENS[right_idx];
        let right: Vec<u8> = (0..len).map(|i| (i * 53) as u8 ^ seed).collect();
        let right_crc = crc32(&right);
        let combined = Crc32Append::new(len).combine(left, right_crc);
        prop_assert_eq!(combined, apply_bitwise(reference(right_idx), left) ^ right_crc);
        let mut resumed = Crc32::resume(left);
        resumed.update(&right);
        prop_assert_eq!(combined, resumed.finalize());
    }

    #[test]
    fn a_resumed_hasher_equals_one_fed_both_halves(
        whole in proptest::collection::vec(any::<u8>(), 0..600),
        cut in 0usize..=600,
    ) {
        let (head, tail) = whole.split_at(cut.min(whole.len()));
        let mut resumed = Crc32::resume(crc32(head));
        resumed.update(tail);
        let mut fed = Crc32::new();
        fed.update(head);
        fed.update(tail);
        prop_assert_eq!(resumed.finalize(), fed.finalize());
        prop_assert_eq!(resumed.finalize(), crc32(&whole));
    }
}
