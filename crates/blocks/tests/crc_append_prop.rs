//! Property tests for CRC32 *combination*: the checksum of a
//! concatenation, from the checksums of its parts alone
//! ([`Crc32Append`], [`Crc32::resume`]), must equal one pass over the
//! concatenated bytes under whichever CRC kernel is dispatched.

use ae_blocks::{crc32, Crc32, Crc32Append};
use proptest::prelude::*;

/// Right-hand lengths: empty, a byte, sub-word, a cache line, the block
/// size the archives use, and one that is no power of two.
const RIGHT_LENS: [usize; 6] = [0, 1, 7, 64, 4096, 5000];

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
