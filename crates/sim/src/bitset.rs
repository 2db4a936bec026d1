//! A flat fixed-length bitset.
//!
//! The availability plane tracks one boolean per stored block; at the
//! paper's scale (§V.C: one million data blocks, up to four million blocks
//! total) a `Vec<bool>` costs 8× the memory of packed words and defeats
//! word-at-a-time scans. This bitset is deliberately minimal: fixed length,
//! no iterators to keep in sync, and a word view for skip-scanning.

/// A fixed-length packed bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A bitset of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no bits at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Overwrites `self` with the bitwise NOT of `other` (same length).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn assign_not(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            *dst = !src;
        }
        self.mask_tail();
    }

    /// Clears the bits of `mask` in word `w` (bits `64·w ..`) and returns
    /// the ones among them that were set: one AND-NOT for 64 bits. Bits of
    /// `mask` past `len` come back clear and stay clear.
    ///
    /// # Panics
    ///
    /// Panics if word `w` does not exist.
    #[inline]
    pub fn clear_word(&mut self, w: usize, mask: u64) -> u64 {
        let word = &mut self.words[w];
        let cleared = *word & mask;
        *word &= !mask;
        cleared
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of zero bits, ascending. Walks each word's zeros by
    /// `trailing_zeros`, so a mostly-available plane costs one test per 64
    /// blocks plus one step per missing block.
    pub fn iter_zeros(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        let mut words = self.words.iter().enumerate();
        let (mut base, mut zeros) = (0, 0u64);
        std::iter::from_fn(move || {
            while zeros == 0 {
                let (wi, &w) = words.next()?;
                (base, zeros) = (wi * 64, !w);
            }
            let i = base + zeros.trailing_zeros() as usize;
            zeros &= zeros - 1;
            Some(i)
        })
        // The final word's bits past `len` are clear, so read as zeros.
        .take_while(move |&i| i < len)
    }

    /// Heap bytes held by the set.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Clears the bits beyond `len` in the final word so word-level
    /// operations (NOT, popcount) cannot invent phantom members.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitSet::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
    }

    #[test]
    fn assign_not_masks_tail() {
        let mut missing = BitSet::zeros(70);
        missing.set(3, true);
        let mut avail = BitSet::zeros(70);
        avail.assign_not(&missing);
        assert_eq!(avail.count_ones(), 69, "tail bits beyond len stay clear");
        assert!(!avail.get(3));
        assert!(avail.get(69));
    }

    #[test]
    fn iter_zeros_skips_full_words() {
        let mut b = BitSet::zeros(200);
        for i in 0..200 {
            b.set(i, true);
        }
        for i in [5usize, 64, 199] {
            b.set(i, false);
        }
        assert_eq!(b.iter_zeros().collect::<Vec<_>>(), vec![5, 64, 199]);
    }

    #[test]
    fn iter_zeros_respects_length_tail() {
        let b = BitSet::zeros(66);
        assert_eq!(b.iter_zeros().count(), 66);
    }

    #[test]
    fn clear_word_reports_only_set_bits_inside_the_tail() {
        let mut missing = BitSet::zeros(70);
        missing.set(66, true);
        let mut b = BitSet::zeros(70);
        b.assign_not(&missing);
        // Word 1 holds bits 64..70; 66 is already clear, and the mask's
        // bits past the length name no member.
        assert_eq!(b.clear_word(1, !0), 0b11_1011);
        assert_eq!(b.count_ones(), 64);
        assert!((64..70).all(|i| !b.get(i)));
        assert_eq!(b.clear_word(1, !0), 0, "nothing left to clear");
        assert_eq!(b.clear_word(0, 1 << 5 | 1 << 63), 1 << 5 | 1 << 63);
        assert_eq!(b.count_ones(), 62);
        assert!(!b.get(5) && !b.get(63) && b.get(62));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range() {
        BitSet::zeros(10).get(10);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The word-skipping walk names exactly the zeros a bit-by-bit
        /// scan finds, at lengths straddling every word boundary. Each
        /// word is full, empty or random, so skipped full words, dense
        /// zero runs and the masked tail all occur.
        #[test]
        fn iter_zeros_matches_a_bit_by_bit_scan(
            len_pick in 0usize..6,
            words in proptest::collection::vec((0u8..3, proptest::any::<u64>()), 4),
        ) {
            let len = [0, 1, 63, 64, 65, 200][len_pick];
            let mut b = BitSet::zeros(len);
            for i in 0..len {
                let (kind, random) = words[i / 64];
                let bit = match kind {
                    0 => true,
                    1 => false,
                    _ => random >> (i % 64) & 1 == 1,
                };
                b.set(i, bit);
            }
            let naive: Vec<usize> = (0..len).filter(|&i| !b.get(i)).collect();
            proptest::prop_assert_eq!(b.iter_zeros().collect::<Vec<_>>(), naive);
        }
    }
}
