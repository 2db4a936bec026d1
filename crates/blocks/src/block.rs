//! The [`Block`] type: a fixed-size, cheaply clonable byte block.
//!
//! Data and parity blocks in an entanglement lattice always have identical
//! sizes ("The encoder constructs a helical lattice using data and parity
//! blocks with identical size", §III.B). `Block` wraps [`bytes::Bytes`], a
//! view of a reference-counted buffer, so the many components holding the
//! same block — encoder frontier, store, repair engine — share one
//! allocation, and so do the blocks made together: [`Block::cut`] and
//! [`Block::xor_slab`] carve the blocks of a write out of *slabs*, one
//! allocation per 64 KiB of blocks instead of two per block. A view pins
//! its slab: a block that outlives its slab-mates keeps at most 64 KiB
//! alive, and a dropped block's bytes are freed when the last of its
//! slab-mates goes.

use crate::crc::{crc32, crc32_zeros};
use crate::xor;
use bytes::Bytes;
use std::fmt;

/// Errors arising from block-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Two blocks that must have equal sizes did not.
    SizeMismatch {
        /// Size of the left/destination operand.
        expected: usize,
        /// Size of the right/source operand.
        actual: usize,
    },
    /// A stored checksum did not match the block contents.
    ChecksumMismatch {
        /// Checksum recorded when the block was sealed.
        stored: u32,
        /// Checksum recomputed from the current contents.
        computed: u32,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "block size mismatch: expected {expected} bytes, got {actual}"
                )
            }
            BlockError::ChecksumMismatch { stored, computed } => write!(
                f,
                "block checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for BlockError {}

/// The most bytes of blocks cut from one allocation. Not a knob, a
/// measurement (`ae_bulk`: AE(3,2,5), 4 KiB blocks, 256 KiB files, 12 s
/// runs): slabs of 32, 64 and 96 KiB all read `cycle_ms` 160–164, while
/// one slab per put — 768 KiB of parities, 256 KiB of data — crosses
/// glibc's 128 KiB `M_MMAP_THRESHOLD`, so every put maps and unmaps its
/// slabs: system time 0.3 s → 3.5 s per run and `cycle_ms` 206–212,
/// worse than the 188–192 of one allocation per block. A block larger
/// than this is a slab of its own.
const SLAB_BYTES: usize = 64 * 1024;

/// How many `block_size` blocks one slab holds.
fn blocks_per_slab(block_size: usize) -> usize {
    (SLAB_BYTES / block_size.max(1)).max(1)
}

/// Freezes a filled slab — `crcs.len()` blocks of `block_size` bytes,
/// back to back — and appends its blocks, each a view of `slab`.
fn freeze(slab: Vec<u8>, crcs: Vec<u32>, block_size: usize, out: &mut Vec<Block>) {
    debug_assert_eq!(slab.len(), crcs.len() * block_size);
    let slab = Bytes::from(slab);
    out.extend(crcs.into_iter().enumerate().map(|(k, crc)| Block {
        bytes: slab.slice(k * block_size..(k + 1) * block_size),
        crc,
    }));
}

/// What [`Block::xor_slab`] XORs an output's first operand with.
#[derive(Debug, Clone)]
pub enum XorWith {
    /// Nothing — the virtual zero parity at a strand head: the output is
    /// a copy of the first operand.
    Zero,
    /// A block made earlier.
    Block(Block),
    /// The output at this index of the same call, which must precede the
    /// one being described.
    Output(usize),
}

/// An immutable, fixed-size byte block with a cached CRC32 checksum.
///
/// Cloning is O(1) (reference-counted). Equality compares contents.
///
/// # Examples
///
/// ```
/// use ae_blocks::Block;
///
/// let a = Block::from_vec(vec![1, 2, 3, 4]);
/// let b = Block::from_vec(vec![5, 6, 7, 8]);
/// let parity = a.xor(&b).unwrap();
/// // XOR is self-inverse: recover `a` from the parity and `b`.
/// assert_eq!(parity.xor(&b).unwrap(), a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    bytes: Bytes,
    crc: u32,
}

impl Block {
    /// Wraps an owned byte vector as a block, computing its checksum.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let crc = crc32(&bytes);
        Block {
            bytes: Bytes::from(bytes),
            crc,
        }
    }

    /// Copies a slice into a new block.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Self::from_vec(bytes.to_vec())
    }

    /// Cuts `contents` into `block_size`-byte blocks, the last one
    /// zero-padded — none for empty `contents`. Every byte is copied once
    /// and checksummed once, and the blocks are views of the copy, which
    /// is one allocation per slab rather than one per block.
    ///
    /// # Panics
    ///
    /// Panics for `block_size = 0`.
    pub fn cut(contents: &[u8], block_size: usize) -> Vec<Block> {
        assert!(block_size > 0, "blocks to cut need a size");
        let mut out = Vec::with_capacity(contents.len().div_ceil(block_size));
        for part in contents.chunks(blocks_per_slab(block_size) * block_size) {
            let padded = part.len().div_ceil(block_size) * block_size;
            let mut slab = Vec::with_capacity(padded);
            slab.extend_from_slice(part);
            slab.resize(padded, 0);
            let crcs = slab.chunks(block_size).map(crc32).collect();
            freeze(slab, crcs, block_size, &mut out);
        }
        out
    }

    /// Computes `first XOR with` for every `(first, with)` of `ops`, in
    /// order, writing each output in place into a zero-filled slab and
    /// returning the outputs as views of their slabs: one allocation per
    /// slab instead of two per block. An output may be XORed with an
    /// earlier output of the same call ([`XorWith::Output`]) — a strand
    /// that passes through a batch twice — whether or not the two share a
    /// slab. Checksums come from the operands' by CRC32 linearity, as in
    /// [`Block::xor`], with the zero term looked up once per call.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not `block_size` bytes long, or an
    /// [`XorWith::Output`] does not name an earlier output.
    pub fn xor_slab(block_size: usize, ops: &[(&Block, XorWith)]) -> Vec<Block> {
        let zero_crc = crc32_zeros(block_size);
        let mut out: Vec<Block> = Vec::with_capacity(ops.len());
        for group in ops.chunks(blocks_per_slab(block_size)) {
            let base = out.len();
            let mut slab = vec![0u8; group.len() * block_size];
            let mut crcs = Vec::with_capacity(group.len());
            for (k, (first, with)) in group.iter().enumerate() {
                let (earlier, rest) = slab.split_at_mut(k * block_size);
                let dst = &mut rest[..block_size];
                let (second, second_crc) = match with {
                    XorWith::Zero => {
                        dst.copy_from_slice(first.as_slice());
                        crcs.push(first.crc);
                        continue;
                    }
                    XorWith::Block(b) => (b.as_slice(), b.crc),
                    XorWith::Output(j) => match j.checked_sub(base) {
                        Some(j) => (&earlier[j * block_size..][..block_size], crcs[j]),
                        None => (out[*j].as_slice(), out[*j].crc),
                    },
                };
                ae_kernels::xor3(dst, first.as_slice(), second);
                crcs.push(first.crc ^ second_crc ^ zero_crc);
            }
            freeze(slab, crcs, block_size, &mut out);
        }
        out
    }

    /// `count` blocks of `block_size` bytes, written in place by one call
    /// of `write`, which gets them zero-filled, in order: an operation
    /// that makes several blocks in one pass (the parities of a
    /// Reed-Solomon stripe) writes them without a copy. Each block is an
    /// allocation of its own: carved from one 16 KiB slab instead, the
    /// four 4 KiB parities of an RS(10,4) stripe encoded ≈ 1.3× slower
    /// (2-vCPU Xeon VM).
    pub fn write_many(
        block_size: usize,
        count: usize,
        write: impl FnOnce(&mut [&mut [u8]]),
    ) -> Vec<Block> {
        let mut bufs: Vec<Vec<u8>> = (0..count).map(|_| vec![0u8; block_size]).collect();
        let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        write(&mut views);
        bufs.into_iter().map(Block::from_vec).collect()
    }

    /// The all-zero block of `len` bytes.
    ///
    /// Zero blocks serve as the virtual parities at strand heads: tangling
    /// the first data block of a strand XORs it with zeros, so the first
    /// parity equals the data block itself.
    pub fn zero(len: usize) -> Self {
        Self::from_vec(vec![0u8; len])
    }

    /// Block contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Block size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the block has zero length.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether every byte is zero.
    pub fn is_zero(&self) -> bool {
        xor::is_zero(&self.bytes)
    }

    /// The CRC32 checksum computed when the block was created.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Recomputes the checksum and verifies it against the cached value.
    ///
    /// A store calls this before using a fetched block in a repair, so a
    /// corrupted or tampered replica is detected rather than silently XORed
    /// into reconstructed data (the paper's integrity motivation, §I).
    pub fn verify(&self) -> Result<(), BlockError> {
        let computed = crc32(&self.bytes);
        if computed == self.crc {
            Ok(())
        } else {
            Err(BlockError::ChecksumMismatch {
                stored: self.crc,
                computed,
            })
        }
    }

    /// Returns `self XOR other` as a new block.
    ///
    /// This is the entanglement function: one XOR of two equal-size
    /// blocks. The result's checksum is derived from the operands'
    /// checksums via CRC32 linearity (`crc(a⊕b) = crc(a) ⊕ crc(b) ⊕
    /// crc(0…0)`), so no second pass over the bytes is needed.
    pub fn xor(&self, other: &Block) -> Result<Block, BlockError> {
        if self.len() != other.len() {
            return Err(BlockError::SizeMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        let crc = crate::crc::crc32_of_xor(self.crc, other.crc, self.len());
        Ok(Block {
            bytes: Bytes::from(xor::xor_of(&self.bytes, &other.bytes)),
            crc,
        })
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({} bytes, crc={:#010x})", self.len(), self.crc)
    }
}

impl AsRef<[u8]> for Block {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for Block {
    fn from(v: Vec<u8>) -> Self {
        Block::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_block_is_zero() {
        let z = Block::zero(64);
        assert!(z.is_zero());
        assert_eq!(z.len(), 64);
        assert!(!z.is_empty());
        assert!(Block::zero(0).is_empty());
    }

    #[test]
    fn xor_roundtrip() {
        let a = Block::from_vec((0..128u8).collect());
        let b = Block::from_vec((0..128u8).map(|x| x.wrapping_mul(3)).collect());
        let p = a.xor(&b).unwrap();
        assert_eq!(p.xor(&b).unwrap(), a);
        assert_eq!(p.xor(&a).unwrap(), b);
    }

    #[test]
    fn xor_with_zero_is_identity() {
        let a = Block::from_vec(vec![7; 32]);
        let z = Block::zero(32);
        assert_eq!(a.xor(&z).unwrap(), a);
    }

    #[test]
    fn xor_size_mismatch_errors() {
        let a = Block::zero(8);
        let b = Block::zero(9);
        match a.xor(&b) {
            Err(BlockError::SizeMismatch {
                expected: 8,
                actual: 9,
            }) => {}
            other => panic!("expected size mismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_passes_on_fresh_block() {
        let a = Block::from_vec(vec![1, 2, 3]);
        a.verify().unwrap();
        assert_eq!(a.crc(), crc32(&[1, 2, 3]));
    }

    #[test]
    fn clone_shares_contents() {
        let a = Block::from_vec(vec![9; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    fn hash_of(b: &Block) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// A slab-cut block is its `from_vec` twin in every observable way.
    #[test]
    fn cut_blocks_equal_their_from_vec_twins() {
        let bs = 4096;
        let per_slab = blocks_per_slab(bs);
        // Empty, a partial block, exact blocks, and lengths that fill one
        // slab exactly, spill one byte into the next, and span three.
        for len in [
            0,
            1,
            bs - 1,
            bs,
            bs + 1,
            per_slab * bs,
            per_slab * bs + 1,
            2 * per_slab * bs + 3 * bs + 123,
        ] {
            let contents: Vec<u8> = (0..len).map(|i| (i * 7 + (i >> 9)) as u8).collect();
            let cut = Block::cut(&contents, bs);
            assert_eq!(cut.len(), len.div_ceil(bs), "len {len}");
            for (k, (got, chunk)) in cut.iter().zip(contents.chunks(bs)).enumerate() {
                let mut padded = chunk.to_vec();
                padded.resize(bs, 0);
                let twin = Block::from_vec(padded);
                assert_eq!(got, &twin, "len {len}, block {k}");
                assert_eq!(got.crc(), twin.crc(), "len {len}, block {k}");
                assert_eq!(hash_of(got), hash_of(&twin), "len {len}, block {k}");
                got.verify().unwrap();
            }
            // Slab-mates share one allocation; a slab never exceeds the bound.
            for slab in cut.chunks(per_slab) {
                let base = slab[0].as_slice().as_ptr();
                for (k, b) in slab.iter().enumerate() {
                    assert_eq!(b.as_slice().as_ptr(), base.wrapping_add(k * bs));
                }
            }
        }
    }

    #[test]
    fn a_corrupt_view_fails_verify_like_an_owned_block() {
        let cut = Block::cut(&[5u8; 300], 100);
        let forged = Block {
            bytes: cut[1].bytes.clone(),
            crc: cut[1].crc ^ 1,
        };
        assert!(matches!(
            forged.verify(),
            Err(BlockError::ChecksumMismatch { .. })
        ));
        assert_ne!(forged, cut[1]);
    }

    #[test]
    fn xor_slab_matches_block_xor_across_slab_boundaries() {
        let bs = 4096;
        let n = 2 * blocks_per_slab(bs) + 3;
        let firsts: Vec<Block> = (0..n)
            .map(|k| Block::from_vec((0..bs).map(|i| (i * 13 + k * 29) as u8).collect()))
            .collect();
        let outside = Block::from_vec(vec![0xA5; bs]);
        // Output k chains onto output k − 1 (same slab or the one before),
        // except a head, an outside operand and a reach two slabs back.
        let with = |k: usize| match k {
            0 => XorWith::Zero,
            7 => XorWith::Block(outside.clone()),
            k if k == n - 1 => XorWith::Output(3),
            k => XorWith::Output(k - 1),
        };
        let ops: Vec<_> = firsts.iter().zip((0..n).map(with)).collect();
        let got = Block::xor_slab(bs, &ops);
        let mut want: Vec<Block> = Vec::new();
        for (k, first) in firsts.iter().enumerate() {
            want.push(match with(k) {
                XorWith::Zero => first.clone(),
                XorWith::Block(b) => first.xor(&b).unwrap(),
                XorWith::Output(j) => first.xor(&want[j]).unwrap(),
            });
        }
        assert_eq!(got.len(), n);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "output {k}");
            assert_eq!(g.crc(), w.crc(), "output {k}");
            g.verify().unwrap();
        }
        assert!(Block::xor_slab(bs, &[]).is_empty());
    }

    #[test]
    fn write_many_hands_out_zeroed_blocks_in_order() {
        for bs in [0, 3, 4096] {
            for count in [0, 1, 5] {
                let fill = |k: usize, i: usize| (i * 7 + k * 31 + 1) as u8;
                let got = Block::write_many(bs, count, |views| {
                    assert_eq!(views.len(), count);
                    for (k, view) in views.iter_mut().enumerate() {
                        assert!(view.len() == bs && view.iter().all(|&b| b == 0));
                        view.iter_mut()
                            .enumerate()
                            .for_each(|(i, b)| *b = fill(k, i));
                    }
                });
                assert_eq!(got.len(), count, "bs {bs}");
                for (k, block) in got.iter().enumerate() {
                    let twin = Block::from_vec((0..bs).map(|i| fill(k, i)).collect());
                    assert_eq!(block, &twin, "bs {bs}, block {k}");
                    block.verify().unwrap();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_slab_rejects_a_wrong_size_operand() {
        let (a, b) = (Block::zero(8), Block::zero(9));
        Block::xor_slab(8, &[(&a, XorWith::Block(b))]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = BlockError::SizeMismatch {
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = BlockError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
    }
}
