//! Block primitives for alpha entanglement codes.
//!
//! Every redundancy scheme in this workspace — alpha entanglement codes,
//! Reed-Solomon, replication — operates on fixed-size byte blocks. This crate
//! provides the shared substrate:
//!
//! * [`Block`] — an immutable, fixed-size byte block with cheap clones: a
//!   [`bytes::Bytes`] view, either of a buffer of its own or — the bulk
//!   path, [`Block::cut`] for a payload's data blocks and
//!   [`Block::xor_slab`] for a batch's parities — of a slab it shares with
//!   the blocks made beside it.
//! * [`xor`] — the XOR kernels used by the decoder and the repair paths. A
//!   single-failure repair in an entangled storage system is exactly one
//!   call to [`xor::xor_of`].
//! * [`crc`] — CRC32 (IEEE 802.3) checksums so stores can detect corrupted or
//!   tampered blocks before using them in a repair, with the two identities
//!   that keep a write at one CRC pass per byte: linearity under XOR (a
//!   parity's checksum from its operands') and combination (a file's
//!   checksum from its blocks').
//! * [`id`] — typed identifiers for data blocks (lattice nodes) and parity
//!   blocks (lattice edges), shared by the lattice, core, store and sim
//!   crates.
//!
//! # Design notes
//!
//! The paper's encoder and decoder are "lightweight — essentially based on
//! exclusive-or operations" (§VII). The hot path is XORing two equal-length
//! slices; the byte-moving loops behind [`xor`] and [`crc`] live in the
//! [`ae_kernels`] crate, which detects the host CPU once at first use and
//! installs the widest supported implementation (AVX2/SSE2 XOR and CRC
//! folding by AVX-512 VPCLMULQDQ or PCLMULQDQ on x86-64, NEON and the ARMv8
//! CRC32 instructions on AArch64, an autovectorized portable fallback
//! elsewhere). This crate stays
//! `forbid(unsafe_code)`; all `unsafe` is confined to the kernel crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod crc;
pub mod id;
pub mod xor;

pub use block::{Block, BlockError, XorWith};
pub use crc::{crc32, crc32_of_xor, crc32_zeros, Crc32, Crc32Append};
pub use id::{BlockId, EdgeId, MetaId, NodeId, ReplicaId, ShardId, StrandClass};
