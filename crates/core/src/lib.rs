//! Alpha entanglement codes: the byte-plane implementation of AE(α, s, p).
//!
//! This crate is the paper's primary contribution as runnable code. It sits
//! on top of [`ae_lattice`] (which knows *which* blocks connect) and
//! [`ae_blocks`] (which knows how to XOR them), and provides:
//!
//! * [`code::Code`] — the alpha-entanglement implementation of the
//!   scheme-agnostic [`ae_api::RedundancyScheme`] trait: batch-first
//!   encoding, error-typed repairs, and the structural hooks the
//!   availability-plane simulations drive.
//! * [`encoder::Entangler`] — the streaming encoder: each incoming data
//!   block is tangled with the α parities at the heads of its strands,
//!   producing α new parities. Memory footprint is exactly one parity per
//!   strand (`s + (α−1)·p` blocks), matching §IV.A's broker description.
//!   [`encoder::Entangler::entangle_batch`] is the hot path.
//! * [`decoder`] — single-block repairs: a data block from any complete
//!   pp-tuple (two parities, one XOR), a parity block from either dp-tuple,
//!   walking the one tuple definition, [`ae_lattice::graph::tuples`].
//!   Failures return [`ae_api::RepairError::NoCompleteTuple`] naming the
//!   missing tuple members.
//!   The round-based global decoder used after disasters (§V.C.4: each
//!   round repairs every block that has a complete tuple, newly repaired
//!   blocks enable further repairs next round) is the scheme-generic
//!   [`ae_api::RedundancyScheme::repair_missing`] over these repairs.
//! * [`writer::WriteScheduler`] — the Fig 10 write-performance model:
//!   full-writes vs deferred buckets as a function of s and p.
//! * [`puncture`] — the storage-overhead reduction sketched in §III
//!   ("Reducing Storage Overhead"): deterministically skip storing a
//!   fraction of parities.
//! * [`upgrade`] — dynamic fault tolerance: raise α without re-encoding
//!   existing blocks (§I: "alpha entanglements permit changes in the
//!   parameters without the need to encode the content again").
//! * [`tamper`] — the anti-tampering cost analysis of §III: how many blocks
//!   an attacker must rewrite to alter one data block undetectably.
//!
//! # Quickstart
//!
//! Encode through the scheme-agnostic API — the same code works for any
//! [`RedundancyScheme`] (swap in `ae_baselines::ReedSolomon` or
//! `ae_baselines::Replication` and nothing else changes):
//!
//! ```
//! use ae_core::{BlockMap, Code, RedundancyScheme};
//! use ae_blocks::{Block, BlockId, NodeId};
//! use ae_lattice::Config;
//!
//! // AE(3,2,5): triple entanglement, the paper's 5-HEC equivalent.
//! let code = Code::new(Config::new(3, 2, 5).unwrap(), 64);
//! let store = BlockMap::new();
//!
//! // Batch-first encoding: data and parities stream into any BlockSink
//! // (everything is &self; schemes and backends are shared-by-default).
//! let blocks: Vec<Block> = (0u8..100).map(|n| Block::from_vec(vec![n; 64])).collect();
//! let report = code.encode_batch(&blocks, &store).unwrap();
//! assert_eq!(report.data_written(), 100);
//!
//! // Lose a data block; repair it with a single XOR of two parities.
//! let lost = BlockId::Data(NodeId(42));
//! let original = store.remove(&lost).unwrap();
//! let repaired = code.repair_block(&store, lost, 100).unwrap();
//! assert_eq!(repaired, original);
//!
//! // Failed repairs say *which* tuple members were missing.
//! let err = code.repair_block(&BlockMap::new(), lost, 100).unwrap_err();
//! assert!(!err.missing_blocks().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod decoder;
pub mod encoder;
pub mod puncture;
#[cfg(test)]
mod repair;
pub mod tamper;
pub mod upgrade;
pub mod writer;

pub use ae_api::{
    AeError, BlockRepo, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost,
    RepairError, RepairSummary,
};
pub use code::{BlockMap, Code};
pub use encoder::{EntangleOutput, Entangler};
pub use writer::{WriteReport, WriteScheduler};

use ae_blocks::{BlockId, NodeId};
use ae_lattice::LatticeBlock;

/// Converts a byte-plane block id to the lattice analysis plane.
///
/// # Panics
///
/// Panics on ids that are not lattice blocks (Reed-Solomon shards,
/// replicas); use `LatticeBlock::try_from` for a fallible conversion.
pub fn to_lattice(id: BlockId) -> LatticeBlock {
    LatticeBlock::try_from(id)
        .unwrap_or_else(|id| panic!("{id} is not an entanglement lattice block"))
}

/// Data-block id for a 1-based lattice position — a shorthand shared by
/// examples and tests.
pub fn data_id(i: u64) -> BlockId {
    BlockId::Data(NodeId(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::{EdgeId, StrandClass};

    #[test]
    fn lattice_conversion_roundtrip() {
        let ids = [
            BlockId::Data(NodeId(1)),
            BlockId::Data(NodeId(26)),
            BlockId::Parity(EdgeId::new(StrandClass::LeftHanded, NodeId(26))),
        ];
        for id in ids {
            assert_eq!(BlockId::try_from(to_lattice(id)), Ok(id));
        }
    }

    #[test]
    fn virtual_positions_rejected() {
        let err = BlockId::try_from(LatticeBlock::Node(0)).unwrap_err();
        assert_eq!(err.block, LatticeBlock::Node(0));
        assert!(err.to_string().contains("virtual"));
    }

    #[test]
    #[should_panic(expected = "not an entanglement lattice block")]
    fn to_lattice_rejects_foreign_ids() {
        to_lattice(BlockId::Shard(ae_blocks::ShardId {
            stripe: 1,
            index: 0,
        }));
    }
}
