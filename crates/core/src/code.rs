//! The [`Code`] facade: one object tying configuration, block size, encoder
//! and decoder together — and the alpha-entanglement implementation of
//! [`RedundancyScheme`].

use crate::decoder;
use crate::encoder::Entangler;
use ae_api::{
    AeError, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost, RepairError,
    SnapshotReader, SnapshotWriter,
};
use ae_blocks::{Block, BlockId, EdgeId, NodeId};
use ae_lattice::Config;
use parking_lot::Mutex;
use std::ops::ControlFlow;

/// In-memory block container used throughout the byte plane: block id →
/// contents. Presence in the map *is* availability.
///
/// Re-exported from [`ae_api`], where the [`ae_api::BlockSource`] /
/// [`ae_api::BlockSink`] impls live.
pub type BlockMap = ae_api::BlockMap;

/// An alpha entanglement code bound to a block size.
///
/// `Code` owns the streaming encoder state behind a lock, so one value is
/// both the encoder ([`Code::encode_batch`] via [`RedundancyScheme`]) and
/// the decoder ([`Code::repair_block`], `repair_missing`) — and can
/// be shared (`Arc<Code>`, `Arc<dyn RedundancyScheme>`) between an
/// archive, a plane and repair workers. See the crate-level example for
/// end-to-end usage.
#[derive(Debug)]
pub struct Code {
    cfg: Config,
    zero: Block,
    entangler: Mutex<Entangler>,
}

impl Clone for Code {
    fn clone(&self) -> Self {
        Code {
            cfg: self.cfg,
            zero: self.zero.clone(),
            entangler: Mutex::new(self.entangler.lock().clone()),
        }
    }
}

impl Code {
    /// Creates a code for blocks of `block_size` bytes.
    pub fn new(cfg: Config, block_size: usize) -> Self {
        Code {
            cfg,
            zero: Block::zero(block_size),
            entangler: Mutex::new(Entangler::new(cfg, block_size)),
        }
    }

    /// The code configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.zero.len()
    }

    /// The cached all-zero block (virtual strand-head parity).
    pub fn zero_block(&self) -> &Block {
        &self.zero
    }

    /// Data blocks encoded through this code so far.
    pub fn written(&self) -> u64 {
        self.entangler.lock().written()
    }

    /// A fresh streaming encoder for this code, independent of the code's
    /// own encoding state (for brokers that manage their own stream).
    pub fn entangler(&self) -> Entangler {
        Entangler::new(*self.config(), self.block_size())
    }

    /// Parses and validates a frontier snapshot: the write counter.
    fn parse_frontier(&self, snapshot: &[u8]) -> Result<u64, AeError> {
        let name = self.scheme_name();
        let mut r = SnapshotReader::new(snapshot, 1, &name)?;
        let counter = r.u64()?;
        let block_size = r.u64()?;
        r.finish()?;
        // Lattice arithmetic is `i64` and looks a strand span past the
        // counter: one this large overflows it before any cross-check.
        if counter > i64::MAX as u64 / 2 {
            return Err(AeError::CorruptFrontier {
                detail: format!("{name}: write counter {counter} is past any lattice"),
            });
        }
        if block_size != self.block_size() as u64 {
            return Err(AeError::CorruptFrontier {
                detail: format!(
                    "{name}: snapshot encodes {block_size}-byte blocks, this code {}",
                    self.block_size()
                ),
            });
        }
        Ok(counter)
    }
}

impl RedundancyScheme for Code {
    fn scheme_name(&self) -> String {
        self.config().name()
    }

    fn data_written(&self) -> u64 {
        self.written()
    }

    fn repair_cost(&self) -> RepairCost {
        RepairCost::new(
            Config::SINGLE_FAILURE_READS,
            self.config().storage_overhead_pct() as f64,
        )
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        self.entangler.lock().entangle_batch(blocks, sink)
    }

    /// Version 1: `[counter u64, block_size u64]`. The strand-frontier
    /// parities themselves live on the backend (every parity is stored
    /// permanently), so the snapshot is just the write counter — exactly
    /// the broker recovery of §IV.A — plus the block size, so restoring
    /// into a code with mismatched parameters fails typed at open instead
    /// of confusingly at the next encode.
    fn frontier_snapshot(&self) -> Vec<u8> {
        SnapshotWriter::new(1)
            .u64(self.written())
            .u64(self.block_size() as u64)
            .finish()
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        let counter = self.parse_frontier(snapshot)?;
        let restored = Entangler::restore(self.cfg, self.block_size(), counter, |e| {
            source.fetch(BlockId::Parity(e))
        })
        .map_err(|e| AeError::FrontierBlockMissing {
            id: BlockId::Parity(e),
        })?;
        *self.entangler.lock() = restored;
        Ok(())
    }

    fn frontier_reads(&self, snapshot: &[u8]) -> Vec<BlockId> {
        let Ok(counter) = self.parse_frontier(snapshot) else {
            return Vec::new();
        };
        Entangler::in_flight_edges(self.config(), counter)
            .into_iter()
            .map(|(_, e)| BlockId::Parity(e))
            .collect()
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let mut lookup = |id: BlockId| source.fetch(id);
        decoder::repair_block(self.config(), id, data_blocks, &self.zero, &mut lookup)
    }

    fn block_ids(&self, data_blocks: u64) -> Vec<BlockId> {
        let classes = self.config().classes();
        let mut out = Vec::with_capacity(data_blocks as usize * (1 + classes.len()));
        for i in 1..=data_blocks {
            out.push(BlockId::Data(NodeId(i)));
            for &class in classes {
                out.push(BlockId::Parity(EdgeId::new(class, NodeId(i))));
            }
        }
        out
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        decoder::tuples(self.config(), id, data_blocks, |pair| {
            decoder::complete(pair, avail)
        })
        .is_ok_and(|walk| walk.is_break())
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        data_blocks * (1 + self.config().alpha() as u64)
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        // block_ids order: per node i, the data block then its α output
        // parities in class order — a fixed stride of 1 + α per node.
        let stride = 1 + self.config().alpha() as u64;
        let idx = match *id {
            BlockId::Data(NodeId(i)) if (1..=data_blocks).contains(&i) => (i - 1) * stride,
            BlockId::Parity(e) if (1..=data_blocks).contains(&e.left.0) => {
                if e.class.index() >= self.config().alpha() as usize {
                    return None; // class not present at this α
                }
                (e.left.0 - 1) * stride + 1 + e.class.index() as u64
            }
            _ => return None,
        };
        u32::try_from(idx).ok()
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        // Inverse of dense_index: position k → node 1 + k / stride, then
        // the data block or the (k mod stride − 1)-th class parity.
        let stride = 1 + self.config().alpha() as u64;
        let (i, r) = (u64::from(k) / stride + 1, u64::from(k) % stride);
        if i > data_blocks {
            return None;
        }
        Some(if r == 0 {
            BlockId::Data(NodeId(i))
        } else {
            BlockId::Parity(EdgeId::new(
                self.config().classes()[r as usize - 1],
                NodeId(i),
            ))
        })
    }

    fn supports_dense_index(&self) -> bool {
        true
    }

    fn maintenance_targets(&self, missing_data: &[BlockId], data_blocks: u64) -> Vec<BlockId> {
        // The parities of a missing data block's pp-tuples: repairing them
        // is what unlocks the data repair ("some parities are repaired if
        // they are part of the same stripe of an unavailable data block",
        // §V.C.2).
        let mut out = Vec::new();
        for &id in missing_data.iter().filter(|id| id.is_data()) {
            let _ = decoder::tuples(self.config(), id, data_blocks, |pair| {
                out.extend(pair.into_iter().flatten());
                ControlFlow::<()>::Continue(())
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::NodeId;

    #[test]
    fn facade_roundtrip() {
        let code = Code::new(Config::new(2, 2, 5).unwrap(), 32);
        assert_eq!(code.block_size(), 32);
        assert_eq!(code.config().alpha(), 2);
        assert!(code.zero_block().is_zero());

        let store = BlockMap::new();
        let mut enc = code.entangler();
        for k in 0..60u8 {
            enc.entangle(Block::from_vec(vec![k; 32]))
                .unwrap()
                .insert_into(&store);
        }
        let lost = BlockId::Data(NodeId(30));
        let original = store.remove(&lost).unwrap();
        assert_eq!(code.repair_block(&store, lost, 60).unwrap(), original);
    }

    #[test]
    fn repair_block_reports_missing_tuples() {
        let code = Code::new(Config::single(), 8);
        let store = BlockMap::new(); // nothing stored at all
        let err = code
            .repair_block(&store, BlockId::Data(NodeId(5)), 10)
            .unwrap_err();
        assert!(matches!(
            err,
            RepairError::NoCompleteTuple {
                target: BlockId::Data(NodeId(5)),
                ..
            }
        ));
        assert!(!err.missing_blocks().is_empty());
    }

    #[test]
    fn repair_past_the_written_extent_is_refused_typed() {
        let code = Code::new(Config::new(3, 2, 5).unwrap(), 8);
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..10u8).map(|k| Block::from_vec(vec![k; 8])).collect();
        code.encode_batch(&blocks, &store).unwrap();
        let past = [
            BlockId::Data(NodeId(11)),
            BlockId::Parity(EdgeId::new(ae_blocks::StrandClass::LeftHanded, NodeId(11))),
        ];
        for id in past {
            assert_eq!(
                code.repair_block(&store, id, 10),
                Err(RepairError::OutOfExtent { id, written: 10 })
            );
            assert!(!code.is_repairable(id, 10, &|_| true), "{id}");
        }
        assert!(code.maintenance_targets(&past, 10).is_empty());
    }

    #[test]
    fn scheme_impl_encode_and_repair() {
        let code = Code::new(Config::new(3, 2, 5).unwrap(), 16);
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..80u8).map(|k| Block::from_vec(vec![k; 16])).collect();
        let report = code.encode_batch(&blocks, &store).unwrap();
        assert_eq!(report.data_written(), 80);
        assert_eq!(report.redundancy_written(), 240);
        assert_eq!(code.data_written(), 80);
        assert_eq!(code.scheme_name(), "AE(3,2,5)");
        assert_eq!(code.repair_cost().single_failure_reads, 2);

        let victim = BlockId::Data(NodeId(40));
        let original = store.remove(&victim).unwrap();
        let scheme: &dyn RedundancyScheme = &code;
        let repaired = scheme.repair_block(&store, victim, 80).unwrap();
        assert_eq!(repaired, original);
    }

    #[test]
    fn frontier_snapshot_restores_bit_identical_encoding() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let code = Code::new(cfg, 16);
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..77u8).map(|k| Block::from_vec(vec![k; 16])).collect();
        code.encode_batch(&blocks, &store).unwrap();
        let snap = code.frontier_snapshot();

        // A fresh instance restored from backend + snapshot continues
        // exactly where the original stopped.
        let resumed = Code::new(cfg, 16);
        resumed.restore_frontier(&snap, &store).unwrap();
        assert_eq!(resumed.data_written(), 77);
        let more: Vec<Block> = (77..99u8).map(|k| Block::from_vec(vec![k; 16])).collect();
        let a = BlockMap::new();
        let b = BlockMap::new();
        code.encode_batch(&more, &a).unwrap();
        resumed.encode_batch(&more, &b).unwrap();
        assert_eq!(a, b, "post-restore encoding is bit-identical");

        // Losing a frontier parity makes the restore name it.
        let frontier_edge = EdgeId::new(ae_blocks::StrandClass::Horizontal, NodeId(77));
        store.remove(&BlockId::Parity(frontier_edge));
        let broken = Code::new(cfg, 16);
        assert!(matches!(
            broken.restore_frontier(&snap, &store),
            Err(AeError::FrontierBlockMissing { id }) if id.is_parity()
        ));
        // Garbage snapshots are typed, never a panic.
        assert!(matches!(
            broken.restore_frontier(&[9, 9], &store),
            Err(AeError::CorruptFrontier { .. })
        ));
        // So is a well-formed one whose counter overflows the lattice's
        // `i64` arithmetic — refused before `frontier_reads` scans from it.
        let mut hostile = snap.clone();
        hostile[1..9].copy_from_slice(&i64::MAX.to_le_bytes());
        assert!(broken.frontier_reads(&hostile).is_empty());
        assert!(matches!(
            broken.restore_frontier(&hostile, &store),
            Err(AeError::CorruptFrontier { .. })
        ));
    }

    #[test]
    fn dense_index_matches_block_ids_enumeration() {
        for cfg in [
            Config::single(),
            Config::new(2, 2, 5).unwrap(),
            Config::new(3, 2, 5).unwrap(),
        ] {
            let code = Code::new(cfg, 0);
            assert!(code.supports_dense_index());
            let n = 37;
            let ids = code.block_ids(n);
            assert_eq!(code.universe_len(n), ids.len() as u64, "{}", cfg.name());
            for (k, id) in ids.iter().enumerate() {
                assert_eq!(
                    code.dense_index(id, n),
                    Some(k as u32),
                    "{}: {id}",
                    cfg.name()
                );
                assert_eq!(code.block_at(k as u32, n), Some(*id), "{}: {k}", cfg.name());
            }
            assert_eq!(code.block_at(ids.len() as u32, n), None);
            // Outside the universe: virtual positions, absent classes,
            // foreign schemes.
            assert_eq!(code.dense_index(&BlockId::Data(NodeId(0)), n), None);
            assert_eq!(code.dense_index(&BlockId::Data(NodeId(n + 1)), n), None);
            if cfg.alpha() < 3 {
                let absent =
                    BlockId::Parity(EdgeId::new(ae_blocks::StrandClass::LeftHanded, NodeId(1)));
                assert_eq!(code.dense_index(&absent, n), None);
            }
            let foreign = BlockId::Shard(ae_blocks::ShardId {
                stripe: 0,
                index: 0,
            });
            assert_eq!(code.dense_index(&foreign, n), None);
        }
    }

    #[test]
    fn scheme_structure_matches_lattice() {
        let code = Code::new(Config::new(3, 2, 5).unwrap(), 16);
        let ids = code.block_ids(10);
        assert_eq!(ids.len(), 40, "10 data + 30 parities");
        assert!(ids[0].is_data() && ids[1].is_parity());

        // A fully available lattice: everything is repairable.
        let all = |_: BlockId| true;
        for &id in &ids {
            assert!(code.is_repairable(id, 10, &all), "{id}");
        }
        // Nothing available: nothing is repairable.
        let none = |_: BlockId| false;
        assert!(!code.is_repairable(ids[0], 10, &none));

        // Maintenance targets of a missing data block are its tuple
        // parities: α output edges plus the real input edges.
        let targets = code.maintenance_targets(&[BlockId::Data(NodeId(8))], 10);
        assert!(targets.len() >= 3, "{targets:?}");
        assert!(targets.iter().all(|t| t.is_parity()));
    }
}
