//! The α = 1 entanglement chain of §IV.B.1 as a first-class
//! [`RedundancyScheme`].
//!
//! An entangled mirror array stores one parity per data block — the space
//! overhead of mirroring — where parity `p_i = d_i ⊕ p_{i-1}` chains every
//! block to its predecessors (`p_0` is the virtual zero block). Two chain
//! shapes:
//!
//! * [`ChainMode::Open`] — the plain chain; the tail parity has a single
//!   repair tuple, so the extremity pair `{d_n, p_n}` is a dead pattern.
//!   The weaker redundancy is surfaced as a typed
//!   [`ExtremityWarning`] and as
//!   [`ae_api::RepairCost::extremity_exposed`], never silently.
//! * [`ChainMode::Closed`] — after the last block the chain is tangled
//!   through the first data block once more, storing one closing parity
//!   `p_{n+1} = d_1 ⊕ p_n`. Every parity then has two repair tuples and
//!   the extremity weakness disappears.
//!
//! [`EntangledChain`] implements the full [`RedundancyScheme`] surface —
//! byte-plane encode/repair *and* the availability hooks with the O(1)
//! `dense_index`/`block_at` bijection — so the use case runs through the
//! exact same generic machinery (`SchemePlane`, parity harnesses, repair
//! planners) as AE, RS and replication. `crate::array::EntangledArray`
//! layers drive topology on top of this scheme.

use ae_api::{
    AeError, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost, RepairError,
    SnapshotReader, SnapshotWriter,
};
use ae_blocks::{Block, BlockId, EdgeId, NodeId, StrandClass};
use parking_lot::Mutex;
use std::fmt;

/// Chain shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainMode {
    /// Plain open chain.
    Open,
    /// Chain closed through the first data block after sealing.
    Closed,
}

impl fmt::Display for ChainMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChainMode::Open => "open",
            ChainMode::Closed => "closed",
        })
    }
}

/// Typed warning that an open chain leaves its extremity with a single
/// repair tuple (§IV.B.1): the blocks in `exposed` form a dead pattern —
/// losing them together is unrecoverable, unlike anywhere else in the
/// chain where two tuples overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtremityWarning {
    /// The tail data block and its only parity.
    pub exposed: Vec<BlockId>,
}

impl fmt::Display for ExtremityWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "open-chain extremity has a single repair tuple: ")?;
        for (k, id) in self.exposed.iter().enumerate() {
            if k > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, " form a dead pattern (close the chain to remove it)")
    }
}

/// Horizontal-strand parity `p_i` (α = 1 uses only the horizontal class).
fn parity_id(i: u64) -> BlockId {
    BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(i)))
}

/// The α = 1 open/closed entanglement chain scheme.
///
/// The byte plane streams like any scheme: [`EntangledChain::encode_batch`]
/// appends blocks and parities, [`RedundancyScheme::seal`] stores the
/// closing parity in [`ChainMode::Closed`]. The availability plane treats
/// a deployment of `data_blocks` blocks as a sealed chain: closed mode's
/// universe has `2·data_blocks + 1` positions (the closing parity last),
/// open mode `2·data_blocks`.
pub struct EntangledChain {
    mode: ChainMode,
    block_size: usize,
    /// Streaming-encoder state behind a lock, so an instance can be
    /// shared (`Arc<dyn RedundancyScheme>`) like every other scheme.
    enc: Mutex<ChainEncoderState>,
}

/// The mutable half of a streaming chain encoder.
#[derive(Debug, Clone, Default)]
struct ChainEncoderState {
    written: u64,
    /// Encoder frontier of size 1: the last parity emitted.
    last_parity: Option<Block>,
    /// First data block, kept so sealing can close the ring without
    /// reading the store back.
    first_data: Option<Block>,
    sealed: bool,
}

impl EntangledChain {
    /// Creates a chain encoding `block_size`-byte blocks (0 is allowed for
    /// availability-plane use, where no bytes ever flow).
    pub fn new(mode: ChainMode, block_size: usize) -> Self {
        EntangledChain {
            mode,
            block_size,
            enc: Mutex::new(ChainEncoderState::default()),
        }
    }

    /// The chain shape.
    pub fn mode(&self) -> ChainMode {
        self.mode
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Whether [`RedundancyScheme::seal`] has been called.
    pub fn is_sealed(&self) -> bool {
        self.enc.lock().sealed
    }

    /// Every id the chain stores right now, honouring the sealed state
    /// (the closing parity exists only after sealing a closed chain).
    pub fn stored_ids(&self) -> Vec<BlockId> {
        let (written, sealed) = {
            let enc = self.enc.lock();
            (enc.written, enc.sealed)
        };
        let mut ids = self.block_ids(written);
        if self.mode == ChainMode::Closed && written > 0 && !sealed {
            ids.pop(); // closing parity not stored yet
        }
        ids
    }

    /// The typed §IV.B.1 extremity warning for a chain of `data_blocks`
    /// blocks: `Some` for a non-empty open chain (the tail pair has a
    /// single repair tuple), `None` once the chain is closed.
    pub fn extremity_warning(&self, data_blocks: u64) -> Option<ExtremityWarning> {
        (self.mode == ChainMode::Open && data_blocks > 0).then(|| ExtremityWarning {
            exposed: vec![BlockId::Data(NodeId(data_blocks)), parity_id(data_blocks)],
        })
    }

    /// Whether the closed ring's extra tuples apply at extent `n`.
    fn ring(&self, n: u64) -> bool {
        self.mode == ChainMode::Closed && n > 0
    }
}

impl EntangledChain {
    /// Parses and validates a frontier snapshot: `(written, sealed)`.
    fn parse_frontier(&self, snapshot: &[u8]) -> Result<(u64, bool), AeError> {
        let name = self.scheme_name();
        let mut r = SnapshotReader::new(snapshot, 1, &name)?;
        let written = r.u64()?;
        let sealed = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(AeError::CorruptFrontier {
                    detail: format!("{name}: sealed flag is {other}"),
                })
            }
        };
        let block_size = r.u64()?;
        r.finish()?;
        if block_size != self.block_size as u64 {
            return Err(AeError::CorruptFrontier {
                detail: format!(
                    "{name}: snapshot encodes {block_size}-byte blocks, this chain {}",
                    self.block_size
                ),
            });
        }
        Ok((written, sealed))
    }
}

impl RedundancyScheme for EntangledChain {
    fn scheme_name(&self) -> String {
        format!("chain({})", self.mode)
    }

    fn data_written(&self) -> u64 {
        self.enc.lock().written
    }

    fn repair_cost(&self) -> RepairCost {
        RepairCost {
            // One XOR of two blocks per repair, mirroring's storage bill.
            single_failure_reads: 2,
            additional_storage_pct: 100.0,
            extremity_exposed: match self.mode {
                ChainMode::Open => 2, // the {d_n, p_n} dead pair
                ChainMode::Closed => 0,
            },
        }
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        let mut enc = self.enc.lock();
        assert!(!enc.sealed, "chain is sealed (closed rings cannot grow)");
        for b in blocks {
            if b.len() != self.block_size {
                return Err(AeError::SizeMismatch {
                    expected: self.block_size,
                    actual: b.len(),
                });
            }
        }
        let first_node = enc.written + 1;
        let mut ids = Vec::with_capacity(blocks.len() * 2);
        for b in blocks {
            let i = enc.written + 1;
            // p_i = d_i ⊕ p_{i-1}; p_0 is the virtual zero block.
            let parity = match &enc.last_parity {
                Some(prev) => b.xor(prev).expect("sizes checked"),
                None => b.clone(),
            };
            if enc.first_data.is_none() {
                enc.first_data = Some(b.clone());
            }
            sink.store(BlockId::Data(NodeId(i)), b.clone());
            sink.store(parity_id(i), parity.clone());
            ids.push(BlockId::Data(NodeId(i)));
            ids.push(parity_id(i));
            enc.last_parity = Some(parity);
            enc.written = i;
        }
        Ok(EncodeReport { first_node, ids })
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        let mut enc = self.enc.lock();
        if enc.sealed {
            return Ok(Vec::new());
        }
        enc.sealed = true;
        if self.mode == ChainMode::Closed && enc.written > 0 {
            // Tangle the chain through the first data block once more:
            // p_{n+1} = d_1 ⊕ p_n.
            let d1 = enc.first_data.as_ref().expect("written > 0");
            let last = enc.last_parity.as_ref().expect("written > 0");
            let closing = d1.xor(last).expect("sizes match");
            let id = parity_id(enc.written + 1);
            sink.store(id, closing);
            return Ok(vec![id]);
        }
        Ok(Vec::new())
    }

    /// Version 1: `[written u64, sealed u8, block_size u64]`. The
    /// frontier blocks — the last emitted parity and (for closing a ring)
    /// the first data block — already live on the backend, so restore
    /// refetches them; the block size makes a mismatched chain fail typed
    /// at open instead of at the next encode.
    fn frontier_snapshot(&self) -> Vec<u8> {
        let enc = self.enc.lock();
        SnapshotWriter::new(1)
            .u64(enc.written)
            .u8(enc.sealed as u8)
            .u64(self.block_size as u64)
            .finish()
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        let (written, sealed) = self.parse_frontier(snapshot)?;
        let fetch = |id: BlockId| source.fetch(id).ok_or(AeError::FrontierBlockMissing { id });
        // A sealed chain never encodes again; an unsealed one needs its
        // frontier parity, and a closed ring additionally d_1 to tangle
        // the closing parity at seal time.
        let mut state = ChainEncoderState {
            written,
            sealed,
            ..ChainEncoderState::default()
        };
        if written > 0 && !sealed {
            state.last_parity = Some(fetch(parity_id(written))?);
            if self.mode == ChainMode::Closed {
                state.first_data = Some(fetch(BlockId::Data(NodeId(1)))?);
            }
        }
        *self.enc.lock() = state;
        Ok(())
    }

    fn frontier_reads(&self, snapshot: &[u8]) -> Vec<BlockId> {
        match self.parse_frontier(snapshot) {
            Ok((written, false)) if written > 0 => {
                let mut ids = vec![parity_id(written)];
                if self.mode == ChainMode::Closed {
                    ids.push(BlockId::Data(NodeId(1)));
                }
                ids
            }
            _ => Vec::new(),
        }
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let n = data_blocks;
        let ring = self.ring(n);
        let zero = || Block::zero(self.block_size);
        let get = |q: BlockId| source.fetch(q);
        // Collect the unavailable member(s) of every failed option so the
        // worklist planner can subscribe to them.
        let mut missing: Vec<BlockId> = Vec::new();
        let mut need = |q: BlockId, found: &Option<Block>| {
            if found.is_none() && !missing.contains(&q) {
                missing.push(q);
            }
        };
        match id {
            BlockId::Data(NodeId(i)) if (1..=n).contains(&i) => {
                // d_i = p_{i-1} ⊕ p_i  (p_0 = 0).
                let left = if i == 1 {
                    Some(zero())
                } else {
                    get(parity_id(i - 1))
                };
                let right = get(parity_id(i));
                if i > 1 {
                    need(parity_id(i - 1), &left);
                }
                need(parity_id(i), &right);
                if let (Some(l), Some(r)) = (left, right) {
                    return Ok(l.xor(&r).expect("sizes match"));
                }
                // The closed ring gives d_1 a second tuple: p_n ⊕ p_{n+1}.
                if ring && i == 1 {
                    let pn = get(parity_id(n));
                    let pc = get(parity_id(n + 1));
                    need(parity_id(n), &pn);
                    need(parity_id(n + 1), &pc);
                    if let (Some(pn), Some(pc)) = (pn, pc) {
                        return Ok(pn.xor(&pc).expect("sizes match"));
                    }
                }
            }
            BlockId::Data(NodeId(i)) if i > n => {
                return Err(RepairError::OutOfExtent { id, written: n });
            }
            BlockId::Parity(EdgeId {
                class: StrandClass::Horizontal,
                left: NodeId(i),
            }) if (1..=n).contains(&i) || (ring && i == n + 1) => {
                // Left dp-tuple: p_i = d_i ⊕ p_{i-1} (the closing parity's
                // "own" data block is d_1).
                let own = if i == n + 1 {
                    BlockId::Data(NodeId(1))
                } else {
                    BlockId::Data(NodeId(i))
                };
                let d = get(own);
                let prev = if i == 1 {
                    Some(zero())
                } else {
                    get(parity_id(i - 1))
                };
                need(own, &d);
                if i > 1 {
                    need(parity_id(i - 1), &prev);
                }
                if let (Some(d), Some(prev)) = (d, prev) {
                    return Ok(d.xor(&prev).expect("sizes match"));
                }
                // Right dp-tuple: p_i = d_{i+1} ⊕ p_{i+1}, where the ring
                // makes d_1/p_{n+1} the right neighbours of p_n.
                let (next_data, next_parity) = if i < n {
                    (Some(BlockId::Data(NodeId(i + 1))), Some(parity_id(i + 1)))
                } else if i == n && ring {
                    (Some(BlockId::Data(NodeId(1))), Some(parity_id(n + 1)))
                } else {
                    (None, None)
                };
                if let (Some(nd), Some(np)) = (next_data, next_parity) {
                    let d = get(nd);
                    let p = get(np);
                    need(nd, &d);
                    need(np, &p);
                    if let (Some(d), Some(p)) = (d, p) {
                        return Ok(d.xor(&p).expect("sizes match"));
                    }
                }
            }
            other => return Err(RepairError::ForeignBlock { id: other }),
        }
        Err(RepairError::NoCompleteTuple {
            target: id,
            missing,
        })
    }

    fn block_ids(&self, data_blocks: u64) -> Vec<BlockId> {
        let closing = self.ring(data_blocks);
        let mut out = Vec::with_capacity(data_blocks as usize * 2 + closing as usize);
        for i in 1..=data_blocks {
            out.push(BlockId::Data(NodeId(i)));
            out.push(parity_id(i));
        }
        if closing {
            out.push(parity_id(data_blocks + 1));
        }
        out
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        let n = data_blocks;
        let ring = self.ring(n);
        match id {
            BlockId::Data(NodeId(i)) if (1..=n).contains(&i) => {
                ((i == 1 || avail(parity_id(i - 1))) && avail(parity_id(i)))
                    || (ring && i == 1 && avail(parity_id(n)) && avail(parity_id(n + 1)))
            }
            BlockId::Parity(EdgeId {
                class: StrandClass::Horizontal,
                left: NodeId(i),
            }) if (1..=n).contains(&i) || (ring && i == n + 1) => {
                let own = if i == n + 1 { NodeId(1) } else { NodeId(i) };
                if avail(BlockId::Data(own)) && (i == 1 || avail(parity_id(i - 1))) {
                    return true;
                }
                if i < n {
                    avail(BlockId::Data(NodeId(i + 1))) && avail(parity_id(i + 1))
                } else if i == n && ring {
                    avail(BlockId::Data(NodeId(1))) && avail(parity_id(n + 1))
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn maintenance_targets(&self, missing_data: &[BlockId], data_blocks: u64) -> Vec<BlockId> {
        // The parities of a missing data block's pp-tuple(s): its input and
        // output parity, plus the ring pair for d_1 on a closed chain.
        let mut out = Vec::new();
        for id in missing_data {
            let BlockId::Data(NodeId(i)) = *id else {
                continue;
            };
            if i > 1 {
                out.push(parity_id(i - 1));
            }
            if i <= data_blocks {
                out.push(parity_id(i));
            }
            if self.ring(data_blocks) && i == 1 {
                out.push(parity_id(data_blocks));
                out.push(parity_id(data_blocks + 1));
            }
        }
        out
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        data_blocks * 2 + self.ring(data_blocks) as u64
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        // block_ids order: d_1, p_1, d_2, p_2, …, d_n, p_n (, p_{n+1}).
        let n = data_blocks;
        let idx = match *id {
            BlockId::Data(NodeId(i)) if (1..=n).contains(&i) => (i - 1) * 2,
            BlockId::Parity(EdgeId {
                class: StrandClass::Horizontal,
                left: NodeId(i),
            }) if (1..=n).contains(&i) => (i - 1) * 2 + 1,
            BlockId::Parity(EdgeId {
                class: StrandClass::Horizontal,
                left: NodeId(i),
            }) if self.ring(n) && i == n + 1 => n * 2,
            _ => return None,
        };
        u32::try_from(idx).ok()
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        let n = data_blocks;
        let k = u64::from(k);
        if self.ring(n) && k == n * 2 {
            return Some(parity_id(n + 1));
        }
        let i = k / 2 + 1;
        if i > n {
            return None;
        }
        Some(if k % 2 == 0 {
            BlockId::Data(NodeId(i))
        } else {
            parity_id(i)
        })
    }

    fn supports_dense_index(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_api::BlockMap;

    fn data(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn payload(n: usize) -> Vec<Block> {
        (0..n)
            .map(|k| Block::from_vec((0..16).map(|b| ((k * 13 + b) % 251) as u8).collect()))
            .collect()
    }

    fn encoded(mode: ChainMode, n: usize) -> (EntangledChain, BlockMap, Vec<Block>) {
        let chain = EntangledChain::new(mode, 16);
        let store = BlockMap::new();
        let blocks = payload(n);
        chain.encode_batch(&blocks, &store).unwrap();
        chain.seal(&store).unwrap();
        (chain, store, blocks)
    }

    #[test]
    fn chain_identity_holds() {
        let (_, store, blocks) = encoded(ChainMode::Open, 10);
        // p_i = d_i ⊕ p_{i-1}, so p_1 = d_1 and p_i chains forward.
        assert_eq!(store.get(&parity_id(1)).unwrap(), blocks[0]);
        let p2 = blocks[1].xor(&store.get(&parity_id(1)).unwrap()).unwrap();
        assert_eq!(store.get(&parity_id(2)).unwrap(), p2);
    }

    #[test]
    fn closed_seal_emits_ring_parity() {
        let (chain, store, blocks) = encoded(ChainMode::Closed, 10);
        assert!(chain.is_sealed());
        let closing = store.get(&parity_id(11)).expect("closing parity");
        assert_eq!(
            closing,
            blocks[0].xor(&store.get(&parity_id(10)).unwrap()).unwrap()
        );
        // Universe includes it, at the last dense position.
        assert_eq!(chain.universe_len(10), 21);
        assert_eq!(chain.dense_index(&parity_id(11), 10), Some(20));
        assert_eq!(chain.block_at(20, 10), Some(parity_id(11)));
    }

    #[test]
    fn bijection_matches_enumeration_both_modes() {
        for mode in [ChainMode::Open, ChainMode::Closed] {
            let chain = EntangledChain::new(mode, 0);
            for n in [1u64, 7, 40] {
                let ids = chain.block_ids(n);
                assert_eq!(chain.universe_len(n), ids.len() as u64, "{mode} n={n}");
                for (k, id) in ids.iter().enumerate() {
                    assert_eq!(chain.dense_index(id, n), Some(k as u32), "{mode} {id}");
                    assert_eq!(chain.block_at(k as u32, n), Some(*id), "{mode} {k}");
                }
                assert_eq!(chain.block_at(ids.len() as u32, n), None);
                // Foreign and out-of-universe ids.
                assert_eq!(chain.dense_index(&data(n + 1), n), None);
                let helical = BlockId::Parity(EdgeId::new(StrandClass::RightHanded, NodeId(1)));
                assert_eq!(chain.dense_index(&helical, n), None);
            }
        }
    }

    #[test]
    fn open_extremity_is_dead_closed_survives() {
        for (mode, survives) in [(ChainMode::Open, false), (ChainMode::Closed, true)] {
            let (chain, store, blocks) = encoded(mode, 10);
            store.remove(&data(10));
            store.remove(&parity_id(10));
            let summary = chain.repair_missing(&store, &[data(10), parity_id(10)], 10);
            assert_eq!(summary.fully_recovered(), survives, "{mode}");
            if survives {
                assert_eq!(store.get(&data(10)).unwrap(), blocks[9]);
            }
        }
    }

    #[test]
    fn extremity_warning_and_cost_are_typed() {
        let open = EntangledChain::new(ChainMode::Open, 16);
        let warn = open.extremity_warning(10).expect("open chains warn");
        assert_eq!(warn.exposed, vec![data(10), parity_id(10)]);
        assert!(warn.to_string().contains("dead pattern"));
        assert_eq!(open.repair_cost().extremity_exposed, 2);
        assert_eq!(open.repair_cost().single_failure_reads, 2);

        let closed = EntangledChain::new(ChainMode::Closed, 16);
        assert!(closed.extremity_warning(10).is_none());
        assert_eq!(closed.repair_cost().extremity_exposed, 0);
    }

    #[test]
    fn repair_errors_name_missing_members() {
        let chain = EntangledChain::new(ChainMode::Open, 16);
        let err = chain
            .repair_block(&BlockMap::new(), data(5), 10)
            .unwrap_err();
        assert_eq!(err.missing_blocks(), &[parity_id(4), parity_id(5)]);
        let err = chain
            .repair_block(&BlockMap::new(), parity_id(5), 10)
            .unwrap_err();
        assert!(err.missing_blocks().contains(&data(5)));
        assert!(err.missing_blocks().contains(&data(6)));
        assert!(matches!(
            chain.repair_block(&BlockMap::new(), data(11), 10),
            Err(RepairError::OutOfExtent { written: 10, .. })
        ));
        let foreign = BlockId::Shard(ae_blocks::ShardId {
            stripe: 0,
            index: 0,
        });
        assert!(matches!(
            chain.repair_block(&BlockMap::new(), foreign, 10),
            Err(RepairError::ForeignBlock { .. })
        ));
    }

    #[test]
    fn frontier_restores_mid_stream_and_sealed_chains() {
        for mode in [ChainMode::Open, ChainMode::Closed] {
            // Mid-stream: restored chains keep chaining bit-identically.
            let chain = EntangledChain::new(mode, 16);
            let store = BlockMap::new();
            chain.encode_batch(&payload(6), &store).unwrap();
            let resumed = EntangledChain::new(mode, 16);
            resumed
                .restore_frontier(&chain.frontier_snapshot(), &store)
                .unwrap();
            assert_eq!(resumed.data_written(), 6, "{mode}");
            let (a, b) = (BlockMap::new(), BlockMap::new());
            let more = payload(9).split_off(6);
            chain.encode_batch(&more, &a).unwrap();
            resumed.encode_batch(&more, &b).unwrap();
            chain.seal(&a).unwrap();
            resumed.seal(&b).unwrap();
            assert_eq!(a, b, "{mode}: continuation + closing parity agree");

            // Sealed: restore needs nothing from the backend and re-seal
            // stays a no-op (no duplicate closing parity).
            let sealed = EntangledChain::new(mode, 16);
            sealed
                .restore_frontier(&resumed.frontier_snapshot(), &BlockMap::new())
                .unwrap();
            assert!(sealed.is_sealed(), "{mode}");
            assert_eq!(sealed.seal(&BlockMap::new()).unwrap(), Vec::new());

            // Losing the frontier parity is a typed, named failure.
            store.remove(&parity_id(6));
            let broken = EntangledChain::new(mode, 16);
            assert!(matches!(
                broken.restore_frontier(&chain_snapshot_at(6), &store),
                Err(AeError::FrontierBlockMissing { id }) if id == parity_id(6)
            ));
        }
    }

    /// An unsealed version-1 snapshot at `written` 16-byte blocks.
    fn chain_snapshot_at(written: u64) -> Vec<u8> {
        ae_api::SnapshotWriter::new(1)
            .u64(written)
            .u8(0)
            .u64(16)
            .finish()
    }

    #[test]
    fn stored_ids_track_seal_state() {
        let chain = EntangledChain::new(ChainMode::Closed, 16);
        let store = BlockMap::new();
        chain.encode_batch(&payload(4), &store).unwrap();
        assert_eq!(chain.stored_ids().len(), 8, "no closing parity yet");
        chain.seal(&store).unwrap();
        assert_eq!(chain.stored_ids().len(), 9);
        assert_eq!(chain.stored_ids(), chain.block_ids(4));
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn encode_after_seal_panics() {
        let (chain, store, _) = encoded(ChainMode::Closed, 4);
        chain.encode_batch(&payload(1), &store).unwrap();
    }
}
