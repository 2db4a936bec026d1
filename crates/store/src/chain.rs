//! The α = 1 entanglement chain of §IV.B.1 as a first-class
//! [`RedundancyScheme`]: single entanglement AE(1,-,-) plus a ring.
//!
//! An entangled mirror array stores one parity per data block — the space
//! overhead of mirroring — where parity `p_i = d_i ⊕ p_{i-1}` chains every
//! block to its predecessors (`p_0` is the virtual zero block). That is the
//! lattice of [`Config::single`]: [`EntangledChain`] wraps an
//! [`ae_core::Code`] over it, which encodes, repairs, answers the
//! availability hooks and owns the O(1) `dense_index`/`block_at` bijection.
//!
//! * [`ChainMode::Open`] is AE(1,-,-) block for block. Its tail pair
//!   `{d_n, p_n}` has a single repair tuple, a dead pattern surfaced as a
//!   typed [`ExtremityWarning`] and as
//!   [`ae_api::RepairCost::extremity_exposed`], never silently.
//! * [`ChainMode::Closed`] tangles `d_1` in once more at seal, storing the
//!   closing parity `p_{n+1} = d_1 ⊕ p_n` at dense position `2n`. The ring
//!   gives `d_1`, `p_n` and `p_{n+1}` one tuple each after the lattice's
//!   own, and the extremity weakness disappears.
//!
//! The chain itself keeps the mode, the sealed flag (an encode after it
//! panics) and its version-1 frontier snapshot, which journal records
//! carry. It knows no drives: the §IV.B.1 mirror array is an
//! [`crate::Archive`] over this scheme whose backend is a
//! [`crate::TieredStore`] of two [`crate::DistributedStore`]s, the data
//! drives and the parity drives, each partitioned by
//! [`crate::Placement::Partition`] (striping at `run = 1`, full partition
//! at `run` = blocks per drive). A drive failure is a failed location, a
//! rebuild is the archive's `scrub`, and [`EntangledChain::extremity_warning`]
//! names what an open array cannot survive losing.

use ae_api::{
    AeError, BlockMap, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost,
    RepairError, SnapshotReader, SnapshotWriter,
};
use ae_blocks::{Block, BlockId, EdgeId, NodeId, StrandClass};
use ae_core::decoder::{self, Pair};
use ae_core::Code;
use ae_lattice::Config;
use parking_lot::Mutex;
use std::fmt;
use std::ops::ControlFlow;

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
        let ids: Vec<String> = self.exposed.iter().map(BlockId::to_string).collect();
        write!(
            f,
            "open-chain extremity has a single repair tuple: {} form a dead pattern \
             (close the chain to remove it)",
            ids.join(", ")
        )
    }
}

/// Horizontal-strand parity `p_i` (α = 1 uses only the horizontal class).
fn parity_id(i: u64) -> BlockId {
    BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(i)))
}

/// `d_1`, the block the ring closes through.
const FIRST_DATA: BlockId = BlockId::Data(NodeId(1));

/// The α = 1 open/closed entanglement chain scheme.
///
/// The availability plane treats a deployment of `data_blocks` blocks as a
/// sealed chain: closed mode's universe has `2·data_blocks + 1` positions
/// (the closing parity last), open mode `2·data_blocks`.
pub struct EntangledChain {
    mode: ChainMode,
    /// The open lattice, AE(1,-,-): every block but the closing parity.
    code: Code,
    /// What the chain adds, behind a lock so an instance can be shared
    /// (`Arc<dyn RedundancyScheme>`) like every other scheme.
    ring: Mutex<Ring>,
}

/// The chain's own state beside the code's encoder.
#[derive(Default)]
struct Ring {
    /// `Some(n)` once sealed at `n` data blocks: a sealed chain never
    /// encodes again, so a sealed restore keeps its extent here and
    /// fetches nothing.
    sealed: Option<u64>,
    /// `d_1`, kept by an unsealed closed chain so sealing can close the
    /// ring without reading the store back.
    first_data: Option<Block>,
}

impl EntangledChain {
    /// Creates a chain encoding `block_size`-byte blocks (0 is allowed for
    /// availability-plane use, where no bytes ever flow).
    pub fn new(mode: ChainMode, block_size: usize) -> Self {
        let code = Code::new(Config::single(), block_size);
        let ring = Mutex::default();
        EntangledChain { mode, code, ring }
    }

    /// The chain shape.
    pub fn mode(&self) -> ChainMode {
        self.mode
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.code.block_size()
    }

    /// Whether [`RedundancyScheme::seal`] has been called.
    pub fn is_sealed(&self) -> bool {
        self.ring.lock().sealed.is_some()
    }

    /// The typed §IV.B.1 extremity warning for a chain of `data_blocks`
    /// blocks: `Some` for a non-empty open chain (the tail pair has a
    /// single repair tuple), `None` once the chain is closed.
    pub fn extremity_warning(&self, data_blocks: u64) -> Option<ExtremityWarning> {
        (self.mode == ChainMode::Open && data_blocks > 0).then(|| ExtremityWarning {
            exposed: vec![BlockId::Data(NodeId(data_blocks)), parity_id(data_blocks)],
        })
    }

    /// The closing parity `p_{n+1}` of a closed ring at extent `n` (none
    /// at an extent no lattice reaches: a hostile snapshot's).
    fn closing(&self, n: u64) -> Option<BlockId> {
        let closed = self.mode == ChainMode::Closed && n > 0;
        n.checked_add(1).filter(|_| closed).map(parity_id)
    }

    /// Calls `visit` with the repair tuples of `id` at extent `n` until it
    /// breaks: the open lattice's, then the ring's — `d_1 = p_n ⊕ p_{n+1}`,
    /// `p_n = d_1 ⊕ p_{n+1}`, and `p_{n+1} = d_1 ⊕ p_n`, the closing
    /// parity's only one (the open lattice refuses it as out of extent).
    fn tuples<B>(
        &self,
        id: BlockId,
        n: u64,
        mut visit: impl FnMut(Pair) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, RepairError> {
        let open = decoder::tuples(self.code.config(), id, n, &mut visit);
        let Some(c) = self.closing(n) else {
            return open;
        };
        if let Ok(ControlFlow::Break(_)) = open {
            return open;
        }
        let pn = parity_id(n);
        let ring = match id {
            _ if id == FIRST_DATA => [pn, c],
            _ if id == pn => [FIRST_DATA, c],
            _ if id == c => [FIRST_DATA, pn],
            _ => return open,
        };
        Ok(visit(ring.map(Some)))
    }

    /// AE(1,-,-)'s own version-1 snapshot at `written` blocks:
    /// `[counter u64, block_size u64]`.
    fn code_snapshot(&self, written: u64) -> Vec<u8> {
        let block_size = self.block_size() as u64;
        SnapshotWriter::new(1).u64(written).u64(block_size).finish()
    }

    /// Parses and validates a frontier snapshot: `(written, sealed)`.
    fn parse_frontier(&self, snapshot: &[u8]) -> Result<(u64, bool), AeError> {
        let name = self.scheme_name();
        let mut r = SnapshotReader::new(snapshot, 1, &name)?;
        let (written, sealed, block_size) = (r.u64()?, r.u8()?, r.u64()?);
        r.finish()?;
        // The lattice's arithmetic is `i64` (see `Code`'s own parser): a
        // sealed extent this large would reach it unchecked.
        let detail = if sealed > 1 {
            format!("{name}: sealed flag is {sealed}")
        } else if written > i64::MAX as u64 / 2 {
            format!("{name}: write counter {written} is past any lattice")
        } else if block_size != self.block_size() as u64 {
            let ours = self.block_size();
            format!("{name}: snapshot encodes {block_size}-byte blocks, this chain {ours}")
        } else {
            return Ok((written, sealed == 1));
        };
        Err(AeError::CorruptFrontier { detail })
    }
}

impl RedundancyScheme for EntangledChain {
    fn scheme_name(&self) -> String {
        format!("chain({})", self.mode)
    }

    fn data_written(&self) -> u64 {
        let sealed = self.ring.lock().sealed;
        sealed.unwrap_or_else(|| self.code.written())
    }

    /// AE(1,-,-)'s cost — one XOR of two blocks per repair, mirroring's
    /// storage bill — and, open, the `{d_n, p_n}` dead pair.
    fn repair_cost(&self) -> RepairCost {
        let mut cost = self.code.repair_cost();
        cost.extremity_exposed = if self.mode == ChainMode::Open { 2 } else { 0 };
        cost
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        let mut ring = self.ring.lock();
        assert!(
            ring.sealed.is_none(),
            "chain is sealed (closed rings cannot grow)"
        );
        let report = self.code.encode_batch(blocks, sink)?;
        if self.mode == ChainMode::Closed && ring.first_data.is_none() {
            ring.first_data = blocks.first().cloned();
        }
        Ok(report)
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        let mut ring = self.ring.lock();
        if ring.sealed.is_some() {
            return Ok(Vec::new());
        }
        let n = self.code.written();
        ring.sealed = Some(n);
        let (Some(d1), Some(closing)) = (ring.first_data.take(), self.closing(n)) else {
            return Ok(Vec::new());
        };
        // Tangle d_1 in once more, on a copy of the encoder so the extent
        // stays n: p_{n+1} = d_1 ⊕ p_n.
        let tangled = BlockMap::new();
        self.code.clone().encode_batch(&[d1], &tangled)?;
        let block = tangled.get(&closing).expect("the tangle stores it");
        sink.store(closing, block);
        Ok(vec![closing])
    }

    /// Version 1: `[written u64, sealed u8, block_size u64]`. The
    /// frontier blocks — the last emitted parity and (for closing a ring)
    /// the first data block — already live on the backend, so restore
    /// refetches them; the block size makes a mismatched chain fail typed
    /// at open instead of at the next encode.
    fn frontier_snapshot(&self) -> Vec<u8> {
        SnapshotWriter::new(1)
            .u64(self.data_written())
            .u8(self.is_sealed() as u8)
            .u64(self.block_size() as u64)
            .finish()
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        let (written, sealed) = self.parse_frontier(snapshot)?;
        let mut ring = Ring {
            sealed: sealed.then_some(written),
            first_data: None,
        };
        if !sealed {
            // The code refetches its frontier parity; a closed ring also
            // needs d_1 to tangle the closing parity at seal time.
            self.code
                .restore_frontier(&self.code_snapshot(written), source)?;
            if self.closing(written).is_some() {
                let missing = AeError::FrontierBlockMissing { id: FIRST_DATA };
                ring.first_data = Some(source.fetch(FIRST_DATA).ok_or(missing)?);
            }
        }
        *self.ring.lock() = ring;
        Ok(())
    }

    fn frontier_reads(&self, snapshot: &[u8]) -> Vec<BlockId> {
        let Ok((written, false)) = self.parse_frontier(snapshot) else {
            return Vec::new();
        };
        let mut ids = self.code.frontier_reads(&self.code_snapshot(written));
        ids.extend(self.closing(written).map(|_| FIRST_DATA));
        ids
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let mut lookup = |q| source.fetch(q);
        decoder::repair(id, self.code.zero_block(), &mut lookup, |visit| {
            self.tuples(id, data_blocks, visit)
        })
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        let walk = self.tuples(id, data_blocks, |pair| decoder::complete(pair, avail));
        walk.is_ok_and(|walk| walk.is_break())
    }

    fn maintenance_targets(&self, missing_data: &[BlockId], data_blocks: u64) -> Vec<BlockId> {
        // The parities of each missing data block's tuples, the ring's too.
        let mut out = Vec::new();
        for &id in missing_data.iter().filter(|id| id.is_data()) {
            let _ = self.tuples(id, data_blocks, |pair| {
                out.extend(pair.into_iter().flatten());
                ControlFlow::<()>::Continue(())
            });
        }
        out
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        self.code.universe_len(data_blocks) + self.closing(data_blocks).is_some() as u64
    }

    /// The open lattice's positions, then the closing parity at `2n`.
    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        self.code.dense_index(id, data_blocks).or_else(|| {
            let last = u32::try_from(self.code.universe_len(data_blocks)).ok();
            last.filter(|_| self.closing(data_blocks) == Some(*id))
        })
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        self.code.block_at(k, data_blocks).or_else(|| {
            let last = u64::from(k) == self.code.universe_len(data_blocks);
            self.closing(data_blocks).filter(|_| last)
        })
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

    /// The bijection is the write order: what `encode_batch` reports
    /// over batches of 1, then 6, then the rest, and then what `seal`
    /// returns (a closed chain's closing parity), is `block_at` over the
    /// whole universe, each id at the position `dense_index` gives it.
    #[test]
    fn bijection_matches_enumeration_both_modes() {
        for mode in [ChainMode::Open, ChainMode::Closed] {
            for n in [1u64, 7, 40] {
                let chain = EntangledChain::new(mode, 16);
                let store = BlockMap::new();
                let blocks = payload(n as usize);
                let mut ids = Vec::new();
                for batch in [
                    &blocks[..1],
                    &blocks[1..n.min(7) as usize],
                    &blocks[n.min(7) as usize..],
                ] {
                    ids.extend(chain.encode_batch(batch, &store).unwrap().ids);
                }
                ids.extend(chain.seal(&store).unwrap());
                assert_eq!(ids, chain.block_ids(n), "{mode} n={n}");
                for (k, id) in ids.iter().enumerate() {
                    assert_eq!(chain.dense_index(id, n), Some(k as u32), "{mode} {id}");
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

            // A sealed extent past any lattice is refused, naming the chain.
            let huge = ae_api::SnapshotWriter::new(1)
                .u64(u64::MAX)
                .u8(1)
                .u64(16)
                .finish();
            let refused = EntangledChain::new(mode, 16).restore_frontier(&huge, &store);
            assert!(
                matches!(&refused, Err(AeError::CorruptFrontier { detail }) if detail.starts_with("chain(")),
                "{mode}: {refused:?}"
            );
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

    /// What a closed chain stores tracks its seal: the closing parity
    /// only after it, and then `block_ids` of the sealed extent.
    #[test]
    fn stored_ids_track_seal_state() {
        let chain = EntangledChain::new(ChainMode::Closed, 16);
        let store = BlockMap::new();
        chain.encode_batch(&payload(4), &store).unwrap();
        assert_eq!(store.len(), 8, "no closing parity yet");
        chain.seal(&store).unwrap();
        assert_eq!(store.len(), 9);
        assert!(chain.block_ids(4).iter().all(|id| store.contains_key(id)));
    }

    /// The scheme-driven rebuild must agree, block for block, with the
    /// direct-decoder fixpoint loop the mirror array used to carry.
    #[test]
    fn scheme_rebuild_matches_legacy_fixpoint() {
        /// The pre-refactor repair logic, kept verbatim as a test oracle.
        fn legacy_try_repair(
            chain: &EntangledChain,
            store: &BlockMap,
            id: BlockId,
        ) -> Option<Block> {
            let n = chain.data_written();
            let closing = chain.is_sealed() && chain.mode() == ChainMode::Closed;
            let bs = chain.block_size();
            let get = |q: BlockId| store.get(&q);
            match id {
                BlockId::Data(NodeId(i)) => {
                    if let Some(right) = get(parity_id(i)) {
                        let left = if i == 1 {
                            Some(Block::zero(bs))
                        } else {
                            get(parity_id(i - 1))
                        };
                        if let Some(left) = left {
                            return Some(left.xor(&right).expect("sizes match"));
                        }
                    }
                    if closing && i == 1 {
                        if let (Some(pn), Some(pc)) = (get(parity_id(n)), get(parity_id(n + 1))) {
                            return Some(pn.xor(&pc).expect("sizes match"));
                        }
                    }
                    None
                }
                BlockId::Parity(EdgeId {
                    left: NodeId(i), ..
                }) => {
                    let left_data = if i == n + 1 {
                        get(BlockId::Data(NodeId(1)))
                    } else {
                        get(BlockId::Data(NodeId(i)))
                    };
                    if let Some(d) = left_data {
                        let prev = if i == 1 {
                            Some(Block::zero(bs))
                        } else {
                            get(parity_id(i - 1))
                        };
                        if let Some(prev) = prev {
                            return Some(d.xor(&prev).expect("sizes match"));
                        }
                    }
                    let (nd, np) = if i < n {
                        (get(BlockId::Data(NodeId(i + 1))), get(parity_id(i + 1)))
                    } else if i == n && closing {
                        (get(BlockId::Data(NodeId(1))), get(parity_id(n + 1)))
                    } else {
                        (None, None)
                    };
                    if let (Some(d), Some(p)) = (nd, np) {
                        return Some(d.xor(&p).expect("sizes match"));
                    }
                    None
                }
                _ => None,
            }
        }

        fn legacy_rebuild(chain: &EntangledChain, store: &BlockMap) -> Vec<BlockId> {
            let mut missing: Vec<BlockId> = chain
                .block_ids(chain.data_written())
                .into_iter()
                .filter(|id| !store.contains_key(id))
                .collect();
            loop {
                let mut progressed = false;
                let mut still = Vec::new();
                for &id in &missing {
                    match legacy_try_repair(chain, store, id) {
                        Some(b) => {
                            store.insert(id, b);
                            progressed = true;
                        }
                        None => still.push(id),
                    }
                }
                missing = still;
                if missing.is_empty() || !progressed {
                    return missing;
                }
            }
        }

        // A deterministic sweep of damage patterns, both chain modes.
        for mode in [ChainMode::Open, ChainMode::Closed] {
            for pattern in 0u64..32 {
                let build = || {
                    let (chain, store, _) = encoded(mode, 30);
                    // Pseudo-random multi-failure pattern over the universe.
                    let mut state = pattern.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for id in chain.block_ids(30) {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if (state >> 33) % 100 < 35 {
                            store.remove(&id);
                        }
                    }
                    (chain, store)
                };
                let (chain, scheme_store) = build();
                let (legacy_chain, legacy_store) = build();
                let targets: Vec<BlockId> = chain
                    .block_ids(30)
                    .into_iter()
                    .filter(|id| !scheme_store.contains_key(id))
                    .collect();
                let mut via_scheme = chain
                    .repair_missing(&scheme_store, &targets, 30)
                    .unrecovered;
                let mut via_legacy = legacy_rebuild(&legacy_chain, &legacy_store);
                via_scheme.sort();
                via_legacy.sort();
                assert_eq!(via_scheme, via_legacy, "{mode} pattern {pattern}");
                assert_eq!(scheme_store, legacy_store, "{mode} pattern {pattern}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn encode_after_seal_panics() {
        let (chain, store, _) = encoded(ChainMode::Closed, 4);
        chain.encode_batch(&payload(1), &store).unwrap();
    }
}
