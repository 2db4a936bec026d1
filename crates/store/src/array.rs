//! Use case B: entangled mirror disk arrays (§IV.B.1).
//!
//! Simple entanglements (α = 1) over a disk array with equal numbers of
//! data and parity drives — the space overhead of mirroring, but far better
//! reliability (the earlier work reports 90–98% lower 5-year data-loss
//! probability). Two layouts:
//!
//! * **Full partition** — blocks are written sequentially per drive; most
//!   drives stay idle and can be powered off (MAID-style).
//! * **Block-level striping** — blocks round-robin over all drives for
//!   throughput.
//!
//! And two chain shapes ([`ChainMode`]): open (the tail parity has a single
//! repair tuple, surfaced as a typed [`crate::chain::ExtremityWarning`])
//! and closed (the ring removes the extremity weakness).
//!
//! The chain logic itself — encoding, repair tuples, the dense
//! `dense_index`/`block_at` bijection — lives in
//! [`crate::chain::EntangledChain`], a first-class
//! [`ae_api::RedundancyScheme`]; [`EntangledArray`] is a thin wrapper
//! adding drive topology (layout, drive failures) on top. Drive-failure
//! scenarios therefore run through the exact same generic repair planners
//! and availability plane as every other scheme.

use crate::chain::EntangledChain;
use crate::store::{MemStore, StoreError};
use ae_api::RedundancyScheme;
use ae_blocks::{Block, BlockId, EdgeId, NodeId};

pub use crate::chain::{ChainMode, ExtremityWarning};

/// Physical drive index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DriveId(pub u32);

/// Data layout across drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Fill one drive before moving to the next (`blocks_per_drive` each).
    FullPartition {
        /// Capacity of each drive in blocks.
        blocks_per_drive: u64,
    },
    /// Round-robin striping over all drives.
    Striping,
}

/// An entangled mirror array: `drives` data drives plus `drives` parity
/// drives, α = 1 entanglement between them — a drive topology over the
/// [`EntangledChain`] scheme.
pub struct EntangledArray {
    drives: u32,
    layout: Layout,
    chain: EntangledChain,
    store: MemStore,
    failed_drives: std::collections::HashSet<DriveId>,
}

impl EntangledArray {
    /// Creates an array with `drives` data drives (and as many parity
    /// drives).
    ///
    /// # Panics
    ///
    /// Panics for zero drives or zero block size.
    pub fn new(drives: u32, layout: Layout, mode: ChainMode, block_size: usize) -> Self {
        assert!(drives > 0, "an array needs at least one data drive");
        assert!(block_size > 0, "blocks must be non-empty");
        EntangledArray {
            drives,
            layout,
            chain: EntangledChain::new(mode, block_size),
            store: MemStore::new(),
            failed_drives: std::collections::HashSet::new(),
        }
    }

    /// Number of data drives (the parity tier has the same count, giving
    /// mirroring's 100% space overhead).
    pub fn drives(&self) -> u32 {
        self.drives
    }

    /// Blocks written so far.
    pub fn written(&self) -> u64 {
        self.chain.data_written()
    }

    /// The underlying chain scheme (drive-failure scenarios can run it
    /// through the generic `SchemePlane` and repair planners directly).
    pub fn scheme(&self) -> &EntangledChain {
        &self.chain
    }

    /// The typed §IV.B.1 warning for open chains: the tail pair has a
    /// single repair tuple. `None` for closed chains (and empty arrays).
    pub fn extremity_warning(&self) -> Option<ExtremityWarning> {
        self.chain.extremity_warning(self.written())
    }

    /// Data drive holding data block `i` (1-based lattice position).
    pub fn data_drive_of(&self, i: u64) -> DriveId {
        match self.layout {
            Layout::FullPartition { blocks_per_drive } => {
                DriveId((((i - 1) / blocks_per_drive) % self.drives as u64) as u32)
            }
            Layout::Striping => DriveId(((i - 1) % self.drives as u64) as u32),
        }
    }

    /// Parity drive holding parity `p_{i,i+1}`; parity drives are numbered
    /// after the data drives.
    pub fn parity_drive_of(&self, i: u64) -> DriveId {
        let d = self.data_drive_of(i);
        DriveId(self.drives + d.0)
    }

    /// Drive holding any block.
    pub fn drive_of(&self, id: BlockId) -> DriveId {
        match id {
            BlockId::Data(NodeId(i)) => self.data_drive_of(i),
            BlockId::Parity(e) => self.parity_drive_of(e.left.0),
            other => panic!("{other} is not an entangled-array block"),
        }
    }

    /// Appends a data block to the array, entangling it into the chain.
    ///
    /// # Panics
    ///
    /// Panics after [`Self::seal`] (the array is append-only and a closed
    /// chain cannot grow) or on a block-size mismatch.
    pub fn write(&mut self, data: Block) -> u64 {
        assert!(!self.chain.is_sealed(), "array is sealed");
        assert_eq!(data.len(), self.chain.block_size(), "block size mismatch");
        self.chain
            .encode_batch(std::slice::from_ref(&data), &self.store)
            .expect("size asserted above");
        self.written()
    }

    /// Seals the array. In closed mode this tangles the chain through the
    /// first data block once more, storing the closing parity
    /// `p_close = d_1 XOR p_{n,n+1}` under the edge id `(H, n+1)`.
    pub fn seal(&mut self) {
        self.chain.seal(&self.store).expect("sealing never fails");
    }

    /// Ids of every block the array holds when healthy.
    pub fn all_blocks(&self) -> Vec<BlockId> {
        self.chain.stored_ids()
    }

    /// Drops a single block, simulating an unreadable sector (as opposed to
    /// a whole-drive failure). The block becomes a repair target for
    /// [`Self::rebuild`].
    pub fn remove_block(&mut self, id: BlockId) -> bool {
        self.store.remove(id)
    }

    /// Marks a drive failed: its blocks become unreadable (contents are
    /// dropped, as a real drive replacement would).
    pub fn fail_drive(&mut self, drive: DriveId) {
        self.failed_drives.insert(drive);
        for id in self.all_blocks() {
            if self.effective_drive(id) == drive {
                self.store.remove(id);
            }
        }
    }

    /// Reads a block, if its drive is healthy and the block is intact.
    pub fn get(&self, id: BlockId) -> Result<Block, StoreError> {
        if self.failed_drives.contains(&self.effective_drive(id)) {
            return Err(StoreError::NotFound(id));
        }
        self.store.get(id)
    }

    /// Rebuilds every missing block (e.g. after [`Self::fail_drive`] and a
    /// drive replacement) from the chain, through the scheme's generic
    /// round-based [`RedundancyScheme::repair_missing`] planner. Returns
    /// the ids that remain unrecoverable.
    pub fn rebuild(&mut self) -> Vec<BlockId> {
        self.failed_drives.clear();
        let targets: Vec<BlockId> = self
            .all_blocks()
            .into_iter()
            .filter(|&id| !self.store.contains(id))
            .collect();
        self.chain
            .repair_missing(&self.store, &targets, self.written())
            .unrecovered
    }

    fn effective_drive(&self, id: BlockId) -> DriveId {
        // The closing parity lives with the last regular parity's drive.
        if let BlockId::Parity(EdgeId {
            left: NodeId(i), ..
        }) = id
        {
            if i == self.written() + 1 {
                return self.parity_drive_of(self.written().max(1));
            }
        }
        self.drive_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass;

    fn parity_id(i: u64) -> BlockId {
        BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(i)))
    }

    fn filled(
        drives: u32,
        layout: Layout,
        mode: ChainMode,
        blocks: u64,
    ) -> (EntangledArray, Vec<Block>) {
        let mut arr = EntangledArray::new(drives, layout, mode, 16);
        let data: Vec<Block> = (0..blocks)
            .map(|k| {
                Block::from_vec(
                    (0..16)
                        .map(|b| (k as u8).wrapping_mul(13).wrapping_add(b))
                        .collect(),
                )
            })
            .collect();
        for d in &data {
            arr.write(d.clone());
        }
        arr.seal();
        (arr, data)
    }

    #[test]
    fn striping_spreads_consecutive_blocks() {
        let (arr, _) = filled(4, Layout::Striping, ChainMode::Open, 40);
        assert_eq!(arr.data_drive_of(1), DriveId(0));
        assert_eq!(arr.data_drive_of(2), DriveId(1));
        assert_eq!(arr.data_drive_of(5), DriveId(0));
        assert_eq!(arr.parity_drive_of(1), DriveId(4));
    }

    #[test]
    fn full_partition_fills_drives_in_order() {
        let (arr, _) = filled(
            4,
            Layout::FullPartition {
                blocks_per_drive: 10,
            },
            ChainMode::Open,
            40,
        );
        assert_eq!(arr.data_drive_of(1), DriveId(0));
        assert_eq!(arr.data_drive_of(10), DriveId(0));
        assert_eq!(arr.data_drive_of(11), DriveId(1));
        assert_eq!(arr.data_drive_of(40), DriveId(3));
    }

    #[test]
    fn single_drive_failure_rebuilds_fully() {
        for layout in [
            Layout::Striping,
            Layout::FullPartition {
                blocks_per_drive: 10,
            },
        ] {
            for mode in [ChainMode::Open, ChainMode::Closed] {
                let (mut arr, data) = filled(4, layout, mode, 40);
                arr.fail_drive(DriveId(1)); // a data drive
                let unrecovered = arr.rebuild();
                assert!(
                    unrecovered.is_empty(),
                    "{layout:?} {mode:?}: {unrecovered:?}"
                );
                for (k, d) in data.iter().enumerate() {
                    assert_eq!(&arr.get(BlockId::Data(NodeId(k as u64 + 1))).unwrap(), d);
                }
            }
        }
    }

    #[test]
    fn parity_drive_failure_rebuilds_fully() {
        let (mut arr, _) = filled(4, Layout::Striping, ChainMode::Closed, 40);
        arr.fail_drive(DriveId(6)); // a parity drive
        assert!(arr.rebuild().is_empty());
    }

    /// The open chain's extremity weakness: losing the last data block and
    /// its (only) parity tuple is fatal; the closed ring survives it.
    #[test]
    fn closed_chain_fixes_the_extremity() {
        // Open: {d_n, p_n} is a dead pair (p_n has no right tuple).
        let (mut open, _) = filled(2, Layout::Striping, ChainMode::Open, 10);
        open.store.remove(BlockId::Data(NodeId(10)));
        open.store.remove(parity_id(10));
        let unrecovered = open.rebuild();
        assert_eq!(unrecovered.len(), 2, "open chain loses the tail");
        // The weakness is announced, not silent: the typed warning names
        // exactly the pair that died.
        let warn = open.extremity_warning().expect("open chains warn");
        assert_eq!(warn.exposed, unrecovered);

        // Closed: p_n repairs through the ring (d_1, p_close), then d_n.
        let (mut closed, data) = filled(2, Layout::Striping, ChainMode::Closed, 10);
        closed.store.remove(BlockId::Data(NodeId(10)));
        closed.store.remove(parity_id(10));
        assert!(closed.rebuild().is_empty(), "closed chain survives");
        assert_eq!(closed.get(BlockId::Data(NodeId(10))).unwrap(), data[9]);
        assert!(closed.extremity_warning().is_none());
    }

    /// The ring also protects the head: d_1 gains a second repair tuple.
    #[test]
    fn closed_chain_gives_head_two_tuples() {
        let (mut arr, data) = filled(2, Layout::Striping, ChainMode::Closed, 10);
        // Remove d_1 and its first parity: the open-chain tuple is gone.
        arr.store.remove(BlockId::Data(NodeId(1)));
        arr.store.remove(parity_id(1));
        let unrecovered = arr.rebuild();
        assert!(unrecovered.is_empty(), "{unrecovered:?}");
        assert_eq!(arr.get(BlockId::Data(NodeId(1))).unwrap(), data[0]);
    }

    #[test]
    fn adjacent_node_pair_with_shared_edge_is_fatal() {
        // Fig 6 primitive form I holds for arrays too: d_i, d_{i+1} and the
        // shared parity p_i form a dead triple.
        let (mut arr, _) = filled(2, Layout::Striping, ChainMode::Closed, 20);
        arr.store.remove(BlockId::Data(NodeId(5)));
        arr.store.remove(BlockId::Data(NodeId(6)));
        arr.store.remove(parity_id(5));
        assert_eq!(arr.rebuild().len(), 3);
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn writes_after_seal_rejected() {
        let (mut arr, _) = filled(2, Layout::Striping, ChainMode::Closed, 4);
        arr.write(Block::zero(16));
    }

    #[test]
    fn mirror_equivalent_space_overhead() {
        // Equal numbers of data and parity drives: one parity per data
        // block, like mirroring.
        let (arr, _) = filled(3, Layout::Striping, ChainMode::Open, 30);
        let blocks = arr.all_blocks();
        let data = blocks.iter().filter(|b| b.is_data()).count();
        let parity = blocks.iter().filter(|b| b.is_parity()).count();
        assert_eq!(data, parity);
    }

    /// The scheme-driven rebuild must agree, block for block, with the
    /// legacy direct-decoder fixpoint loop the array used to carry.
    #[test]
    fn scheme_rebuild_matches_legacy_fixpoint() {
        /// The pre-refactor repair logic, kept verbatim as a test oracle.
        fn legacy_try_repair(arr: &EntangledArray, id: BlockId) -> Option<Block> {
            let n = arr.written();
            let closing = arr.chain.is_sealed() && arr.chain.mode() == ChainMode::Closed;
            let bs = arr.chain.block_size();
            let get = |q: BlockId| arr.store.get(q).ok();
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

        fn legacy_rebuild(arr: &mut EntangledArray) -> Vec<BlockId> {
            arr.failed_drives.clear();
            let mut missing: Vec<BlockId> = arr
                .all_blocks()
                .into_iter()
                .filter(|&id| !arr.store.contains(id))
                .collect();
            loop {
                let mut progressed = false;
                let mut still = Vec::new();
                for &id in &missing {
                    match legacy_try_repair(arr, id) {
                        Some(b) => {
                            arr.store.put(id, b);
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
                    let (arr, _) = filled(4, Layout::Striping, mode, 30);
                    // Pseudo-random multi-failure pattern over the universe.
                    let mut state = pattern.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for id in arr.all_blocks() {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if (state >> 33) % 100 < 35 {
                            arr.store.remove(id);
                        }
                    }
                    arr
                };
                let mut scheme_arr = build();
                let mut legacy_arr = build();
                let mut via_scheme = scheme_arr.rebuild();
                let mut via_legacy = legacy_rebuild(&mut legacy_arr);
                via_scheme.sort();
                via_legacy.sort();
                assert_eq!(via_scheme, via_legacy, "{mode} pattern {pattern}");
                for id in scheme_arr.all_blocks() {
                    assert_eq!(
                        scheme_arr.store.get(id).ok(),
                        legacy_arr.store.get(id).ok(),
                        "{mode} pattern {pattern}: {id}"
                    );
                }
            }
        }
    }
}
