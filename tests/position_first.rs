//! The invariant the journal format stands on.
//!
//! Format-3 `Put`/`Seal` records and checkpoints carry *counts*: the
//! `k`-th block an archive stored is `scheme.block_at(k, data)`. That
//! only works if, for every scheme the archive journals by position,
//! the blocks it reports storing are exactly the next positions — across
//! one-block files, empty files, partial and exact Reed-Solomon stripes,
//! stripes completed by a later put, and the seal's flush — and stay
//! where they were as the archive grows. So: for all 13 roster schemes
//! and proptest-drawn put sizes followed by `seal`, after **every** op
//!
//! * `stored_ids() == (0..stored).map(|k| block_at(k, data))`, and the
//!   backend holds exactly those scheme blocks;
//! * every record journaled so far is the count shape, and replaying them
//!   (`Archive::open` on a copy of the backend, checkpoint + suffix)
//!   yields the same list, manifest and data counter.
//!
//! A wrapper scheme covers the other side of the contract: one whose
//! `block_at` breaks the bijection mid-life. It gets no explicit id log —
//! there is none, since the trait requires the bijection of every scheme
//! — and instead panics the `put` that meets the lie, naming the
//! position, with nothing of it journaled.

use aecodes::api::{
    AeError, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost, RepairError,
};
use aecodes::blocks::{Block, BlockId};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::meta::{CheckpointPayload, MetaConfig, MetaRecord};
use aecodes::store::MemStore;
use proptest::prelude::*;
use std::sync::Arc;

const BLOCK: usize = 32;

/// Checkpoints every third record, in parts of 64 bytes: replay always
/// crosses a multi-part checkpoint and a suffix.
fn cadence() -> MetaConfig {
    MetaConfig {
        copies: 3,
        checkpoint_every: Some(3),
        segment_bytes: 64,
    }
}

fn contents(blocks: usize, ragged: bool, seed: usize) -> Vec<u8> {
    let len = (blocks * BLOCK).saturating_sub(usize::from(ragged) * 7);
    (0..len).map(|i| (i * 31 + seed * 7) as u8).collect()
}

fn copy_of(store: &MemStore) -> Arc<MemStore> {
    let copy = MemStore::new();
    for id in store.ids() {
        copy.put(id, store.get(id).expect("listed a moment ago"));
    }
    Arc::new(copy)
}

/// The journaled `Put`/`Seal` records and the checkpoint segments
/// `store` currently holds, decoded from copy 0.
fn journaled(store: &MemStore) -> (Vec<u32>, Vec<CheckpointPayload>) {
    let mut records: Vec<(u64, MetaRecord)> = store
        .ids()
        .into_iter()
        .filter_map(|id| match id {
            BlockId::Meta(meta) if meta.copy() == 0 && !meta.is_pointer() => {
                let bytes = store.get(id).expect("listed a moment ago");
                let record = MetaRecord::decode(meta.seq(), bytes.as_slice());
                Some((meta.seq(), record.expect("a live record decodes")))
            }
            _ => None,
        })
        .collect();
    records.sort_by_key(|(seq, _)| *seq);
    let mut counts = Vec::new();
    let mut segments = Vec::new();
    let mut payload = Vec::new();
    for (_, record) in records {
        match record {
            MetaRecord::Put { stored, .. } | MetaRecord::Seal { stored, .. } => counts.push(stored),
            MetaRecord::Checkpoint { part, parts, chunk } => {
                payload.extend_from_slice(&chunk);
                if part + 1 == parts {
                    segments.push(CheckpointPayload::decode(&payload).expect("live parts"));
                    payload.clear();
                }
            }
            _ => {}
        }
    }
    assert!(payload.is_empty(), "a live segment holds all its parts");
    (counts, segments)
}

/// Everything the invariant says about `ar` right now.
fn assert_positional(s: &Scheme, ar: &Archive<MemStore>, store: &Arc<MemStore>, op: &str) {
    let scheme = ar.scheme();
    let data = ar.blocks_written();
    let stored = ar.stored_ids().to_vec();
    let positions: Vec<BlockId> = (0..stored.len() as u32)
        .map(|k| scheme.block_at(k, data).expect("inside the universe"))
        .collect();
    assert_eq!(stored, positions, "{s} after {op}: ids are positions");
    assert!(
        stored.len() as u64 <= scheme.universe_len(data),
        "{s} after {op}"
    );
    let data_ids: Vec<BlockId> = stored.iter().copied().filter(|id| id.is_data()).collect();
    assert_eq!(
        ar.data_ids().collect::<Vec<_>>(),
        data_ids,
        "{s} after {op}"
    );

    let mut held: Vec<BlockId> = store.ids().into_iter().filter(|id| !id.is_meta()).collect();
    held.sort();
    let mut expected = stored.clone();
    expected.sort();
    assert_eq!(held, expected, "{s} after {op}: the backend holds them");

    // Every live record and segment decodes, and so journals a count.
    journaled(store);
    let reopened = Archive::open(Arc::from(s.build(BLOCK)), copy_of(store))
        .unwrap_or_else(|err| panic!("{s} after {op}: {err}"));
    assert_eq!(reopened.stored_ids(), stored, "{s} after {op}: replay");
    assert_eq!(reopened.blocks_written(), data, "{s} after {op}: replay");
    assert!(
        reopened.manifest().eq(ar.manifest()),
        "{s} after {op}: replay"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn stored_ids_are_positions_after_every_op(
        pick in 0usize..13,
        puts in proptest::collection::vec((0usize..9, any::<bool>()), 1..8),
    ) {
        // Empty file, one block, and counts that leave RS(4,12), RS(5,5),
        // RS(8,2) and RS(10,4) stripes partial, exactly full, and
        // completed by the next put.
        const BLOCKS: [usize; 9] = [0, 1, 1, 3, 4, 5, 8, 10, 13];
        let s = Scheme::extended_lineup()[pick];
        let store = Arc::new(MemStore::new());
        let scheme: Arc<dyn RedundancyScheme> = Arc::from(s.build(BLOCK));
        let mut ar = Archive::with_scheme_meta(scheme, BLOCK, Arc::clone(&store), cadence());
        assert_positional(&s, &ar, &store, "creation");
        for (n, &(size, ragged)) in puts.iter().enumerate() {
            let bytes = contents(BLOCKS[size], ragged, n);
            ar.put(&format!("f{n}"), &bytes).expect("fresh name");
            assert_positional(&s, &ar, &store, &format!("put {n} of {puts:?}"));
        }
        ar.seal().expect("seal");
        assert_positional(&s, &ar, &store, &format!("seal of {puts:?}"));
        prop_assert_eq!(
            ar.stored_ids().len() as u64,
            ar.scheme().universe_len(ar.blocks_written()),
            "{}: a sealed archive holds its whole universe", s
        );
        for (n, &(size, ragged)) in puts.iter().enumerate() {
            prop_assert_eq!(ar.get(&format!("f{n}")).expect("readable"), contents(BLOCKS[size], ragged, n));
        }
    }
}

/// A scheme wrapper: the byte plane and the required hooks forwarded,
/// except that `block_at` is off by one from position `honest_below` on.
struct Wrapped {
    inner: Box<dyn RedundancyScheme>,
    honest_below: u32,
}

impl RedundancyScheme for Wrapped {
    fn scheme_name(&self) -> String {
        self.inner.scheme_name()
    }

    fn data_written(&self) -> u64 {
        self.inner.data_written()
    }

    fn repair_cost(&self) -> RepairCost {
        self.inner.repair_cost()
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        self.inner.encode_batch(blocks, sink)
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        self.inner.seal(sink)
    }

    fn frontier_snapshot(&self) -> Vec<u8> {
        self.inner.frontier_snapshot()
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        self.inner.restore_frontier(snapshot, source)
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        self.inner.repair_block(source, id, data_blocks)
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.inner.is_repairable(id, data_blocks, avail)
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        self.inner.universe_len(data_blocks)
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        self.inner.dense_index(id, data_blocks)
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        let lie = u32::from(k >= self.honest_below);
        self.inner.block_at(k + lie, data_blocks)
    }
}

fn three_schemes() -> [Scheme; 3] {
    [
        Scheme::Ae(Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration")),
        Scheme::Rs { k: 4, m: 12 },
        Scheme::Replication { n: 3 },
    ]
}

/// A scheme that claims the bijection and breaks it from position 30 on:
/// the puts below it journal counts like anyone's and survive a reopen;
/// the put that crosses it panics, naming scheme, position and both ids,
/// and journals nothing.
#[test]
fn a_report_that_disagrees_with_block_at_panics_naming_the_position() {
    for s in three_schemes() {
        let wrap = || -> Arc<dyn RedundancyScheme> {
            Arc::new(Wrapped {
                inner: s.build(BLOCK),
                honest_below: 30,
            })
        };
        let store = Arc::new(MemStore::new());
        let mut ar = Archive::with_scheme(wrap(), BLOCK, Arc::clone(&store));
        let mut honest = 0;
        let lie = loop {
            let bytes = contents(2, honest % 2 == 1, honest);
            let put = std::panic::AssertUnwindSafe(|| ar.put(&format!("f{honest}"), &bytes));
            match std::panic::catch_unwind(put) {
                Ok(put) => put.expect("fresh name"),
                Err(lie) => break lie,
            };
            honest += 1;
        };
        let lie = lie.downcast_ref::<String>().expect("a message");
        let told = [
            &s.name(),
            "position 30 ",
            " by block_at, ",
            " by the scheme's report",
        ];
        for part in told {
            assert!(lie.contains(part), "{s}: {lie:?} lacks {part:?}");
        }
        assert!(honest > 0, "{s}: the honest prefix was archived");
        drop(ar);

        let (counts, _) = journaled(&store);
        assert_eq!(counts.len(), honest, "{s}: the lie was not journaled");
        let stored: u32 = counts.iter().sum();
        assert!(stored <= 30, "{s}");
        let ar = Archive::open(wrap(), Arc::clone(&store)).expect("the honest prefix replays");
        assert_eq!(ar.stored_ids().len(), stored as usize, "{s}");
        for n in 0..honest {
            assert_eq!(
                ar.get(&format!("f{n}")).expect("readable"),
                contents(2, n % 2 == 1, n),
                "{s}"
            );
        }
    }
}
