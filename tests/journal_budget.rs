//! The journal's byte budget, counted exactly.
//!
//! What an archive writes under `Meta` ids is a pure function of its
//! history — no clock, no allocator, no host in it — so the bytes a put
//! record, a checkpoint and a sealed archive's journal occupy are exact
//! integers: the `wan_rtts.csv` pattern applied to bytes. The table
//! below (AE(3,2,5), RS(10,4), 3-way replication × 64 and 256 files of
//! one and of sixty-four blocks, default `MetaConfig`: three copies, a
//! checkpoint every 64 records and on seal) is diffed against
//! `tests/golden/journal_bytes.csv` byte for byte. A change that makes
//! the journal carry more — an id list back in a record, a per-block
//! field in a checkpoint — or less fails here until the golden is
//! re-recorded on purpose (the table of the run is left in
//! `target/tmp/journal_bytes.csv`; copy it over the golden).
//!
//! Columns, all in bytes summed over the three copies: `put_record` is
//! what one `put` journals (every put of a row journals the same: the
//! fields are fixed-width and the names equally long), `checkpoint` what
//! the 64th put's automatic checkpoint adds on top of its record (parts
//! and pointer cell), `checkpoints_total` the same summed over every
//! automatic checkpoint of the row, `seal` what `seal` journals (its
//! record, the final checkpoint, the pointer), and `left_after_seal` what
//! the backend still holds under `Meta` ids once the seal's garbage
//! collection is done. Position-first journals make `put_record`
//! independent of the file's size; before them the 64-block AE row
//! journaled ≈ 2.6 KB of ids per copy per put.
//!
//! A checkpoint is a segment of the rows since the previous one, folded
//! like a binary counter, and the 256-file rows are where that shows:
//! their four checkpoints write 64 + 128 + 64 + 256 rows
//! (`checkpoints_total`) where four full snapshots wrote 640, their seal
//! is a fifth, row-less segment on top of the level-2 one, and what is
//! left holds both. In a 64-file row the seal is the *second* commit —
//! the one that folds the first — so it still rewrites all 64 rows.

use aecodes::api::{BlockSink, BlockSource, RedundancyScheme, StoreError};
use aecodes::blocks::{Block, BlockId};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::MemStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCK: usize = 64;

/// A backend that adds up the bytes stored under `Meta` ids.
#[derive(Default)]
struct MetaBytes {
    written: AtomicU64,
    inner: MemStore,
}

impl BlockSource for MetaBytes {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.inner.fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        self.inner.has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.inner.read(id)
    }
}

impl BlockSink for MetaBytes {
    fn store(&self, id: BlockId, block: Block) {
        if id.is_meta() {
            self.written
                .fetch_add(block.len() as u64, Ordering::Relaxed);
        }
        self.inner.store(id, block)
    }

    fn remove(&self, id: BlockId) -> bool {
        BlockSink::remove(&self.inner, id)
    }
}

/// `Meta` bytes `f` stores.
fn journaled<T>(store: &MetaBytes, f: impl FnOnce() -> T) -> (T, u64) {
    let before = store.written.load(Ordering::Relaxed);
    let out = f();
    (out, store.written.load(Ordering::Relaxed) - before)
}

/// One row: `[put_record, checkpoint, checkpoints_total, seal,
/// left_after_seal]`.
fn budget_row(s: &Scheme, files: usize, blocks_per_file: usize) -> [u64; 5] {
    let store = Arc::new(MetaBytes::default());
    let scheme: Arc<dyn RedundancyScheme> = Arc::from(s.build(BLOCK));
    let mut ar = Archive::with_scheme(scheme, BLOCK, Arc::clone(&store));
    let contents: Vec<u8> = (0..BLOCK * blocks_per_file).map(|i| i as u8).collect();
    let mut puts = Vec::with_capacity(files);
    for file in 0..files {
        let name = format!("f{file:06}");
        let ((), bytes) = journaled(&store, || {
            ar.put(&name, &contents).expect("fresh name");
        });
        puts.push(bytes);
    }
    let put_record = puts[0];
    // Every 64th put checkpoints on top of its record; no other put
    // journals anything else.
    let (checkpoints, records): (Vec<_>, Vec<_>) =
        (1..).zip(puts).partition(|(nth, _)| nth % 64 == 0);
    assert!(
        records.iter().all(|&(_, bytes)| bytes == put_record),
        "{s}: every put journals the same bytes: {records:?}"
    );
    let checkpoints: Vec<u64> = checkpoints
        .into_iter()
        .map(|(_, bytes)| bytes - put_record)
        .collect();
    assert_eq!(checkpoints.len(), files / 64, "{s}");
    assert!(checkpoints.iter().all(|&bytes| bytes > 0), "{s}");
    let (_, seal) = journaled(&store, || ar.seal().expect("seal"));
    let held = store.inner.ids().into_iter().filter(|id| id.is_meta());
    let left = held.map(|id| store.inner.get(id).expect("listed").len() as u64);
    [
        put_record,
        checkpoints[0],
        checkpoints.iter().sum(),
        seal,
        left.sum(),
    ]
}

#[test]
fn journal_bytes_per_put_checkpoint_and_seal_match_the_golden_budget() {
    let roster = [
        Scheme::Ae(Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration")),
        Scheme::Rs { k: 10, m: 4 },
        Scheme::Replication { n: 3 },
    ];
    let mut table = String::from(
        "scheme,files,blocks_per_file,put_record,checkpoint,checkpoints_total,seal,left_after_seal\n",
    );
    for s in roster {
        for files in [64usize, 256] {
            for blocks_per_file in [1usize, 64] {
                let row = budget_row(&s, files, blocks_per_file).map(|v| v.to_string());
                table.push_str(&format!(
                    "\"{s}\",{files},{blocks_per_file},{}\n",
                    row.join(",")
                ));
            }
        }
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("journal_bytes.csv");
    std::fs::write(&out, &table).expect("the test's own tmp dir is writable");
    let golden = include_str!("golden/journal_bytes.csv");
    assert_eq!(table, golden, "re-record from {}", out.display());
}
