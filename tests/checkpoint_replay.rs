//! The determinism contract of checkpointing: **incremental ≡ replay**.
//!
//! However a journal folds its history into checkpoints — how often, in
//! how many parts, in how many segments — an archive reopened from it is
//! the archive a whole-journal replay yields. The oracle is the one the
//! code base always had: the same history run with `checkpoint_every:
//! None`, where `open` walks every record from genesis. So, for the 13
//! roster schemes × a cadence of 1, 3 and 64 records × 64-byte and
//! 64 KiB parts, after **every** one of 70 puts (cadence 1 commits 70
//! checkpoints and folds six levels deep) and after the seal, the process
//! dies and `Archive::open` must give back the oracle's manifest, block
//! counters, sealed flag, encoder frontier and every file's bytes —
//! having replayed no more records than the cadence allows. The archive
//! that was reopened 71 times and a third one that never was must also
//! leave the same backend, block for block: a commit made after a reopen
//! is the commit the uninterrupted process makes.
//!
//! That third archive is also where the **shape** of the checkpoint is
//! counted, read off the backend through the public record format: a
//! commit folds into its segment every live segment of its own level, like
//! the carry of a binary counter (`crates/store/src/journal.rs`), so after
//! `c` commits the live chain *is* the binary form of `c` — one segment
//! per set bit, at most ⌈log₂ c⌉ + 1 — every manifest row sits in exactly
//! one live segment, and the backend holds no `Meta` block the live
//! journal does not name.
//!
//! File names are drawn so that name order is not write order: a
//! checkpoint that listed its rows by name and one that lists them as
//! they were written must agree on the archive they describe.

mod common;

use aecodes::api::RedundancyScheme;
use aecodes::blocks::{Block, BlockId};
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::meta::MetaConfig;
use aecodes::store::MemStore;
use common::chain;
use std::sync::Arc;

const BLOCK: usize = 32;
const FILES: usize = 70;

fn build(s: &Scheme) -> Arc<dyn RedundancyScheme> {
    Arc::from(s.build(BLOCK))
}

/// File `i`: a name that sorts nowhere near `i` and zero to three blocks
/// of contents, the last one ragged.
fn file(i: usize) -> (String, Vec<u8>) {
    let len = (i % 4 * BLOCK).saturating_sub(i % 3);
    let contents = (0..len).map(|b| (b * 31 + i * 7) as u8).collect();
    (format!("f{:03}", i * 37 % 101), contents)
}

/// What a process started now finds on `store`, held against the live
/// `oracle`.
fn reopened_as(
    s: &Scheme,
    store: &Arc<MemStore>,
    cfg: &MetaConfig,
    oracle: &Archive<MemStore>,
    files: usize,
    ctx: &str,
) -> Archive<MemStore> {
    let ar = Archive::open_with_meta(build(s), Arc::clone(store), cfg.clone())
        .unwrap_or_else(|err| panic!("{ctx}: {err}"));
    assert!(ar.manifest().eq(oracle.manifest()), "{ctx}: manifest");
    assert_eq!(ar.blocks_written(), oracle.blocks_written(), "{ctx}");
    assert_eq!(ar.stored_ids(), oracle.stored_ids(), "{ctx}");
    assert_eq!(ar.is_sealed(), oracle.is_sealed(), "{ctx}");
    assert_eq!(
        ar.scheme().frontier_snapshot(),
        oracle.scheme().frontier_snapshot(),
        "{ctx}: frontier"
    );
    assert!(
        ar.meta_damage().is_empty() && ar.torn_tail().is_none(),
        "{ctx}"
    );
    let cadence = cfg.checkpoint_every.expect("the cadence under test");
    assert!(
        ar.replayed_records() <= cadence,
        "{ctx}: replayed {} records at cadence {cadence}",
        ar.replayed_records()
    );
    for i in 0..files {
        let (name, contents) = file(i);
        assert_eq!(ar.get(&name).expect("readable"), contents, "{ctx}: {name}");
    }
    ar
}

/// Every block `store` holds, in id order.
fn contents(store: &MemStore) -> Vec<(BlockId, Block)> {
    let mut ids = store.ids();
    ids.sort();
    let blocks = ids
        .into_iter()
        .map(|id| (id, store.get(id).expect("listed")));
    blocks.collect()
}

/// What the chain must look like after `commits` commits over `ar`.
fn assert_binary_counter(ar: &Archive<MemStore>, store: &MemStore, commits: u32, ctx: &str) {
    let live = chain(store);
    let levels: Vec<u32> = live.iter().map(|(_, _, s)| u32::from(s.level)).collect();
    let set_bits: Vec<u32> = (0..32).filter(|bit| commits >> bit & 1 == 1).collect();
    assert_eq!(levels, set_bits, "{ctx}: commit {commits}");
    assert!(
        live.len() as u32 <= commits.next_power_of_two().trailing_zeros() + 1,
        "{ctx}: {} segments after {commits} commits",
        live.len()
    );
    let rows: usize = live.iter().map(|(_, _, s)| s.manifest.len()).sum();
    assert_eq!(rows, ar.file_count(), "{ctx}: every row in one segment");
    assert_eq!(
        live.first().map(|&(seq, _, _)| seq),
        ar.checkpoint_seq(),
        "{ctx}"
    );
    let held = contents(store).into_iter().map(|(id, _)| id);
    let held: Vec<BlockId> = held.filter(|id| id.is_meta()).collect();
    let mut named = ar.live_meta_ids();
    named.sort();
    assert_eq!(held, named, "{ctx}: nothing unnamed is held");
}

#[test]
fn a_reopened_archive_is_the_whole_journal_replay_after_every_put() {
    for s in Scheme::extended_lineup() {
        for every in [1u64, 3, 64] {
            for segment_bytes in [64usize, 64 * 1024] {
                let cfg = MetaConfig {
                    copies: 3,
                    checkpoint_every: Some(every),
                    segment_bytes,
                };
                let replayed = MetaConfig {
                    checkpoint_every: None,
                    ..cfg.clone()
                };
                let fresh = |cfg: &MetaConfig| {
                    let store = Arc::new(MemStore::new());
                    let ar = Archive::with_scheme_meta(
                        build(&s),
                        BLOCK,
                        Arc::clone(&store),
                        cfg.clone(),
                    );
                    (ar, store)
                };
                let (mut oracle, _) = fresh(&replayed);
                let (mut steady, steady_store) = fresh(&cfg);
                let (mut ar, store) = fresh(&cfg);
                let mut commits = 0;
                for i in 0..FILES {
                    let (name, contents) = file(i);
                    let entry = ar.put(&name, &contents).expect("fresh name");
                    assert_eq!(entry, oracle.put(&name, &contents).expect("fresh name"));
                    let committed = steady.checkpoint_seq();
                    assert_eq!(entry, steady.put(&name, &contents).expect("fresh name"));
                    let ctx = format!("{s}, every {every}, {segment_bytes} B parts, put {i}");
                    if steady.checkpoint_seq() != committed {
                        commits += 1;
                        assert_binary_counter(&steady, &steady_store, commits, &ctx);
                    }
                    // The crash: every put is followed by one.
                    drop(ar);
                    ar = reopened_as(&s, &store, &cfg, &oracle, i + 1, &ctx);
                }
                assert_eq!(u64::from(commits), FILES as u64 / every);
                let flushed = oracle.seal().expect("seal");
                assert_eq!(ar.seal().expect("seal"), flushed);
                assert_eq!(steady.seal().expect("seal"), flushed);
                drop(ar);
                let ctx = format!("{s}, every {every}, {segment_bytes} B parts, sealed");
                // The seal is one more commit like any other: its record
                // holds no row, so its segment adds none.
                assert_binary_counter(&steady, &steady_store, commits + 1, &ctx);
                reopened_as(&s, &store, &cfg, &oracle, FILES, &ctx);
                assert!(contents(&store) == contents(&steady_store), "{ctx}");
            }
        }
    }
}
