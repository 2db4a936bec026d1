//! The committed checkpoint as a **chain of segments**, read off the
//! backend through the public record format alone.
//!
//! A commit writes the rows added since the previous one as a level-0
//! segment and folds into it every live segment of its own level, like
//! the carry of a binary counter (`crates/store/src/journal.rs`). So
//! after `c` commits the live chain *is* the binary form of `c` — one
//! segment per set bit, the bit's position its level — every manifest row
//! sits in exactly one live segment, and the backend holds no `Meta`
//! block the live journal does not name. The first test counts all three
//! exactly, after every commit, across the roster.
//!
//! The second forges what a hostile or confused backend could put in a
//! segment header or its rows — a base naming itself, a later record, a
//! record that is no checkpoint part, a base folded no more often than
//! the segment on top of it, extents that do not meet, a name listed
//! twice — each with valid framing and checksums, so only the chain rules
//! stand between it and `Archive::open`. Every one is a typed
//! `RecoveryError::CorruptRecord` naming a record; none hangs the walk.

use aecodes::api::RedundancyScheme;
use aecodes::blocks::{Block, BlockId};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::{Archive, RecoveryError};
use aecodes::store::meta::{
    meta_copy_id, pointer_id, CheckpointPayload, MetaConfig, MetaRecord, StoredIds,
};
use aecodes::store::MemStore;
use std::sync::Arc;

const BLOCK: usize = 32;
const COPIES: u16 = 3;

fn build(s: &Scheme) -> Arc<dyn RedundancyScheme> {
    Arc::from(s.build(BLOCK))
}

fn file(i: usize) -> (String, Vec<u8>) {
    let len = (i % 4 * BLOCK).saturating_sub(i % 3);
    let contents = (0..len).map(|b| (b * 31 + i * 7) as u8).collect();
    (format!("f{:03}", i * 37 % 101), contents)
}

fn record(store: &MemStore, id: BlockId, seq: u64) -> MetaRecord {
    let block = store.get(id).expect("a live record");
    MetaRecord::decode(seq, block.as_slice()).expect("a live record decodes")
}

/// The committed chain `store` holds, newest segment first, as `(part-0
/// seq, part count, segment)`: the newer pointer cell, then base by base.
fn chain(store: &MemStore) -> Vec<(u64, u32, CheckpointPayload)> {
    let cells = (0..2).filter(|&slot| store.contains(pointer_id(slot, 0)));
    let named = cells.map(|slot| match record(store, pointer_id(slot, 0), slot) {
        MetaRecord::Pointer { checkpoint, parts } => (checkpoint, parts),
        other => panic!("pointer cell {slot} holds {other:?}"),
    });
    let mut next = named.max();
    let mut out = Vec::new();
    while let Some((seq, parts)) = next {
        let mut payload = Vec::new();
        for part in 0..parts {
            let at = seq + u64::from(part);
            match record(store, meta_copy_id(at, 0), at) {
                MetaRecord::Checkpoint {
                    part: p,
                    parts: n,
                    chunk,
                } if p == part && n == parts => payload.extend_from_slice(&chunk),
                other => panic!("meta#{at} is not part {part}/{parts}: {other:?}"),
            }
        }
        let segment = CheckpointPayload::decode(&payload).expect("a live segment decodes");
        next = segment.base;
        out.push((seq, parts, segment));
    }
    out
}

fn meta_ids(store: &MemStore) -> Vec<BlockId> {
    let mut ids: Vec<BlockId> = store.ids().into_iter().filter(|id| id.is_meta()).collect();
    ids.sort();
    ids
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
    for (_, _, segment) in &live {
        assert!(matches!(segment.stored, StoredIds::Count(_)), "{ctx}");
    }
    let mut named = ar.live_meta_ids();
    named.sort();
    assert_eq!(meta_ids(store), named, "{ctx}: nothing unnamed is held");
}

#[test]
fn the_live_chain_is_the_binary_form_of_the_commit_count() {
    for s in Scheme::extended_lineup() {
        for every in [1u64, 3, 64] {
            for segment_bytes in [64usize, 64 * 1024] {
                let cfg = MetaConfig {
                    copies: COPIES,
                    checkpoint_every: Some(every),
                    segment_bytes,
                };
                let store = Arc::new(MemStore::new());
                let mut ar = Archive::with_scheme_meta(build(&s), BLOCK, Arc::clone(&store), cfg);
                let ctx = format!("{s}, every {every}, {segment_bytes} B parts");
                let mut commits = 0;
                for i in 0..70 {
                    let (name, contents) = file(i);
                    let before = ar.checkpoint_seq();
                    ar.put(&name, &contents).expect("fresh name");
                    if ar.checkpoint_seq() != before {
                        commits += 1;
                        assert_binary_counter(&ar, &store, commits, &ctx);
                    }
                }
                assert_eq!(u64::from(commits), 70 / every, "{ctx}");
                // The seal is one more commit like any other: its record
                // holds no row, so its segment adds none.
                ar.seal().expect("seal");
                assert_binary_counter(&ar, &store, commits + 1, &ctx);
            }
        }
    }
}

/// AE(3,2,5), seven one-block files, a commit after each: segments of
/// level 2, 1 and 0, one part each, nothing else but genesis and the
/// pointer cells.
fn three_segments() -> (Scheme, Arc<MemStore>) {
    let s = Scheme::Ae(Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration"));
    let store = Arc::new(MemStore::new());
    let cfg = MetaConfig {
        checkpoint_every: Some(1),
        ..MetaConfig::default()
    };
    let mut ar = Archive::with_scheme_meta(build(&s), BLOCK, Arc::clone(&store), cfg);
    for i in 0..7 {
        ar.put(&format!("f{i}"), &[i as u8; BLOCK]).expect("fresh");
    }
    let levels: Vec<u8> = chain(&store).iter().map(|(_, _, s)| s.level).collect();
    assert_eq!(levels, [0, 1, 2]);
    (s, store)
}

/// Overwrites every copy of the one-part segment at `seq` with `forged`,
/// framed and checksummed like the real thing.
fn overwrite(store: &MemStore, seq: u64, forged: &CheckpointPayload) {
    let part = MetaRecord::Checkpoint {
        part: 0,
        parts: 1,
        chunk: forged.encode(),
    };
    for copy in 0..COPIES {
        store.put(meta_copy_id(seq, copy), Block::from_vec(part.encode(seq)));
    }
}

#[test]
fn forged_chains_are_typed_errors_naming_a_record() {
    let (s, pristine) = three_segments();
    let live = chain(&pristine);
    let [(newest, 1, top), (middle, 1, mid), (oldest, 1, bottom)] = &live[..] else {
        panic!("three one-part segments expected: {live:?}");
    };
    assert!(oldest < middle && middle < newest);
    // What `forge` does to a copy of the backend must be refused naming
    // record `at`, the refusal mentioning `what`.
    let refused = |at: u64, what: &str, forge: &dyn Fn(&MemStore)| {
        let store = MemStore::new();
        for id in pristine.ids() {
            store.put(id, pristine.get(id).expect("listed"));
        }
        forge(&store);
        match Archive::open(build(&s), Arc::new(store)) {
            Err(RecoveryError::CorruptRecord { seq, detail }) => {
                assert_eq!(seq, at, "{what}: {detail}");
                assert!(detail.contains(what), "{what}: {detail}");
            }
            Err(other) => panic!("{what}: {other}"),
            Ok(ar) => panic!("{what}: opened with {} files", ar.file_count()),
        }
    };
    let rebased = |base| CheckpointPayload {
        base: Some(base),
        ..top.clone()
    };

    // A base that is the segment itself, or a record after it: no walk
    // follows it, so none cycles.
    refused(*newest, "does not lie below", &|store| {
        overwrite(store, *newest, &rebased((*newest, 1)))
    });
    refused(*newest, "does not lie below", &|store| {
        overwrite(store, *newest, &rebased((*newest + 5, 1)))
    });
    // A base whose parts would run into the segment naming it.
    refused(*newest, "does not lie below", &|store| {
        overwrite(store, *newest, &rebased((*middle, u32::MAX)))
    });
    // A base that is a put record, or nothing at all.
    let put = MetaRecord::Put {
        name: "f".into(),
        byte_len: 0,
        crc: 0,
        first_block: 0,
        block_count: 1,
        ids: StoredIds::Count(4),
        frontier: Vec::new(),
    };
    refused(1, "not checkpoint part 0", &|store| {
        for copy in 0..COPIES {
            store.put(meta_copy_id(1, copy), Block::from_vec(put.encode(1)));
        }
        overwrite(store, *newest, &rebased((1, 1)));
    });
    refused(2, "missing", &|store| {
        overwrite(store, *newest, &rebased((2, 1)))
    });
    // A base folded no more often than what sits on it.
    refused(
        *middle,
        "level-1 segment is the base of level-1",
        &|store| {
            let raised = CheckpointPayload {
                level: 1,
                ..top.clone()
            };
            overwrite(store, *newest, &raised)
        },
    );
    refused(
        *oldest,
        "level-0 segment is the base of level-1",
        &|store| {
            let lowered = CheckpointPayload {
                level: 0,
                ..bottom.clone()
            };
            overwrite(store, *oldest, &lowered)
        },
    );
    // Skipping a live segment leaves a hole in the extents.
    refused(*newest, "extent starts at block 6", &|store| {
        overwrite(store, *newest, &rebased((*oldest, 1)))
    });
    // Rows that do not start where the segment below ended, or do not
    // end at the data counter.
    refused(*newest, "extent starts at block 5", &|store| {
        let mut shifted = mid.clone();
        shifted.manifest[0].3 += 1;
        overwrite(store, *middle, &shifted)
    });
    refused(*newest, "rows end at block 6 of 7", &|store| {
        let rowless = CheckpointPayload {
            manifest: Vec::new(),
            ..top.clone()
        };
        overwrite(store, *newest, &rowless)
    });
    // One name in two segments.
    refused(*newest, "twice", &|store| {
        let mut renamed = top.clone();
        renamed.manifest[0].0 = bottom.manifest[2].0.clone();
        overwrite(store, *newest, &renamed)
    });
    // And the pristine chain opens.
    let ar = Archive::open(build(&s), pristine).expect("pristine");
    assert_eq!((ar.file_count(), ar.replayed_records()), (7, 0));
}
