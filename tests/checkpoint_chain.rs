//! The committed checkpoint is a **chain of segments**, each naming the
//! one below it (`crates/store/src/journal.rs`; its shape after every
//! commit is held to the binary form of the commit count in
//! `checkpoint_replay.rs`). This forges what a hostile or confused
//! backend could put in a segment header or its rows — a base naming
//! itself, a later record, a record that is no checkpoint part, a base
//! folded no more often than the segment on top of it, extents that do
//! not meet, a name listed twice — each with valid framing and checksums,
//! so only the chain rules stand between it and `Archive::open`. Every one
//! is a typed `RecoveryError::CorruptRecord` naming a record; none hangs
//! the walk.

mod common;

use aecodes::api::RedundancyScheme;
use aecodes::blocks::Block;
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::{Archive, RecoveryError};
use aecodes::store::meta::{meta_copy_id, CheckpointPayload, MetaConfig, MetaRecord};
use aecodes::store::MemStore;
use common::chain;
use std::sync::Arc;

const BLOCK: usize = 32;
const COPIES: u16 = 3;

fn build(s: &Scheme) -> Arc<dyn RedundancyScheme> {
    Arc::from(s.build(BLOCK))
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
        stored: 4,
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
