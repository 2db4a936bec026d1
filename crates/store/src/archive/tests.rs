use super::io::Prefetched;
use super::*;
use crate::meta::{encode_checkpoint_part, meta_copy_id, meta_id, pointer_id, FORMAT_VERSION};
use crate::store::MemStore;
use ae_api::{BlockSource, StoreError};
use ae_blocks::{crc32, MetaId, NodeId};

fn data_id(i: u64) -> BlockId {
    BlockId::Data(NodeId(i))
}

fn archive() -> Archive<MemStore> {
    Archive::new(Config::new(3, 2, 5).unwrap(), 64, Arc::new(MemStore::new()))
}

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(seed).wrapping_add(3))
        .collect()
}

#[test]
fn put_get_roundtrip_multiple_files() {
    let mut ar = archive();
    let a = payload(1000, 7);
    let b = payload(64, 11); // exactly one block
    let c = payload(65, 13); // one block + 1 byte
    ar.put("a", &a).unwrap();
    ar.put("b", &b).unwrap();
    ar.put("c", &c).unwrap();
    assert_eq!(ar.get("a").unwrap(), a);
    assert_eq!(ar.get("b").unwrap(), b);
    assert_eq!(ar.get("c").unwrap(), c);
    assert_eq!(ar.names().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    assert_eq!(ar.entry("b").unwrap().block_count, 1);
    assert_eq!(ar.entry("c").unwrap().block_count, 2);
    assert_eq!(ar.entry("a").unwrap().first_block, 0);
    assert_eq!(ar.entry("b").unwrap().first_block, 16);
}

#[test]
fn empty_file_supported() {
    let mut ar = archive();
    ar.put("empty", b"").unwrap();
    assert_eq!(ar.get("empty").unwrap(), Vec::<u8>::new());
    assert_eq!(ar.entry("empty").unwrap().block_count, 1);
}

/// `put` composes `Entry::crc` from the block checksums it computed
/// while cutting; it must be the checksum of the contents at every
/// length around a block edge and a slab edge (16 blocks of 4 KiB),
/// whichever scheme stores the blocks.
#[test]
fn entry_crc_is_the_crc_of_the_contents() {
    let bs = 4096;
    for family in families() {
        let scheme = (family.scheme)(bs);
        let mut ar = Archive::with_scheme(scheme, bs, Arc::new(MemStore::new()));
        let lens = [0, 1, bs - 1, bs, bs + 1, 63 * bs + 123, 64 * bs];
        for (k, len) in lens.into_iter().enumerate() {
            let contents = payload(len, 2 * k as u8 + 5);
            let entry = ar.put(&format!("f{k}"), &contents).unwrap();
            assert_eq!(entry.crc, crc32(&contents), "len {len}");
            assert_eq!(entry.block_count as usize, len.div_ceil(bs).max(1));
        }
        ar.seal().unwrap();
        for (k, len) in lens.into_iter().enumerate() {
            let got = ar.get(&format!("f{k}")).unwrap();
            assert_eq!(got, payload(len, 2 * k as u8 + 5), "len {len}");
        }
    }
}

// --- `get` end to end over a fault injector ---------------------------

use crate::fault::FaultyStore;

type Faulty = FaultyStore<MemStore>;

/// The three scheme families, each with the ids a test garbles so that
/// every repair option of a data block has a member garbled — the
/// block's out-parity on each strand for AE(3,2,5) (one member of each
/// pp-tuple), the four parity shards of its stripe for RS(10,4) (any ten
/// of the thirteen other shards include one), both other copies for
/// 3-way replication.
struct Family {
    name: &'static str,
    scheme: fn(usize) -> Arc<dyn RedundancyScheme>,
    every_option_of: fn(u64) -> Vec<BlockId>,
}

fn families() -> [Family; 3] {
    use ae_baselines::{ReedSolomon, Replication};
    use ae_blocks::{EdgeId, ReplicaId, ShardId, StrandClass};
    [
        Family {
            name: "AE(3,2,5)",
            scheme: |bs| Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), bs)),
            every_option_of: |node| {
                let classes = [
                    StrandClass::Horizontal,
                    StrandClass::RightHanded,
                    StrandClass::LeftHanded,
                ];
                let out = |class| BlockId::Parity(EdgeId::new(class, NodeId(node)));
                classes.into_iter().map(out).collect()
            },
        },
        Family {
            name: "RS(10,4)",
            scheme: |_| Arc::new(ReedSolomon::new(10, 4).unwrap()),
            every_option_of: |node| {
                let stripe = (node - 1) / 10;
                let shard = |index| BlockId::Shard(ShardId { stripe, index });
                (0..4).map(shard).collect()
            },
        },
        Family {
            name: "3-way replication",
            scheme: |_| Arc::new(Replication::new(3)),
            every_option_of: |node| {
                let copy = |copy| {
                    BlockId::Replica(ReplicaId {
                        node: NodeId(node),
                        copy,
                    })
                };
                (1..3).map(copy).collect()
            },
        },
    ]
}

const FAULTY_BS: usize = 64;

/// A sealed archive of `family`'s scheme over a fault injector, holding
/// `files` (name, payload), with some neighbours around them.
fn faulty_archive(family: &Family, files: &[(&str, Vec<u8>)]) -> Archive<Faulty> {
    let store = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
    let mut ar = Archive::with_scheme((family.scheme)(FAULTY_BS), FAULTY_BS, store);
    ar.put("before", &payload(3 * FAULTY_BS + 5, 41)).unwrap();
    for (name, contents) in files {
        ar.put(name, contents).unwrap();
    }
    ar.put("after", &payload(12 * FAULTY_BS, 43)).unwrap();
    ar.seal().unwrap();
    ar
}

/// The 1-based data node of a file's `k`-th block.
fn node_of(ar: &Archive<Faulty>, name: &str, k: u64) -> u64 {
    ar.entry(name).unwrap().first_block + k + 1
}

#[test]
fn a_garbled_data_block_is_rebuilt_by_get() {
    let contents = payload(25 * FAULTY_BS + 7, 19);
    for family in families() {
        let ar = faulty_archive(&family, &[("f", contents.clone())]);
        for k in [0, 11, 25] {
            let node = node_of(&ar, "f", k);
            ar.store().corrupt(data_id(node));
            assert_eq!(ar.get("f").unwrap(), contents, "{}, block {k}", family.name);
            // A degraded read is read-only: the fault stays.
            assert!(ar.store().read(data_id(node)).is_err());
            ar.store().restore(data_id(node));
        }
    }
}

/// A data block gone and a member of each of its repair options garbled:
/// whatever the garbled bytes rebuild, `get` answers the payload or a
/// typed error — never other bytes.
#[test]
fn get_never_returns_bytes_a_garbled_repair_made() {
    let contents = payload(25 * FAULTY_BS + 7, 23);
    for family in families() {
        for k in [0, 4, 25] {
            let ar = faulty_archive(&family, &[("f", contents.clone())]);
            let node = node_of(&ar, "f", k);
            ar.store().remove(data_id(node));
            ar.store().corrupt_all((family.every_option_of)(node));
            match ar.get("f") {
                Ok(got) => assert_eq!(got, contents, "{}, block {k}", family.name),
                Err(
                    ArchiveError::ChecksumMismatch { .. } | ArchiveError::BlockUnavailable { .. },
                ) => {}
                Err(other) => panic!("{}, block {k}: untyped failure {other:?}", family.name),
            }
        }
    }
}

/// Files at the edges — empty, one byte, and one byte past ten whole
/// blocks (a partial tail that starts RS(10,4)'s next stripe) — round
/// trip as stored, and with their partial tail block lost or garbled.
#[test]
fn edge_length_files_round_trip_with_their_tail_block_lost() {
    let k_bs_plus_one = 10 * FAULTY_BS + 1;
    let files: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("one", payload(1, 29)),
        ("k_bs_plus_one", payload(k_bs_plus_one, 31)),
    ];
    for family in families() {
        let ar = faulty_archive(&family, &files);
        for (name, contents) in &files {
            assert_eq!(&ar.get(name).unwrap(), contents, "{}, {name}", family.name);
            let entry = ar.entry(name).unwrap();
            let tail = data_id(node_of(&ar, name, entry.block_count - 1));
            ar.store().fail(tail);
            let got = ar.get(name);
            assert_eq!(
                &got.unwrap(),
                contents,
                "{}, {name}, tail lost",
                family.name
            );
            ar.store().restore(tail);
            ar.store().corrupt(tail);
            let got = ar.get(name);
            assert_eq!(
                &got.unwrap(),
                contents,
                "{}, {name}, tail garbled",
                family.name
            );
            ar.store().restore(tail);
        }
    }
}

#[test]
fn duplicate_names_rejected() {
    let mut ar = archive();
    ar.put("x", b"1").unwrap();
    assert!(matches!(
        ar.put("x", b"2"),
        Err(ArchiveError::DuplicateName(_))
    ));
}

#[test]
fn sealed_archives_reject_puts() {
    let mut ar = archive();
    ar.put("x", b"1").unwrap();
    assert!(ar.seal().is_ok());
    assert!(ar.is_sealed());
    assert!(matches!(ar.put("y", b"2"), Err(ArchiveError::Sealed(_))));
    assert_eq!(ar.seal().unwrap(), Vec::new(), "idempotent");
    assert_eq!(ar.get("x").unwrap(), b"1");
}

#[test]
fn unknown_file_reported() {
    let ar = archive();
    assert!(matches!(ar.get("nope"), Err(ArchiveError::UnknownFile(_))));
}

#[test]
fn degraded_read_repairs_on_the_fly() {
    let mut ar = archive();
    let data = payload(640, 5);
    let entry = ar.put("f", &data).unwrap();
    // Drop three data blocks behind the archive's back.
    for k in [0, 4, 9] {
        ar.store().remove(data_id(entry.first_block + k + 1));
    }
    assert_eq!(ar.get("f").unwrap(), data, "read-time repair");
    // Blocks remain missing until scrubbed.
    assert!(!ar.store().contains(data_id(1)));
    let restored = ar.scrub();
    assert_eq!(restored, 3);
    assert!(ar.store().contains(data_id(1)));
    assert_eq!(ar.scrub(), 0, "idempotent");
}

#[test]
fn scrub_restores_parities_too() {
    let mut ar = archive();
    ar.put("f", &payload(640, 9)).unwrap();
    let killed = 5;
    for i in 1..=killed {
        ar.store().remove(BlockId::Parity(ae_blocks::EdgeId::new(
            ae_blocks::StrandClass::Horizontal,
            NodeId(i),
        )));
    }
    assert_eq!(ar.scrub(), killed);
    assert!(ar.verify_all().is_empty());
}

#[test]
fn verify_all_flags_dead_files() {
    let mut ar = Archive::new(Config::new(2, 1, 1).unwrap(), 32, Arc::new(MemStore::new()));
    ar.put("ok", &payload(100, 3)).unwrap();
    let entry = ar.put("doomed", &payload(100, 4)).unwrap();
    // Erase a Fig 7 A dead pattern inside "doomed": two adjacent nodes
    // plus both parallel edges between them.
    let i = entry.first_block + 2; // 1-based node of the second block
    ar.store().remove(data_id(i));
    ar.store().remove(data_id(i + 1));
    for class in [
        ae_blocks::StrandClass::Horizontal,
        ae_blocks::StrandClass::RightHanded,
    ] {
        ar.store()
            .remove(BlockId::Parity(ae_blocks::EdgeId::new(class, NodeId(i))));
    }
    assert_eq!(ar.verify_all(), vec!["doomed".to_string()]);
    assert!(ar.get("ok").is_ok());
    // The failure names the block and carries the repair detail.
    match ar.get("doomed") {
        Err(ArchiveError::BlockUnavailable { id, source }) => {
            assert!(id.is_data());
            assert!(!source.missing_blocks().is_empty());
        }
        other => panic!("expected BlockUnavailable, got {other:?}"),
    }
}

#[test]
fn degraded_read_chains_repairs_when_tuples_are_broken() {
    // Erase a data block AND parts of all its tuples, leaving a repair
    // chain: the single-XOR fast path fails, the overlay rounds win.
    let mut ar = archive();
    let data = payload(640, 17);
    let entry = ar.put("f", &data).unwrap();
    let i = entry.first_block + 5; // 1-based node of the fifth block
    ar.store().remove(data_id(i));
    // Break every pp-tuple of d_i by removing one parity per class…
    for &class in [
        ae_blocks::StrandClass::Horizontal,
        ae_blocks::StrandClass::RightHanded,
        ae_blocks::StrandClass::LeftHanded,
    ]
    .iter()
    {
        ar.store()
            .remove(BlockId::Parity(ae_blocks::EdgeId::new(class, NodeId(i))));
    }
    // …the parities themselves are repairable (their dp-tuples are
    // intact), so a two-round read still reconstructs the file.
    assert_eq!(ar.get("f").unwrap(), data);
    // And the backend was not mutated by the read.
    assert!(!ar.store().contains(data_id(i)));
}

#[test]
fn works_over_a_distributed_store_with_outages() {
    use crate::cluster::LocationId;
    use crate::distributed::DistributedStore;
    use crate::placement::Placement;

    let store = Arc::new(DistributedStore::new(30, Placement::Random { seed: 4 }));
    let mut ar = Archive::new(Config::new(3, 2, 5).unwrap(), 64, Arc::clone(&store));
    let data = payload(3000, 21);
    ar.put("big", &data).unwrap();
    store.with_cluster(|c| {
        for l in [2, 9, 16, 23] {
            c.fail(LocationId(l));
        }
    });
    assert_eq!(ar.get("big").unwrap(), data, "degraded read through outage");
}

#[test]
fn type_erased_backend_works() {
    // Archive<dyn BlockRepo>: backend chosen at runtime.
    let store: Arc<dyn BlockRepo> = Arc::new(MemStore::new());
    let mut ar: Archive = Archive::new(Config::new(2, 1, 2).unwrap(), 32, store);
    let data = payload(200, 29);
    ar.put("f", &data).unwrap();
    ar.store().remove(data_id(2));
    assert_eq!(ar.get("f").unwrap(), data);
}

#[test]
fn error_display() {
    let e = ArchiveError::ChecksumMismatch {
        name: "f".into(),
        expected: 1,
        actual: 2,
    };
    assert!(e.to_string().contains("verification"));
    assert!(ArchiveError::UnknownFile("x".into())
        .to_string()
        .contains("x"));
    assert!(ArchiveError::Sealed("y".into())
        .to_string()
        .contains("sealed"));
    assert!(RecoveryError::NoArchive.to_string().contains("metadata"));
    assert!(RecoveryError::SchemeMismatch {
        archived: "AE(3,2,5)".into(),
        given: "RS(4,2)".into()
    }
    .to_string()
    .contains("AE(3,2,5)"));
}

fn ae_scheme() -> Arc<dyn RedundancyScheme> {
    Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64))
}

#[test]
fn crash_and_reopen_resumes_mid_stream() {
    let (a, b, c) = (payload(1000, 7), payload(300, 11), payload(129, 13));

    // The uninterrupted reference run.
    let ref_store = Arc::new(MemStore::new());
    let mut reference = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&ref_store));
    reference.put("a", &a).unwrap();
    reference.put("b", &b).unwrap();
    reference.put("c", &c).unwrap();
    reference.seal().unwrap();

    // The crashed run: two puts, then the process dies.
    let store = Arc::new(MemStore::new());
    {
        let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
        ar.put("a", &a).unwrap();
        ar.put("b", &b).unwrap();
    } // crash: archive and scheme dropped, backend survives

    let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.torn_tail(), None);
    assert_eq!(ar.block_size(), 64);
    assert_eq!(ar.names().collect::<Vec<_>>(), vec!["a", "b"]);
    assert_eq!(ar.get("a").unwrap(), a, "pre-crash contents replay");
    ar.put("c", &c).unwrap();
    ar.seal().unwrap();
    assert_eq!(ar.get("c").unwrap(), c);

    // Block-for-block identical to the uninterrupted run.
    assert_eq!(ar.stored_ids(), reference.stored_ids());
    assert_eq!(ar.entry("c"), reference.entry("c"));
    for id in reference.stored_ids() {
        assert_eq!(store.get(*id).unwrap(), ref_store.get(*id).unwrap(), "{id}");
    }
}

#[test]
fn reopen_restores_sealed_state_and_seal_stays_idempotent() {
    use ae_baselines::ReedSolomon;
    let store = Arc::new(MemStore::new());
    {
        let scheme: Arc<dyn RedundancyScheme> = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let mut ar = Archive::with_scheme(scheme, 32, Arc::clone(&store));
        ar.put("f", &payload(200, 9)).unwrap(); // 7 blocks: 3 buffered
        assert!(!ar.seal().unwrap().is_empty(), "partial stripe flushed");
    }
    let before = store.len();
    let scheme: Arc<dyn RedundancyScheme> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut ar = Archive::open(scheme, Arc::clone(&store)).unwrap();
    assert!(ar.is_sealed(), "sealed state survives the crash");
    assert_eq!(ar.seal().unwrap(), Vec::new(), "re-seal is a no-op");
    assert_eq!(store.len(), before, "no duplicate stripe flush");
    assert!(matches!(
        ar.put("late", b"no"),
        Err(ArchiveError::Sealed(_))
    ));
    assert_eq!(ar.get("f").unwrap(), payload(200, 9));
}

#[test]
fn open_repairs_lost_frontier_blocks_on_the_fly() {
    let store = Arc::new(MemStore::new());
    {
        let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
        ar.put("f", &payload(1000, 5)).unwrap();
    }
    // The crash also takes a frontier parity with it; its dp-tuple
    // survives, so open's repairing fallback reconstructs it.
    let frontier = BlockId::Parity(ae_blocks::EdgeId::new(
        ae_blocks::StrandClass::Horizontal,
        NodeId(16),
    ));
    assert!(store.remove(frontier));
    let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(!store.contains(frontier), "open mutates nothing");
    assert_eq!(ar.scrub(), 1, "scrub heals the backend afterwards");
    ar.put("g", &payload(70, 6)).unwrap();
    assert_eq!(ar.get("g").unwrap(), payload(70, 6));
}

#[test]
fn scrub_heals_the_metadata_journal_too() {
    let store = Arc::new(MemStore::new());
    let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
    ar.put("a", &payload(500, 3)).unwrap();
    ar.put("b", &payload(500, 4)).unwrap();
    // The backend loses a journal record AND a data block.
    assert!(store.remove(meta_id(1)));
    assert!(store.remove(data_id(3)));
    assert_eq!(ar.scrub(), 2, "one data repair + one journal re-store");
    assert!(store.contains(meta_id(1)), "journal is self-healing");
    assert_eq!(ar.scrub(), 0, "idempotent");
    // The healed journal replays: a crash right now is survivable.
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.get("a").unwrap(), payload(500, 3));
    assert_eq!(ar.get("b").unwrap(), payload(500, 4));
}

#[test]
fn open_failure_modes_are_typed() {
    // No metadata at all.
    assert!(matches!(
        Archive::open(ae_scheme(), Arc::new(MemStore::new())),
        Err(RecoveryError::NoArchive)
    ));

    // Wrong scheme.
    let store = Arc::new(MemStore::new());
    drop(Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store)));
    let rs: Arc<dyn RedundancyScheme> = Arc::new(ae_baselines::ReedSolomon::new(4, 2).unwrap());
    assert!(matches!(
        Archive::open(rs, Arc::clone(&store)),
        Err(RecoveryError::SchemeMismatch { archived, given })
            if archived == "AE(3,2,5)" && given == "RS(4,2)"
    ));

    // One scribbled genesis copy is survivable: a surviving copy wins
    // and the damage is reported, not fatal.
    store.put(meta_id(0), Block::from_vec(vec![0xAB; 40]));
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(
        ar.meta_damage().iter().any(|d| d.seq == 0 && !d.pointer),
        "degraded genesis read is reported: {:?}",
        ar.meta_damage()
    );
    drop(ar);

    // Every genesis copy scribbled: typed corruption.
    for copy in 0..MetaId::MAX_COPIES {
        store.put(meta_copy_id(0, copy), Block::from_vec(vec![0xAB; 40]));
    }
    assert!(matches!(
        Archive::open(ae_scheme(), Arc::clone(&store)),
        Err(RecoveryError::CorruptRecord { seq: 0, .. })
    ));
}

#[test]
fn torn_final_record_is_truncated_and_reported() {
    let store = Arc::new(MemStore::new());
    let torn_seq = {
        let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
        ar.put("kept", &payload(500, 3)).unwrap();
        ar.put("torn", &payload(500, 4)).unwrap();
        ar.meta_len() - 1
    };
    // Tear EVERY copy of the final journal record: keep a prefix of
    // its bytes — the crash happened before any copy was complete.
    let full = store.get(meta_id(torn_seq)).unwrap();
    for copy in 0..MetaConfig::default().copies {
        store.put(
            meta_copy_id(torn_seq, copy),
            Block::copy_from_slice(&full.as_slice()[..10]),
        );
    }

    let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.torn_tail(), Some(torn_seq), "truncation is reported");
    assert_eq!(ar.names().collect::<Vec<_>>(), vec!["kept"]);
    assert_eq!(ar.get("kept").unwrap(), payload(500, 3));
    assert!(
        matches!(ar.get("torn"), Err(ArchiveError::UnknownFile(_)),),
        "the un-acknowledged put is gone, not stale"
    );
    // The archive resumes: the journal overwrites the torn record.
    ar.put("after", &payload(100, 5)).unwrap();
    assert_eq!(ar.get("after").unwrap(), payload(100, 5));
    assert!(ar.verify_all().is_empty());
}

#[test]
fn mid_journal_damage_is_fatal_not_silent() {
    let store = Arc::new(MemStore::new());
    {
        let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
        ar.put("a", &payload(200, 3)).unwrap();
        ar.put("b", &payload(200, 4)).unwrap();
        ar.put("c", &payload(200, 5)).unwrap();
        ar.put("d", &payload(200, 6)).unwrap();
    }
    let copies = MetaConfig::default().copies;
    // Losing ONE copy of the first put record is survivable: the read
    // falls through to a surviving copy and reports the damage.
    store.remove(meta_id(1));
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.names().count(), 4, "copy fall-through keeps the data");
    assert!(ar.meta_damage().iter().any(|d| d.seq == 1 && !d.pointer));
    drop(ar);
    // Damage EVERY copy of the FIRST put record (later records
    // follow): replay must refuse rather than silently rewind past it.
    for copy in 0..copies {
        store.remove(meta_copy_id(1, copy));
    }
    assert!(matches!(
        Archive::open(ae_scheme(), Arc::clone(&store)),
        Err(RecoveryError::CorruptRecord { seq: 1, .. })
    ));
    // A *gap* of consecutive lost records with survivors beyond is
    // still mid-journal damage, not an end-of-journal.
    for seq in [2u64, 3] {
        for copy in 0..copies {
            store.remove(meta_copy_id(seq, copy));
        }
    }
    assert!(matches!(
        Archive::open(ae_scheme(), Arc::clone(&store)),
        Err(RecoveryError::CorruptRecord { seq: 1, .. })
    ));
}

#[test]
fn open_rejects_a_scheme_with_the_wrong_block_size() {
    let store = Arc::new(MemStore::new());
    {
        let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
        ar.put("f", &payload(500, 3)).unwrap();
    }
    // Same AE parameters (same scheme name!) but 32-byte blocks: the
    // frontier snapshot pins the block size, so open fails typed
    // instead of serving an archive that breaks on the next put.
    let wrong: Arc<dyn RedundancyScheme> = Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 32));
    match Archive::open(wrong, Arc::clone(&store)) {
        Err(RecoveryError::Frontier(AeError::CorruptFrontier { detail })) => {
            assert!(detail.contains("64"), "{detail}");
        }
        Err(other) => panic!("expected CorruptFrontier, got {other}"),
        Ok(_) => panic!("wrong block size must not open"),
    }
}

#[test]
#[should_panic(expected = "Archive::open")]
fn fresh_constructor_refuses_an_occupied_backend() {
    let store = Arc::new(MemStore::new());
    drop(Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store)));
    // Shadowing an existing archive must panic, pointing at open().
    let _ = Archive::with_scheme(ae_scheme(), 64, store);
}

fn meta_cfg(copies: u16, every: Option<u64>) -> MetaConfig {
    MetaConfig {
        copies,
        checkpoint_every: every,
        ..MetaConfig::default()
    }
}

#[test]
fn checkpoint_bounds_the_live_journal_and_gcs_the_prefix() {
    let store = Arc::new(MemStore::new());
    let mut ar =
        Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(4)));
    for i in 0..12u8 {
        ar.put(&format!("f{i}"), &payload(150, i)).unwrap();
    }
    let cseq = ar.checkpoint_seq().expect("cadence of 4 must have fired");
    assert!(
        ar.live_meta_records() < ar.meta_len(),
        "GC shrank the live journal ({} live, {} ever)",
        ar.live_meta_records(),
        ar.meta_len()
    );
    // The GC'd prefix is really gone from the backend, every copy.
    for copy in 0..3 {
        assert!(!store.contains(meta_copy_id(1, copy)), "copy {copy}");
    }
    // ... and everything the checkpoint superseded replays correctly.
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.checkpoint_seq(), Some(cseq), "pointer names the commit");
    assert!(ar.meta_damage().is_empty());
    for i in 0..12u8 {
        assert_eq!(ar.get(&format!("f{i}")).unwrap(), payload(150, i));
    }
}

#[test]
fn reopen_replays_the_suffix_not_the_history() {
    let store = Arc::new(MemStore::new());
    let mut ar =
        Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(8)));
    for i in 0..40u8 {
        ar.put(&format!("f{i}"), &payload(100, i)).unwrap();
    }
    let history = ar.meta_len();
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(
        ar.replayed_records() <= 8 + 2,
        "open replayed {} records of a {history}-record history",
        ar.replayed_records()
    );
    assert_eq!(ar.names().count(), 40);
}

#[test]
fn seal_checkpoints_and_further_checkpoints_are_stable() {
    let store = Arc::new(MemStore::new());
    let mut ar =
        Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(2, Some(100)));
    ar.put("f", &payload(300, 7)).unwrap();
    assert_eq!(ar.checkpoint_seq(), None, "threshold not reached");
    ar.seal().unwrap();
    let sealed_ckpt = ar.checkpoint_seq().expect("seal checkpoints");
    drop(ar);
    let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(ar.is_sealed());
    assert_eq!(ar.checkpoint_seq(), Some(sealed_ckpt));
    assert_eq!(ar.get("f").unwrap(), payload(300, 7));
    // An explicit re-checkpoint rewrites both pointer cells and stays
    // reopenable (the previous checkpoint is GC'd as ordinary prefix).
    let next = ar.checkpoint();
    assert!(next > sealed_ckpt);
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.checkpoint_seq(), Some(next));
    assert_eq!(ar.get("f").unwrap(), payload(300, 7));
}

#[test]
fn multi_part_checkpoints_roundtrip() {
    let store = Arc::new(MemStore::new());
    let cfg = MetaConfig {
        copies: 2,
        checkpoint_every: Some(6),
        segment_bytes: 64, // force several parts per checkpoint
    };
    let mut ar = Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), cfg);
    for i in 0..14u8 {
        ar.put(&format!("part{i}"), &payload(200, i)).unwrap();
    }
    assert!(ar.checkpoint_seq().is_some());
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(ar.meta_damage().is_empty());
    for i in 0..14u8 {
        assert_eq!(ar.get(&format!("part{i}")).unwrap(), payload(200, i));
    }
}

#[test]
fn single_copy_loss_of_any_live_meta_id_is_survivable_and_healable() {
    let store = Arc::new(MemStore::new());
    let mut ar =
        Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(3)));
    for i in 0..8u8 {
        ar.put(&format!("f{i}"), &payload(120, i)).unwrap();
    }
    let live = ar.live_meta_ids();
    drop(ar);
    // Lose one copy (the first) of EVERY live record and pointer cell
    // at once: n-way redundancy keeps every record readable.
    for &id in &live {
        if let BlockId::Meta(m) = id {
            if m.copy() == 0 {
                assert!(store.remove(id), "{id:?} should have been live");
            }
        }
    }
    let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(
        !ar.meta_damage().is_empty(),
        "degraded reads must be reported"
    );
    for i in 0..8u8 {
        assert_eq!(ar.get(&format!("f{i}")).unwrap(), payload(120, i));
    }
    // Scrub heals every lost copy; the next open is clean.
    assert!(ar.scrub() > 0);
    for &id in &live {
        assert!(store.contains(id), "{id:?} healed");
    }
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(ar.meta_damage().is_empty(), "healed archive opens clean");
}

#[test]
fn scrub_rewrites_garbled_meta_copies() {
    let store = Arc::new(MemStore::new());
    let mut ar = Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, None));
    ar.put("f", &payload(400, 9)).unwrap();
    // Garble (not delete) the middle copy of the put record: scrub
    // byte-compares against the canonical journal and rewrites it.
    let victim = meta_copy_id(1, 1);
    store.put(victim, Block::from_vec(vec![0x5A; 24]));
    assert_eq!(ar.scrub(), 1, "exactly the garbled copy is rewritten");
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(ar.meta_damage().is_empty());
    assert_eq!(ar.get("f").unwrap(), payload(400, 9));
}

#[test]
fn copy_width_is_pinned_by_genesis_not_by_the_reopener() {
    let store = Arc::new(MemStore::new());
    drop(Archive::with_scheme_meta(
        ae_scheme(),
        64,
        Arc::clone(&store),
        meta_cfg(2, None),
    ));
    // The reopener asks for 3 copies; the stored journal has 2 and
    // that is what governs reads and future writes.
    let ar =
        Archive::open_with_meta(ae_scheme(), Arc::clone(&store), meta_cfg(3, Some(10))).unwrap();
    assert_eq!(ar.meta_config().copies, 2, "width adopted from genesis");
    assert_eq!(
        ar.meta_config().checkpoint_every,
        Some(10),
        "cadence is the reopener's policy"
    );
    assert!(!store.contains(meta_copy_id(0, 2)), "no third copy exists");
}

#[test]
fn an_uncommitted_torn_pointer_write_is_survivable_and_scrubbed() {
    let store = Arc::new(MemStore::new());
    {
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, None));
        ar.put("f", &payload(250, 4)).unwrap();
    }
    // A crash tore the very first pointer-cell write: garbage bytes,
    // zero valid copies, but nothing was ever GC'd — full replay is
    // still the whole truth and open must take it.
    store.put(pointer_id(0, 0), Block::from_vec(vec![0xCC; 9]));
    let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.get("f").unwrap(), payload(250, 4));
    assert!(
        ar.meta_damage().iter().any(|d| d.pointer),
        "the poisoned cell is reported: {:?}",
        ar.meta_damage()
    );
    // Scrub clears the uncommitted garbage; the next open is clean.
    ar.scrub();
    assert!(!store.contains(pointer_id(0, 0)), "garbage cell removed");
    drop(ar);
    let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
    assert!(ar.meta_damage().is_empty());
}

#[test]
fn losing_every_pointer_copy_with_bytes_present_is_typed() {
    let store = Arc::new(MemStore::new());
    let mut ar =
        Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(2, Some(2)));
    for i in 0..5u8 {
        ar.put(&format!("f{i}"), &payload(90, i)).unwrap();
    }
    assert!(ar.checkpoint_seq().is_some());
    drop(ar);
    // Scribble every copy of every pointer cell: the cell exists but
    // no copy validates. Replaying from scratch could silently rewind
    // past the GC'd prefix, so open must refuse, typed.
    for slot in 0..2u64 {
        for copy in 0..2 {
            if store.contains(pointer_id(slot, copy)) {
                store.put(pointer_id(slot, copy), Block::from_vec(vec![0xEE; 16]));
            }
        }
    }
    assert!(matches!(
        Archive::open(ae_scheme(), Arc::clone(&store)),
        Err(RecoveryError::CorruptRecord { .. })
    ));
}
// --- position-first journal -----------------------------------------

use ae_api::SnapshotWriter;
use ae_baselines::Replication;

fn repl3() -> Arc<dyn RedundancyScheme> {
    Arc::new(Replication::new(3))
}

/// Every `Meta` block `store` holds.
fn meta_blocks(store: &MemStore) -> Vec<(BlockId, Block)> {
    let ids = store.ids().into_iter().filter(|id| id.is_meta());
    ids.map(|id| (id, store.get(id).unwrap())).collect()
}

fn copy_of(store: &MemStore) -> Arc<MemStore> {
    let copy = MemStore::new();
    for id in store.ids() {
        copy.put(id, store.get(id).unwrap());
    }
    Arc::new(copy)
}

/// A backend holding genesis, a one-part committed checkpoint of
/// `payload` at seq 1 and the `suffix` records after it — written by
/// hand, so the counters can claim what no test could afford to store.
fn crafted(
    scheme: &dyn RedundancyScheme,
    payload: &CheckpointPayload,
    suffix: &[MetaRecord],
) -> Arc<MemStore> {
    let store = MemStore::new();
    let genesis = MetaRecord::Genesis {
        scheme: scheme.scheme_name(),
        block_size: 64,
        copies: 3,
    };
    let pointer = MetaRecord::Pointer {
        checkpoint: 1,
        parts: 1,
    };
    let mut records = vec![
        genesis.encode(0),
        encode_checkpoint_part(1, 0, 1, &payload.encode()),
    ];
    records.extend((2u64..).zip(suffix).map(|(seq, r)| r.encode(seq)));
    for copy in 0..3 {
        for (seq, bytes) in (0u64..).zip(&records) {
            store.put(meta_copy_id(seq, copy), Block::from_vec(bytes.clone()));
        }
        store.put(pointer_id(0, copy), Block::from_vec(pointer.encode(0)));
    }
    Arc::new(store)
}

/// A 3-way-replication checkpoint claiming `data` data blocks — one
/// empty-looking file's worth: the rows of a checkpoint account for every
/// data block — and `stored` stored ones, its encoder frontier in step.
fn claimed(data: u64, stored: u32) -> CheckpointPayload {
    CheckpointPayload {
        level: 0,
        base: None,
        manifest: vec![("everything".into(), 0, 0, 0, data)],
        data,
        stored,
        sealed: false,
        frontier: SnapshotWriter::new(1).u64(data).finish(),
    }
}

#[test]
fn the_position_ceiling_is_a_typed_refusal() {
    // 3-way replication stores 3 blocks per data block, and
    // u32::MAX = 3 × 1 431 655 765: that many data blocks fill the
    // position space exactly.
    let full = u64::from(u32::MAX) / 3;
    let store = crafted(&*repl3(), &claimed(full, u32::MAX - 2), &[]);
    let mut ar = Archive::open(repl3(), Arc::clone(&store)).unwrap();
    assert_eq!(ar.blocks_written(), full);
    let held = store.len();
    assert_eq!(
        ar.put("one-more", b"x"),
        Err(ArchiveError::TooLarge {
            blocks: 3 * (full + 1)
        })
    );
    assert_eq!(store.len(), held, "nothing encoded, nothing journaled");
    assert_eq!(ar.scheme().data_written(), full, "the encoder never ran");
    assert_eq!(ar.file_count(), 1, "the checkpoint's one row");
    assert_eq!(ar.seal(), Ok(Vec::new()), "the flush still fits");

    // One data block further the universe itself is past the ceiling
    // (the stored count, buffered redundancy pending, is not): even
    // the flush is refused.
    let store = crafted(&*repl3(), &claimed(full + 1, u32::MAX - 2), &[]);
    let mut ar = Archive::open(repl3(), Arc::clone(&store)).unwrap();
    let refused = ArchiveError::TooLarge {
        blocks: 3 * (full + 1),
    };
    assert_eq!(ar.seal(), Err(refused.clone()));
    assert!(!ar.is_sealed());
    assert!(refused.to_string().contains("4294967298"), "{refused}");
}

#[test]
fn counters_beyond_the_universe_are_corrupt_records() {
    let open = |payload: &CheckpointPayload, suffix: &[MetaRecord]| {
        Archive::open(repl3(), crafted(&*repl3(), payload, suffix)).map(|_| ())
    };
    let corrupt_at = |result: Result<(), RecoveryError>, at: u64, what: &str| match result {
        Err(RecoveryError::CorruptRecord { seq, detail }) => {
            assert_eq!(seq, at, "{detail}");
            assert!(detail.contains(what), "{detail}");
        }
        other => panic!("expected a corrupt record at {at}, got {other:?}"),
    };
    assert_eq!(open(&claimed(10, 30), &[]), Ok(()));
    // More stored blocks than 10 data blocks can have.
    corrupt_at(open(&claimed(10, 31), &[]), 1, "exceed the universe");
    // More data blocks than stored blocks.
    corrupt_at(open(&claimed(10, 9), &[]), 1, "cannot take");
    // A put record whose count runs past the position space.
    let full = u64::from(u32::MAX) / 3;
    let put = |count| MetaRecord::Put {
        name: "f".into(),
        byte_len: 1,
        crc: 0,
        first_block: full - 1,
        block_count: 1,
        stored: count,
        frontier: SnapshotWriter::new(1).u64(full).finish(),
    };
    let nearly = claimed(full - 1, u32::MAX - 3);
    assert_eq!(open(&nearly, &[put(3)]), Ok(()));
    corrupt_at(open(&nearly, &[put(4)]), 2, "exceed the universe");
    // A put record that stores fewer blocks than it adds data blocks.
    corrupt_at(open(&nearly, &[put(0)]), 2, "cannot take");
    // Manifest rows outside the data counter, or longer than their
    // extent: `get` would index and allocate by them.
    let with_row = |row| CheckpointPayload {
        manifest: vec![row],
        ..claimed(10, 30)
    };
    assert_eq!(open(&with_row(("f".into(), 640, 0, 0, 10)), &[]), Ok(()));
    corrupt_at(open(&with_row(("f".into(), 1, 0, 0, 11)), &[]), 1, "extent");
    corrupt_at(
        open(&with_row(("f".into(), 1, 0, u64::MAX, 2)), &[]),
        1,
        "extent",
    );
    corrupt_at(
        open(&with_row(("f".into(), 641, 0, 0, 10)), &[]),
        1,
        "claims",
    );
    corrupt_at(
        open(&with_row(("f".into(), u64::MAX, 0, 0, 10)), &[]),
        1,
        "claims",
    );
    // Counters the restored encoder does not agree with.
    let skewed = CheckpointPayload {
        frontier: SnapshotWriter::new(1).u64(9).finish(),
        ..claimed(10, 30)
    };
    corrupt_at(open(&skewed, &[]), 1, "encoder frontier");
    // A format-3 put record whose stored blocks have shape 1 — the id
    // list no build reads — is a damaged record, not a torn tail, when
    // a record follows it.
    let record = |name: &str, first_block: u64| MetaRecord::Put {
        name: name.into(),
        byte_len: 1,
        crc: 0,
        first_block,
        block_count: 1,
        stored: 3,
        frontier: SnapshotWriter::new(1).u64(first_block + 1).finish(),
    };
    let suffix = [record("g", 10), record("h", 11)];
    assert_eq!(open(&claimed(10, 30), &suffix), Ok(()));
    let store = crafted(&*repl3(), &claimed(10, 30), &suffix);
    let mut shaped = suffix[0].encode(2);
    // (The header, the name "g" and four integers come before it.)
    let shape = 20 + 3 + 28;
    assert_eq!(shaped[shape..shape + 5], [0, 3, 0, 0, 0]);
    shaped[shape] = 1;
    for copy in 0..3 {
        store.put(meta_copy_id(2, copy), Block::from_vec(resealed(&shaped)));
    }
    let result = Archive::open(repl3(), store).map(|_| ());
    corrupt_at(result, 2, "bad stored-blocks shape 1");
}

/// `bytes` with its trailing CRC32 recomputed over the rest.
fn resealed(bytes: &[u8]) -> Vec<u8> {
    let body = bytes.len() - 4;
    let mut out = bytes.to_vec();
    out[body..].copy_from_slice(&crc32(&bytes[..body]).to_le_bytes());
    out
}

/// A journal an earlier format wrote is refused at its genesis record,
/// before anything is replayed, naming the version.
#[test]
fn an_older_format_is_refused_naming_its_version() {
    let store = Arc::new(MemStore::new());
    let mut ar =
        Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(2)));
    // A chain of two segments and a suffix record.
    for i in 0..7u8 {
        ar.put(&format!("f{i}"), &payload(100, i)).unwrap();
    }
    assert!(ar.checkpoint_seq().is_some() && ar.live_meta_records() > 3);
    drop(ar);
    assert!(Archive::open(ae_scheme(), copy_of(&store)).is_ok());
    for version in [1u16, 2] {
        let old = copy_of(&store);
        for copy in 0..3 {
            let genesis = old.get(meta_copy_id(0, copy)).unwrap();
            let mut bytes = genesis.as_slice().to_vec();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            old.put(meta_copy_id(0, copy), Block::from_vec(resealed(&bytes)));
        }
        match Archive::open(ae_scheme(), old) {
            Err(RecoveryError::CorruptRecord { seq: 0, detail }) => {
                let named = format!("format version {version}; this build reads {FORMAT_VERSION}");
                assert!(detail.contains(&named), "{detail}");
            }
            other => panic!("version {version}: {:?}", other.map(|_| ())),
        }
    }
}

/// Hostile bytes at the archive level: every byte of every live record
/// of a real journal (a chain of three multi-part checkpoint segments,
/// both pointer cells, a suffix record), set to four other values with
/// the checksum re-sealed so the mutation gets past the CRC and into the
/// chain walk and replay. `open` must answer `Ok` or a typed error — and
/// whatever opens must serve reads without panicking.
#[test]
fn one_mutated_byte_in_a_real_journal_never_panics_open() {
    let store = Arc::new(MemStore::new());
    let cfg = MetaConfig {
        copies: 3,
        checkpoint_every: None,
        segment_bytes: 60,
    };
    let mut ar = Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), cfg);
    // Seven commits leave segments of level 2, 1 and 0; the eighth put
    // is the suffix.
    for i in 0..8u8 {
        ar.put(&format!("f{i}"), &payload(70 * i as usize, i))
            .unwrap();
        if i < 7 {
            ar.checkpoint();
        }
    }
    let part_zeros = meta_blocks(&store).into_iter().filter(|(id, block)| {
        let BlockId::Meta(meta) = *id else {
            unreachable!()
        };
        let part = MetaRecord::decode(meta.seq(), block.as_slice());
        meta.copy() == 0 && matches!(part, Ok(MetaRecord::Checkpoint { part: 0, .. }))
    });
    assert_eq!(part_zeros.count(), 3, "three live segments");
    assert!(
        ar.live_meta_records() > 3 + 2,
        "multi-part ones, and a suffix"
    );
    drop(ar);
    let mut records: Vec<(MetaId, Block)> = meta_blocks(&store)
        .into_iter()
        .filter_map(|(id, block)| match id {
            BlockId::Meta(meta) if meta.copy() == 0 => Some((meta, block)),
            _ => None,
        })
        .collect();
    records.sort_by_key(|(meta, _)| *meta);
    let (mut opened, mut refused) = (0, 0);
    for (meta, block) in records {
        let body = block.len() - 4;
        for at in 0..body {
            for flip in [0x01, 0x80, 0xFF, block.as_slice()[at]] {
                // (the last one zeroes the byte)
                let mut bytes = block.as_slice().to_vec();
                bytes[at] ^= flip;
                if bytes[at] == block.as_slice()[at] {
                    continue;
                }
                let crc = crc32(&bytes[..body]);
                bytes[body..].copy_from_slice(&crc.to_le_bytes());
                let hostile = copy_of(&store);
                for copy in 0..3 {
                    let id = if meta.is_pointer() {
                        pointer_id(meta.seq(), copy)
                    } else {
                        meta_copy_id(meta.seq(), copy)
                    };
                    hostile.put(id, Block::from_vec(bytes.clone()));
                }
                match Archive::open(ae_scheme(), hostile) {
                    Ok(ar) => {
                        opened += 1;
                        for name in ar.names() {
                            let _ = ar.get(name);
                        }
                        assert!(ar.stored_ids().len() <= 4 * ar.blocks_written() as usize);
                    }
                    Err(err) => {
                        refused += 1;
                        assert!(!err.to_string().is_empty());
                    }
                }
            }
        }
    }
    assert!(
        opened > 0 && refused > opened,
        "{opened} opened, {refused} refused"
    );
}

/// What is prefetched costs nothing to ask again — an absence no less
/// than a block.
#[test]
fn prefetched_answers_cost_no_round_trips_negative_ones_included() {
    use ae_aio::{Clock, LatencyStore, LinkSpec, Runtime};
    let link = LinkSpec::rtt(std::time::Duration::from_millis(1));
    let inner = Arc::new(MemStore::new());
    inner.put(data_id(1), Block::from_vec(vec![9]));
    inner.put(data_id(3), Block::from_vec(vec![7]));
    let net = LatencyStore::uniform(inner, Runtime::new(Clock::virtual_time()), link, 1);
    let net = net.into_sync();
    let now = || net.runtime().now();
    let mut known = Prefetched::new(&net, 1);
    known.fill([data_id(1)]);
    // A network away, what a sweep read stays too.
    known.sweep(&[data_id(2)], |_, read| assert!(read.is_err()));
    let filled = now();
    assert!(filled > 0, "the batches themselves crossed the link");
    assert_eq!(known.fetch(data_id(1)).unwrap().as_slice(), &[9]);
    assert_eq!(
        known.read(data_id(2)),
        Err(StoreError::NotFound(data_id(2)))
    );
    assert!(known.has(data_id(1)) && !known.has(data_id(2)));
    known.fill([data_id(2), data_id(1)]);
    assert_eq!(
        now(),
        filled,
        "answers — the absent one too — are not re-asked"
    );
    // Anything else reads through, one round trip a call.
    assert_eq!(known.fetch(data_id(3)).unwrap().as_slice(), &[7]);
    assert!(now() > filled);
}
