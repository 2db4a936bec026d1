//! Archive parity + disaster matrix: every roster scheme from
//! `sim::Scheme::extended_lineup()` drives the one generic `Archive`
//! through put → corrupt → degraded get → scrub → get round-trips, over
//! the in-memory, tiered, fault-injecting and location-sharded backends.
//! A legacy parity pin proves the AE convenience constructor still
//! behaves exactly like driving `ae_core::Code` by hand, and proptests
//! pin that degraded-read failures name the same missing tuple members as
//! the scheme's own error-typed `repair_block`.

use aecodes::api::{BlockRepo, BlockSink, RedundancyScheme};
use aecodes::blocks::{Block, BlockId};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::{Archive, ArchiveError};
use aecodes::store::{DistributedStore, FaultyStore, LocationId, MemStore, Placement, TieredStore};
use proptest::prelude::*;
use std::sync::Arc;

const BLOCK: usize = 32;

/// A few files of awkward sizes (empty, sub-block, exact multiple, large).
fn files() -> Vec<(&'static str, Vec<u8>)> {
    let content = |len: usize, seed: u64| -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    };
    vec![
        ("empty.flag", Vec::new()),
        ("tiny.txt", content(11, 3)),
        ("exact.bin", content(BLOCK * 4, 5)),
        ("report.pdf", content(2_000, 7)),
        ("trace.log", content(700, 9)),
    ]
}

/// Builds an archive for a roster scheme over the given backend and puts
/// every file, sealing at the end (the archival end state).
fn filled_archive<B: BlockRepo + ?Sized>(scheme: &Scheme, store: Arc<B>) -> Archive<B> {
    let scheme: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let mut ar = Archive::with_scheme(scheme, BLOCK, store);
    for (name, contents) in files() {
        ar.put(name, &contents).expect("fresh name");
    }
    ar.seal().expect("flush buffered redundancy");
    ar
}

/// Scattered victims: every `stride`-th stored block — far enough apart
/// that no scheme in the roster is over-erased.
fn scattered_victims(ar: &Archive<impl BlockRepo + ?Sized>, stride: usize) -> Vec<BlockId> {
    ar.stored_ids().iter().copied().step_by(stride).collect()
}

/// The core matrix: put / corrupt / degraded get / scrub / get for every
/// roster scheme over a plain in-memory backend.
#[test]
fn every_roster_scheme_round_trips_through_the_archive() {
    for s in Scheme::extended_lineup() {
        let store = Arc::new(MemStore::new());
        let mut ar = filled_archive(&s, Arc::clone(&store));
        let name = ar.scheme().scheme_name();
        assert_eq!(name, s.name(), "roster and scheme agree");

        // Fresh archive: everything reads back.
        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{name}: {file}");
        }

        // Disaster: scattered erasures behind the archive's back.
        let victims = scattered_victims(&ar, 20);
        assert!(!victims.is_empty());
        for v in &victims {
            assert!(store.remove(*v), "{name}: victim {v} was stored");
        }

        // Degraded reads survive without mutating the backend…
        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{name}: {file}");
        }
        assert!(!store.contains(victims[0]), "{name}: reads stay read-only");

        // …and scrub restores every victim byte-for-byte reachable.
        let restored = ar.scrub();
        assert_eq!(restored as usize, victims.len(), "{name}");
        for v in &victims {
            assert!(store.contains(*v), "{name}: {v} restored");
        }
        assert_eq!(ar.scrub(), 0, "{name}: scrub is idempotent");
        assert!(ar.verify_all().is_empty(), "{name}");

        // Sealed archives reject further puts, whatever the scheme.
        assert!(matches!(
            ar.put("late.txt", b"no"),
            Err(ArchiveError::Sealed(_))
        ));
    }
}

/// The same matrix over a tiered backend (data on the fast tier,
/// redundancy on the shared tier) with the fast tier taking the damage.
#[test]
fn every_roster_scheme_survives_fast_tier_damage_when_tiered() {
    for s in Scheme::extended_lineup() {
        let tiered = Arc::new(TieredStore::new(Arc::new(MemStore::new())));
        let mut ar = filled_archive(&s, Arc::clone(&tiered));
        let name = ar.scheme().scheme_name();

        // Lose every 20th *data* block off the fast tier.
        let victims: Vec<BlockId> = ar.data_ids().step_by(20).collect();
        for v in &victims {
            assert!(tiered.fast().remove(*v), "{name}: {v} was on the fast tier");
        }

        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{name}: {file}");
        }
        let restored = ar.scrub();
        assert_eq!(restored as usize, victims.len(), "{name}");
        assert!(ar.verify_all().is_empty(), "{name}");
    }
}

/// The same matrix with injected faults instead of hard removal: the
/// fault-injecting backend blackholes blocks, degraded reads survive, and
/// scrubbing (writes = replaced hardware) heals every fault.
#[test]
fn every_roster_scheme_heals_injected_faults() {
    for s in Scheme::extended_lineup() {
        let faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
        let mut ar = filled_archive(&s, Arc::clone(&faulty));
        let name = ar.scheme().scheme_name();

        let victims = scattered_victims(&ar, 20);
        faulty.fail_all(victims.iter().copied());
        assert_eq!(faulty.failed_len(), victims.len(), "{name}");

        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{name}: {file}");
        }
        assert_eq!(
            faulty.failed_len(),
            victims.len(),
            "{name}: degraded reads must not heal"
        );

        let restored = ar.scrub();
        assert_eq!(restored as usize, victims.len(), "{name}");
        assert_eq!(faulty.failed_len(), 0, "{name}: scrub heals every fault");
        assert!(ar.verify_all().is_empty(), "{name}");
    }
}

/// The same matrix over a location-sharded backend with a location down
/// for the whole run: every file still reads, and the first scrub puts
/// what the dead location held on live ones, so a second scrub finds
/// nothing to restore (a repair stored back on the dead location would
/// be restored again by every scrub).
#[test]
fn every_roster_scheme_heals_onto_live_locations() {
    for s in Scheme::extended_lineup() {
        let dist = Arc::new(DistributedStore::new(30, Placement::Random { seed: 4 }));
        let mut ar = filled_archive(&s, Arc::clone(&dist));
        let name = ar.scheme().scheme_name();
        dist.with_cluster(|c| c.fail(LocationId(9)));

        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{name}: {file}");
        }
        assert!(ar.scrub() > 0, "{name}: location 9 held some blocks");
        assert_eq!(ar.scrub(), 0, "{name}: repairs landed on live locations");
        assert!(ar.verify_all().is_empty(), "{name}");
    }
}

/// Legacy parity pin: the thin AE convenience constructor
/// (`Archive::new(Config, …)`) must behave exactly like driving
/// `ae_core::Code` by hand the way the pre-generic archive did — the same
/// backend contents block for block, the same manifest extents
/// (`first_block + 1` is the first lattice node, as `first_node` was),
/// and the same degraded reads.
#[test]
fn legacy_ae_constructor_matches_hand_driven_code() {
    use aecodes::blocks::{Block, NodeId};
    use aecodes::core::Code;

    let cfg = Config::new(3, 2, 5).unwrap();
    let archive_store = Arc::new(MemStore::new());
    let mut ar = Archive::new(cfg, BLOCK, Arc::clone(&archive_store));

    // The reference: the exact encode pipeline the legacy archive ran.
    let legacy_store = MemStore::new();
    let legacy_code = Code::new(cfg, BLOCK);

    for (name, contents) in files() {
        let entry = ar.put(name, &contents).unwrap();
        let blocks: Vec<Block> = if contents.is_empty() {
            vec![Block::zero(BLOCK)]
        } else {
            contents
                .chunks(BLOCK)
                .map(|c| {
                    let mut bytes = c.to_vec();
                    bytes.resize(BLOCK, 0);
                    Block::from_vec(bytes)
                })
                .collect()
        };
        let report = legacy_code.encode_batch(&blocks, &legacy_store).unwrap();
        // The legacy manifest carried 1-based lattice nodes; the dense
        // extent is the same number shifted to 0-based.
        assert_eq!(entry.first_block + 1, report.first_node, "{name}");
    }

    // Block-for-block identical backends — modulo the archive's metadata
    // journal, which the hand-driven pipeline never writes (the reserved
    // meta namespace is what makes the archive crash-recoverable).
    let mut ids_a: Vec<BlockId> = archive_store
        .ids()
        .into_iter()
        .filter(|id| !id.is_meta())
        .collect();
    let mut ids_b = legacy_store.ids();
    ids_a.sort();
    ids_b.sort();
    assert_eq!(ids_a, ids_b);
    for id in &ids_a {
        assert_eq!(
            archive_store.get(*id).unwrap(),
            legacy_store.get(*id).unwrap(),
            "{id}"
        );
    }

    // Degraded reads equal the legacy direct-decoder result.
    let victim = BlockId::Data(NodeId(3));
    let original = archive_store.get(victim).unwrap();
    archive_store.remove(victim);
    legacy_store.remove(victim);
    let via_archive = ar.get("exact.bin").unwrap();
    let direct = legacy_code
        .repair_block(&legacy_store, victim, legacy_code.written())
        .unwrap();
    assert_eq!(direct, original);
    assert_eq!(via_archive, files()[2].1);
}

/// A torn write — a well-formed block shorter than the archive's block
/// size, which is what a power cut leaves — is as absent as a lost one to
/// every repair a degraded read runs: a data block is lost and the first
/// member its repair would read is torn. Every scheme with another intact
/// repair option reads the file back, and scrub heals both; 2-way
/// replication, whose only other copy is the torn one, fails typed.
/// Nothing panics, over a plain backend or one a network away (where the
/// repair reads are planned and prefetched).
#[test]
fn a_torn_tuple_member_is_absent_to_degraded_reads() {
    use aecodes::aio::{Clock, LatencyStore, LinkSpec, Runtime};
    for s in Scheme::extended_lineup() {
        let mem = Arc::new(MemStore::new());
        tear_a_tuple_member(&s, &mem, Arc::clone(&mem));
        let mem = Arc::new(MemStore::new());
        let link = LinkSpec::rtt(std::time::Duration::from_millis(1));
        let net = LatencyStore::uniform(
            Arc::clone(&mem),
            Runtime::new(Clock::virtual_time()),
            link,
            0,
        );
        tear_a_tuple_member(&s, &mem, Arc::new(net.into_sync()));
    }
}

/// One run of the torn-member test: the archive over `backend`, whose
/// blocks live in `mem`.
fn tear_a_tuple_member<B: BlockRepo + ?Sized>(s: &Scheme, mem: &MemStore, backend: Arc<B>) {
    let (file, contents) = files().swap_remove(3);
    assert_eq!(contents.len(), 2_000);
    let scheme: Arc<dyn RedundancyScheme> = Arc::from(s.build(BLOCK));
    let mut ar = Archive::with_scheme(scheme, BLOCK, backend);
    ar.put(file, &contents).expect("fresh name");
    ar.seal().expect("flush buffered redundancy");
    let name = ar.scheme().scheme_name();

    let victim = ar.data_ids().nth(5).expect("the file spans 63 blocks");
    assert!(mem.remove(victim), "{name}: {victim} was stored");
    let written = ar.scheme().data_written();
    let read_set = std::cell::RefCell::new(Vec::new());
    ar.scheme().is_repairable(victim, written, &|id| {
        read_set.borrow_mut().push(id);
        true
    });
    let torn = read_set.into_inner()[0];
    let whole = mem.get(torn).expect("the read set was stored");
    mem.put(
        torn,
        Block::from_vec(whole.as_slice()[..BLOCK / 2].to_vec()),
    );

    if name == "2-way replic." {
        assert!(
            matches!(ar.get(file), Err(ArchiveError::BlockUnavailable { id, .. }) if id == victim),
            "{name}: the only other copy is torn"
        );
        return;
    }
    assert_eq!(ar.get(file).expect(&name), contents, "{name}");
    ar.scrub();
    assert_eq!(mem.get(torn), Ok(whole), "{name}: scrub rewrote {torn}");
    assert!(mem.contains(victim), "{name}: scrub restored {victim}");
    assert!(ar.verify_all().is_empty(), "{name}");
}

/// Strategy over the archive roster (compact: proptest drives damage).
fn any_roster_index() -> impl Strategy<Value = usize> {
    0..Scheme::extended_lineup().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under random damage, a degraded read either reproduces the original
    /// bytes or fails with `BlockUnavailable` naming **exactly** the
    /// missing tuple members the scheme's own `repair_block` reports for
    /// that block — the archive adds no error translation layer.
    #[test]
    fn degraded_reads_name_the_same_missing_members_as_the_scheme(
        pick in any_roster_index(),
        damage_seed: u64,
        damage_pct in 5u64..45,
    ) {
        let roster = Scheme::extended_lineup();
        let store = Arc::new(MemStore::new());
        let mut ar = filled_archive(&roster[pick], Arc::clone(&store));
        let name = ar.scheme().scheme_name();

        // Pseudo-random damage over everything the archive wrote.
        let mut state = damage_seed | 1;
        for id in ar.stored_ids() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) % 100 < damage_pct {
                store.remove(*id);
            }
        }

        for (file, contents) in files() {
            match ar.get(file) {
                Ok(bytes) => prop_assert_eq!(bytes, contents, "{}: {}", name, file),
                Err(ArchiveError::BlockUnavailable { id, source }) => {
                    // The failing block is genuinely gone…
                    prop_assert!(!store.contains(id), "{}: {}", name, id);
                    // …and the named members are the scheme's own verdict.
                    let direct = ar
                        .scheme()
                        .repair_block(&store, id, ar.scheme().data_written())
                        .expect_err("archive said unrepairable");
                    prop_assert_eq!(
                        source.missing_blocks(),
                        direct.missing_blocks(),
                        "{}: {}",
                        name,
                        id
                    );
                }
                Err(other) => prop_assert!(false, "{}: unexpected error {:?}", name, other),
            }
        }

        // Scrub + verify never report differently: a file is verifiable
        // iff its degraded read succeeded above or scrub restored it.
        ar.scrub();
        for name in ar.verify_all() {
            prop_assert!(ar.get(&name).is_err());
        }
    }
}
