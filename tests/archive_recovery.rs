//! Crash-recovery matrix: every roster scheme from
//! `sim::Scheme::extended_lineup()` drives the archive through
//! **crash → `Archive::open` → repair → `get`** over the in-memory,
//! tiered and fault-injecting backends, at every possible cut point —
//! and the result must be **block-for-block identical** to an
//! uninterrupted run: same manifest, same stored-id log, same backend
//! bytes. The checkpoint era adds two sweeps: a [`PowerCut`] store tears
//! the archive's write stream at every position — mid-checkpoint,
//! between parts and pointer, mid-GC — and the reopened archive must
//! always serve exactly what it acknowledged; and a metadata copy-loss
//! matrix deletes or corrupts one/two of the three `Meta` copies of
//! every live record, which must degrade (typed report) but never
//! escalate. Proptests pin the journal's failure modes: a torn final
//! record is truncated and reported (never stale data), a record with
//! **all** copies damaged mid-journal is a typed error naming the record
//! (never a panic), single-copy damage anywhere is survivable.

use aecodes::api::{BlockRepo, BlockSink, BlockSource, RedundancyScheme, StoreError};
use aecodes::blocks::{Block, BlockId};
use aecodes::sim::Scheme;
use aecodes::store::archive::{Archive, ArchiveError, RecoveryError};
use aecodes::store::meta::{meta_copy_id, meta_id, pointer_id, MetaConfig};
use aecodes::store::{FaultyStore, MemStore, TieredStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
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
        // Three more puts take `sweep_cfg`'s cadence of two through its
        // fourth commit: a level-2 fold of every segment before it.
        ("a.idx", content(40, 11)),
        ("b.idx", content(BLOCK, 13)),
        ("c.idx", content(3, 15)),
    ]
}

fn build(s: &Scheme) -> Arc<dyn RedundancyScheme> {
    Arc::from(s.build(BLOCK))
}

/// The uninterrupted reference: every file put through one process, then
/// sealed.
fn uninterrupted(s: &Scheme) -> (Archive<MemStore>, Arc<MemStore>) {
    let store = Arc::new(MemStore::new());
    let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&store));
    for (name, contents) in files() {
        ar.put(name, &contents).unwrap();
    }
    ar.seal().unwrap();
    (ar, store)
}

/// Simulated crash: put the first `cut` files, drop the archive *and* its
/// scheme (all in-memory state dies), reopen from the backend alone, put
/// the rest, seal.
fn crash_and_resume<B: BlockRepo + ?Sized>(s: &Scheme, store: &Arc<B>, cut: usize) -> Archive<B> {
    {
        let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(store));
        for (name, contents) in files().iter().take(cut) {
            ar.put(name, contents).unwrap();
        }
    } // crash
    let mut ar = Archive::open(build(s), Arc::clone(store)).expect("journal replays");
    assert_eq!(ar.torn_tail(), None, "{s}: clean crash has no torn record");
    for (name, contents) in files().iter().skip(cut) {
        ar.put(name, contents).unwrap();
    }
    ar.seal().unwrap();
    ar
}

/// Asserts the crashed-and-resumed archive is indistinguishable from the
/// uninterrupted one: manifest, stored-id log, and every stored block.
fn assert_block_identical<B: BlockRepo + ?Sized>(
    s: &Scheme,
    resumed: &Archive<B>,
    store: &Arc<B>,
    reference: &Archive<MemStore>,
    ref_store: &Arc<MemStore>,
) {
    let name = s.name();
    assert_eq!(
        resumed.names().collect::<Vec<_>>(),
        reference.names().collect::<Vec<_>>(),
        "{name}: manifest names"
    );
    for file in reference.names() {
        assert_eq!(resumed.entry(file), reference.entry(file), "{name}: {file}");
    }
    assert_eq!(
        resumed.stored_ids(),
        reference.stored_ids(),
        "{name}: write-order id log"
    );
    for id in reference.stored_ids() {
        assert_eq!(
            store.fetch(*id).as_ref(),
            ref_store.fetch(*id).as_ref(),
            "{name}: {id}"
        );
    }
}

/// Crash at every cut point over a plain in-memory backend, then a
/// disaster and a scrub: the resumed archive must repair and read
/// everything, block-for-block equal to the uninterrupted run.
#[test]
fn every_roster_scheme_recovers_from_a_crash_over_mem() {
    for s in Scheme::extended_lineup() {
        let (reference, ref_store) = uninterrupted(&s);
        for cut in 0..=files().len() {
            let store = Arc::new(MemStore::new());
            let mut ar = crash_and_resume(&s, &store, cut);
            assert_block_identical(&s, &ar, &store, &reference, &ref_store);

            // Disaster after recovery: scattered erasures, then repair.
            let victims: Vec<BlockId> = ar.stored_ids().iter().copied().step_by(20).collect();
            for v in &victims {
                assert!(store.remove(*v), "{s}: victim {v} was stored");
            }
            assert_eq!(ar.scrub() as usize, victims.len(), "{s} cut {cut}");
            for (file, contents) in files() {
                assert_eq!(ar.get(file).expect(file), contents, "{s}: {file}");
            }
            assert!(ar.verify_all().is_empty(), "{s} cut {cut}");
        }
    }
}

/// The same crash matrix over a tiered backend: metadata and redundancy
/// live on the shared tier, data on the fast tier; after recovery the
/// fast tier takes the damage.
#[test]
fn every_roster_scheme_recovers_from_a_crash_over_tiered() {
    for s in Scheme::extended_lineup() {
        let (reference, ref_store) = uninterrupted(&s);
        let tiered = Arc::new(TieredStore::new(Arc::new(MemStore::new())));
        let mut ar = crash_and_resume(&s, &tiered, 2);
        assert_block_identical(&s, &ar, &tiered, &reference, &ref_store);

        let victims: Vec<BlockId> = ar.data_ids().step_by(20).collect();
        for v in &victims {
            assert!(tiered.fast().remove(*v), "{s}: {v} was on the fast tier");
        }
        assert_eq!(ar.scrub() as usize, victims.len(), "{s}");
        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{s}: {file}");
        }
        assert!(ar.verify_all().is_empty(), "{s}");
    }
}

/// The same crash matrix over the fault-injecting backend: reopen, then
/// blackhole scattered blocks — degraded reads survive and scrubbing
/// (writes = replaced hardware) heals every fault.
#[test]
fn every_roster_scheme_recovers_from_a_crash_over_faulty() {
    for s in Scheme::extended_lineup() {
        let (reference, ref_store) = uninterrupted(&s);
        let faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
        let mut ar = crash_and_resume(&s, &faulty, 3);
        assert_block_identical(&s, &ar, &faulty, &reference, &ref_store);

        let victims: Vec<BlockId> = ar.stored_ids().iter().copied().step_by(20).collect();
        faulty.fail_all(victims.iter().copied());
        for (file, contents) in files() {
            assert_eq!(ar.get(file).expect(file), contents, "{s}: {file}");
        }
        assert_eq!(
            faulty.failed_len(),
            victims.len(),
            "{s}: degraded reads must not heal"
        );
        assert_eq!(ar.scrub() as usize, victims.len(), "{s}");
        assert_eq!(faulty.failed_len(), 0, "{s}: scrub heals every fault");
        assert!(ar.verify_all().is_empty(), "{s}");
    }
}

/// A crash *between* the scheme's flush and the seal record must not
/// double-flush on the resumed seal: reopening and sealing again yields
/// the identical backend (same ids, same bytes) as the uninterrupted run.
#[test]
fn reopened_archives_seal_idempotently_for_every_scheme() {
    for s in Scheme::extended_lineup() {
        let (reference, ref_store) = uninterrupted(&s);
        let store = Arc::new(MemStore::new());
        {
            let mut ar = Archive::with_scheme(build(&s), BLOCK, Arc::clone(&store));
            for (name, contents) in files() {
                ar.put(name, &contents).unwrap();
            }
            ar.seal().unwrap();
        } // crash after a completed seal
        let mut ar = Archive::open(build(&s), Arc::clone(&store)).unwrap();
        assert!(ar.is_sealed(), "{s}: sealed state replays");
        assert_eq!(ar.seal().unwrap(), Vec::new(), "{s}: re-seal is a no-op");
        assert!(matches!(
            ar.put("late", b"no"),
            Err(ArchiveError::Sealed(_))
        ));
        assert_block_identical(&s, &ar, &store, &reference, &ref_store);
    }
}

/// Strategy over the roster (compact form: proptest drives the damage).
fn any_roster_index() -> impl Strategy<Value = usize> {
    0..Scheme::extended_lineup().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hostile frontier bytes, scheme side: arbitrary bytes, and a real
    /// snapshot with each word in turn overwritten by an extreme counter,
    /// go through `frontier_reads` and `restore_frontier` of every roster
    /// scheme — what `open` does with a re-checksummed record — without a
    /// panic, and a counter never sizes the read set.
    #[test]
    fn hostile_frontier_snapshots_are_typed_errors_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..40),
        raw: u64,
    ) {
        // Fresh and mid-stripe: an empty RS buffer and a partial one.
        for (s, written) in Scheme::extended_lineup().iter().flat_map(|s| [(s, 0u8), (s, 23)]) {
            let store = MemStore::new();
            let writer = build(s);
            let blocks: Vec<Block> = (0..written).map(|i| Block::from_vec(vec![i; BLOCK])).collect();
            writer.encode_batch(&blocks, &store).unwrap();
            let real = writer.frontier_snapshot();
            let mut hostile = vec![noise.clone()];
            for at in 1..real.len() {
                for word in [u64::MAX, i64::MAX as u64, i64::MAX as u64 - 1, 1 << 32, raw] {
                    let mut mutated = real.clone();
                    for (byte, v) in mutated[at..].iter_mut().zip(word.to_le_bytes()) {
                        *byte = v;
                    }
                    hostile.push(mutated);
                }
            }
            for snapshot in hostile {
                let fresh = build(s);
                let reads = fresh.frontier_reads(&snapshot);
                prop_assert!(reads.len() <= 64, "{}: {} frontier reads", s, reads.len());
                // Any outcome but a panic: most mutations are refused
                // typed, some only move the counter to blocks the store
                // lacks.
                let _ = fresh.restore_frontier(&snapshot, &store);
            }
        }
    }

    /// A torn final journal record — the crash cut the write short at any
    /// byte — is detected, truncated and reported: the archive reopens at
    /// the last durable state, the un-acknowledged file reads as unknown
    /// (never stale bytes), and the stream resumes cleanly.
    #[test]
    fn torn_final_record_truncates_never_serves_stale_data(
        pick in any_roster_index(),
        cut_pct in 0u64..100,
    ) {
        let s = &Scheme::extended_lineup()[pick];
        let store = Arc::new(MemStore::new());
        let torn_seq = {
            let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&store));
            for (name, contents) in files() {
                ar.put(name, &contents).unwrap();
            }
            ar.meta_len() - 1 // the final put's record
        };
        // The crash must beat every copy of the record: tear them all at
        // the same byte (one copy surviving would make the put durable).
        let full = store.fetch(meta_id(torn_seq)).unwrap();
        let cut = (full.len() as u64 * cut_pct / 100) as usize;
        for copy in 0..MetaConfig::default().copies {
            store.store(
                meta_copy_id(torn_seq, copy),
                Block::copy_from_slice(&full.as_slice()[..cut]),
            );
        }

        let mut ar = Archive::open(build(s), Arc::clone(&store)).expect("torn tail is not fatal");
        prop_assert_eq!(ar.torn_tail(), Some(torn_seq), "{}: truncation reported", s);
        let (torn_name, torn_contents) = files().pop().unwrap();
        prop_assert!(
            matches!(ar.get(torn_name), Err(ArchiveError::UnknownFile(_))),
            "{}: un-acknowledged put must be gone, not stale", s
        );
        // Every durable file is intact…
        for (file, contents) in files().iter().take(files().len() - 1) {
            prop_assert_eq!(&ar.get(file).expect(file), contents, "{}: {}", s, file);
        }
        // …and the stream resumes: re-put the lost file, seal, verify.
        ar.put(torn_name, &torn_contents).unwrap();
        ar.seal().unwrap();
        prop_assert_eq!(ar.get(torn_name).unwrap(), torn_contents);
        prop_assert!(ar.verify_all().is_empty(), "{}", s);
    }

    /// A mid-journal record with **every** copy damaged — scrambled bytes
    /// or missing blocks — is a typed error naming the record: never a
    /// panic, never a silently rewound archive. (Checkpointing is off so
    /// the whole history stays live and any record can be the victim.)
    #[test]
    fn corrupt_mid_journal_record_is_a_typed_error(
        pick in any_roster_index(),
        victim_offset in 0usize..5,
        scramble: bool,
        noise: u64,
    ) {
        let s = &Scheme::extended_lineup()[pick];
        let store = Arc::new(MemStore::new());
        let cfg = MetaConfig { checkpoint_every: None, ..MetaConfig::default() };
        let records = {
            let mut ar = Archive::with_scheme_meta(build(s), BLOCK, Arc::clone(&store), cfg);
            for (name, contents) in files() {
                ar.put(name, &contents).unwrap();
            }
            ar.seal().unwrap();
            ar.meta_len()
        };
        // Any record but the last (a successor must exist to make the
        // damage mid-journal); 0 is the genesis record.
        let seq = victim_offset as u64 % (records - 1);
        for copy in 0..MetaConfig::default().copies {
            if scramble {
                let garbage: Vec<u8> = (0..40u64).map(|i| (noise.wrapping_mul(i + 1) >> 24) as u8).collect();
                store.store(meta_copy_id(seq, copy), Block::from_vec(garbage));
            } else {
                store.remove(meta_copy_id(seq, copy));
            }
        }

        match Archive::open(build(s), Arc::clone(&store)) {
            Err(RecoveryError::CorruptRecord { seq: reported, .. }) => {
                prop_assert_eq!(reported, seq, "{}: error names the damaged record", s)
            }
            Err(RecoveryError::NoArchive) => {
                // Removing every genesis copy looks like no archive at
                // all — equally typed, equally loud.
                prop_assert!(!scramble && seq == 0, "{}", s)
            }
            Err(other) => prop_assert!(false, "{}: expected CorruptRecord, got {}", s, other),
            Ok(_) => prop_assert!(false, "{}: damaged journal must not open", s),
        }
    }

    /// The same damage against a **single** copy of any record is always
    /// survivable: the read falls through to a surviving copy, the damage
    /// is reported (typed, per copy), every file verifies, and scrub
    /// restores the full copy set.
    #[test]
    fn single_copy_damage_anywhere_is_survivable(
        pick in any_roster_index(),
        victim_offset in 0usize..6,
        copy in 0u16..3,
        scramble: bool,
        noise: u64,
    ) {
        let s = &Scheme::extended_lineup()[pick];
        let store = Arc::new(MemStore::new());
        let cfg = MetaConfig { checkpoint_every: None, ..MetaConfig::default() };
        let records = {
            let mut ar = Archive::with_scheme_meta(build(s), BLOCK, Arc::clone(&store), cfg);
            for (name, contents) in files() {
                ar.put(name, &contents).unwrap();
            }
            ar.seal().unwrap();
            ar.meta_len()
        };
        let seq = victim_offset as u64 % records;
        let id = meta_copy_id(seq, copy);
        if scramble {
            let garbage: Vec<u8> = (0..40u64).map(|i| (noise.wrapping_mul(i + 3) >> 24) as u8).collect();
            store.store(id, Block::from_vec(garbage));
        } else {
            store.remove(id);
        }

        let mut ar = Archive::open(build(s), Arc::clone(&store))
            .expect("single-copy damage must never escalate");
        prop_assert!(
            ar.meta_damage().iter().any(|d| d.seq == seq && d.copy == copy),
            "{}: damage to copy {} of record {} reported: {:?}",
            s, copy, seq, ar.meta_damage()
        );
        prop_assert!(ar.verify_all().is_empty(), "{}", s);
        prop_assert!(ar.scrub() >= 1, "{}: scrub restores the copy", s);
        drop(ar);
        let ar = Archive::open(build(s), Arc::clone(&store)).unwrap();
        prop_assert!(ar.meta_damage().is_empty(), "{}: healed copy set", s);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint-era recovery: power-cut sweeps and metadata copy loss.
// ---------------------------------------------------------------------------

/// A store whose write stream dies mid-flight: the first `fuse - 1`
/// writes succeed, write number `fuse` is **torn** (a prefix of the block
/// is persisted — the sector the crash caught mid-write), and everything
/// after is lost. Removes count against the fuse too (a GC delete the
/// crash never issued stays un-deleted). Reads are untouched — recovery
/// reopens from the inner store.
struct PowerCut<B: BlockRepo + Send + ?Sized> {
    fuse: AtomicU64,
    attempted: AtomicU64,
    inner: Arc<B>,
}

impl<B: BlockRepo + Send + ?Sized> PowerCut<B> {
    fn new(inner: Arc<B>, fuse: u64) -> Self {
        PowerCut {
            fuse: AtomicU64::new(fuse),
            attempted: AtomicU64::new(0),
            inner,
        }
    }

    /// Total writes + removes the archive attempted (fuse or no fuse).
    fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Burns one unit of fuse; answers 2 = full write, 1 = torn, 0 = lost.
    fn burn(&self) -> u64 {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let left = self.fuse.load(Ordering::Relaxed);
        if left == 0 {
            return 0;
        }
        self.fuse.store(left - 1, Ordering::Relaxed);
        if left == 1 {
            1
        } else {
            2
        }
    }
}

impl<B: BlockRepo + Send + ?Sized> BlockSource for PowerCut<B> {
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

impl<B: BlockRepo + Send + ?Sized> BlockSink for PowerCut<B> {
    fn store(&self, id: BlockId, block: Block) {
        match self.burn() {
            2 => self.inner.store(id, block),
            1 => {
                let torn = &block.as_slice()[..block.len() / 2];
                self.inner.store(id, Block::copy_from_slice(torn));
            }
            _ => {}
        }
    }

    fn remove(&self, id: BlockId) -> bool {
        if self.burn() == 2 {
            self.inner.remove(id)
        } else {
            false
        }
    }
}

/// Aggressive checkpointing so a short lifetime crosses several
/// checkpoint commits and multi-part groups: every cut position lands
/// somewhere interesting.
fn sweep_cfg() -> MetaConfig {
    MetaConfig {
        copies: 3,
        checkpoint_every: Some(2),
        segment_bytes: 64,
    }
}

/// One archive lifetime over `store`: every file put, then sealed.
fn run_lifetime<B: BlockRepo + Send + ?Sized>(s: &Scheme, store: &Arc<B>) {
    let mut ar = Archive::with_scheme_meta(build(s), BLOCK, Arc::clone(store), sweep_cfg());
    for (name, contents) in files() {
        ar.put(name, &contents).unwrap();
    }
    ar.seal().unwrap();
}

/// Cuts the write stream at every swept position, reopens from what
/// actually hit the backend, and requires: open succeeds (except inside
/// the genesis write itself), every manifested file reads back, scrub
/// heals, and the healed archive reopens clean.
fn power_cut_sweep<B: BlockRepo + Send + ?Sized>(s: &Scheme, make: impl Fn() -> Arc<B>) {
    // Measure the lifetime's write count with an unlimited fuse.
    let probe = Arc::new(PowerCut::new(make(), u64::MAX));
    run_lifetime(s, &probe);
    let total = probe.attempted();
    let stride = (total / 10).max(1);

    let mut cut = 0;
    while cut <= total + 1 {
        let inner = make();
        let pc = Arc::new(PowerCut::new(Arc::clone(&inner), cut));
        run_lifetime(s, &pc);
        drop(pc);
        match Archive::open_with_meta(build(s), Arc::clone(&inner), sweep_cfg()) {
            Ok(mut ar) => {
                assert!(
                    ar.verify_all().is_empty(),
                    "{s} cut {cut}/{total}: every acknowledged file must read"
                );
                ar.scrub();
                drop(ar);
                let ar = Archive::open_with_meta(build(s), Arc::clone(&inner), sweep_cfg())
                    .unwrap_or_else(|e| panic!("{s} cut {cut}: reopen after scrub: {e}"));
                assert!(
                    ar.meta_damage().is_empty(),
                    "{s} cut {cut}: healed, got {:?}",
                    ar.meta_damage()
                );
                assert!(ar.verify_all().is_empty(), "{s} cut {cut}");
            }
            // The only cuts allowed to fail are inside the very creation
            // of the archive: nothing was ever acknowledged.
            Err(RecoveryError::NoArchive) => {
                assert_eq!(cut, 0, "{s}: NoArchive only before any write")
            }
            Err(RecoveryError::CorruptRecord { seq: 0, .. }) => {
                assert!(
                    cut <= 1,
                    "{s} cut {cut}: genesis corruption beyond its own write"
                )
            }
            Err(other) => panic!("{s} cut {cut}/{total}: unexpected {other}"),
        }
        cut += stride;
    }
}

#[test]
fn power_cut_at_every_position_recovers_over_mem() {
    for s in Scheme::extended_lineup() {
        power_cut_sweep(&s, || Arc::new(MemStore::new()));
    }
}

#[test]
fn power_cut_at_every_position_recovers_over_tiered() {
    for s in Scheme::extended_lineup() {
        power_cut_sweep(&s, || Arc::new(TieredStore::new(Arc::new(MemStore::new()))));
    }
}

#[test]
fn power_cut_at_every_position_recovers_over_faulty() {
    for s in Scheme::extended_lineup() {
        power_cut_sweep(&s, || Arc::new(FaultyStore::new(Arc::new(MemStore::new()))));
    }
}

/// The composite drill (slow **and** crashing): the same power cut, but
/// *beneath* the latency model — virtual clock, 1 ms RTT, jitter as large
/// as the RTT, default in-flight window — so `put`, `seal` and
/// `checkpoint` issue their writes in batches that complete **out of
/// order** and the fuse burns in completion order. Whatever the cut, the
/// backend must reopen to a *prefix* of the uninterrupted run (the first
/// k files, their entries and the id log they imply), read every file it
/// acknowledges, heal, and — resumed with the remaining files — end up
/// block-for-block the uninterrupted archive: the batches' barriers
/// (blocks → journal record → checkpoint parts → pointer → GC) keep the
/// crash ordering that serial issue used to.
fn power_cut_under_latency(s: &Scheme, every: u64) {
    use aecodes::aio::{Clock, LatencyStore, LinkSpec, Runtime};
    use std::time::Duration;

    let ref_store = Arc::new(MemStore::new());
    let mut reference =
        Archive::with_scheme_meta(build(s), BLOCK, Arc::clone(&ref_store), sweep_cfg());
    for (name, contents) in files() {
        reference.put(name, &contents).unwrap();
    }
    reference.seal().unwrap();

    let lifetime = |cut: u64| {
        let inner = Arc::new(MemStore::new());
        let pc = Arc::new(PowerCut::new(Arc::clone(&inner), cut));
        let link = LinkSpec {
            rtt: Duration::from_millis(1),
            jitter: Duration::from_millis(1),
        };
        let rt = Runtime::new(Clock::virtual_time());
        let net = LatencyStore::uniform(Arc::clone(&pc), rt, link, cut ^ 0xC0DE);
        run_lifetime(s, &Arc::new(net.into_sync()));
        (inner, pc.attempted())
    };
    let (_, total) = lifetime(u64::MAX);

    for cut in (0..=total + 1).step_by(every as usize) {
        let (inner, _) = lifetime(cut);
        let mut ar = match Archive::open_with_meta(build(s), Arc::clone(&inner), sweep_cfg()) {
            Ok(ar) => ar,
            Err(RecoveryError::NoArchive) => continue, // cut inside the genesis batch
            Err(RecoveryError::CorruptRecord { seq: 0, .. }) => continue,
            Err(other) => panic!("{s} cut {cut}/{total}: unexpected {other}"),
        };
        // A prefix of the uninterrupted run: as many files as survived,
        // and they are the first ones, entry for entry.
        let kept = ar.file_count();
        for (name, _) in files().iter().take(kept) {
            assert!(ar.entry(name).is_some(), "{s} cut {cut}: {name} is missing");
            assert_eq!(
                ar.entry(name),
                reference.entry(name),
                "{s} cut {cut}: {name}"
            );
        }
        assert!(
            reference.stored_ids().starts_with(ar.stored_ids()),
            "{s} cut {cut}: id log is not a prefix"
        );
        assert!(
            ar.verify_all().is_empty(),
            "{s} cut {cut}/{total}: every acknowledged file must read"
        );
        ar.scrub();
        // Resume what the crash interrupted; the result must be the
        // uninterrupted archive, block for block.
        for (name, contents) in files().iter().skip(kept) {
            ar.put(name, contents).unwrap();
        }
        ar.seal().unwrap();
        assert_block_identical(s, &ar, &inner, &reference, &ref_store);
        drop(ar);
        let ar = Archive::open_with_meta(build(s), Arc::clone(&inner), sweep_cfg())
            .unwrap_or_else(|e| panic!("{s} cut {cut}: reopen after resume: {e}"));
        assert!(
            ar.meta_damage().is_empty(),
            "{s} cut {cut}: healed, got {:?}",
            ar.meta_damage()
        );
    }
}

/// Every single write position for the three benchmark schemes.
#[test]
fn power_cut_at_every_write_beneath_the_latency_wrapper() {
    use aecodes::lattice::Config;
    for s in [
        Scheme::Ae(Config::new(3, 2, 5).unwrap()),
        Scheme::Rs { k: 10, m: 4 },
        Scheme::Replication { n: 3 },
    ] {
        power_cut_under_latency(&s, 1);
    }
}

/// The whole roster, every seventh position.
#[test]
fn power_cut_beneath_the_latency_wrapper_across_the_roster() {
    for s in Scheme::extended_lineup() {
        power_cut_under_latency(&s, 7);
    }
}

/// A finished lifetime, then the damage a scrub has to heal all at once:
/// scattered data and redundancy blocks gone (one victim per 23 stored
/// positions — coprime to every scheme's stride), and of the live
/// metadata copies, pointer cells included, one in five gone and one in
/// five garbled — never all three copies of a record.
fn damaged_lifetime(s: &Scheme) -> Arc<MemStore> {
    let store = Arc::new(MemStore::new());
    run_lifetime(s, &store);
    let ar = Archive::open_with_meta(build(s), Arc::clone(&store), sweep_cfg()).expect("pristine");
    let victims = ar.stored_ids().iter().skip(3).step_by(23);
    let victims: Vec<BlockId> = victims.copied().collect();
    assert!(
        victims.iter().any(|id| id.is_data()) && victims.iter().any(|id| !id.is_data()),
        "{s}: data and redundancy both take hits"
    );
    for v in victims {
        assert!(store.remove(v), "{s}: victim {v} was stored");
    }
    let mut cells = 0;
    for (i, id) in ar.live_meta_ids().into_iter().enumerate() {
        match i % 5 {
            0 => assert!(store.remove(id), "{s}: {id} was live"),
            3 => store.put(id, Block::from_vec(vec![0xA7; 21])),
            _ => continue,
        }
        let BlockId::Meta(meta) = id else {
            unreachable!()
        };
        cells += u64::from(meta.is_pointer());
    }
    assert!(cells > 0, "{s}: a pointer cell takes a hit too");
    store
}

/// A power cut at every `every`-th backend write **during `scrub`** —
/// repairs, quarantine, metadata heal — over whatever `wrap` puts above
/// the cut. A scrub journals nothing, so a cut scrub is simply a shorter
/// one: reopened from what reached the backend and scrubbed to
/// completion, the stored blocks *and* the live metadata plane must be
/// block for block what one uncut scrub leaves.
fn power_cut_during_scrub<B: BlockRepo + ?Sized>(
    s: &Scheme,
    every: u64,
    wrap: impl Fn(Arc<PowerCut<MemStore>>, u64) -> Arc<B>,
) {
    let reference = damaged_lifetime(s);
    let mut ar = Archive::open_with_meta(build(s), Arc::clone(&reference), sweep_cfg())
        .unwrap_or_else(|e| panic!("{s}: must degrade, not escalate: {e}"));
    assert!(!ar.meta_damage().is_empty(), "{s}: the harm is seen");
    let restored = ar.scrub();
    let stored = ar.stored_ids().iter().copied();
    let healed: Vec<BlockId> = stored.chain(ar.live_meta_ids()).collect();
    drop(ar);

    let scrub_under = |cut: u64| {
        let inner = damaged_lifetime(s);
        let pc = Arc::new(PowerCut::new(Arc::clone(&inner), cut));
        let store = wrap(Arc::clone(&pc), cut);
        let mut ar = Archive::open_with_meta(build(s), store, sweep_cfg())
            .unwrap_or_else(|e| panic!("{s}: must degrade, not escalate: {e}"));
        assert_eq!(pc.attempted(), 0, "{s}: this open writes nothing");
        ar.scrub();
        (inner, pc.attempted())
    };
    let (_, total) = scrub_under(u64::MAX);
    assert!(total >= restored, "{s}: every restored block is a write");

    for cut in (0..=total + 1).step_by(every as usize) {
        let (inner, _) = scrub_under(cut);
        let mut ar = Archive::open_with_meta(build(s), Arc::clone(&inner), sweep_cfg())
            .unwrap_or_else(|e| panic!("{s} cut {cut}/{total}: reopen after a cut scrub: {e}"));
        assert!(
            ar.verify_all().is_empty(),
            "{s} cut {cut}/{total}: half a scrub leaves every file readable"
        );
        ar.scrub();
        for &id in &healed {
            assert_eq!(
                inner.fetch(id),
                reference.fetch(id),
                "{s} cut {cut}/{total}: {id}"
            );
        }
        let (mut held, mut expected) = (inner.ids(), reference.ids());
        held.sort();
        expected.sort();
        assert_eq!(held, expected, "{s} cut {cut}/{total}: nothing else left");
        assert!(ar.verify_all().is_empty(), "{s} cut {cut}/{total}");
        drop(ar);
        let ar = Archive::open_with_meta(build(s), Arc::clone(&inner), sweep_cfg())
            .unwrap_or_else(|e| panic!("{s} cut {cut}: reopen after the second scrub: {e}"));
        assert!(
            ar.meta_damage().is_empty(),
            "{s} cut {cut}: healed, got {:?}",
            ar.meta_damage()
        );
    }
}

/// Every write position of a scrub, across the roster, over a plain
/// backend.
#[test]
fn power_cut_at_every_write_during_scrub_over_mem() {
    for s in Scheme::extended_lineup() {
        power_cut_during_scrub(&s, 1, |cut, _| cut);
    }
}

/// The same beneath the latency model — virtual clock, jitter as large
/// as the RTT, so a scrub's batches complete out of order and the fuse
/// burns in completion order — for the three benchmark schemes.
#[test]
fn power_cut_at_every_write_during_scrub_beneath_the_latency_wrapper() {
    use aecodes::aio::{Clock, LatencyStore, LinkSpec, Runtime};
    use aecodes::lattice::Config;
    use std::time::Duration;
    for s in [
        Scheme::Ae(Config::new(3, 2, 5).unwrap()),
        Scheme::Rs { k: 10, m: 4 },
        Scheme::Replication { n: 3 },
    ] {
        power_cut_during_scrub(&s, 1, |cut, seed| {
            let link = LinkSpec {
                rtt: Duration::from_millis(1),
                jitter: Duration::from_millis(1),
            };
            let rt = Runtime::new(Clock::virtual_time());
            Arc::new(LatencyStore::uniform(cut, rt, link, seed ^ 0xC0DE).into_sync())
        });
    }
}

/// How metadata victims die in the copy-loss matrix.
#[derive(Clone, Copy, Debug)]
enum MetaHarm {
    Delete,
    Corrupt,
}

/// Builds a checkpointed archive over `store`, then deletes or corrupts
/// `loss` of the 3 copies of **every** live metadata record and pointer
/// cell at once. The reopened archive must degrade — typed damage
/// report, all files intact — and scrub must restore the full copy sets.
fn copy_loss_round<B: BlockRepo + Send + ?Sized>(
    s: &Scheme,
    store: &Arc<B>,
    harm: MetaHarm,
    loss: u16,
) {
    run_lifetime(s, store);
    let live = {
        let ar = Archive::open_with_meta(build(s), Arc::clone(store), sweep_cfg())
            .expect("pristine reopen");
        assert!(ar.checkpoint_seq().is_some(), "{s}: lifetime checkpointed");
        ar.live_meta_ids()
    };
    let mut harmed = 0;
    for &id in &live {
        let BlockId::Meta(m) = id else { unreachable!() };
        if m.copy() >= loss {
            continue;
        }
        harmed += 1;
        match harm {
            MetaHarm::Delete => {
                store.remove(id);
            }
            MetaHarm::Corrupt => store.store(id, Block::from_vec(vec![0xA7; 21])),
        }
    }
    assert!(harmed > 0, "{s}: matrix must actually harm something");

    let mut ar = Archive::open_with_meta(build(s), Arc::clone(store), sweep_cfg())
        .unwrap_or_else(|e| panic!("{s} {harm:?} loss {loss}: must degrade, not escalate: {e}"));
    assert!(
        !ar.meta_damage().is_empty(),
        "{s} {harm:?} loss {loss}: degraded reads are reported"
    );
    assert!(ar.verify_all().is_empty(), "{s} {harm:?} loss {loss}");
    assert!(
        ar.scrub() >= harmed,
        "{s}: scrub restores every harmed copy"
    );
    drop(ar);
    let ar = Archive::open_with_meta(build(s), Arc::clone(store), sweep_cfg()).unwrap();
    assert!(ar.meta_damage().is_empty(), "{s}: healed copy sets");
    assert!(ar.verify_all().is_empty(), "{s}");
}

#[test]
fn meta_copy_loss_matrix_over_mem() {
    for s in Scheme::extended_lineup() {
        for harm in [MetaHarm::Delete, MetaHarm::Corrupt] {
            for loss in [1u16, 2] {
                copy_loss_round(&s, &Arc::new(MemStore::new()), harm, loss);
            }
        }
    }
}

#[test]
fn meta_copy_loss_matrix_over_tiered() {
    for s in Scheme::extended_lineup() {
        for harm in [MetaHarm::Delete, MetaHarm::Corrupt] {
            for loss in [1u16, 2] {
                let store = Arc::new(TieredStore::new(Arc::new(MemStore::new())));
                copy_loss_round(&s, &store, harm, loss);
            }
        }
    }
}

/// Over the fault injector the harm is injected (blackhole / CRC-failing
/// tamper) rather than applied to the bytes, exercising the
/// `StoreError::Corrupted` path end to end; scrub's rewrites clear the
/// injected faults (replaced hardware).
#[test]
fn meta_copy_loss_matrix_over_faulty() {
    for s in Scheme::extended_lineup() {
        for loss in [1u16, 2] {
            let faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
            run_lifetime(&s, &faulty);
            let live = {
                let ar =
                    Archive::open_with_meta(build(&s), Arc::clone(&faulty), sweep_cfg()).unwrap();
                ar.live_meta_ids()
            };
            let mut blackholed = 0;
            let mut tampered = 0;
            for &id in &live {
                let BlockId::Meta(m) = id else { unreachable!() };
                if m.copy() >= loss {
                    continue;
                }
                // Alternate the two fault kinds across the victims.
                if (m.seq() + m.copy() as u64).is_multiple_of(2) {
                    faulty.fail(id);
                    blackholed += 1;
                } else {
                    faulty.corrupt(id);
                    tampered += 1;
                }
            }
            let mut ar = Archive::open_with_meta(build(&s), Arc::clone(&faulty), sweep_cfg())
                .unwrap_or_else(|e| panic!("{s} loss {loss}: must degrade, not escalate: {e}"));
            assert!(!ar.meta_damage().is_empty(), "{s} loss {loss}");
            assert!(ar.verify_all().is_empty(), "{s} loss {loss}");
            assert!(
                ar.scrub() >= blackholed + tampered,
                "{s}: scrub heals every injected meta fault"
            );
            assert_eq!(faulty.failed_len(), 0, "{s}: blackholes healed");
            assert_eq!(faulty.corrupted_len(), 0, "{s}: tampered copies healed");
            drop(ar);
            let ar = Archive::open_with_meta(build(&s), Arc::clone(&faulty), sweep_cfg()).unwrap();
            assert!(ar.meta_damage().is_empty(), "{s}: healed");
        }
    }
}

/// Losing **all** copies of a committed checkpoint record is the one
/// thing redundancy cannot forgive — and it must be a typed error, never
/// a silent rewind past garbage-collected history.
#[test]
fn losing_every_copy_of_a_checkpoint_record_is_typed() {
    for s in Scheme::extended_lineup() {
        let store = Arc::new(MemStore::new());
        run_lifetime(&s, &store);
        let cseq = {
            let ar = Archive::open_with_meta(build(&s), Arc::clone(&store), sweep_cfg()).unwrap();
            ar.checkpoint_seq().expect("lifetime checkpointed")
        };
        for copy in 0..sweep_cfg().copies {
            assert!(store.remove(meta_copy_id(cseq, copy)), "{s}: part 0 live");
        }
        assert!(
            matches!(
                Archive::open_with_meta(build(&s), Arc::clone(&store), sweep_cfg()),
                Err(RecoveryError::CorruptRecord { .. })
            ),
            "{s}: all-copy checkpoint loss must escalate typed"
        );
    }
}

/// Every `Meta` id `store` holds, sorted.
fn held_meta_ids(store: &MemStore) -> Vec<BlockId> {
    let mut ids: Vec<BlockId> = store.ids().into_iter().filter(|id| id.is_meta()).collect();
    ids.sort();
    ids
}

/// A power cut between a checkpoint's pointer commit and the end of its
/// garbage collection leaves records on the backend that the reopened
/// journal never reads — they lie below the checkpoint it loads — and so
/// cannot name. The promise is that the next commit collects them: for
/// every cut position from put `sweep_from` on of a `puts`-put lifetime at
/// a cadence of `cadence`, a reopen, as many puts again, a seal and a scrub
/// must leave the backend holding exactly the `Meta` blocks the live
/// journal names — with a chain of segments an orphan would otherwise sit
/// between live ones for good. `jitter` puts the cut beneath the latency
/// model, where a batch's removes complete out of order.
fn orphan_sweep(s: &Scheme, cadence: u64, puts: u8, sweep_from: u8, jitter: bool) {
    use aecodes::aio::{Clock, LatencyStore, LinkSpec, Runtime};
    use std::time::Duration;

    let cfg = || MetaConfig {
        copies: 3,
        checkpoint_every: Some(cadence),
        ..MetaConfig::default()
    };
    fn run<B: BlockRepo + ?Sized>(
        s: &Scheme,
        cfg: MetaConfig,
        store: Arc<B>,
        puts: u8,
        mut before: impl FnMut(u8),
    ) {
        let mut ar = Archive::with_scheme_meta(build(s), BLOCK, store, cfg);
        for i in 0..puts {
            before(i);
            ar.put(&format!("f{i}"), &[i; 3 * BLOCK]).unwrap();
        }
    }
    // The backend a cut at write `cut` leaves, the writes attempted before
    // put `sweep_from` and those of the whole lifetime.
    let lifetime = |cut: u64| {
        let inner = Arc::new(MemStore::new());
        let pc = Arc::new(PowerCut::new(Arc::clone(&inner), cut));
        let mut from = 0;
        let mark = |i| {
            if i == sweep_from {
                from = pc.attempted();
            }
        };
        if jitter {
            let link = LinkSpec {
                rtt: Duration::from_millis(1),
                jitter: Duration::from_millis(1),
            };
            let rt = Runtime::new(Clock::virtual_time());
            let net = LatencyStore::uniform(Arc::clone(&pc), rt, link, cut ^ 0xC0DE);
            run(s, cfg(), Arc::new(net.into_sync()), puts, mark);
        } else {
            run(s, cfg(), Arc::clone(&pc), puts, mark);
        }
        (inner, from, pc.attempted())
    };
    let (_, from, total) = lifetime(u64::MAX);
    for cut in from..=total {
        let (inner, _, _) = lifetime(cut);
        let mut ar = match Archive::open_with_meta(build(s), Arc::clone(&inner), cfg()) {
            Ok(ar) => ar,
            Err(RecoveryError::NoArchive) => continue,
            Err(RecoveryError::CorruptRecord { seq: 0, .. }) => continue,
            Err(other) => panic!("{s} cut {cut}/{total}: unexpected {other}"),
        };
        for i in 0..puts {
            ar.put(&format!("g{i}"), &[i; BLOCK]).unwrap();
        }
        ar.seal().unwrap();
        ar.scrub();
        let mut named = ar.live_meta_ids();
        named.sort();
        assert_eq!(
            held_meta_ids(&inner),
            named,
            "{s} cut {cut}/{total}: a Meta block nobody names"
        );
        assert!(ar.verify_all().is_empty(), "{s} cut {cut}/{total}");
    }
}

fn benchmark_schemes() -> [Scheme; 3] {
    use aecodes::lattice::Config;
    [
        Scheme::Ae(Config::new(3, 2, 5).unwrap()),
        Scheme::Rs { k: 10, m: 4 },
        Scheme::Replication { n: 3 },
    ]
}

/// Nine puts at a cadence of four, every cut of the lifetime, over the
/// three benchmark schemes.
#[test]
fn power_cut_inside_a_checkpoint_gc_leaves_no_orphaned_meta_block() {
    for s in benchmark_schemes() {
        orphan_sweep(&s, 4, 9, 0, false);
    }
}

/// The same promise where it is harder to keep: a commit that collects
/// forty records — three of the aligned blocks a GC removes a batch at a
/// time — cut at every write from its first part on, in order and with
/// each batch's removes completing out of order. The reopened journal
/// finds what is left by probing down from the top of the range, so the
/// cut must leave nothing below the first block it finds empty.
#[test]
fn a_cut_gc_spanning_several_blocks_is_found_from_the_top() {
    for s in benchmark_schemes() {
        orphan_sweep(&s, 40, 45, 39, false);
    }
    orphan_sweep(&benchmark_schemes()[0], 40, 45, 39, true);
}

/// Files of the default-cadence drills: one block each.
fn put_small(ar: &mut Archive<impl BlockRepo + ?Sized>, range: std::ops::Range<usize>) {
    for i in range {
        ar.put(&format!("f{i:04}"), &[i as u8; BLOCK]).unwrap();
    }
}

/// What one pointer cell can suffer on its own: every copy gone, or every
/// copy turned to bytes that decode as nothing.
fn harm_cell(store: &MemStore, slot: u64, garble: bool) {
    for copy in 0..3 {
        let id = pointer_id(slot, copy);
        if garble && store.contains(id) {
            store.put(id, Block::from_vec(vec![0xEE; 16]));
        } else {
            store.remove(id);
        }
    }
}

/// A level-0 commit leaves the chain under it whole, and at the default
/// cadence the records it collected lie far outside the walk's probe
/// window — so a pointer cell left naming that chain would, the newer
/// cell lost, open as an archive 64 files short with nothing to show for
/// it. Every commit after the first therefore writes **both** cells: for
/// one to five commits at a cadence of 64, either cell deleted or garbled
/// whole, `open` serves every file or refuses typed, never fewer — and
/// from the second commit on it serves them.
#[test]
fn losing_every_copy_of_a_pointer_cell_is_never_a_shorter_manifest() {
    for s in benchmark_schemes() {
        for commits in 1..=5usize {
            let pristine = Arc::new(MemStore::new());
            let mut ar = Archive::with_scheme(build(&s), BLOCK, Arc::clone(&pristine));
            put_small(&mut ar, 0..64 * commits);
            drop(ar);
            for slot in 0..2u64 {
                for garble in [false, true] {
                    let ctx = format!("{s}, {commits} commits, cell {slot}, garbled {garble}");
                    let store = Arc::new(MemStore::new());
                    for id in pristine.ids() {
                        store.put(id, pristine.get(id).expect("listed"));
                    }
                    harm_cell(&store, slot, garble);
                    match Archive::open(build(&s), Arc::clone(&store)) {
                        Ok(ar) => {
                            // (One commit, its only cell deleted without a
                            // trace, is the documented limit: an archive
                            // that never checkpointed looks the same.)
                            let limit = commits == 1 && slot == 0 && !garble;
                            assert!(
                                limit || ar.file_count() == 64 * commits,
                                "{ctx}: opened with {} files",
                                ar.file_count()
                            );
                        }
                        Err(RecoveryError::CorruptRecord { .. }) => {
                            assert_eq!(commits, 1, "{ctx}: the other cell names the same chain")
                        }
                        Err(other) => panic!("{ctx}: {other}"),
                    }
                }
            }
        }
    }
}

/// The same loss on top of a crash: the third commit at the default
/// cadence (level 0 — the second commit's chain stays whole under it) cut
/// at every write from its first part to the end of its GC, and then
/// either cell lost whole. The 192 files were acknowledged before the
/// commit began: `open` serves all of them or refuses typed, and with
/// both cells as the crash left them it serves them.
#[test]
fn a_cut_commit_then_a_lost_pointer_cell_is_never_a_shorter_manifest() {
    let s = &benchmark_schemes()[0];
    let lifetime = |cut: u64| {
        let inner = Arc::new(MemStore::new());
        let pc = Arc::new(PowerCut::new(Arc::clone(&inner), cut));
        let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&pc));
        put_small(&mut ar, 0..191);
        // The record of put 192 is the last write before the commit.
        let before = pc.attempted();
        put_small(&mut ar, 191..192);
        (inner, before, pc.attempted())
    };
    let (_, before, total) = lifetime(u64::MAX);
    let record = 3 * (1 + 3) + 3; // AE(3,2,5): a block, three parities, three record copies
    for cut in before + record..=total {
        let (crashed, _, _) = lifetime(cut);
        for harm in [
            None,
            Some((0, false)),
            Some((0, true)),
            Some((1, false)),
            Some((1, true)),
        ] {
            let store = Arc::new(MemStore::new());
            for id in crashed.ids() {
                store.put(id, crashed.get(id).expect("listed"));
            }
            if let Some((slot, garble)) = harm {
                harm_cell(&store, slot, garble);
            }
            match Archive::open(build(s), Arc::clone(&store)) {
                Ok(ar) => assert_eq!(ar.file_count(), 192, "cut {cut}/{total}, {harm:?}"),
                Err(RecoveryError::CorruptRecord { .. }) if harm.is_some() => {}
                Err(other) => panic!("cut {cut}/{total}, {harm:?}: {other}"),
            }
        }
    }
}

/// The chain's other way to lose history: all three copies of a segment
/// that is neither the newest nor the oldest. Both pointer cells lead
/// through it, so there is nothing to fall back to — `open` must say
/// which record is gone, never serve the manifest minus its rows.
#[test]
fn losing_every_copy_of_a_middle_segment_is_typed_and_names_it() {
    for s in Scheme::extended_lineup() {
        let store = Arc::new(MemStore::new());
        let cfg = MetaConfig {
            checkpoint_every: Some(1),
            ..sweep_cfg()
        };
        {
            let mut ar =
                Archive::with_scheme_meta(build(&s), BLOCK, Arc::clone(&store), cfg.clone());
            for (name, contents) in files().iter().take(7) {
                ar.put(name, contents).unwrap();
            }
        }
        // Seven commits: segments of level 2, 1 and 0. Part 0 of each is
        // the first live record after the previous segment's parts.
        let mut live: Vec<u64> = held_meta_ids(&store)
            .into_iter()
            .filter_map(|id| match id {
                BlockId::Meta(meta) if !meta.is_pointer() && meta.copy() == 0 => Some(meta.seq()),
                _ => None,
            })
            .collect();
        live.sort();
        let newest = {
            let ar = Archive::open_with_meta(build(&s), Arc::clone(&store), cfg.clone()).unwrap();
            assert_eq!(ar.file_count(), 7, "{s}");
            ar.checkpoint_seq().expect("seven commits")
        };
        // Genesis, then the level-2 segment's parts; the level-1 segment
        // starts after the first gap (the records the level-2 fold and
        // commits 5 and 6 collected).
        let gap = live
            .windows(2)
            .position(|w| w[1] != w[0] + 1)
            .expect("collected records");
        let middle = live[gap + 1];
        assert!(1 < middle && middle < newest, "{s}: {live:?}");
        for copy in 0..cfg.copies {
            assert!(store.remove(meta_copy_id(middle, copy)), "{s}: part 0 live");
        }
        match Archive::open_with_meta(build(&s), Arc::clone(&store), cfg.clone()) {
            Err(RecoveryError::CorruptRecord { seq, detail }) => {
                assert_eq!(seq, middle, "{s}: {detail}");
            }
            Err(other) => panic!("{s}: {other}"),
            Ok(ar) => panic!("{s}: opened with {} of 7 files", ar.file_count()),
        }
    }
}

/// The O(checkpoint) open guarantee: as the journal's history grows 10x
/// past the checkpoint threshold, the records `open` replays (and the
/// live journal the backend holds) stay bounded by the cadence, not the
/// history.
#[test]
fn open_replays_o_checkpoint_not_o_history() {
    let store = Arc::new(MemStore::new());
    let cfg = MetaConfig {
        copies: 3,
        checkpoint_every: Some(4),
        ..MetaConfig::default()
    };
    let s = &Scheme::extended_lineup()[0];
    {
        let mut ar = Archive::with_scheme_meta(build(s), BLOCK, Arc::clone(&store), cfg.clone());
        for i in 0..40u32 {
            ar.put(&format!("f{i}"), &i.to_le_bytes().repeat(9))
                .unwrap();
        }
    }
    let ar = Archive::open_with_meta(build(s), Arc::clone(&store), cfg).unwrap();
    assert!(ar.meta_len() > 40, "history grew with every put");
    assert!(
        ar.replayed_records() <= 8,
        "open replayed {} records of a {}-record history",
        ar.replayed_records(),
        ar.meta_len()
    );
    assert!(
        ar.live_meta_records() <= 16,
        "{} live records should be bounded by the cadence",
        ar.live_meta_records()
    );
    assert_eq!(ar.names().count(), 40, "nothing lost to GC");
}
