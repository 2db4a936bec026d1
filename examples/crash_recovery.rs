//! Crash-recovery soak: the durability gate CI runs on every PR.
//!
//! Each iteration is one simulated lifetime of a crash-recoverable
//! archive, driven by a seeded RNG so failures reproduce exactly:
//!
//! 1. pick a roster scheme, a backend (in-memory / tiered / faulty) and
//!    a metadata policy (2–3 copies per record, aggressive checkpoint
//!    cadence),
//! 2. write N files of random sizes,
//! 3. **crash** at a randomized-but-seeded cut point (drop the archive
//!    and its scheme — every in-memory structure dies),
//! 4. `Archive::open` — replay checkpoint + journal suffix and restore
//!    the encoder frontier,
//! 5. verify every pre-crash file byte-for-byte, resume the remaining
//!    puts, seal,
//! 6. inject a scattered disaster over data **and metadata**: erase
//!    scheme blocks, and corrupt or delete `Meta` journal / checkpoint /
//!    pointer copies (always leaving at least one copy per record),
//! 7. scrub (repair + heal every metadata copy), verify everything end
//!    to end, and require **block-for-block parity** with an
//!    uninterrupted run of the same lifetime — same stored blocks, same
//!    live metadata plane, byte for byte — and a backend that holds no
//!    `Meta` block the live journal does not name (checkpoint segments
//!    fold and are collected at cadences of 1–4; nothing may be left
//!    behind between the live ones).
//!
//! ```sh
//! cargo run --release --example crash_recovery        # default 12 iterations
//! AE_SOAK_ITERS=100 cargo run --release --example crash_recovery
//! ```

use aecodes::api::{BlockRepo, BlockSink, BlockSource, RedundancyScheme, SplitMix64 as Rng};
use aecodes::blocks::{Block, BlockId};
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::meta::MetaConfig;
use aecodes::store::{FaultyStore, MemStore, TieredStore};
use std::collections::HashMap;
use std::sync::Arc;

const BLOCK: usize = 64;
const FILES: usize = 8;

fn file_contents(rng: &mut Rng) -> Vec<u8> {
    let len = rng.below(4 * BLOCK as u64 * 8) as usize; // 0..=2 KiB
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A randomized-but-seeded metadata policy: 2–3 copies per record, a
/// checkpoint every 1–4 records, occasionally multi-part checkpoints.
fn meta_policy(rng: &mut Rng) -> MetaConfig {
    MetaConfig {
        copies: 2 + rng.below(2) as u16,
        checkpoint_every: Some(1 + rng.below(4)),
        segment_bytes: if rng.below(2) == 0 { 128 } else { 64 * 1024 },
    }
}

/// The uninterrupted reference lifetime: same files, same policy, no
/// crash, no disaster — the bytes the soaked run must converge back to.
fn reference(
    scheme: &Scheme,
    meta: MetaConfig,
    files: &[(String, Vec<u8>)],
) -> (Archive<MemStore>, Arc<MemStore>) {
    let store = Arc::new(MemStore::new());
    let s: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let mut ar = Archive::with_scheme_meta(s, BLOCK, Arc::clone(&store), meta);
    for (name, contents) in files {
        ar.put(name, contents).expect("fresh name");
    }
    ar.seal().expect("reference seal");
    (ar, store)
}

/// Corrupts or deletes live `Meta` copies at random, never harming every
/// copy of one record. Returns how many ids were harmed.
fn meta_disaster<B: BlockRepo + ?Sized>(rng: &mut Rng, ar: &Archive<B>, store: &Arc<B>) -> usize {
    // Group the live metadata plane by record so the drill can cap the
    // harm below the record's copy count.
    let mut by_record: HashMap<u64, Vec<BlockId>> = HashMap::new();
    for id in ar.live_meta_ids() {
        let BlockId::Meta(m) = id else { continue };
        let key = m.seq() * 2 + m.is_pointer() as u64;
        by_record.entry(key).or_default().push(id);
    }
    let mut harmed = 0;
    for (_, copies) in by_record {
        let budget = rng.below(copies.len() as u64) as usize; // < copies: one always survives
        for id in copies.into_iter().take(budget) {
            if rng.below(2) == 0 {
                store.remove(id);
            } else {
                let garbage: Vec<u8> = (0..48).map(|_| rng.next_u64() as u8).collect();
                store.store(id, Block::from_vec(garbage));
            }
            harmed += 1;
        }
    }
    harmed
}

/// One seeded lifetime over one backend, `mem` being the memory its
/// metadata lands in. Returns (files, repaired).
fn soak<B: BlockRepo + ?Sized>(
    scheme: &Scheme,
    store: Arc<B>,
    mem: &MemStore,
    seed: u64,
) -> (usize, u64) {
    let mut rng = Rng::new(seed);
    let files: Vec<(String, Vec<u8>)> = (0..FILES)
        .map(|k| (format!("file-{k}.bin"), file_contents(&mut rng)))
        .collect();
    let cut = rng.below(files.len() as u64 + 1) as usize;
    let meta = meta_policy(&mut rng);
    let (ref_ar, ref_store) = reference(scheme, meta.clone(), &files);

    // Write, then crash mid-stream.
    {
        let s: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
        let mut ar = Archive::with_scheme_meta(s, BLOCK, Arc::clone(&store), meta.clone());
        for (name, contents) in files.iter().take(cut) {
            ar.put(name, contents).expect("fresh name");
        }
    } // <- the crash: archive and encoder state dropped

    // Reopen from the backend alone and resume.
    let s: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let mut ar =
        Archive::open_with_meta(s, Arc::clone(&store), meta.clone()).expect("journal replays");
    assert_eq!(ar.torn_tail(), None, "clean crash leaves no torn record");
    assert!(ar.meta_damage().is_empty(), "clean crash leaves no damage");
    for (name, contents) in files.iter().take(cut) {
        assert_eq!(&ar.get(name).expect(name), contents, "pre-crash content");
    }
    for (name, contents) in files.iter().skip(cut) {
        ar.put(name, contents).expect("resumed put");
    }
    ar.seal().expect("flush buffered redundancy");

    // Disaster + repair: strided erasures over everything stored (a
    // random phase, but never two losses close enough to exceed any
    // roster scheme's tolerance), plus corrupted/deleted metadata
    // copies. Dedup: the write-order log can list an id more than once
    // (updated parities re-store under their id); a victim dies once.
    let stride = 17 + rng.below(8) as usize;
    let offset = rng.below(stride as u64) as usize;
    let victims: std::collections::BTreeSet<BlockId> = ar
        .stored_ids()
        .iter()
        .copied()
        .skip(offset)
        .step_by(stride)
        .collect();
    for v in &victims {
        store.remove(*v);
    }
    let meta_harmed = meta_disaster(&mut rng, &ar, &store);
    let repaired = ar.scrub();
    assert_eq!(
        repaired as usize,
        victims.len() + meta_harmed,
        "scrub restores every victim ({}) and heals every harmed meta copy ({meta_harmed})",
        victims.len()
    );
    for (name, contents) in &files {
        assert_eq!(&ar.get(name).expect(name), contents, "post-repair content");
    }
    assert!(ar.verify_all().is_empty(), "end-to-end verification");

    // Reopen once more: a healed metadata plane reads clean.
    drop(ar);
    let s: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let ar = Archive::open_with_meta(s, Arc::clone(&store), meta).expect("healed journal replays");
    assert!(ar.meta_damage().is_empty(), "scrub healed every meta copy");

    // Block-for-block parity with the uninterrupted run: same manifest,
    // same stored blocks, same live metadata plane — byte for byte.
    assert_eq!(
        ar.names().collect::<Vec<_>>(),
        ref_ar.names().collect::<Vec<_>>(),
        "manifest parity"
    );
    assert_eq!(ar.stored_ids(), ref_ar.stored_ids(), "write-order id log");
    for id in ref_ar.stored_ids() {
        assert_eq!(
            store.fetch(*id).as_ref(),
            ref_store.fetch(*id).as_ref(),
            "stored block {id}"
        );
    }
    for id in ref_ar.live_meta_ids() {
        assert_eq!(
            store.fetch(id).as_ref(),
            ref_store.fetch(id).as_ref(),
            "meta block {id}"
        );
    }
    let mut held: Vec<BlockId> = mem.ids().into_iter().filter(|id| id.is_meta()).collect();
    let mut live = ar.live_meta_ids();
    held.sort();
    live.sort();
    assert_eq!(held, live, "the backend holds the live journal and no more");
    (files.len(), repaired)
}

fn main() {
    let iterations: u64 = std::env::var("AE_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let roster = Scheme::extended_lineup();
    println!(
        "crash-recovery soak: {iterations} iteration(s), {} roster schemes",
        roster.len()
    );

    let mut total_files = 0;
    let mut total_repaired = 0;
    for seed in 0..iterations {
        let scheme = &roster[(seed % roster.len() as u64) as usize];
        let mem = Arc::new(MemStore::new());
        let (backend, (files, repaired)) = match seed % 3 {
            0 => ("mem", soak(scheme, Arc::clone(&mem), &mem, seed)),
            1 => {
                let tiered = Arc::new(TieredStore::new(Arc::clone(&mem)));
                ("tiered", soak(scheme, tiered, &mem, seed))
            }
            _ => {
                let faulty = Arc::new(FaultyStore::new(Arc::clone(&mem)));
                ("faulty", soak(scheme, faulty, &mem, seed))
            }
        };
        total_files += files;
        total_repaired += repaired;
        println!(
            "  seed {seed:>3}  {:<22} over {backend:<6}: {files} files crash-recovered, {repaired} blocks repaired",
            scheme.name(),
        );
    }
    println!(
        "OK: {total_files} files survived crash + reopen + disaster ({total_repaired} blocks repaired)"
    );
}
