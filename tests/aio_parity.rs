//! Async/sync parity: every roster scheme from `Scheme::extended_lineup()`
//! drives the generic `Archive` twice — once over a plain in-memory
//! backend (the serial reference) and once over the same backend wrapped
//! in `ae_aio`'s latency model (`BlockOn<LatencyStore<MemStore>>`, virtual
//! clock, seeded jitter), where degraded reads and scrubs take the
//! pipelined bounded-in-flight path. Every file read, every error, every
//! scrub count and the final backend state must be **byte-identical**:
//! pipelining changes wall-clock, never outcomes. Dead-remote tests pin
//! the typed timeout semantics (`StoreError::TimedOut`, never a hang —
//! the virtual-clock executor panics on a hung future, so mere completion
//! is the no-hang proof), and a `FaultyStore` composition proves the
//! latency wrapper stacks cleanly on fault injection.
//!
//! The write side gets the same treatment: `put`, `seal` and
//! `checkpoint` batch their backend calls through the window, so for
//! every roster scheme the archive built over the network at window 1, 8
//! and 32 must be block-for-block and journal-for-journal the `MemStore`
//! archive, reopen to the same manifest, and — with the remote tier dead
//! mid-build — leave the backend exactly as the window-1 run leaves it.

use aecodes::aio::{
    in_flight_window, BlockOn, Clock, LatencyStore, LinkSpec, RetryPolicy, Runtime, Tier, Tiering,
};
use aecodes::api::{BlockRepo, BlockSink, BlockSource, Overlay, RedundancyScheme, StoreError};
use aecodes::blocks::BlockId;
use aecodes::sim::Scheme;
use aecodes::store::archive::{Archive, ArchiveError};
use aecodes::store::{FaultyStore, MemStore};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BLOCK: usize = 32;

/// Serializes the tests that set `AE_AIO_WINDOW` (the other tests only
/// read it, and their outcomes are window-independent by the very
/// property this file proves).
static WINDOW_ENV: Mutex<()> = Mutex::new(());

/// Runs `f` once per in-flight window of 1, 8 and 32, then puts back the
/// window the run was started with (CI's reference leg sets 1).
fn at_each_window(mut f: impl FnMut(usize)) {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let before = std::env::var_os("AE_AIO_WINDOW");
    for window in [1usize, 8, 32] {
        std::env::set_var("AE_AIO_WINDOW", window.to_string());
        f(in_flight_window());
    }
    match before {
        Some(v) => std::env::set_var("AE_AIO_WINDOW", v),
        None => std::env::remove_var("AE_AIO_WINDOW"),
    }
}

/// A few files of awkward sizes (empty, sub-block, exact multiple, large)
/// — the same roster `archive_matrix.rs` uses.
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

fn filled_archive<B: BlockRepo + ?Sized>(scheme: &Scheme, store: Arc<B>) -> Archive<B> {
    let scheme: Arc<dyn RedundancyScheme> = Arc::from(scheme.build(BLOCK));
    let mut ar = Archive::with_scheme(scheme, BLOCK, store);
    for (name, contents) in files() {
        ar.put(name, &contents).expect("fresh name");
    }
    ar.seal().expect("flush buffered redundancy");
    ar
}

type NetStore<S> = BlockOn<LatencyStore<S>>;

/// A latency-wrapped backend on a fresh virtual-clock runtime: 1 ms RTT
/// with seeded jitter, so pipelined and serial schedules genuinely differ
/// while outcomes must not.
fn wrap<S: BlockRepo + Send + Sync + 'static>(inner: Arc<S>, seed: u64) -> Arc<NetStore<S>> {
    let rt = Runtime::new(Clock::virtual_time());
    let spec = LinkSpec {
        rtt: Duration::from_millis(1),
        jitter: Duration::from_micros(50),
    };
    Arc::new(LatencyStore::uniform(inner, rt, spec, seed).into_sync())
}

/// Byte-for-byte backend equality.
fn assert_same_state(reference: &MemStore, network: &MemStore, ctx: &str) {
    let mut a = reference.ids();
    let mut b = network.ids();
    a.sort();
    b.sort();
    assert_eq!(a, b, "{ctx}: backends hold different id sets");
    for id in &a {
        assert_eq!(reference.get(*id), network.get(*id), "{ctx}: {id}");
    }
}

/// The core matrix: erasure damage, degraded reads, scrub — every roster
/// scheme, serial vs pipelined, byte-identical throughout.
#[test]
fn every_roster_scheme_reads_and_scrubs_identically_over_the_network() {
    for s in Scheme::extended_lineup() {
        let plain = Arc::new(MemStore::new());
        let mut reference = filled_archive(&s, Arc::clone(&plain));
        let inner = Arc::new(MemStore::new());
        let net = wrap(Arc::clone(&inner), 0xA1CE);
        let mut piped = filled_archive(&s, Arc::clone(&net));
        let name = reference.scheme().scheme_name();

        assert_eq!(reference.stored_ids(), piped.stored_ids(), "{name}");
        assert_same_state(&plain, &inner, &format!("{name}: after seal"));

        // Scattered erasures behind both archives' backs.
        let victims: Vec<BlockId> = reference.stored_ids().iter().copied().step_by(20).collect();
        assert!(!victims.is_empty());
        for v in &victims {
            assert!(plain.remove(*v), "{name}: {v}");
            assert!(inner.remove(*v), "{name}: {v}");
        }

        // Degraded reads: identical bytes, and the pipelined path stays
        // read-only on the backend just like the serial one.
        for (file, contents) in files() {
            assert_eq!(reference.get(file).expect(file), contents, "{name}");
            assert_eq!(piped.get(file).expect(file), contents, "{name}");
        }
        assert!(
            !inner.contains(victims[0]),
            "{name}: pipelined get wrote back"
        );

        // Scrub: same restoration count, byte-identical final state.
        let restored_ref = reference.scrub();
        let restored_net = piped.scrub();
        assert_eq!(restored_ref, restored_net, "{name}: scrub counts diverge");
        assert_eq!(restored_ref as usize, victims.len(), "{name}");
        assert_same_state(&plain, &inner, &format!("{name}: after scrub"));
        assert_eq!(piped.scrub(), 0, "{name}: pipelined scrub is idempotent");
        assert!(piped.verify_all().is_empty(), "{name}");
    }
}

/// The write side: `put` + `seal` (and the checkpoint `seal` commits)
/// over the network, at every window, leave the backend block-for-block
/// and journal-for-journal what the plain `MemStore` run leaves — and a
/// crash right there reopens to the same manifest.
#[test]
fn every_roster_scheme_builds_the_identical_archive_at_every_window() {
    for s in Scheme::extended_lineup() {
        let plain = Arc::new(MemStore::new());
        let reference = filled_archive(&s, Arc::clone(&plain));
        let name = reference.scheme().scheme_name();
        at_each_window(|window| {
            let ctx = format!("{name} at window {window}");
            let inner = Arc::new(MemStore::new());
            let net = wrap(Arc::clone(&inner), 0xB17D);
            let piped = filled_archive(&s, Arc::clone(&net));
            assert_eq!(reference.stored_ids(), piped.stored_ids(), "{ctx}");
            assert_eq!(reference.live_meta_ids(), piped.live_meta_ids(), "{ctx}");
            // `ids()` spans every namespace, so this compares the scheme
            // blocks *and* every journal, checkpoint and pointer copy.
            assert_same_state(&plain, &inner, &ctx);
            drop(piped);
            let scheme: Arc<dyn RedundancyScheme> = Arc::from(s.build(BLOCK));
            let reopened = Archive::open(scheme, net).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(reopened.manifest().eq(reference.manifest()), "{ctx}");
            assert!(reopened.meta_damage().is_empty(), "{ctx}");
            assert_same_state(&plain, &inner, &format!("{ctx}: open is read-only"));
        });
    }
}

/// A remote tier that dies mid-build: the redundancy and journal writes
/// of the puts that follow are swallowed after bounded retries (the
/// virtual-clock executor would panic on a hang), the data tier keeps
/// landing, and the backend ends up exactly as the strictly serial
/// window-1 schedule leaves it.
#[test]
fn a_dead_remote_tier_during_put_swallows_the_same_writes_at_every_window() {
    let link = LinkSpec {
        rtt: Duration::from_millis(1),
        jitter: Duration::from_micros(50),
    };
    for s in Scheme::extended_lineup() {
        let mut serial: Option<Arc<MemStore>> = None;
        at_each_window(|window| {
            let inner = Arc::new(MemStore::new());
            let rt = Runtime::new(Clock::virtual_time());
            let tiering = Tiering::DataLocal {
                local: link,
                remote: link,
            };
            let net = Arc::new(
                LatencyStore::new(Arc::clone(&inner), rt, tiering, 0xDEAD)
                    .with_retry(RetryPolicy {
                        attempts: 2,
                        timeout: Duration::from_millis(5),
                        backoff: Duration::from_millis(2),
                        multiplier: 2,
                    })
                    .into_sync(),
            );
            let scheme: Arc<dyn RedundancyScheme> = Arc::from(s.build(BLOCK));
            let mut ar = Archive::with_scheme(scheme, BLOCK, Arc::clone(&net));
            let name = ar.scheme().scheme_name();
            let files = files();
            for (file, contents) in &files[..2] {
                ar.put(file, contents).expect("fresh name");
            }
            let remote = |store: &MemStore| store.ids().iter().filter(|id| !id.is_data()).count();
            let remote_at_death = remote(&inner);
            net.inner().set_dead(Tier::Remote, true);
            for (file, contents) in &files[2..] {
                ar.put(file, contents)
                    .expect("a dead remote is not an error");
            }
            ar.seal().expect("seal over a dead remote");
            let data_landed = inner.ids().iter().filter(|id| id.is_data()).count();
            assert_eq!(
                data_landed as u64,
                ar.blocks_written(),
                "{name}: the data tier keeps landing"
            );
            assert_eq!(
                remote(&inner),
                remote_at_death,
                "{name}: remote writes after the death are swallowed"
            );
            match &serial {
                None => serial = Some(inner),
                Some(first) => {
                    assert_same_state(first, &inner, &format!("{name} at window {window}"))
                }
            }
        });
    }
}

/// The latency wrapper composes with fault injection: corruption (the
/// case where `fetch` and `read` answers disagree, which the replay
/// machinery must not conflate) heals identically through the network.
#[test]
fn corruption_heals_identically_through_the_latency_wrapper() {
    for s in Scheme::extended_lineup() {
        let plain_faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
        let mut reference = filled_archive(&s, Arc::clone(&plain_faulty));
        let net_faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
        let net = wrap(Arc::clone(&net_faulty), 0xFA17);
        let mut piped = filled_archive(&s, Arc::clone(&net));
        let name = reference.scheme().scheme_name();

        let victims: Vec<BlockId> = reference.stored_ids().iter().copied().step_by(20).collect();
        plain_faulty.corrupt_all(victims.iter().copied());
        net_faulty.corrupt_all(victims.iter().copied());

        for (file, contents) in files() {
            assert_eq!(reference.get(file).expect(file), contents, "{name}");
            assert_eq!(piped.get(file).expect(file), contents, "{name}");
        }
        assert_eq!(
            net_faulty.corrupted_len(),
            victims.len(),
            "{name}: degraded reads must not heal"
        );

        let restored_ref = reference.scrub();
        let restored_net = piped.scrub();
        assert_eq!(restored_ref, restored_net, "{name}");
        assert_eq!(
            net_faulty.corrupted_len(),
            0,
            "{name}: scrub heals corruption"
        );
        assert_same_state(
            plain_faulty.inner(),
            net_faulty.inner(),
            &format!("{name}: after scrub"),
        );
        assert!(piped.verify_all().is_empty(), "{name}");
    }
}

/// A dead remote degrades to typed errors — `StoreError::TimedOut` on the
/// store surface, `BlockUnavailable` on the archive surface — and never
/// hangs: the virtual-clock executor panics on a deadlocked future, so
/// completion of every call below *is* the no-hang proof. Reviving the
/// link restores full service.
#[test]
fn dead_remote_degrades_to_typed_errors_and_revival_restores_service() {
    let inner = Arc::new(MemStore::new());
    let rt = Runtime::new(Clock::virtual_time());
    let net = Arc::new(
        LatencyStore::uniform(
            Arc::clone(&inner),
            rt,
            LinkSpec::rtt(Duration::from_millis(1)),
            7,
        )
        .with_retry(RetryPolicy {
            attempts: 2,
            timeout: Duration::from_millis(5),
            backoff: Duration::from_millis(2),
            multiplier: 2,
        })
        .into_sync(),
    );
    let lineup = Scheme::extended_lineup();
    let ar = filled_archive(&lineup[0], Arc::clone(&net));

    net.inner().set_dead(Tier::Local, true);
    // Store surface: typed, exhaustive, no hang.
    let probe = *ar.stored_ids().first().expect("archive wrote blocks");
    assert_eq!(net.read(probe), Err(StoreError::TimedOut(probe)));
    assert_eq!(net.fetch(probe), None);
    assert!(!net.has(probe));
    // Archive surface: the pipelined degraded read completes with the
    // typed unavailability error, never a hang.
    match ar.get("exact.bin") {
        Err(ArchiveError::BlockUnavailable { .. }) => {}
        other => panic!("expected BlockUnavailable from a dead remote, got {other:?}"),
    }

    net.inner().set_dead(Tier::Local, false);
    for (file, contents) in files() {
        assert_eq!(ar.get(file).expect(file), contents, "revived remote serves");
    }
}

fn any_roster_index() -> impl Strategy<Value = usize> {
    0..Scheme::extended_lineup().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary random damage — including damage heavy enough that
    /// reads fail, and runs of `run` consecutive stored blocks that take
    /// out tuples whole, as a chained read's loss does — the pipelined
    /// path returns **exactly** the serial path's result for every file:
    /// same bytes on success, same typed error (same missing tuple
    /// members) on failure, same scrub count, same final backend bytes.
    /// Both are the whole-archive planner's: `repair_missing` with every
    /// stored id a target, over the damaged backend, rebuilds exactly the
    /// blocks the archive's closure rounds do.
    #[test]
    fn pipelined_and_serial_paths_agree_under_random_damage(
        pick in any_roster_index(),
        damage_seed: u64,
        damage_pct in 5u64..45,
        run in 1usize..5,
    ) {
        let roster = Scheme::extended_lineup();
        let plain = Arc::new(MemStore::new());
        let mut reference = filled_archive(&roster[pick], Arc::clone(&plain));
        let inner = Arc::new(MemStore::new());
        let net = wrap(Arc::clone(&inner), damage_seed ^ 0xA1CE);
        let mut piped = filled_archive(&roster[pick], Arc::clone(&net));
        let name = reference.scheme().scheme_name();

        // Identical pseudo-random damage on both backends: a run of
        // `run` stored blocks from each position the draw hits.
        let mut state = damage_seed | 1;
        let stored = reference.stored_ids().to_vec();
        for k in 0..stored.len() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) % 100 < damage_pct {
                for id in stored.iter().skip(k).take(run) {
                    plain.remove(*id);
                    inner.remove(*id);
                }
            }
        }

        // The oracle: every stored id a target, over a copy of the damage.
        let scheme = Arc::clone(reference.scheme());
        let written = scheme.data_written();
        let oracle = MemStore::new();
        for id in plain.ids() {
            oracle.put(id, plain.get(id).expect("listed a moment ago"));
        }
        let rebuilt = Overlay::new(&oracle);
        scheme.repair_missing(&rebuilt, &stored, written);

        for (file, contents) in files() {
            let serial = reference.get(file);
            let pipelined = piped.get(file);
            prop_assert_eq!(&serial, &pipelined, "{}: {}", name, file);
            let entry = reference.entry(file).expect("archived");
            let extent = reference.data_ids().skip(entry.first_block as usize);
            let blocks: Vec<_> = extent.take(entry.block_count as usize).collect();
            match blocks.iter().find(|&&id| rebuilt.fetch(id).is_none()) {
                Some(&lost) => prop_assert!(
                    matches!(serial, Err(ArchiveError::BlockUnavailable { id, .. }) if id == lost),
                    "{}: {}: {:?}, the oracle lost {}", name, file, serial, lost
                ),
                None => prop_assert_eq!(serial, Ok(contents), "{}: {}", name, file),
            }
        }

        let repaired = scheme.repair_missing(&oracle, &stored, written).total_repaired();
        let restored = reference.scrub();
        prop_assert_eq!(restored, repaired as u64, "{}", name);
        prop_assert_eq!(restored, piped.scrub(), "{}", name);
        let mut a = plain.ids();
        let mut b = inner.ids();
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b, "{}: id sets", name);
        let mut c = oracle.ids();
        c.sort();
        prop_assert_eq!(&a, &c, "{}: id sets, the oracle's", name);
        for id in &a {
            prop_assert_eq!(plain.get(*id), inner.get(*id), "{}: {}", name, id);
            prop_assert_eq!(plain.get(*id), oracle.get(*id), "{}: {}, the oracle's", name, id);
        }
        prop_assert_eq!(reference.verify_all(), piped.verify_all(), "{}", name);
    }
}
