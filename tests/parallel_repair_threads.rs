//! Drives the byte-plane repair planner through its *threaded* branch.
//!
//! The other parity suites use small target sets, which plan inline
//! (below `PARALLEL_PLAN_MIN`); this test forces a multi-thread planner
//! via `AE_REPAIR_THREADS` and a target set large enough to fan out, so
//! the scoped-thread chunk merge and blocker filing from threaded
//! results are exercised by `cargo test`, not just by benches.
//!
//! This lives in its own integration-test binary: the planner thread
//! count is memoized per process, so the env override must be set before
//! anything else calls into repair.
//!
//! For the same reason the last three tests rerun this binary as a child
//! process per thread count. A `scrub` must end at the same virtual
//! timestamp, backend state and calls however many planner threads there
//! are, over either kind of backend. The repairs made during the sweep
//! are serial, and only what they leave is planned, in the closure
//! rounds: planners only ever see memory — the answers fetched so far —
//! and every batch, the rounds' fetches included, is issued in an order
//! the code fixes. So the backend must end the same and see the same
//! calls — the writes in the same order — at one planner thread and four.
//! The availability plane asks about a Reed-Solomon stripe once per chunk
//! of its round scan, so a stripe cut by a chunk boundary is asked twice:
//! the plan must still be the one a single planner makes.

use aecodes::aio::{Clock, LatencyStore, LinkSpec, Runtime};
use aecodes::api::{BlockSink, BlockSource, RedundancyScheme, StoreError};
use aecodes::baselines::ReedSolomon;
use aecodes::blocks::{Block, BlockId};
use aecodes::core::{BlockMap, Code};
use aecodes::lattice::Config;
use aecodes::sim::{SchemePlane, SimPlacement};
use aecodes::store::archive::Archive;
use aecodes::store::MemStore;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[test]
fn threaded_planner_matches_serial_on_a_large_disaster() {
    // Read before any repair call in this process memoizes the default.
    std::env::set_var("AE_REPAIR_THREADS", "4");
    assert_eq!(aecodes::api::repair_threads(), 4);

    let n = 400u64;
    let build = || {
        let code = Code::new(Config::new(2, 2, 5).unwrap(), 32);
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..n)
            .map(|i| Block::from_vec((0..32).map(|k| ((i * 37 + k * 11) % 251) as u8).collect()))
            .collect();
        code.encode_batch(&blocks, &store).expect("encode");
        // A clustered disaster well above PARALLEL_PLAN_MIN (256)
        // targets: a contiguous dead span plus deterministic scatter.
        let universe = code.block_ids(n);
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let victims: Vec<BlockId> = universe
            .iter()
            .copied()
            .enumerate()
            .filter(|&(k, _)| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (300..700).contains(&k) || (state >> 33) % 100 < 20
            })
            .map(|(_, id)| id)
            .collect();
        assert!(victims.len() > 256, "must cross the fan-out threshold");
        for v in &victims {
            store.remove(v);
        }
        (code, store, victims)
    };

    let (code_a, store_a, victims) = build();
    let (code_b, store_b, _) = build();
    let parallel = code_a.repair_missing(&store_a, &victims, n);
    let serial = code_b.repair_missing_serial(&store_b, &victims, n);
    assert_eq!(parallel, serial, "threaded planner diverged from serial");
    assert!(parallel.total_repaired() > 0);
    assert_eq!(store_a.len(), store_b.len());
    assert_eq!(store_a, store_b);
}

/// One `scrub` of a third of an AE(3,2,5) archive over a jittered 1 ms
/// link; prints where the virtual clock and the backend ended up.
#[test]
#[ignore = "the child-process half of the test below"]
fn scrub_timeline_probe() {
    let inner = Arc::new(MemStore::new());
    let link = LinkSpec {
        jitter: Duration::from_micros(50),
        ..LinkSpec::rtt(Duration::from_millis(1))
    };
    let rt = Runtime::new(Clock::virtual_time());
    let net = Arc::new(LatencyStore::uniform(Arc::clone(&inner), rt, link, 0x5EED).into_sync());
    let mut ar = Archive::new(Config::new(3, 2, 5).unwrap(), 32, Arc::clone(&net));
    for f in 0..10u8 {
        ar.put(&format!("f{f}"), &[f; 32 * 30]).expect("fresh name");
    }
    let victims: Vec<BlockId> = ar.stored_ids().iter().copied().step_by(3).collect();
    assert!(victims.len() >= 300, "must cross the fan-out threshold");
    for v in &victims {
        assert!(inner.remove(*v));
    }
    assert!(ar.scrub() > 0);
    println!(
        "timeline {} {:016x}",
        net.runtime().now(),
        fingerprint(&inner)
    );
}

/// One `scrub` of an AE(3,2,5) archive over a plain backend that lost a
/// contiguous span of 400 positions — the sweep's window repairs only
/// the edges of such a hole, so more than `PARALLEL_PLAN_MIN` (256)
/// targets are left to the round-based planner; prints a fingerprint of
/// the backend and a digest of the calls it saw: the reads as a set, and
/// the writes in order.
#[test]
#[ignore = "the child-process half of the test below"]
fn plain_scrub_probe() {
    let inner = Arc::new(MemStore::new());
    let store = Arc::new(Calls::new(Arc::clone(&inner)));
    let mut ar = Archive::new(Config::new(3, 2, 5).unwrap(), 32, Arc::clone(&store));
    for f in 0..10u8 {
        ar.put(&format!("f{f}"), &[f; 32 * 30]).expect("fresh name");
    }
    let span = &ar.stored_ids()[300..700];
    for v in span {
        assert!(inner.remove(*v));
    }
    let lost = span.len();
    store.calls.lock().unwrap().clear();
    assert!(ar.scrub() > 0);
    let calls = std::mem::take(&mut *store.calls.lock().unwrap());
    let (writes, mut reads): (Vec<_>, Vec<_>) = calls
        .into_iter()
        .partition(|call| matches!(call, Probe::Store(..) | Probe::Remove(_)));
    let probes = reads.iter().filter(|c| matches!(c, Probe::Has(_))).count();
    assert_eq!(probes, 0, "the planner plans on memory, never the backend");
    // Each repair is one store, so the window repaired at most that
    // many: every other lost block was a target of the planner.
    assert!(
        lost - writes.len() > 256,
        "must cross the fan-out threshold"
    );
    reads.sort();
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    (reads, writes).hash(&mut digest);
    println!(
        "timeline {:016x} {:016x}",
        fingerprint(&inner),
        digest.finish()
    );
}

/// A 30 % disaster on an RS(10,4) plane of 12 005 data blocks (a
/// partial last stripe): prints Fig 13's singles, the repair outcome and
/// what is left missing. Over 4 096 blocks go missing, so the round scan
/// fans out, and a stripe's missing members straddle a boundary between
/// the scan's chunks.
#[test]
#[ignore = "the child-process half of the test below"]
fn rs_plane_probe() {
    let n = 12_005;
    let rs = ReedSolomon::new(10, 4).unwrap();
    let ids = rs.block_ids(n);
    let mut plane = SchemePlane::new(Box::new(rs), n, 50, SimPlacement::Random { seed: 3 });
    plane.inject_disaster(0.3, 17);
    let missing: Vec<BlockId> = ids
        .into_iter()
        .filter(|&id| !plane.is_available(id))
        .collect();
    assert!(missing.len() >= 4096, "must cross the fan-out threshold");
    let threads = aecodes::api::repair_threads();
    if threads > 1 {
        // `par_chunks`' cut of the first round's scan.
        let chunk = missing.len().div_ceil(threads);
        let stripe = |id: &BlockId| plane.scheme().repair_group(id, n);
        let straddles = missing
            .chunks(chunk)
            .zip(missing.chunks(chunk).skip(1))
            .any(|(a, b)| stripe(&a[a.len() - 1]) == stripe(&b[0]));
        assert!(straddles, "a stripe must straddle a chunk boundary");
    }
    let singles = plane.single_failures();
    let outcome = plane.repair_full();
    assert!(outcome.data_lost > 0 && outcome.data_repaired() > 0);
    println!(
        "timeline {singles} {:?} {outcome:?}",
        plane.missing_counts()
    );
}

/// A hash over every block `store` holds, in id order.
fn fingerprint(store: &MemStore) -> u64 {
    let mut state = std::collections::hash_map::DefaultHasher::new();
    let mut ids = store.ids();
    ids.sort();
    for id in ids {
        (id, store.get(id).expect("listed")).hash(&mut state);
    }
    state.finish()
}

/// What a call asked of the backend.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Probe {
    Fetch(BlockId),
    Has(BlockId),
    Read(BlockId),
    Store(BlockId, u32),
    Remove(BlockId),
}

/// A backend wrapper that logs every call, a store with its block's CRC.
struct Calls {
    calls: Mutex<Vec<Probe>>,
    inner: Arc<MemStore>,
}

impl Calls {
    fn new(inner: Arc<MemStore>) -> Self {
        Calls {
            calls: Mutex::new(Vec::new()),
            inner,
        }
    }

    fn log(&self, call: Probe) {
        self.calls.lock().unwrap().push(call);
    }
}

impl BlockSource for Calls {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.log(Probe::Fetch(id));
        self.inner.fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        self.log(Probe::Has(id));
        self.inner.has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.log(Probe::Read(id));
        self.inner.read(id)
    }
}

impl BlockSink for Calls {
    fn store(&self, id: BlockId, block: Block) {
        self.log(Probe::Store(id, block.crc()));
        self.inner.store(id, block)
    }

    fn remove(&self, id: BlockId) -> bool {
        self.log(Probe::Remove(id));
        self.inner.remove(id)
    }
}

/// Reruns this binary's ignored `probe` at `threads` planner threads and
/// returns the line it printed.
fn timeline(probe: &str, threads: &str) -> String {
    let run = std::process::Command::new(std::env::current_exe().expect("this binary"))
        .args(["--exact", probe, "--ignored", "--nocapture"])
        .env("AE_REPAIR_THREADS", threads)
        .output()
        .expect("the test binary reruns itself");
    assert!(run.status.success(), "{probe}: {threads} planner thread(s)");
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    let (_, line) = stdout.split_once("timeline ").expect("the probe prints");
    line.lines().next().expect("one line").to_string()
}

#[test]
fn a_scrub_a_network_away_ends_identically_at_one_planner_thread_and_four() {
    let probe = "scrub_timeline_probe";
    assert_eq!(timeline(probe, "1"), timeline(probe, "4"));
}

#[test]
fn a_plain_scrub_ends_identically_at_one_planner_thread_and_four() {
    let probe = "plain_scrub_probe";
    assert_eq!(timeline(probe, "1"), timeline(probe, "4"));
}

#[test]
fn an_rs_plane_plans_identically_at_one_planner_thread_and_four() {
    let probe = "rs_plane_probe";
    assert_eq!(timeline(probe, "1"), timeline(probe, "4"));
}
