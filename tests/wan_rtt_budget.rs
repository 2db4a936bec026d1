//! The WAN round-trip budget, measured on the virtual clock.
//!
//! Over a 1 ms, jitter-free, uncapped link every backend call costs one
//! round trip and a batch of `n` independent calls costs `⌈n / window⌉`,
//! so the virtual time an archive operation takes *is* its count of
//! sequential round trips — an exact integer with no wall-clock noise.
//! The table below (AE(3,2,5), RS(10,4), 3-way replication × in-flight
//! window 1, 8, 32 × put, seal, get, degraded get, scrub, open, chained
//! get) is diffed against `tests/golden/wan_rtts.csv` byte for byte: the
//! `sweeps` job's golden pattern applied to time. A change that makes an
//! operation pay more sequential round trips — or fewer — fails here
//! until the golden is re-recorded on purpose (the table of the run is
//! left in `target/tmp/wan_rtts.csv`; copy it over the golden).
//!
//! The second test pins the code-locality claim the budget rests on: a
//! degraded read fetches the file's blocks plus the tuple members of the
//! missing ones, whatever the size of the archive around it. The third
//! pins what a lost frontier block costs `open`: its repair's reads, and
//! no second ask for the block itself. Two more pin the reads that depend
//! on each other — a chained read, and `open` rebuilding a frontier block
//! in rounds — to the same calls and round trips at 8 files and at 32:
//! they fetch the closure of their repairs, never the archive.
//!
//! The last test pins what neither that table nor `journal_bytes.csv`
//! can: **which call, in which order**. The same wrapper that counts
//! reads folds every call that reaches the backend — an op tag, the id's
//! wire form and, for a store, the block's CRC — into a running CRC32
//! per phase of one archive lifetime, over a plain backend and over the
//! network at window 1 and 8, for the budget's three schemes and the open
//! and closed chains, and the table is diffed against
//! `tests/golden/archive_io_trace.csv` (the run's table is left in
//! `target/tmp/archive_io_trace.csv`). A refactor the backend cannot
//! tell from its parent leaves every digest alone; a reordered barrier, a
//! regrouped batch or one probe more moves one.

use aecodes::aio::{in_flight_window, BlockOn, Clock, LatencyStore, LinkSpec, Runtime};
use aecodes::api::{BlockRepo, BlockSink, BlockSource, RedundancyScheme, StoreError};
use aecodes::blocks::{Block, BlockId, Crc32};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::{Archive, ArchiveError};
use aecodes::store::meta::{encode_block_id, meta_copy_id, MetaConfig};
use aecodes::store::{ChainMode, MemStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BLOCK: usize = 64;
const BLOCKS_PER_FILE: usize = 16;
const RTT: Duration = Duration::from_millis(1);
const RTT_NS: u64 = 1_000_000;

/// Both tests read the in-flight window; only one may set it at a time.
static WINDOW_ENV: Mutex<()> = Mutex::new(());

fn roster() -> [Scheme; 3] {
    [
        Scheme::Ae(Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration")),
        Scheme::Rs { k: 10, m: 4 },
        Scheme::Replication { n: 3 },
    ]
}

/// How many consecutive stored blocks, from a data block on, the chained
/// read loses. AE(3,2,5): the block and its three output parities — no
/// pp-tuple is complete, but each parity still has its right dp-tuple, so
/// the round-based slow path rebuilds the parities, then the block.
/// RS(10,4) and 3-way replication: five shards of one stripe, every copy
/// — past what the code tolerates, so the read is `BlockUnavailable`.
/// The chains: `d_i, p_i, d_{i+1}`, their |ME(2)| = 3 dead pattern — also
/// `BlockUnavailable`.
fn chained_loss(s: &Scheme) -> usize {
    match s {
        Scheme::Ae(_) => 4,
        Scheme::Rs { .. } => 5,
        _ => 3,
    }
}

fn build(s: &Scheme) -> Arc<dyn RedundancyScheme> {
    Arc::from(s.build(BLOCK))
}

fn payload(file: usize) -> Vec<u8> {
    (0..BLOCK * BLOCKS_PER_FILE)
        .map(|i| (i * 31 + file * 7) as u8)
        .collect()
}

fn name(file: usize) -> String {
    format!("f{file:03}")
}

/// Every call that reached a [`Counting`] backend since the trace was
/// last taken: how many, how many of them stores and removes, and a
/// CRC32 over the calls in arrival order.
#[derive(Default)]
struct Trace {
    calls: u64,
    stores: u64,
    removes: u64,
    digest: Crc32,
}

/// A backend wrapper that counts the read-side calls reaching it and
/// traces every call — put *beneath* the latency model, so it sees
/// exactly what crosses the link.
struct Counting<S> {
    reads: AtomicU64,
    trace: Mutex<Trace>,
    inner: S,
}

impl<S> Counting<S> {
    fn new(inner: S) -> Self {
        Counting {
            reads: AtomicU64::new(0),
            trace: Mutex::new(Trace::default()),
            inner,
        }
    }

    /// Folds one call into the trace: the op's tag, the id as the journal
    /// would write it and, for a store, the checksum of what was stored.
    fn fold(&self, op: u8, id: BlockId, stored: Option<&Block>) {
        let mut call = vec![op];
        encode_block_id(&mut call, id);
        if let Some(block) = stored {
            call.extend_from_slice(&block.crc().to_le_bytes());
        }
        let mut trace = self.trace.lock().unwrap_or_else(|e| e.into_inner());
        trace.calls += 1;
        trace.stores += u64::from(op == b's');
        trace.removes += u64::from(op == b'x');
        trace.digest.update(&call);
    }

    /// The trace since the last call of this, which starts a new one.
    fn take_trace(&self) -> Trace {
        std::mem::take(&mut *self.trace.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<S: BlockSource> BlockSource for Counting<S> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.fold(b'f', id, None);
        self.inner.fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.fold(b'h', id, None);
        self.inner.has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.fold(b'r', id, None);
        self.inner.read(id)
    }
}

impl<S: BlockSink> BlockSink for Counting<S> {
    fn store(&self, id: BlockId, block: Block) {
        self.fold(b's', id, Some(&block));
        self.inner.store(id, block)
    }

    fn remove(&self, id: BlockId) -> bool {
        self.fold(b'x', id, None);
        self.inner.remove(id)
    }
}

type Net = BlockOn<LatencyStore<Counting<MemStore>>>;

/// The jitter-free 1 ms link over a counted `mem`.
fn network_over(mem: MemStore) -> Arc<Net> {
    let inner = Arc::new(Counting::new(mem));
    let rt = Runtime::new(Clock::virtual_time());
    Arc::new(LatencyStore::uniform(inner, rt, LinkSpec::rtt(RTT), 0).into_sync())
}

fn network() -> Arc<Net> {
    network_over(MemStore::new())
}

fn mem(net: &Net) -> &MemStore {
    &net.inner().inner().inner
}

/// Whole round trips `f` takes on `net`'s virtual clock.
fn rtts<T>(net: &Net, f: impl FnOnce() -> T) -> (T, u64) {
    let start = net.runtime().now();
    let out = f();
    let elapsed = net.runtime().now() - start;
    assert_eq!(elapsed % RTT_NS, 0, "a jitter-free link costs whole RTTs");
    (out, elapsed / RTT_NS)
}

/// Reads file 3 with its fifth data block and the `chained_loss` blocks
/// stored from it on gone from `mem` — a read the single-tuple fast path
/// cannot serve — then puts the blocks back.
fn chained_get<B: BlockRepo + ?Sized>(
    s: &Scheme,
    ar: &Archive<B>,
    mem: &MemStore,
) -> Result<Vec<u8>, ArchiveError> {
    let first = ar.entry(&name(3)).expect("archived").first_block as usize;
    let victim = ar.data_ids().nth(first + 4).expect("a 16-block file");
    let stored = ar.stored_ids();
    let at = stored.iter().position(|&id| id == victim).expect("stored");
    let lost = &stored[at..at + chained_loss(s)];
    let kept: Vec<Block> = lost
        .iter()
        .map(|&id| mem.get(id).expect("healthy"))
        .collect();
    for &id in lost {
        assert!(mem.remove(id));
    }
    let read = ar.get(&name(3));
    for (&id, block) in lost.iter().zip(kept) {
        mem.put(id, block);
    }
    read
}

/// One row of the budget: the ae_wan cycle (8 files of 16 blocks) with
/// every op class summed. One victim per 23 stored positions — coprime
/// to every scheme's stride, so data and redundancy both take hits.
fn budget_row(s: &Scheme) -> [u64; 7] {
    let net = network();
    let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&net));
    let plain_store = Arc::new(MemStore::new());
    let mut plain = Archive::with_scheme(build(s), BLOCK, Arc::clone(&plain_store));
    let files = 8;
    let [mut put, mut get, mut degraded] = [0u64; 3];
    for f in 0..files {
        put += rtts(&net, || ar.put(&name(f), &payload(f)).expect("fresh name")).1;
        plain.put(&name(f), &payload(f)).expect("fresh name");
    }
    let (_, seal) = rtts(&net, || ar.seal().expect("seal"));
    plain.seal().expect("seal");
    for f in 0..files {
        let (bytes, t) = rtts(&net, || ar.get(&name(f)).expect("healthy read"));
        assert_eq!(bytes, payload(f));
        get += t;
    }
    let victims: Vec<BlockId> = ar
        .stored_ids()
        .iter()
        .copied()
        .skip(7)
        .step_by(23)
        .collect();
    for v in &victims {
        assert!(mem(&net).remove(*v));
    }
    for f in 0..files {
        let (bytes, t) = rtts(&net, || ar.get(&name(f)).expect("degraded read"));
        assert_eq!(bytes, payload(f));
        degraded += t;
    }
    let (restored, scrub) = rtts(&net, || ar.scrub());
    assert_eq!(restored as usize, victims.len());
    // The one op whose repair traffic is *dependent* reads: result and
    // error typing are the plain-backend run's.
    let (read, chained) = rtts(&net, || chained_get(s, &ar, mem(&net)));
    assert_eq!(read, chained_get(s, &plain, &plain_store), "{s}");
    assert_eq!(read.is_ok(), matches!(s, Scheme::Ae(_)), "{s}: {read:?}");
    let before: Vec<_> = ar
        .manifest()
        .map(|(n, e)| (n.to_string(), e.clone()))
        .collect();
    drop(ar);
    let (reopened, open) = rtts(&net, || Archive::open(build(s), Arc::clone(&net)));
    let reopened = reopened.expect("journal replays");
    assert!(reopened
        .manifest()
        .eq(before.iter().map(|(n, e)| (n.as_str(), e))));
    [put, seal, get, degraded, scrub, open, chained]
}

#[test]
fn sequential_round_trips_per_op_match_the_golden_budget() {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let mut table =
        String::from("scheme,window,put,seal,get,degraded_get,scrub,open,chained_get\n");
    let before = std::env::var_os("AE_AIO_WINDOW");
    for s in roster() {
        for window in [1usize, 8, 32] {
            std::env::set_var("AE_AIO_WINDOW", window.to_string());
            let row = budget_row(&s).map(|v| v.to_string()).join(",");
            table.push_str(&format!("\"{s}\",{},{row}\n", in_flight_window()));
        }
    }
    match before {
        Some(v) => std::env::set_var("AE_AIO_WINDOW", v),
        None => std::env::remove_var("AE_AIO_WINDOW"),
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wan_rtts.csv");
    std::fs::write(&out, &table).expect("the test's own tmp dir is writable");
    let golden = include_str!("golden/wan_rtts.csv");
    assert_eq!(table, golden, "re-record from {}", out.display());
}

/// Degraded-read reads on a `files`-file archive whose file 3 lost a data
/// block and one of that block's parities.
fn degraded_read_fetches(s: &Scheme, files: usize) -> u64 {
    let net = network();
    let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&net));
    for f in 0..files {
        ar.put(&name(f), &payload(f)).expect("fresh name");
    }
    ar.seal().expect("seal");
    // File 3's fifth data block and the id stored right after it (its
    // first parity, shard or replica): the fast path has to fall through
    // to a second repair option, and every id involved sits at the same
    // write position in both archives.
    let first = ar.entry(&name(3)).expect("archived").first_block as usize;
    let victim = ar.data_ids().nth(first + 4).expect("a 16-block file");
    let at = ar
        .stored_ids()
        .iter()
        .position(|&id| id == victim)
        .expect("stored");
    for id in &ar.stored_ids()[at..at + 2] {
        assert!(mem(&net).remove(*id));
    }
    let counter = &net.inner().inner().reads;
    let before = counter.load(Ordering::Relaxed);
    assert_eq!(ar.get(&name(3)).expect("degraded read"), payload(3));
    counter.load(Ordering::Relaxed) - before
}

#[test]
fn degraded_read_fetch_count_does_not_grow_with_the_archive() {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    for s in roster() {
        let small = degraded_read_fetches(&s, 8);
        let large = degraded_read_fetches(&s, 64);
        assert_eq!(small, large, "{s}: reads must not depend on archive size");
        assert!(
            small <= (BLOCKS_PER_FILE + 16) as u64,
            "{s}: {small} reads for a {BLOCKS_PER_FILE}-block file"
        );
    }
}

/// A crash that also loses an in-flight parity: `open`'s frontier batch
/// reports it absent, and the restore goes straight to rebuilding it from
/// its dp-tuple — two dependent reads, not a third to ask for it again —
/// into the same frontier a clean open restores.
#[test]
fn a_lost_frontier_block_costs_open_its_repair_reads_and_no_more() {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let s = &roster()[0];
    let crash = |lose: bool| {
        let net = network();
        let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&net));
        for f in 0..3 {
            ar.put(&name(f), &payload(f)).expect("fresh name");
        }
        let in_flight = ar.scheme().frontier_reads(&ar.scheme().frontier_snapshot());
        let stored = ar.stored_ids().len();
        drop(ar);
        if lose {
            assert!(mem(&net).remove(in_flight[0]));
        }
        let (reopened, open) = rtts(&net, || Archive::open(build(s), Arc::clone(&net)));
        let mut reopened = reopened.expect("the lost parity is repairable");
        reopened.put(&name(3), &payload(3)).expect("resumes");
        let resumed = reopened.stored_ids()[stored..].iter();
        let blocks: Vec<Block> = resumed
            .map(|&id| mem(&net).get(id).expect("stored"))
            .collect();
        (open, blocks)
    };
    let (clean_open, clean) = crash(false);
    let (lossy_open, lossy) = crash(true);
    assert_eq!(
        lossy, clean,
        "same frontier: the next put entangles identically"
    );
    assert_eq!(lossy_open, clean_open + 2);
}

/// Runs `f` at in-flight window `window`, then puts back the window the
/// run was started with.
fn at_window<T>(window: usize, f: impl FnOnce() -> T) -> T {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let before = std::env::var_os("AE_AIO_WINDOW");
    std::env::set_var("AE_AIO_WINDOW", window.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var("AE_AIO_WINDOW", v),
        None => std::env::remove_var("AE_AIO_WINDOW"),
    }
    out
}

/// An AE(3,2,5) archive of `files` files over `store`.
fn ae_archive<B: BlockRepo + ?Sized>(store: &Arc<B>, files: usize) -> Archive<B> {
    let mut ar = Archive::with_scheme(build(&roster()[0]), BLOCK, Arc::clone(store));
    for f in 0..files {
        ar.put(&name(f), &payload(f)).expect("fresh name");
    }
    ar
}

/// What the chained read of file 3 costs on a sealed AE(3,2,5) archive of
/// `files` files: backend calls over a plain `MemStore`, and round trips
/// at the window the caller set.
fn chained_get_cost(files: usize) -> (u64, u64) {
    let s = &roster()[0];
    let plain = Arc::new(Counting::new(MemStore::new()));
    let mut ar = ae_archive(&plain, files);
    ar.seal().expect("seal");
    plain.take_trace();
    let read = chained_get(s, &ar, &plain.inner);
    assert_eq!(read.expect("AE rebuilds it in rounds"), payload(3));
    let calls = plain.take_trace().calls;
    let net = network();
    let mut ar = ae_archive(&net, files);
    ar.seal().expect("seal");
    let (read, rtts) = rtts(&net, || chained_get(s, &ar, mem(&net)));
    assert_eq!(read.expect("AE rebuilds it in rounds"), payload(3));
    (calls, rtts)
}

/// A chained read rebuilds the neighbourhood of its loss — the blocks its
/// repairs name, round by round — and not the archive: the same calls and
/// the same round trips whether the archive holds 8 files or 32.
#[test]
fn a_chained_read_costs_the_same_whatever_the_archive_size() {
    let (small, large) = at_window(8, || (chained_get_cost(8), chained_get_cost(32)));
    assert_eq!(small.0, large.0, "backend calls over a plain backend");
    assert_eq!(small.1, large.1, "round trips at window 8");
}

/// Puts `files` files into an AE(3,2,5) archive over `store`, drops it
/// (the crash) and, if `lose`, loses its first in-flight frontier parity
/// and the data block of that parity's one repair tuple from `mem`. Then
/// reopens, and answers the backend calls `counted` saw during the open
/// and the round trips it took on `clock`, if any.
fn reopen_cost<B: BlockRepo + ?Sized>(
    store: &Arc<B>,
    counted: &Counting<MemStore>,
    clock: Option<&Net>,
    files: usize,
    lose: bool,
) -> (u64, u64) {
    let ar = ae_archive(store, files);
    let scheme = ar.scheme();
    let written = scheme.data_written();
    let parity = scheme.frontier_reads(&scheme.frontier_snapshot())[0];
    let tuple = Mutex::new(Vec::new());
    scheme.is_repairable(parity, written, &|id| {
        tuple.lock().unwrap().push(id);
        true
    });
    let member = tuple
        .into_inner()
        .unwrap()
        .into_iter()
        .find(|id| id.is_data());
    drop(ar);
    if lose {
        assert!(counted.inner.remove(parity));
        assert!(counted.inner.remove(member.expect("a dp-tuple")));
    }
    counted.take_trace();
    let start = clock.map(|net| net.runtime().now());
    let mut reopened = Archive::open(build(&roster()[0]), Arc::clone(store))
        .expect("the parity is rebuilt in rounds");
    let calls = counted.take_trace().calls;
    let rtts = clock.map_or(0, |net| (net.runtime().now() - start.unwrap_or(0)) / RTT_NS);
    reopened
        .put(&name(files), &payload(files))
        .expect("resumes");
    (calls, rtts)
}

/// What a lost frontier parity and the data block of its one repair
/// tuple add to a reopen of an AE(3,2,5) archive of `files` files:
/// backend calls over a plain `MemStore`, and round trips at the window
/// the caller set.
fn lost_frontier_cost(files: usize) -> (u64, u64) {
    let plain = |lose| {
        let store = Arc::new(Counting::new(MemStore::new()));
        reopen_cost(&store, &store, None, files, lose).0
    };
    let net = |lose| {
        let net = network();
        reopen_cost(&net, net.inner().inner(), Some(&net), files, lose).1
    };
    (plain(true) - plain(false), net(true) - net(false))
}

/// `open`'s rounds for a frontier block no single repair serves fetch the
/// blocks those repairs name, not the archive: the same extra calls and
/// round trips whether the archive holds 8 files or 32.
#[test]
fn a_frontier_rebuilt_in_rounds_costs_the_same_whatever_the_archive_size() {
    let (small, large) = at_window(8, || (lost_frontier_cost(8), lost_frontier_cost(32)));
    assert_eq!(small.0, large.0, "backend calls over a plain backend");
    assert_eq!(small.1, large.1, "round trips at window 8");
}

/// Reopen-then-append is the normal life of a long-term archive, and the
/// first commit after an `open` owes the commit it was opened on a second
/// look at its garbage range (a power cut inside that GC leaves records no
/// reopened journal can name). On a journal whose GC finished the look is
/// one batch of `has` over the top block of the range — at most 16 records'
/// copy sets — and not one remove: the commit costs the round trips of the
/// same commit in a process that never stopped, plus that probe, however
/// many records the range held.
#[test]
fn the_first_commit_after_a_reopen_costs_one_probe_more() {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let before = std::env::var_os("AE_AIO_WINDOW");
    std::env::set_var("AE_AIO_WINDOW", "8");
    let s = &roster()[0];
    let block = |f: usize| vec![f as u8; BLOCK];
    // Four commits at the default cadence, then 63 records of a fifth.
    let lifetime = |reopen: bool| {
        let net = network();
        let mut ar = Archive::with_scheme(build(s), BLOCK, Arc::clone(&net));
        for f in 0..319 {
            ar.put(&name(f), &block(f)).expect("fresh name");
        }
        let loaded = ar.checkpoint_seq().expect("four commits");
        if reopen {
            drop(ar);
            ar = Archive::open(build(s), Arc::clone(&net)).expect("journal replays");
            assert_eq!(ar.replayed_records(), 63);
        }
        let calls = &**net.inner().inner();
        calls.take_trace();
        let (_, commit) = rtts(&net, || {
            ar.put(&name(319), &block(319)).expect("fresh name")
        });
        assert!(ar.checkpoint_seq() > Some(loaded), "the put commits");
        let trace = calls.take_trace();
        (commit, trace.calls, trace.removes, loaded)
    };
    let (steady_rtts, steady_calls, steady_removes, loaded) = lifetime(false);
    let (rtts, calls, removes, _) = lifetime(true);
    match before {
        Some(v) => std::env::set_var("AE_AIO_WINDOW", v),
        None => std::env::remove_var("AE_AIO_WINDOW"),
    }
    // The range ends below the loaded segment's part 0; its top block is
    // what lies in the same aligned 16 seqs.
    let probed = ((loaded - 1) % 16 + 1) * 3;
    assert_eq!(removes, steady_removes, "nothing was left to collect");
    assert_eq!(calls, steady_calls + probed);
    assert_eq!(rtts, steady_rtts + probed.div_ceil(8));
}

/// Checkpoints every third record, in parts of 64 bytes: eight puts cross
/// two multi-part checkpoints and leave a two-record suffix.
fn trace_cadence() -> MetaConfig {
    MetaConfig {
        copies: 3,
        checkpoint_every: Some(3),
        segment_bytes: 64,
    }
}

fn copy_of(mem: &MemStore) -> MemStore {
    let copy = MemStore::new();
    for id in mem.ids() {
        copy.put(id, mem.get(id).expect("listed a moment ago"));
    }
    copy
}

/// The phases of one lifetime, each with what it made the backend do.
type Phases = Vec<(&'static str, Trace)>;

/// Runs `op` and files what it made the backend behind `counted` do
/// under `phase`.
fn traced<T>(
    rows: &mut Phases,
    counted: &Counting<MemStore>,
    phase: &'static str,
    op: impl FnOnce() -> T,
) -> T {
    counted.take_trace();
    let out = op();
    rows.push((phase, counted.take_trace()));
    out
}

/// One archive lifetime over the kind of backend `make` wraps a
/// `MemStore` in, phase by phase: the trace of each, and what the chained
/// read answered. `counted` finds the wrapper that sees the calls.
fn trace_lifetime<B: BlockRepo + ?Sized>(
    s: &Scheme,
    make: impl Fn(MemStore) -> Arc<B>,
    counted: impl Fn(&B) -> &Counting<MemStore>,
) -> (Phases, Result<Vec<u8>, ArchiveError>) {
    let mut rows = Vec::new();
    let store = make(MemStore::new());
    let calls = counted(&store);
    let mem = &calls.inner;
    let mut ar = traced(&mut rows, calls, "create", || {
        Archive::with_scheme_meta(build(s), BLOCK, Arc::clone(&store), trace_cadence())
    });
    traced(&mut rows, calls, "put_x8", || {
        for f in 0..8 {
            ar.put(&name(f), &payload(f)).expect("fresh name");
        }
    });
    let last = ar.meta_len() - 1;
    // (Parts, then the records of puts 7 and 8.)
    let parts = last - 1 - ar.checkpoint_seq().expect("two checkpoints so far");
    assert!(parts >= 2, "{s}: a multi-part checkpoint");
    let live = ar.live_meta_ids();
    let unsealed = copy_of(mem);
    traced(&mut rows, calls, "seal", || ar.seal().expect("seal"));

    // Reopens of the unsealed archive — multi-part checkpoint, two-record
    // suffix — each over a backend of its own holding what `harm` left.
    let mut open = |phase, harm: &dyn Fn(&MemStore)| {
        let crashed = copy_of(&unsealed);
        harm(&crashed);
        let store = make(crashed);
        let opened = traced(&mut rows, counted(&store), phase, || {
            Archive::open_with_meta(build(s), Arc::clone(&store), trace_cadence())
        });
        opened.unwrap_or_else(|err| panic!("{s} {phase}: {err}"))
    };
    let clean = open("open", &|_| {});
    assert_eq!(clean.replayed_records(), 2, "{s}");
    assert!(clean.meta_damage().is_empty() && clean.torn_tail().is_none());
    let lossy = open("open_lost_copies", &|mem| {
        for &id in &live {
            let BlockId::Meta(meta) = id else {
                unreachable!("live metadata lives under Meta ids")
            };
            if u64::from(meta.copy()) == meta.seq() % 3 {
                assert!(mem.remove(id), "{s}: {id} was live");
            }
        }
    });
    assert_eq!(lossy.meta_damage().len(), live.len() / 3, "{s}");
    let torn = open("open_torn_record", &|mem| {
        for copy in 0..3 {
            let id = meta_copy_id(last, copy);
            let whole = mem.get(id).expect("the last put's record");
            mem.put(
                id,
                Block::copy_from_slice(&whole.as_slice()[..whole.len() / 2]),
            );
        }
    });
    assert_eq!(torn.torn_tail(), Some(last), "{s}");
    // A checkpoint whose parts all landed and whose pointer never did:
    // let an archive commit one, then put back everything the commit
    // overwrote or collected.
    let uncommitted = |mem: &MemStore| {
        let scratch = Arc::new(copy_of(mem));
        Archive::open_with_meta(build(s), Arc::clone(&scratch), trace_cadence())
            .expect("clean")
            .checkpoint();
        for id in scratch.ids().into_iter().filter(|id| !mem.contains(*id)) {
            mem.put(id, scratch.get(id).expect("listed a moment ago"));
        }
    };
    let skipped = open("open_uncommitted_group", &uncommitted);
    assert_eq!(skipped.checkpoint_seq(), clean.checkpoint_seq(), "{s}");
    assert!(skipped.torn_tail().is_none() && skipped.meta_len() > last + 2);
    let group_end = skipped.meta_len() - 1;
    let truncated = open("open_torn_group", &|mem| {
        uncommitted(mem);
        for copy in 0..3 {
            assert!(mem.remove(meta_copy_id(group_end, copy)), "{s}: last part");
        }
    });
    assert_eq!(truncated.torn_tail(), Some(last + 1), "{s}");
    assert_eq!(truncated.meta_len(), last + 1, "{s}");

    // Back on the sealed archive: damage, degraded reads, a scrub that
    // also finds lost and garbled metadata copies, the chained read.
    let victims: Vec<BlockId> = ar
        .stored_ids()
        .iter()
        .copied()
        .skip(7)
        .step_by(23)
        .collect();
    assert!(victims.iter().any(|id| id.is_data()) && victims.iter().any(|id| !id.is_data()));
    for v in &victims {
        assert!(mem.remove(*v));
    }
    traced(&mut rows, calls, "degraded_get_x8", || {
        for f in 0..8 {
            assert_eq!(ar.get(&name(f)).expect("degraded read"), payload(f));
        }
    });
    let mut harmed = 0;
    for (i, id) in ar.live_meta_ids().into_iter().enumerate() {
        match i % 4 {
            0 => assert!(mem.remove(id)),
            2 => mem.put(id, Block::from_vec(vec![0xA7; 21])),
            _ => continue,
        }
        harmed += 1;
    }
    let restored = traced(&mut rows, calls, "scrub", || ar.scrub());
    assert_eq!(restored as usize, victims.len() + harmed, "{s}");
    let chained = traced(&mut rows, calls, "chained_get", || chained_get(s, &ar, mem));
    (rows, chained)
}

/// The budget's roster plus the §IV.B.1 chains, whose closing parity,
/// frontier snapshot and restore reads only the trace sees.
fn trace_roster() -> [Scheme; 5] {
    let [ae, rs, replication] = roster();
    let chain = |mode| Scheme::Chain { mode };
    [
        ae,
        rs,
        replication,
        chain(ChainMode::Open),
        chain(ChainMode::Closed),
    ]
}

#[test]
fn every_backend_call_in_order_matches_the_golden_trace() {
    let _guard = WINDOW_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let before = std::env::var_os("AE_AIO_WINDOW");
    let mut table = String::from("scheme,backend,phase,calls,stores,removes,digest\n");
    for s in trace_roster() {
        let plain = trace_lifetime(&s, |mem| Arc::new(Counting::new(mem)), |store| store);
        let mut lifetimes = vec![("mem".to_string(), plain)];
        for window in [1usize, 8] {
            std::env::set_var("AE_AIO_WINDOW", window.to_string());
            let net = trace_lifetime(&s, network_over, |net: &Net| &**net.inner().inner());
            lifetimes.push((format!("net_w{}", in_flight_window()), net));
        }
        for (backend, (rows, chained)) in &lifetimes {
            assert_eq!(chained, &lifetimes[0].1 .1, "{s} over {backend}");
            for (phase, t) in rows {
                table.push_str(&format!(
                    "\"{s}\",{backend},{phase},{},{},{},{:08x}\n",
                    t.calls,
                    t.stores,
                    t.removes,
                    t.digest.finalize()
                ));
            }
        }
    }
    match before {
        Some(v) => std::env::set_var("AE_AIO_WINDOW", v),
        None => std::env::remove_var("AE_AIO_WINDOW"),
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("archive_io_trace.csv");
    std::fs::write(&out, &table).expect("the test's own tmp dir is writable");
    let golden = include_str!("golden/archive_io_trace.csv");
    assert_eq!(table, golden, "re-record from {}", out.display());
}

/// A name is framed by a `u16`: the longest one that fits journals,
/// checkpoints and replays like any other, and one byte more is refused
/// before a single call reaches the backend — journaled, its length
/// would wrap and leave a record no `open` can decode.
#[test]
fn a_name_the_journal_cannot_frame_is_refused_before_any_write() {
    let cfg = || MetaConfig {
        checkpoint_every: Some(2),
        ..MetaConfig::default()
    };
    let longest = "n".repeat(usize::from(u16::MAX));
    let too_long = format!("{longest}n");
    for s in roster() {
        let store = Arc::new(Counting::new(MemStore::new()));
        let mut ar = Archive::with_scheme_meta(build(&s), BLOCK, Arc::clone(&store), cfg());
        ar.put(&longest, &payload(0)).expect("it fits");
        store.take_trace();
        assert_eq!(
            ar.put(&too_long, &payload(1)),
            Err(ArchiveError::NameTooLong { len: 65_536 }),
            "{s}"
        );
        let refused = store.take_trace();
        assert_eq!((refused.calls, refused.stores), (0, 0), "{s}");
        assert_eq!(ar.scheme().data_written(), 16, "{s}: the encoder never ran");
        // The next puts take it through two checkpoints, rows and all.
        for f in 1..4 {
            ar.put(&name(f), &payload(f)).expect("fresh name");
        }
        assert!(ar.checkpoint_seq() > Some(3), "{s}: the second checkpoint");
        drop(ar);
        let ar = Archive::open_with_meta(build(&s), Arc::clone(&store), cfg()).expect("replays");
        assert_eq!(ar.torn_tail(), None, "{s}");
        assert_eq!(ar.file_count(), 4, "{s}");
        assert_eq!(ar.get(&longest).expect("readable"), payload(0), "{s}");
        assert!(ar.entry(&too_long).is_none(), "{s}");
    }
}
