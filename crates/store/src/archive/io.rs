//! How archive I/O meets the backend: independent calls in batches,
//! dependent reads against what a batch already fetched.
//!
//! # Batched backend I/O
//!
//! Every phase that issues *independent* backend calls — a put's data
//! and redundancy blocks, a record's copy set, a checkpoint's pointer
//! cells, GC, the probes and refetches of `open`, the read sweeps of
//! `scrub` and `get` — goes through one private helper (`batch`, behind
//! `store_all` / `remove_all` / `fetch_all` / `has_all` and `read_run`).
//! Over a backend with a native async interior ([`BlockSource::as_async`])
//! the batch moves through the bounded in-flight window, so an operation
//! a network away costs **window rounds, not block counts**: a 16-block
//! AE(3,2,5) `put` is ⌈64 / 8⌉ + 1 = 9 sequential round trips at the
//! default window, not 67. Over a plain backend the helper is the same
//! calls in the same order as a loop: a plain backend is simply
//! window-agnostic. The read sweeps go in runs of 64 ids: a plain backend
//! is asked for a run at once ([`BlockSource::read_many`]), so one that
//! verifies checksums overlaps loading the next blocks with summing this
//! one; a network away a run is one batch, ⌈64 / window⌉ round trips —
//! what one batch of the whole sweep costs when the window divides 64,
//! and at most one partly filled round per run more when it does not.
//! `tests/wan_rtt_budget.rs` pins the round-trip count of every operation
//! under the virtual clock, and which call is made in which order.
//! Returning from a batch is a **barrier**; the crash-ordering rules
//! built on it are the journal's (`journal.rs`).
//!
//! # Dependent reads
//!
//! Repair reads depend on what earlier reads found, so they cannot be
//! one batch. They are **plan → fetch(window) → apply** instead: name
//! the read set, fetch it as a batch into a `Prefetched` — the answers,
//! absences included, over the backend — and run the unchanged scheme
//! logic against that. `open` plans with
//! [`RedundancyScheme::frontier_reads`], a degraded `get` with
//! [`RedundancyScheme::is_repairable`] asked optimistically, round by
//! round; whatever a plan misses reads through, one call at a time. (A
//! backend that answers at call time is its own memory: nothing is
//! planned or kept, every read goes through.) `scrub` plans nothing: a
//! `Window` keeps the blocks its sweep verified in its last `WINDOW_RUNS`
//! runs, by position, and one run past a failed read the single-block
//! repair rebuilds that block from the window alone, which then holds it
//! for the repairs after it.
//!
//! What no single repair serves — what `scrub`'s window could not, a
//! chained reconstruction in `get`, a frontier block `open` rebuilds —
//! goes to the **closure rounds** (`Archive::closure_rounds`): the round
//! planner runs on an `Asked` view of the answers alone, which answers
//! every other id absent and records it; the recorded ids are fetched as
//! one batch, those the archive stored and the backend lacks join the
//! targets, and the planner runs again until a run asks nothing new.
//! That run saw backend answers only — it is the run the backend itself
//! would give — and the rounds read the neighbourhood of the loss, never
//! the archive. Planner threads see memory only, so their number never
//! shows in the order, or the timing, of what crosses the link.

use ae_aio::{in_flight_window, windowed_map};
use ae_api::{
    AsyncBlockRepo, BlockRepo, BlockSink, BlockSource, BoxFuture, RedundancyScheme, StoreError,
};
use ae_blocks::{Block, BlockId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// A read-only view that falls back to the scheme's single-block repair
/// when the backend no longer holds a block — so restoring the encoder
/// frontier survives a crash that *also* lost the frontier blocks, as
/// long as they are repairable from surviving redundancy. Its base is a
/// `Prefetched`, so a torn frontier block is repaired as a lost one. A
/// block no single repair serves sends `open` to the rounds of a chained
/// reconstruction instead. Nothing is written back;
/// [`super::Archive::scrub`] heals the backend afterwards.
pub(super) struct RepairingSource<'a> {
    pub(super) scheme: &'a dyn RedundancyScheme,
    pub(super) base: &'a dyn BlockSource,
    pub(super) written: u64,
}

impl BlockSource for RepairingSource<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.base
            .fetch(id)
            .or_else(|| self.scheme.repair_block(self.base, id, self.written).ok())
    }
}

/// Hides one id from a base source. Used to rebuild a block the backend
/// still *returns* bytes for but reports as corrupted: the scheme must
/// reconstruct it from redundancy, never echo the garbled bytes back.
pub(super) struct MaskOne<'a> {
    pub(super) base: &'a dyn BlockSource,
    pub(super) masked: BlockId,
}

impl BlockSource for MaskOne<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        if id == self.masked {
            None
        } else {
            self.base.fetch(id)
        }
    }
}

/// Runs one batch of **independent** backend calls, hands their results
/// to `then` in issue order and returns what it made of them — the one
/// place archive I/O meets the backend in bulk. Over a backend with a
/// native async interior ([`BlockSource::as_async`]) the calls move
/// through the bounded in-flight window, so a batch costs
/// `⌈n / window⌉` round trips, not `n`; over a plain backend it is the
/// same calls in the same order as a loop, each result consumed before
/// the next call is made — except the read sweeps, which ask a plain
/// backend for runs of ids instead (`read_run`). Returning is
/// the **barrier**: every call of the batch has been acknowledged,
/// whatever order the completions arrived in.
fn batch<'s, B, T, U, V>(
    store: &'s B,
    items: impl IntoIterator<Item = T>,
    call: impl Fn(&B, T) -> U,
    issue: impl Fn(&'s dyn AsyncBlockRepo, T) -> BoxFuture<'s, U> + Send + Sync + 's,
    mut then: impl FnMut(U) -> V,
) -> Vec<V>
where
    B: BlockRepo + ?Sized,
    T: Send + 's,
    U: Send,
{
    match store.as_async() {
        Some(handle) => {
            let repo = handle.repo;
            let items = items.into_iter().collect();
            let window = windowed_map(items, in_flight_window(), move |item| issue(repo, item));
            handle.run(Box::pin(window)).into_iter().map(then).collect()
        }
        None => items
            .into_iter()
            .map(|item| then(call(store, item)))
            .collect(),
    }
}

pub(crate) fn store_all<B: BlockRepo + ?Sized>(
    store: &B,
    writes: impl IntoIterator<Item = (BlockId, Block)>,
) {
    let call = |s: &B, (id, block)| s.store(id, block);
    batch(
        store,
        writes,
        call,
        |r, (id, block)| r.store_async(id, block),
        drop,
    );
}

pub(crate) fn remove_all<B: BlockRepo + ?Sized>(store: &B, ids: impl IntoIterator<Item = BlockId>) {
    batch(
        store,
        ids,
        |s, id| s.remove(id),
        |r, id| r.remove_async(id),
        drop,
    );
}

pub(crate) fn fetch_all<B: BlockRepo + ?Sized>(
    store: &B,
    ids: impl IntoIterator<Item = BlockId>,
) -> Vec<Option<Block>> {
    batch(
        store,
        ids,
        |s, id| s.fetch(id),
        |r, id| r.fetch_async(id),
        |found| found,
    )
}

pub(crate) fn has_all<B: BlockRepo + ?Sized>(
    store: &B,
    ids: impl IntoIterator<Item = BlockId>,
) -> Vec<bool> {
    batch(
        store,
        ids,
        |s, id| s.has(id),
        |r, id| r.has_async(id),
        |has| has,
    )
}

/// How many ids a read sweep reads at once: a run long enough that a
/// plain backend which verifies what it reads overlaps loading the next
/// blocks with checksumming this one, short enough that the results are
/// consumed while their bytes are still in cache.
const READ_RUN: usize = 64;

/// How many of the sweep's last runs a scrub keeps in its `Window`: a
/// lost block is repaired one run after its own, so its repair reaches
/// at least two runs back and one run ahead.
const WINDOW_RUNS: usize = 4;

/// The verified reads of one run of at most `READ_RUN` ids, in order:
/// [`BlockSource::read_many`] over a plain backend, a batch of
/// `read_async` through the in-flight window a network away.
fn read_run<'s, B: BlockRepo + ?Sized>(
    store: &'s B,
    run: &[BlockId],
) -> Vec<Result<Block, StoreError>> {
    let issue = |r: &'s dyn AsyncBlockRepo, id| r.read_async(id);
    let reads = match store.as_async() {
        None => store.read_many(run),
        Some(_) => batch(store, run.iter().copied(), |s, id| s.read(id), issue, |r| r),
    };
    assert_eq!(reads.len(), run.len(), "one read per id");
    reads
}

/// An order-preserving collecting sink: a scheme's write phase lands here
/// when the backend is a network away, and leaves as one batch.
#[derive(Default)]
pub(super) struct Collect(pub(super) RefCell<Vec<(BlockId, Block)>>);

impl BlockSink for Collect {
    fn store(&self, id: BlockId, block: Block) {
        self.0.borrow_mut().push((id, block));
    }
}

/// What is known of a backend's blocks — answers already fetched,
/// negative ones included — over the backend itself: the one source
/// dependent reads run against (see the module docs). An id it answers
/// never reaches the backend again; any other reads through, or, seen
/// through an `Asked` view, is absent. Filled only through `batch`, a
/// window at a time.
///
/// A block of any size but the archive's is not this archive's — a torn
/// write the backend took for a whole one — so it is absent to every
/// scheme reading through this view, and a sweep sees it as corrupted.
pub(super) struct Prefetched<'a, B: ?Sized> {
    store: &'a B,
    block_size: usize,
    /// Whether the backend is a network away: a read then costs a round
    /// trip, so what `get` read is kept and its repair reads are planned.
    /// With `batch`, `read_run` and `write_through`, the one place that
    /// asks which kind of backend this is.
    pub(super) remote: bool,
    pub(super) answers: HashMap<BlockId, Option<Block>>,
}

impl<'a, B: BlockRepo + ?Sized> Prefetched<'a, B> {
    /// An empty view of `store`, whose blocks are `block_size` bytes.
    pub(super) fn new(store: &'a B, block_size: usize) -> Self {
        Prefetched {
            store,
            block_size,
            remote: store.as_async().is_some(),
            answers: HashMap::new(),
        }
    }

    /// Fetches, as one batch in the given order, every id of `ids` not
    /// answered yet.
    pub(super) fn fill(&mut self, ids: impl IntoIterator<Item = BlockId>) {
        let unknown = ids.into_iter().filter(|id| !self.answers.contains_key(id));
        let unknown: Vec<BlockId> = unknown.collect();
        let found = fetch_all(self.store, unknown.iter().copied());
        self.answers.extend(unknown.into_iter().zip(found));
    }

    /// Whether the answers hold `id`, a torn block counting as absent;
    /// `None` while it is not answered yet.
    pub(super) fn answered(&self, id: BlockId) -> Option<bool> {
        let answer = self.answers.get(&id)?;
        Some(answer.as_ref().is_some_and(|b| b.len() == self.block_size))
    }

    /// Reads `ids` in runs (`read_run`) — `read`, not `fetch`: a backend
    /// that verifies checksums reports tampered bytes as `Corrupted` —
    /// and shows `each` the results in order. A network away the results
    /// stay as answers: a block as itself, `NotFound` as absent, and
    /// nothing for an unreadable block, which still `fetch`es, as
    /// tampered bytes. `each` sees a torn block as `Corrupted`.
    pub(super) fn sweep(
        &mut self,
        ids: &[BlockId],
        mut each: impl FnMut(BlockId, &Result<Block, StoreError>),
    ) {
        for run in ids.chunks(READ_RUN) {
            for (&id, read) in run.iter().zip(read_run(self.store, run)) {
                let corrupted = Err(StoreError::Corrupted(id));
                let torn = matches!(&read, Ok(block) if block.len() != self.block_size);
                each(id, if torn { &corrupted } else { &read });
                match read {
                    Ok(block) if self.remote => self.answers.insert(id, Some(block)),
                    Err(StoreError::NotFound(_)) if self.remote => self.answers.insert(id, None),
                    _ => None,
                };
            }
        }
    }
}

impl<B: BlockRepo + ?Sized> BlockSource for Prefetched<'_, B> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        let found = match self.answers.get(&id) {
            Some(answer) => answer.clone(),
            None => self.store.fetch(id),
        };
        found.filter(|block| block.len() == self.block_size)
    }
}

/// What the closure rounds plan on: a `Prefetched`'s answers and nothing
/// else (see "Dependent reads" in the module docs). An id they do not
/// hold as a block — not answered yet, absent, torn — is absent here and
/// joins `asked`; so is `masked`, whatever the answers say, unrecorded:
/// a garbled block must not leak into its own repair.
pub(super) struct Asked<'v, 'a, B: ?Sized> {
    pub(super) known: &'v Prefetched<'a, B>,
    pub(super) masked: Option<BlockId>,
    pub(super) asked: Mutex<BTreeSet<BlockId>>,
}

impl<B: BlockRepo + ?Sized> BlockSource for Asked<'_, '_, B> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        let found = self.known.answers.get(&id).cloned().flatten();
        let found = found.filter(|block| block.len() == self.known.block_size);
        if found.is_none() && self.masked != Some(id) {
            self.asked.lock().insert(id);
        }
        found.filter(|_| self.masked != Some(id))
    }
}

/// The verified blocks of a scrub's read sweep, by position, for its
/// last `WINDOW_RUNS` runs: what the scrub repairs from while the sweep
/// still holds the bytes (see "Dependent reads" in the module docs).
/// Slot `k % len` holds position `k`'s block — a view, not a copy —
/// tagged with `k`. An id is looked up by
/// [`RedundancyScheme::dense_index`], and answers absent unless its
/// slot holds its own position: an id the sweep has moved past, one it
/// did not verify (its slot keeps an older position's block), one it
/// has not reached and one the archive never stored.
pub(super) struct Window<'a> {
    scheme: &'a dyn RedundancyScheme,
    written: u64,
    block_size: usize,
    slots: Vec<Option<(u32, Block)>>,
}

impl<'a> Window<'a> {
    /// An empty window over the positions `scheme` gives an archive of
    /// `written` data blocks of `block_size` bytes.
    pub(super) fn new(scheme: &'a dyn RedundancyScheme, written: u64, block_size: usize) -> Self {
        Window {
            scheme,
            written,
            block_size,
            slots: vec![None; WINDOW_RUNS * READ_RUN],
        }
    }

    /// Holds `block` as position `position`'s, until the sweep moves
    /// `WINDOW_RUNS` runs past it.
    pub(super) fn keep(&mut self, position: u32, block: Block) {
        let slot = position as usize % self.slots.len();
        self.slots[slot] = Some((position, block));
    }

    /// Reads the `stored` positions' blocks, `block_at(k)` for `k` in
    /// order, in runs (`read_run`), keeping each verified block, and
    /// shows `lost` each failed read (its position, id and error, a torn
    /// block as `Corrupted`) **one run late**: once the run after it is
    /// in the window too, or at the end for the last run. A repair `lost`
    /// puts back with [`Self::keep`] is there for the failures after it.
    pub(super) fn sweep<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        stored: u64,
        mut lost: impl FnMut(&mut Self, u32, BlockId, StoreError),
    ) {
        let (scheme, written) = (self.scheme, self.written);
        let at = |k| scheme.block_at(k, written).expect("a stored position");
        let mut lagging = Vec::new();
        let mut position = 0u32;
        while u64::from(position) < stored {
            let end = stored.min(u64::from(position) + READ_RUN as u64) as u32;
            let run: Vec<BlockId> = (position..end).map(at).collect();
            let mut failed = Vec::new();
            for (&id, read) in run.iter().zip(read_run(store, &run)) {
                match read {
                    Ok(block) if block.len() == self.block_size => self.keep(position, block),
                    read => {
                        let err = read.err().unwrap_or(StoreError::Corrupted(id));
                        failed.push((position, id, err));
                    }
                }
                position += 1;
            }
            for (position, id, err) in std::mem::replace(&mut lagging, failed) {
                lost(self, position, id, err);
            }
        }
        for (position, id, err) in lagging {
            lost(self, position, id, err);
        }
    }
}

impl BlockSource for Window<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        let position = self.scheme.dense_index(&id, self.written)?;
        match &self.slots[position as usize % self.slots.len()] {
            Some((held, block)) if *held == position => Some(block.clone()),
            _ => None,
        }
    }
}
