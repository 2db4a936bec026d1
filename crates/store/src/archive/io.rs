//! How archive I/O meets the backend: independent calls in batches,
//! dependent reads against what a batch already fetched.
//!
//! # Batched backend I/O
//!
//! Every phase that issues *independent* backend calls — a put's data
//! and redundancy blocks, a record's copy set, a checkpoint's pointer
//! cells, GC, the probes and refetches of `open`, the sweeps of `scrub`,
//! a file's blocks in `get` — goes through one private helper (`batch`,
//! behind `store_all` / `remove_all` / `fetch_all` / `has_all` and the
//! read sweep of `Prefetched`). Over a backend with a native async
//! interior ([`BlockSource::as_async`]) the batch moves through the
//! bounded in-flight window, so an operation a network away costs
//! **window rounds, not block counts**: a 16-block AE(3,2,5) `put` is
//! ⌈64 / 8⌉ + 1 = 9 sequential round trips at the default window, not
//! 67. Over a plain backend the helper is the same calls in the same
//! order as a loop — there is one `put`/`seal`/`open` path, in which a
//! plain backend is simply window-agnostic — and the read sweep asks a
//! plain backend for runs of 64 ids ([`BlockSource::read_many`]), so a
//! backend that verifies checksums overlaps loading the next blocks with
//! summing this one; one that does not override it answers a run with
//! its reads, in order, as the loop did. `tests/wan_rtt_budget.rs`
//! pins the round-trip count of every operation under the virtual clock,
//! and which call is made in which order. Returning from a batch is a
//! **barrier**; the crash-ordering rules built on it are the journal's
//! (`journal.rs`).
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
//! planned or kept, every read goes through.)
//!
//! `scrub` over a plain backend repairs *during* its sweep instead: a
//! `Window` keeps the verified blocks of the sweep's last `WINDOW_RUNS`
//! runs of `READ_RUN` ids, by position, and one run past a failed read
//! the scheme's single-block repair rebuilds that block against the
//! window alone — an id outside it is absent — so a repair reads the
//! bytes the sweep just verified, still in cache, and never the backend.
//! The rebuilt block is stored and joins the window for the repairs
//! after it. Whole-archive planners (what `scrub`'s window could not
//! serve, after the sweep; a chained reconstruction in `get`) read the
//! backend itself when it answers at call time, and a network away a
//! *closed* `Prefetched` holding one windowed sweep of every stored block
//! — an archive owns its id namespace, so what the sweep did not return
//! is absent — so planner threads only ever see memory and their number
//! never shows in the order, or the timing, of what crosses the link.

use ae_aio::{in_flight_window, windowed_map};
use ae_api::{
    AsyncBlockRepo, BlockRepo, BlockSink, BlockSource, BoxFuture, RedundancyScheme, StoreError,
};
use ae_blocks::{Block, BlockId};
use std::cell::RefCell;
use std::collections::HashMap;

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
/// the next call is made — except the read sweep, which asks a plain
/// backend for runs of ids instead (`Prefetched::sweep`). Returning is
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

/// How many ids the read sweep asks a plain backend for at once: a run
/// long enough that a backend which verifies what it reads overlaps
/// loading the next blocks with checksumming this one, short enough that
/// the results are consumed while their bytes are still in cache.
const READ_RUN: usize = 64;

/// How many of the sweep's last runs a scrub over a plain backend keeps
/// in its `Window`: a lost block is repaired one run after its own, so
/// its repair reaches at least two runs back and one run ahead.
const WINDOW_RUNS: usize = 4;

/// A plain backend's verified reads of `ids`, asked for in runs of
/// `READ_RUN` ids ([`BlockSource::read_many`]): each run with its
/// results, in order.
fn read_runs<'s, B: BlockRepo + ?Sized>(
    store: &'s B,
    ids: &'s [BlockId],
) -> impl Iterator<Item = (&'s [BlockId], Vec<Result<Block, StoreError>>)> + 's {
    ids.chunks(READ_RUN).map(move |run| {
        let reads = store.read_many(run);
        assert_eq!(reads.len(), run.len(), "one read per id");
        (run, reads)
    })
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
/// never reaches the backend again; any other reads through, or, once the
/// view is **closed**, is absent. Filled only through `batch`, a window at
/// a time.
///
/// A block of any size but the archive's is not this archive's — a torn
/// write the backend took for a whole one — so it is absent to every
/// scheme reading through this view, and a sweep sees it as corrupted.
pub(super) struct Prefetched<'a, B: ?Sized> {
    store: &'a B,
    block_size: usize,
    /// Whether the backend is a network away: a read then costs a round
    /// trip, so what was read is kept, repair reads are planned, and
    /// whole-archive planners — whose threads would read in an order
    /// their interleaving picks — run on a closed view. With `batch` and
    /// `write_through`, the one place that asks which kind of backend
    /// this is.
    pub(super) remote: bool,
    pub(super) answers: HashMap<BlockId, Option<Block>>,
    pub(super) closed: bool,
}

impl<'a, B: BlockRepo + ?Sized> Prefetched<'a, B> {
    /// An empty view of `store`, whose blocks are `block_size` bytes.
    pub(super) fn new(store: &'a B, block_size: usize, closed: bool) -> Self {
        Prefetched {
            store,
            block_size,
            remote: store.as_async().is_some(),
            answers: HashMap::new(),
            closed,
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

    /// Readies the view for a whole-archive planner over `all`, the ids
    /// the backend should hold: a network away, one windowed sweep of
    /// what is not known yet, then closed, so planner threads see memory,
    /// never the link. A plain backend answers at call time: nothing to do.
    pub(super) fn close(&mut self, all: impl IntoIterator<Item = BlockId>) {
        if self.remote {
            self.fill(all);
            self.closed = true;
        }
    }

    /// Whether the answers hold `id`, a torn block counting as absent;
    /// `None` while it is not answered yet.
    pub(super) fn answered(&self, id: BlockId) -> Option<bool> {
        let answer = self.answers.get(&id)?;
        Some(answer.as_ref().is_some_and(|b| b.len() == self.block_size))
    }

    /// Reads `ids` — `read`, not `fetch`: a backend that verifies
    /// checksums reports tampered bytes as `Corrupted` — and shows `each`
    /// the results in order. A plain backend is asked for runs of
    /// `READ_RUN` ids ([`BlockSource::read_many`]); a network away the
    /// ids are one batch, and the results stay as answers: a block as
    /// itself, `NotFound` as absent, and nothing for an unreadable block,
    /// which still `fetch`es, as tampered bytes. `each` sees a torn block
    /// as `Corrupted`.
    pub(super) fn sweep(
        &mut self,
        ids: &[BlockId],
        mut each: impl FnMut(BlockId, &Result<Block, StoreError>),
    ) {
        let (store, keep, size) = (self.store, self.remote, self.block_size);
        let answers = &mut self.answers;
        let mut consume = |id: BlockId, read: Result<Block, StoreError>| {
            match &read {
                Ok(block) if block.len() != size => each(id, &Err(StoreError::Corrupted(id))),
                _ => each(id, &read),
            }
            match read {
                Ok(block) if keep => answers.insert(id, Some(block)),
                Err(StoreError::NotFound(_)) if keep => answers.insert(id, None),
                _ => None,
            };
        };
        if !keep {
            for (run, reads) in read_runs(store, ids) {
                for (&id, read) in run.iter().zip(reads) {
                    consume(id, read);
                }
            }
            return;
        }
        let mut asked = ids.iter().copied();
        let issue = |r: &'a dyn AsyncBlockRepo, id| r.read_async(id);
        let then = |read| consume(asked.next().expect("one read per id"), read);
        batch(store, ids.iter().copied(), |s, id| s.read(id), issue, then);
    }
}

impl<B: BlockRepo + ?Sized> BlockSource for Prefetched<'_, B> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        let found = match self.answers.get(&id) {
            Some(answer) => answer.clone(),
            None if self.closed => None,
            None => self.store.fetch(id),
        };
        found.filter(|block| block.len() == self.block_size)
    }
}

/// The verified blocks of a plain backend's read sweep, by position, for
/// its last `WINDOW_RUNS` runs: what a scrub over a plain backend repairs
/// from while the sweep still has the bytes in cache (see "Dependent
/// reads" in the module docs). Slot `k % len` holds position `k`'s
/// block — a view, not a copy — tagged with `k`. An id is looked up by
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

    /// Reads `ids` — the stored blocks, in position order — from a plain
    /// backend in runs, keeping each verified block, and shows `lost`
    /// each failed read (its position, id and error, a torn block as
    /// `Corrupted`) **one run late**: once the run after it is in the
    /// window too, or at the end for the last run. A repair `lost` puts
    /// back with [`Self::keep`] is there for the failures after it.
    pub(super) fn sweep<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        ids: &[BlockId],
        mut lost: impl FnMut(&mut Self, u32, BlockId, StoreError),
    ) {
        let mut lagging = Vec::new();
        let mut position = 0u32;
        for (run, reads) in read_runs(store, ids) {
            let mut failed = Vec::new();
            for (&id, read) in run.iter().zip(reads) {
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
