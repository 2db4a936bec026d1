//! Phase replay: run unmodified *sync* repair logic against an async
//! backend, fetching everything it needs through the bounded-in-flight
//! window — without rewriting the repair algorithms as async code.
//!
//! The trick is record/resolve/replay. A [`Recorder`] stands in for the
//! backend: reads are answered from the replay's accumulated [`answer
//! set`](Replay) (patch-first, so the logic sees its own writes), and
//! anything unanswered is *recorded as a miss* with a provisional
//! "absent" result. After each pass the misses are resolved against the
//! real async backend — pipelined, `window` at a time, in sorted id
//! order — and the pass reruns. When a pass records no misses, every
//! answer it consumed was faithful, so by induction its outcome (and its
//! write log) is byte-identical to running the same logic directly
//! against the backend serially; the writes are then committed through
//! the window in deterministic log order.
//!
//! Misses are collected into an ordered set, not an append log, so the
//! parallel repair planner's thread interleaving cannot perturb the
//! resolution order — and therefore cannot perturb the latency model's
//! seeded jitter stream. Termination: every pass either finishes or
//! grows the answer set, and the id universe a repair touches is finite.

use crate::pipeline::windowed_map;
use ae_api::{AsyncHandle, BlockMap, BlockSink, BlockSource, StoreError};
use ae_blocks::{Block, BlockId};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};

/// Which backend question a miss stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Fetch,
    Has,
    Read,
}

/// One resolved miss.
enum AnswerVal {
    Fetch(Option<Block>),
    Has(bool),
    Read(Result<Block, StoreError>),
}

/// Everything the backend has been asked so far, per question kind.
/// `fetch` and `read` are kept separately because fault-injecting
/// backends answer them differently for the same id (a garbled block
/// fetches as tampered bytes but reads as `Corrupted`).
#[derive(Debug, Default)]
struct Answers {
    fetch: HashMap<BlockId, Option<Block>>,
    read: HashMap<BlockId, Result<Block, StoreError>>,
    has: HashMap<BlockId, bool>,
}

/// The stand-in backend one replay pass runs against. Reads are answered
/// patch-first (the pass sees its own writes), then from the answer set,
/// and otherwise recorded as misses with provisional absent results;
/// writes land in the patch and the ordered write log. Replay passes
/// never remove blocks — removal stays with the caller, outside replay.
pub struct Recorder<'a> {
    answers: &'a Answers,
    patch: BlockMap,
    writes: Mutex<Vec<(BlockId, Block)>>,
    misses: Mutex<BTreeSet<(Op, BlockId)>>,
}

impl<'a> Recorder<'a> {
    fn new(answers: &'a Answers) -> Self {
        Recorder {
            answers,
            patch: BlockMap::new(),
            writes: Mutex::new(Vec::new()),
            misses: Mutex::new(BTreeSet::new()),
        }
    }

    fn miss(&self, op: Op, id: BlockId) {
        self.misses.lock().insert((op, id));
    }

    /// Whether every answer this pass has consumed so far came from the
    /// backend — no miss has been recorded, so nothing it has seen is a
    /// provisional "absent". Callers gate expensive fallbacks on this: a
    /// failure observed while unfaithful may be an artefact of an answer
    /// that the next pass will have, so escalating on it (say, from a
    /// single-tuple repair to a whole-archive planner run) would demand
    /// reads the faithful pass never makes.
    pub fn is_faithful(&self) -> bool {
        self.misses.lock().is_empty()
    }
}

impl std::fmt::Debug for Recorder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("misses", &self.misses.lock().len())
            .field("writes", &self.writes.lock().len())
            .finish_non_exhaustive()
    }
}

impl BlockSource for Recorder<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        if let Some(b) = self.patch.fetch(id) {
            return Some(b);
        }
        match self.answers.fetch.get(&id) {
            Some(ans) => ans.clone(),
            None => {
                self.miss(Op::Fetch, id);
                None
            }
        }
    }

    fn has(&self, id: BlockId) -> bool {
        if self.patch.has(id) {
            return true;
        }
        match self.answers.has.get(&id) {
            Some(ans) => *ans,
            None => {
                self.miss(Op::Has, id);
                false
            }
        }
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        if let Some(b) = self.patch.fetch(id) {
            return Ok(b);
        }
        match self.answers.read.get(&id) {
            Some(ans) => ans.clone(),
            None => {
                self.miss(Op::Read, id);
                Err(StoreError::NotFound(id))
            }
        }
    }
}

impl BlockSink for Recorder<'_> {
    fn store(&self, id: BlockId, block: Block) {
        self.patch.store(id, block.clone());
        self.writes.lock().push((id, block));
    }

    fn remove(&self, id: BlockId) -> bool {
        // Repair logic never removes; tolerate it as a patch-local
        // operation so the recorder stays a total BlockRepo.
        self.patch.remove(&id).is_some()
    }
}

/// A record/resolve/replay session over one async backend: accumulated
/// answers plus the window configuration. See the [crate docs](crate).
pub struct Replay<'h> {
    handle: AsyncHandle<'h>,
    window: usize,
    answers: Answers,
}

impl<'h> Replay<'h> {
    /// A fresh session over `handle`, resolving misses and committing
    /// writes `window` at a time.
    pub fn new(handle: AsyncHandle<'h>, window: usize) -> Self {
        Replay {
            handle,
            window: window.max(1),
            answers: Answers::default(),
        }
    }

    /// Seeds the answer set with a known `read` result — typically from a
    /// pipelined sweep done before the replay — and derives the `fetch` /
    /// `has` answers it implies. `Corrupted` derives nothing: a
    /// fault-injecting backend fetches a garbled block as tampered bytes,
    /// so those questions must go to the backend itself.
    pub fn seed_read(&mut self, id: BlockId, result: Result<Block, StoreError>) {
        match &result {
            Ok(b) => {
                self.answers.fetch.insert(id, Some(b.clone()));
                self.answers.has.insert(id, true);
            }
            Err(StoreError::NotFound(_)) => {
                self.answers.fetch.insert(id, None);
                self.answers.has.insert(id, false);
            }
            Err(StoreError::Corrupted(_)) | Err(StoreError::TimedOut(_)) => {}
        }
        self.answers.read.insert(id, result);
    }

    /// Records `id` as absent for every question kind — what a caller
    /// asserts after removing the block (e.g. scrub's quarantine).
    pub fn seed_absent(&mut self, id: BlockId) {
        self.answers.fetch.insert(id, None);
        self.answers.has.insert(id, false);
        self.answers.read.insert(id, Err(StoreError::NotFound(id)));
    }

    /// Whether a `fetch` of `id` is already answered, and if so whether
    /// the block was there — what a structural repair plan consults
    /// before deciding which survivors still have to be prefetched.
    pub fn fetched(&self, id: BlockId) -> Option<bool> {
        self.answers.fetch.get(&id).map(Option::is_some)
    }

    /// Resolves `fetch` for every id not yet answered, through the
    /// window, in the given order — a planned read set moved in one
    /// batch ahead of the pass that consumes it.
    pub fn prefetch(&mut self, ids: impl IntoIterator<Item = BlockId>) {
        let unknown = ids
            .into_iter()
            .filter(|id| !self.answers.fetch.contains_key(id))
            .map(|id| (Op::Fetch, id))
            .collect();
        self.resolve(unknown);
    }

    /// Asks the backend every question in `misses` through the window,
    /// in order, and files the answers.
    fn resolve(&mut self, misses: Vec<(Op, BlockId)>) {
        if misses.is_empty() {
            return;
        }
        let repo = self.handle.repo;
        let resolved = self.handle.run(Box::pin(windowed_map(
            misses.clone(),
            self.window,
            move |(op, id)| match op {
                Op::Fetch => {
                    let fut = repo.fetch_async(id);
                    Box::pin(async move { AnswerVal::Fetch(fut.await) })
                }
                Op::Has => {
                    let fut = repo.has_async(id);
                    Box::pin(async move { AnswerVal::Has(fut.await) })
                }
                Op::Read => {
                    let fut = repo.read_async(id);
                    Box::pin(async move { AnswerVal::Read(fut.await) })
                }
            },
        )));
        for ((op, id), val) in misses.into_iter().zip(resolved) {
            match (op, val) {
                (Op::Fetch, AnswerVal::Fetch(v)) => {
                    self.answers.fetch.insert(id, v);
                }
                (Op::Has, AnswerVal::Has(v)) => {
                    self.answers.has.insert(id, v);
                }
                (Op::Read, AnswerVal::Read(v)) => {
                    self.answers.read.insert(id, v);
                }
                _ => unreachable!("answer kind matches its op by construction"),
            }
        }
    }

    /// Runs `f` against a fresh [`Recorder`] until a pass records no
    /// misses (resolving each round's misses through the window in
    /// sorted order), then returns the faithful pass's result and its
    /// ordered write log. `f` must be deterministic given the answers it
    /// reads — every repair path here is.
    pub fn run<T>(&mut self, f: impl Fn(&Recorder<'_>) -> T) -> (T, Vec<(BlockId, Block)>) {
        loop {
            let recorder = Recorder::new(&self.answers);
            let result = f(&recorder);
            let misses: Vec<(Op, BlockId)> = std::mem::take(&mut *recorder.misses.lock())
                .into_iter()
                .collect();
            if misses.is_empty() {
                return (result, std::mem::take(&mut *recorder.writes.lock()));
            }
            self.resolve(misses);
        }
    }

    /// Commits a write log to the backend through the window, preserving
    /// log order. Answers for the written ids are invalidated rather than
    /// assumed: a later pass re-reads the backend's truth, which matters
    /// when a dead remote swallowed the write.
    pub fn commit(&mut self, writes: Vec<(BlockId, Block)>) {
        if writes.is_empty() {
            return;
        }
        for (id, _) in &writes {
            self.answers.fetch.remove(id);
            self.answers.read.remove(id);
            self.answers.has.remove(id);
        }
        let repo = self.handle.repo;
        self.handle.run(Box::pin(windowed_map(
            writes,
            self.window,
            move |(id, block)| repo.store_async(id, block),
        )));
    }
}

impl std::fmt::Debug for Replay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("window", &self.window)
            .field("answered_reads", &self.answers.read.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Runtime;
    use crate::latency::{BlockOn, LatencyStore, LinkSpec};
    use crate::time::Clock;
    use ae_blocks::NodeId;
    use std::sync::Arc;
    use std::time::Duration;

    fn data(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn remote(rtt_ms: u64) -> BlockOn<LatencyStore<BlockMap>> {
        let rt = Runtime::new(Clock::virtual_time());
        LatencyStore::uniform(
            Arc::new(BlockMap::new()),
            rt,
            LinkSpec::rtt(Duration::from_millis(rtt_ms)),
            1,
        )
        .into_sync()
    }

    #[test]
    fn replay_converges_to_the_serial_outcome() {
        let store = remote(10);
        for i in 0..16u64 {
            store
                .inner()
                .inner()
                .store(data(i), Block::from_vec(vec![i as u8; 4]));
        }
        let handle = store.as_async().unwrap();
        let mut replay = Replay::new(handle, 8);
        // A two-phase dependency: read block 0, then read the block its
        // first byte names, then write a combination.
        let (result, writes) = replay.run(|src| {
            let a = src.read(data(0)).ok()?;
            let b = src.read(data(u64::from(a.as_slice()[0]) + 1)).ok()?;
            let mut combined = a.as_slice().to_vec();
            combined.extend_from_slice(b.as_slice());
            src.store(data(100), Block::from_vec(combined.clone()));
            // The pass sees its own write, patch-first.
            assert!(src.has(data(100)));
            Some(combined)
        });
        assert_eq!(result.unwrap(), vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(writes.len(), 1);
        // Nothing committed yet.
        assert!(!store.inner().inner().has(data(100)));
        replay.commit(writes);
        assert_eq!(
            store.inner().inner().fetch(data(100)).unwrap().as_slice(),
            &[0, 0, 0, 0, 1, 1, 1, 1]
        );
    }

    #[test]
    fn seeded_answers_skip_the_backend_entirely() {
        let store = remote(5);
        let handle = store.as_async().unwrap();
        let rt = store.runtime().clone();
        let mut replay = Replay::new(handle, 4);
        replay.seed_read(data(1), Ok(Block::from_vec(vec![9])));
        replay.seed_absent(data(2));
        let t0 = rt.now();
        let (out, writes) = replay.run(|src| {
            assert!(src.has(data(1)));
            assert!(!src.has(data(2)));
            assert_eq!(src.read(data(2)), Err(StoreError::NotFound(data(2))));
            src.fetch(data(1)).unwrap().as_slice().to_vec()
        });
        assert_eq!(out, vec![9]);
        assert!(writes.is_empty());
        assert_eq!(rt.now(), t0, "fully-seeded replay issues no network ops");
    }

    #[test]
    fn window_collapses_replay_latency() {
        let run = |window: usize| {
            let store = remote(10);
            for i in 0..32u64 {
                store
                    .inner()
                    .inner()
                    .store(data(i), Block::from_vec(vec![1; 2]));
            }
            let handle = store.as_async().unwrap();
            let mut replay = Replay::new(handle, window);
            let (n, _) =
                replay.run(|src| (0..32u64).filter(|&i| src.read(data(i)).is_ok()).count());
            assert_eq!(n, 32);
            store.runtime().now()
        };
        let serial = run(1);
        let piped = run(8);
        assert!(
            piped * 4 <= serial,
            "window=8 at least 4x faster than window=1 ({piped} vs {serial})"
        );
    }
}
