//! Outside-in tracing: spans recorded from the benchmark's own files at
//! each layer boundary, with no instrumentation inside the program.
//!
//! Two wrappers sit where the archive talks to its neighbours:
//!
//! * [`TracedScheme`] — a [`RedundancyScheme`] that delegates **every**
//!   trait method (defaulted ones included, so the O(1)
//!   `dense_index`/`block_at`/`universe_len` hooks keep their fast
//!   paths) and records a span around each byte-plane call;
//! * [`TracedStore`] — a [`BlockRepo`] that records a leaf span around
//!   each backend call and classifies it by id: [`BlockId::Meta`] ids
//!   are the **journal** layer, everything else the **backend** layer.
//!
//! The workload opens one root span per archive operation. A span's
//! *self time* is its duration minus the part of that interval its child
//! spans cover (overlapping children — planner threads, the async
//! in-flight window — are merged first), so the layer times of one
//! operation always add up to its span.

use ae_api::{
    AeError, AsyncBlockSink, AsyncBlockSource, AsyncHandle, BlockRepo, BlockSink, BlockSource,
    BoxFuture, EncodeReport, RedundancyScheme, RepairCost, RepairError, RepairSummary, StoreError,
};
use ae_blocks::{Block, BlockId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `op.<operation>` for roots, `<layer>.<call>` otherwise.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the same cycle, or [`NO_PARENT`].
    pub parent: u32,
    /// Cycle the span belongs to.
    pub cycle: u32,
    /// Op index within the cycle: spans of one request share it.
    pub op: u32,
    /// Bytes moved by a backend or journal call, 0 elsewhere.
    pub bytes: u32,
    /// Whether the call succeeded (a fetch that found its block, a
    /// repair that completed).
    pub ok: bool,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open nesting spans of the driving thread, innermost last.
    stack: Vec<u32>,
    cycle: u32,
    op: u32,
}

/// The in-memory span recorder shared by the wrappers and the workload.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// A fresh tracer; its clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Names the cycle and op the following spans belong to.
    pub fn set_context(&self, cycle: u32, op: u32) {
        let mut st = self.state();
        st.cycle = cycle;
        st.op = op;
    }

    /// Opens a nesting span on the driving thread; close it with
    /// [`Tracer::exit`]. Nesting spans must close in LIFO order.
    pub fn enter(&self, name: &'static str) -> u32 {
        let mut st = self.state();
        let id = st.spans.len() as u32;
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: st.stack.last().copied().unwrap_or(NO_PARENT),
            cycle: st.cycle,
            op: st.op,
            bytes: 0,
            ok: true,
        };
        st.spans.push(span);
        st.stack.push(id);
        // Stamp last, so the tracer's own bookkeeping is outside the span.
        let now = self.ns(Instant::now());
        st.spans[id as usize].start_ns = now;
        id
    }

    /// Closes the innermost nesting span.
    pub fn exit(&self, id: u32, ok: bool) {
        let now = self.ns(Instant::now());
        let mut st = self.state();
        assert_eq!(
            st.stack.pop(),
            Some(id),
            "nesting spans close in LIFO order"
        );
        let span = &mut st.spans[id as usize];
        span.end_ns = now;
        span.ok = ok;
    }

    /// The innermost open span — the parent a leaf started now would get.
    pub fn current(&self) -> u32 {
        self.state().stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Records a leaf span that started at `start` and ends now, under
    /// `parent` or, without one, under the innermost open span (a
    /// blocking call returns with the same spans open it was made
    /// under). Callable from any thread: planner workers record their
    /// backend reads under the driving thread's open span.
    pub fn leaf(
        &self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        bytes: usize,
        ok: bool,
    ) {
        let end_ns = self.ns(Instant::now());
        let start_ns = self.ns(start);
        let mut st = self.state();
        let parent = parent.unwrap_or_else(|| st.stack.last().copied().unwrap_or(NO_PARENT));
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent,
            cycle: st.cycle,
            op: st.op,
            bytes: bytes as u32,
            ok,
        };
        st.spans.push(span);
    }

    /// Drains the recorded spans (call between cycles, with no span open).
    pub fn take(&self) -> Vec<Span> {
        let mut st = self.state();
        assert!(st.stack.is_empty(), "spans drained while one is open");
        std::mem::take(&mut st.spans)
    }
}

/// What one span name added up to under one kind of root operation.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameAgg {
    /// Spans of this name.
    pub count: u64,
    /// Of which failed (`ok == false`).
    pub failed: u64,
    /// Their summed duration in ns, children included.
    pub dur_ns: f64,
    /// Self time attributed to this name, in ns (children excluded,
    /// overlap between siblings merged).
    pub self_ns: f64,
    /// Bytes moved.
    pub bytes: u64,
}

/// All spans under the roots of one operation kind.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpAgg {
    /// Root spans of this kind.
    pub ops: u64,
    /// Their summed duration in ns.
    pub span_ns: f64,
    /// Per `(span name, parent span name)` below and including the
    /// roots (whose parent name is empty).
    pub by_name: BTreeMap<(&'static str, &'static str), NameAgg>,
}

impl OpAgg {
    /// Self time of every span whose name starts with `prefix`.
    pub fn self_ns(&self, prefix: &str) -> f64 {
        self.matching(prefix).map(|a| a.self_ns).sum()
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count(&self, prefix: &str) -> u64 {
        self.matching(prefix).map(|a| a.count).sum()
    }

    /// Failed spans whose name starts with `prefix`.
    pub fn failed(&self, prefix: &str) -> u64 {
        self.matching(prefix).map(|a| a.failed).sum()
    }

    /// Bytes moved by spans whose name starts with `prefix`.
    pub fn bytes(&self, prefix: &str) -> u64 {
        self.matching(prefix).map(|a| a.bytes).sum()
    }

    /// Summed duration (children included) of spans whose name starts
    /// with `prefix`.
    pub fn dur_ns(&self, prefix: &str) -> f64 {
        self.matching(prefix).map(|a| a.dur_ns).sum()
    }

    /// Number of spans named `name` directly under a span named `parent`.
    pub fn count_under(&self, name: &str, parent: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|((n, p), _)| *n == name && *p == parent)
            .map(|(_, agg)| agg.count)
            .sum()
    }

    fn matching<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a NameAgg> {
        self.by_name
            .iter()
            .filter(move |((name, _), _)| name.starts_with(prefix))
            .map(|(_, agg)| agg)
    }

    fn merge(&mut self, other: &OpAgg) {
        self.ops += other.ops;
        self.span_ns += other.span_ns;
        for (key, agg) in &other.by_name {
            let into = self.by_name.entry(*key).or_default();
            into.count += agg.count;
            into.failed += agg.failed;
            into.dur_ns += agg.dur_ns;
            into.self_ns += agg.self_ns;
            into.bytes += agg.bytes;
        }
    }
}

/// Per-root-operation aggregates of one or more cycles' spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Fold {
    /// Keyed by root span name (`op.put`, `op.get`, ...).
    pub ops: BTreeMap<&'static str, OpAgg>,
}

impl Fold {
    /// The aggregate of one operation kind (empty if it never ran).
    pub fn op(&self, name: &str) -> OpAgg {
        self.ops.get(name).cloned().unwrap_or_default()
    }

    /// Adds another fold's totals into this one.
    pub fn merge(&mut self, other: &Fold) {
        for (name, agg) in &other.ops {
            self.ops.entry(name).or_default().merge(agg);
        }
    }
}

/// Total length of the union of `intervals` (sorted by start on entry).
fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Folds one cycle's spans into per-operation aggregates.
///
/// Every span's self time is its duration minus the union of its direct
/// children; where siblings overlap (two planner threads, eight fetches
/// in flight) the parent's covered time is shared among them in
/// proportion to their durations, so the self times under a root sum to
/// exactly the root's duration.
pub fn fold(spans: &[Span]) -> Fold {
    let n = spans.len();
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    // Children grouped by parent, by start time within the group.
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&i| spans[i as usize].parent != NO_PARENT)
        .collect();
    order.sort_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    let mut covered = vec![0u64; n];
    let mut raw = vec![0u64; n];
    let mut group: Vec<(u64, u64)> = Vec::new();
    let mut at = 0;
    while at < order.len() {
        let parent = spans[order[at] as usize].parent as usize;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        group.clear();
        while at < order.len() && spans[order[at] as usize].parent as usize == parent {
            let child = &spans[order[at] as usize];
            raw[parent] += dur(child);
            group.push((child.start_ns.max(lo), child.end_ns.min(hi)));
            at += 1;
        }
        covered[parent] = union_len(&group);
    }
    // A nesting span is pushed when it opens and a leaf when it ends, so
    // parents always precede their children: one forward pass suffices.
    let mut scale = vec![1.0f64; n];
    let mut root = vec![0u32; n];
    let mut out = Fold::default();
    for (i, span) in spans.iter().enumerate() {
        if span.parent == NO_PARENT {
            root[i] = i as u32;
            let agg = out.ops.entry(span.name).or_default();
            agg.ops += 1;
            agg.span_ns += dur(span) as f64;
        } else {
            let p = span.parent as usize;
            root[i] = root[p];
            let share = if raw[p] == 0 {
                0.0
            } else {
                covered[p] as f64 / raw[p] as f64
            };
            scale[i] = scale[p] * share;
        }
        let own = dur(span).saturating_sub(covered[i]) as f64 * scale[i];
        let root_name = spans[root[i] as usize].name;
        let parent_name = match span.parent {
            NO_PARENT => "",
            p => spans[p as usize].name,
        };
        let agg = out
            .ops
            .entry(root_name)
            .or_default()
            .by_name
            .entry((span.name, parent_name))
            .or_default();
        agg.count += 1;
        agg.failed += u64::from(!span.ok);
        agg.dur_ns += dur(span) as f64;
        agg.self_ns += own;
        agg.bytes += u64::from(span.bytes);
    }
    out
}

/// Serializes spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cycle\":{},\"op\":{},\"bytes\":{},\"ok\":{}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.cycle,
            s.op,
            s.bytes,
            s.ok,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

// --- the scheme wrapper ----------------------------------------------------

/// A [`RedundancyScheme`] that records a span around each byte-plane
/// call of the scheme it wraps and forwards everything else untouched.
pub struct TracedScheme {
    inner: Arc<dyn RedundancyScheme>,
    tracer: Arc<Tracer>,
}

impl TracedScheme {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn RedundancyScheme>, tracer: Arc<Tracer>) -> Self {
        TracedScheme { inner, tracer }
    }

    fn span<T>(&self, name: &'static str, ok: impl Fn(&T) -> bool, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.enter(name);
        let out = f();
        self.tracer.exit(id, ok(&out));
        out
    }
}

impl RedundancyScheme for TracedScheme {
    fn scheme_name(&self) -> String {
        self.inner.scheme_name()
    }

    fn data_written(&self) -> u64 {
        self.inner.data_written()
    }

    fn repair_cost(&self) -> RepairCost {
        self.inner.repair_cost()
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        self.span("scheme.encode_batch", Result::is_ok, || {
            self.inner.encode_batch(blocks, sink)
        })
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        self.span("scheme.seal", Result::is_ok, || self.inner.seal(sink))
    }

    fn frontier_snapshot(&self) -> Vec<u8> {
        self.span(
            "scheme.frontier_snapshot",
            |_| true,
            || self.inner.frontier_snapshot(),
        )
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        self.span("scheme.restore_frontier", Result::is_ok, || {
            self.inner.restore_frontier(snapshot, source)
        })
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        self.span("scheme.repair_block", Result::is_ok, || {
            self.inner.repair_block(source, id, data_blocks)
        })
    }

    fn repair_missing(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        self.span(
            "scheme.repair_missing",
            RepairSummary::fully_recovered,
            || self.inner.repair_missing(repo, targets, data_blocks),
        )
    }

    fn repair_missing_serial(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        self.span(
            "scheme.repair_missing",
            RepairSummary::fully_recovered,
            || self.inner.repair_missing_serial(repo, targets, data_blocks),
        )
    }

    fn repair_traffic(&self, repaired: &[BlockId]) -> u64 {
        self.inner.repair_traffic(repaired)
    }

    fn block_ids(&self, data_blocks: u64) -> Vec<BlockId> {
        self.inner.block_ids(data_blocks)
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.inner.is_repairable(id, data_blocks, avail)
    }

    fn is_single_failure(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.inner.is_single_failure(id, data_blocks, avail)
    }

    fn maintenance_targets(&self, missing_data: &[BlockId], data_blocks: u64) -> Vec<BlockId> {
        self.inner.maintenance_targets(missing_data, data_blocks)
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        self.inner.universe_len(data_blocks)
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        self.inner.dense_index(id, data_blocks)
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        self.inner.block_at(k, data_blocks)
    }

    fn supports_dense_index(&self) -> bool {
        self.inner.supports_dense_index()
    }
}

// --- the backend wrapper ---------------------------------------------------

/// A [`BlockRepo`] that records a leaf span around each call into the
/// backend it wraps: `journal.*` for [`BlockId::Meta`] ids, `backend.*`
/// for scheme blocks.
pub struct TracedStore<B> {
    inner: Arc<B>,
    tracer: Arc<Tracer>,
}

impl<B> TracedStore<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Arc<B>, tracer: Arc<Tracer>) -> Self {
        TracedStore { inner, tracer }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<B> {
        &self.inner
    }

    fn leaf<T>(
        &self,
        id: BlockId,
        names: (&'static str, &'static str),
        measure: impl Fn(&T) -> (usize, bool),
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let (bytes, ok) = measure(&out);
        let name = if id.is_meta() { names.1 } else { names.0 };
        self.tracer.leaf(name, None, start, bytes, ok);
        out
    }
}

const FETCH: (&str, &str) = ("backend.fetch", "journal.fetch");
const HAS: (&str, &str) = ("backend.has", "journal.has");
const STORE: (&str, &str) = ("backend.store", "journal.store");
const REMOVE: (&str, &str) = ("backend.remove", "journal.remove");

fn fetched(found: &Option<Block>) -> (usize, bool) {
    (found.as_ref().map_or(0, Block::len), found.is_some())
}

fn read_back(found: &Result<Block, StoreError>) -> (usize, bool) {
    (found.as_ref().map_or(0, Block::len), found.is_ok())
}

impl<B: BlockRepo + Send + Sync> BlockSource for TracedStore<B> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.leaf(id, FETCH, fetched, || self.inner.fetch(id))
    }

    fn has(&self, id: BlockId) -> bool {
        self.leaf(id, HAS, |&found| (0, found), || self.inner.has(id))
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.leaf(id, FETCH, read_back, || self.inner.read(id))
    }

    fn as_async(&self) -> Option<AsyncHandle<'_>> {
        self.inner.as_async().map(|handle| AsyncHandle {
            repo: self,
            driver: handle.driver,
        })
    }
}

impl<B: BlockRepo + Send + Sync> BlockSink for TracedStore<B> {
    fn store(&self, id: BlockId, block: Block) {
        let bytes = block.len();
        self.leaf(id, STORE, |_| (bytes, true), || self.inner.store(id, block))
    }

    fn remove(&self, id: BlockId) -> bool {
        self.leaf(id, REMOVE, |&was| (0, was), || self.inner.remove(id))
    }
}

impl<B: BlockRepo + Send + Sync> TracedStore<B> {
    /// Wraps one operation of the inner backend's async interior in a
    /// leaf span running from the future's creation (where the latency
    /// model plans the transfer) to its completion.
    fn leaf_async<'a, T: Send + 'a>(
        &'a self,
        id: BlockId,
        names: (&'static str, &'static str),
        measure: impl Fn(&T) -> (usize, bool) + Send + 'a,
        make: impl FnOnce(AsyncHandle<'a>) -> BoxFuture<'a, T>,
    ) -> BoxFuture<'a, T> {
        let handle = self
            .inner
            .as_async()
            .expect("the async surface is only reachable through as_async");
        let parent = self.tracer.current();
        let start = Instant::now();
        let fut = make(handle);
        Box::pin(async move {
            let out = fut.await;
            let (bytes, ok) = measure(&out);
            let name = if id.is_meta() { names.1 } else { names.0 };
            self.tracer.leaf(name, Some(parent), start, bytes, ok);
            out
        })
    }
}

impl<B: BlockRepo + Send + Sync> AsyncBlockSource for TracedStore<B> {
    fn fetch_async(&self, id: BlockId) -> BoxFuture<'_, Option<Block>> {
        self.leaf_async(id, FETCH, fetched, |h| h.repo.fetch_async(id))
    }

    fn has_async(&self, id: BlockId) -> BoxFuture<'_, bool> {
        self.leaf_async(id, HAS, |&found| (0, found), |h| h.repo.has_async(id))
    }

    fn read_async(&self, id: BlockId) -> BoxFuture<'_, Result<Block, StoreError>> {
        self.leaf_async(id, FETCH, read_back, |h| h.repo.read_async(id))
    }
}

impl<B: BlockRepo + Send + Sync> AsyncBlockSink for TracedStore<B> {
    fn store_async(&self, id: BlockId, block: Block) -> BoxFuture<'_, ()> {
        let bytes = block.len();
        self.leaf_async(
            id,
            STORE,
            move |_| (bytes, true),
            |h| h.repo.store_async(id, block),
        )
    }

    fn remove_async(&self, id: BlockId) -> BoxFuture<'_, bool> {
        self.leaf_async(id, REMOVE, |&was| (0, was), |h| h.repo.remove_async(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cycle: 0,
            op: 0,
            bytes: 0,
            ok: true,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (20, 30)]), 20);
        assert_eq!(union_len(&[(0, 10), (5, 15), (15, 20)]), 20);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_times_add_up_to_the_root_span() {
        // op.put [0,1000] → scheme.encode_batch [100,700] → two stores
        // inside it, plus one journal store directly under the op.
        let spans = vec![
            span("op.put", 0, 1000, NO_PARENT),
            span("scheme.encode_batch", 100, 700, 0),
            span("backend.store", 200, 300, 1),
            span("backend.store", 400, 550, 1),
            span("journal.store", 750, 900, 0),
        ];
        let fold = fold(&spans);
        let put = fold.op("op.put");
        assert_eq!(put.ops, 1);
        assert_eq!(put.span_ns, 1000.0);
        assert_eq!(put.self_ns("backend."), 250.0);
        assert_eq!(put.self_ns("journal."), 150.0);
        assert_eq!(put.self_ns("scheme."), 350.0);
        assert_eq!(put.self_ns("op."), 250.0);
        assert_eq!(put.count("backend.store"), 2);
        assert_eq!(put.count_under("backend.store", "scheme.encode_batch"), 2);
        assert_eq!(put.count_under("journal.store", "op.put"), 1);
        assert_eq!(put.dur_ns("scheme.encode_batch"), 600.0);
        let total: f64 = put.by_name.values().map(|a| a.self_ns).sum();
        assert!((total - put.span_ns).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_share_the_covered_time() {
        // Two planner threads fetch concurrently for 100 ns each inside
        // a 150 ns window: 150 ns covered, split evenly, so the parent
        // keeps 50 ns of self time and nothing is counted twice.
        let spans = vec![
            span("op.scrub", 0, 200, NO_PARENT),
            span("backend.fetch", 0, 100, 0),
            span("backend.fetch", 50, 150, 0),
        ];
        let scrub = fold(&spans).op("op.scrub");
        assert!((scrub.self_ns("backend.") - 150.0).abs() < 1e-9);
        assert!((scrub.self_ns("op.") - 50.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_drains() {
        let tracer = Tracer::new();
        tracer.set_context(3, 7);
        let root = tracer.enter("op.get");
        assert_eq!(tracer.current(), root);
        tracer.leaf("backend.fetch", None, Instant::now(), 4096, true);
        tracer.exit(root, true);
        assert_eq!(tracer.current(), NO_PARENT);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].cycle, spans[0].op), (3, 7));
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].bytes, 4096);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tracer.take().is_empty());
        let json = spans_json(&spans);
        assert!(json.contains("\"name\":\"backend.fetch\"") && json.contains("\"parent\":0"));
    }
}
