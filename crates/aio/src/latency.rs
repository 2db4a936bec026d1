//! The latency model: [`LatencyStore`] wraps any sync backend and makes
//! it behave like a remote — every operation becomes a future that takes
//! (virtual or real) time governed by a per-tier [`LinkSpec`], with typed
//! timeout/retry/backoff semantics for dead remotes — plus [`BlockOn`],
//! the sync adapter that lets the wrapped backend slot anywhere a
//! [`BlockRepo`] goes while advertising its async interior through
//! [`BlockSource::as_async`].
//!
//! # Determinism contract
//!
//! Every operation's timing **plan** — its RTT and one jitter draw per
//! retry attempt from the seeded [SplitMix64] generator — is computed
//! eagerly at *future creation*, under one lock. Two runs that create
//! futures in the same order therefore draw identical jitter, regardless
//! of how the futures are later polled; combined with a virtual clock and
//! single-threaded driving, whole simulated repair storms replay byte-
//! and nanosecond-identically. Only the link's dead flag is read lazily,
//! at each attempt's start, so a remote that comes back mid-backoff heals
//! the operation.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::exec::Runtime;
use ae_api::{
    AsyncBlockRepo, AsyncBlockSink, AsyncBlockSource, AsyncHandle, BlockRepo, BlockSink,
    BlockSource, BoxFuture, SplitMix64, StoreError,
};
use ae_blocks::{Block, BlockId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The link parameters of one tier: round-trip time and uniform jitter
/// added on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkSpec {
    /// Round-trip time every operation pays.
    pub rtt: Duration,
    /// Jitter bound: each attempt adds a seeded uniform draw from
    /// `[0, jitter]` to its completion time.
    pub jitter: Duration,
}

impl LinkSpec {
    /// A jitter-free link with the given round-trip time.
    pub fn rtt(rtt: Duration) -> Self {
        LinkSpec {
            rtt,
            ..LinkSpec::default()
        }
    }
}

/// Which link of a [`LatencyStore`] an operation or a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The data tier (`BlockId::is_data`); the only tier under
    /// [`Tiering::Uniform`].
    Local,
    /// The redundancy/meta tier of a [`Tiering::DataLocal`] store. On a
    /// uniform store this aliases [`Tier::Local`].
    Remote,
}

/// How a [`LatencyStore`] routes block ids onto links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiering {
    /// One link for everything.
    Uniform(LinkSpec),
    /// Data blocks ride the `local` link, everything else (parities,
    /// shards, replicas, metadata) the `remote` one — mirroring
    /// `ae_store::TieredStore`'s hot/cold split.
    DataLocal {
        /// The link data blocks use.
        local: LinkSpec,
        /// The link everything else uses.
        remote: LinkSpec,
    },
}

/// Timeout/retry/backoff policy: each attempt has `timeout` to complete;
/// failed attempts back off exponentially (`backoff * multiplier^k`)
/// before retrying, and exhausting `attempts` yields the typed failure
/// for the operation — [`StoreError::TimedOut`] for reads, `None`/`false`
/// for fetch/has/remove, a swallowed write for store. Never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Per-attempt completion deadline.
    pub timeout: Duration,
    /// Base backoff inserted after a failed attempt.
    pub backoff: Duration,
    /// Exponential backoff factor (attempt `k` waits
    /// `backoff * multiplier^k`).
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            timeout: Duration::from_secs(1),
            backoff: Duration::from_millis(10),
            multiplier: 2,
        }
    }
}

/// One link: its spec and its dead flag, the one part that changes
/// mid-run.
#[derive(Debug)]
struct LinkState {
    spec: LinkSpec,
    dead: AtomicBool,
}

/// One operation's fully-precomputed timing plan.
struct Plan {
    /// Clock reading at future creation — attempt 0 starts here.
    issue: u64,
    /// Earliest possible completion: issue + RTT.
    base: u64,
    /// One seeded jitter draw per attempt, fixed at creation.
    jitters: Vec<u64>,
    timeout: u64,
    backoff: u64,
    multiplier: u64,
}

/// A latency-injecting wrapper: any sync [`BlockRepo`] behind simulated
/// per-tier network links, exposed through the async mirror traits. See
/// the [crate docs](crate) for the determinism contract, and
/// [`RetryPolicy`] for the failure semantics. Composes with
/// `ae_store::FaultyStore` (wrap the faulty store to model a flaky
/// *and* distant backend).
pub struct LatencyStore<S: ?Sized> {
    rt: Runtime,
    retry: RetryPolicy,
    /// Whether ids route by kind (two links) or uniformly (one link).
    data_local: bool,
    links: Vec<LinkState>,
    /// The jitter generator every operation plan draws from.
    prng: Mutex<SplitMix64>,
    inner: Arc<S>,
}

impl<S: BlockRepo + Send + ?Sized> LatencyStore<S> {
    /// Wraps `inner` behind `tiering`'s links, drawing jitter from
    /// `seed`. Operations run on `rt`'s clock.
    pub fn new(inner: Arc<S>, rt: Runtime, tiering: Tiering, seed: u64) -> Self {
        let specs = match tiering {
            Tiering::Uniform(spec) => vec![spec],
            Tiering::DataLocal { local, remote } => vec![local, remote],
        };
        let links: Vec<LinkState> = specs
            .into_iter()
            .map(|spec| LinkState {
                spec,
                dead: AtomicBool::new(false),
            })
            .collect();
        LatencyStore {
            rt,
            retry: RetryPolicy::default(),
            data_local: links.len() == 2,
            links,
            prng: Mutex::new(SplitMix64::new(seed)),
            inner,
        }
    }

    /// Wraps `inner` behind one uniform link.
    pub fn uniform(inner: Arc<S>, rt: Runtime, spec: LinkSpec, seed: u64) -> Self {
        LatencyStore::new(inner, rt, Tiering::Uniform(spec), seed)
    }

    /// Replaces the retry policy (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = RetryPolicy {
            attempts: retry.attempts.max(1),
            ..retry
        };
        self
    }

    /// The wrapped backend — damage or inspect it directly in tests.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// The runtime whose clock this store's operations run on.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Marks a tier dead (operations fail per [`RetryPolicy`]) or alive.
    /// Checked lazily at each attempt's start, so reviving a link
    /// mid-backoff lets in-flight operations heal.
    pub fn set_dead(&self, tier: Tier, dead: bool) {
        self.links[self.link_index(tier)]
            .dead
            .store(dead, Ordering::Release);
    }

    /// Whether the tier is currently marked dead.
    pub fn is_dead(&self, tier: Tier) -> bool {
        self.links[self.link_index(tier)]
            .dead
            .load(Ordering::Acquire)
    }

    /// Wraps this store in a [`BlockOn`] adapter on its own runtime,
    /// yielding a drop-in sync [`BlockRepo`] that advertises the async
    /// interior via [`BlockSource::as_async`].
    pub fn into_sync(self) -> BlockOn<Self>
    where
        S: Sized,
    {
        let rt = self.rt.clone();
        BlockOn::new(self, rt)
    }

    fn link_index(&self, tier: Tier) -> usize {
        match tier {
            Tier::Local => 0,
            Tier::Remote => usize::from(self.data_local),
        }
    }

    fn route(&self, id: BlockId) -> usize {
        if self.data_local && !id.is_data() {
            1
        } else {
            0
        }
    }

    /// Computes an operation's timing plan eagerly, under the generator's
    /// lock: draw every attempt's jitter now so issue order alone fixes
    /// the random stream.
    fn plan(&self, id: BlockId) -> (Plan, &LinkState) {
        let link = &self.links[self.route(id)];
        let rtt = link.spec.rtt.as_nanos() as u64;
        let jitter = link.spec.jitter.as_nanos() as u64;
        let mut prng = self.prng.lock();
        let now = self.rt.now();
        let jitters = (0..self.retry.attempts.max(1))
            .map(|_| {
                let draw = prng.next_u64();
                if jitter == 0 {
                    0
                } else {
                    draw % (jitter + 1)
                }
            })
            .collect();
        let plan = Plan {
            issue: now,
            base: now + rtt,
            jitters,
            timeout: self.retry.timeout.as_nanos() as u64,
            backoff: self.retry.backoff.as_nanos() as u64,
            multiplier: u64::from(self.retry.multiplier),
        };
        (plan, link)
    }
}

impl<S: ?Sized> std::fmt::Debug for LatencyStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyStore")
            .field("retry", &self.retry)
            .field("links", &self.links)
            .finish_non_exhaustive()
    }
}

/// Plays out a precomputed [`Plan`] against the link's (lazily-read) dead
/// flag: resolves `true` at the successful attempt's completion time, or
/// `false` once every attempt has timed out.
async fn transmit(rt: Runtime, dead: &AtomicBool, plan: Plan) -> bool {
    let mut start = plan.issue;
    for (k, &jitter) in plan.jitters.iter().enumerate() {
        rt.sleep_until(start).await;
        let alive = !dead.load(Ordering::Acquire);
        let deadline = start.saturating_add(plan.timeout);
        let complete = plan.base.max(start).saturating_add(jitter);
        if alive && complete <= deadline {
            rt.sleep_until(complete).await;
            return true;
        }
        rt.sleep_until(deadline).await;
        start = deadline.saturating_add(
            plan.backoff
                .saturating_mul(plan.multiplier.saturating_pow(k as u32)),
        );
    }
    false
}

impl<S: BlockRepo + Send + ?Sized> AsyncBlockSource for LatencyStore<S> {
    fn fetch_async(&self, id: BlockId) -> BoxFuture<'_, Option<Block>> {
        // Read-side ops sample the inner backend eagerly (at creation):
        // creation order is what the determinism contract pins down.
        let result = self.inner.fetch(id);
        let (plan, link) = self.plan(id);
        let rt = self.rt.clone();
        Box::pin(async move {
            if transmit(rt, &link.dead, plan).await {
                result
            } else {
                None
            }
        })
    }

    fn has_async(&self, id: BlockId) -> BoxFuture<'_, bool> {
        let result = self.inner.has(id);
        let (plan, link) = self.plan(id);
        let rt = self.rt.clone();
        Box::pin(async move { transmit(rt, &link.dead, plan).await && result })
    }

    fn read_async(&self, id: BlockId) -> BoxFuture<'_, Result<Block, StoreError>> {
        let result = self.inner.read(id);
        let (plan, link) = self.plan(id);
        let rt = self.rt.clone();
        Box::pin(async move {
            if transmit(rt, &link.dead, plan).await {
                result
            } else {
                Err(StoreError::TimedOut(id))
            }
        })
    }
}

impl<S: BlockRepo + Send + ?Sized> AsyncBlockSink for LatencyStore<S> {
    fn store_async(&self, id: BlockId, block: Block) -> BoxFuture<'_, ()> {
        // Write-side ops apply to the inner backend only at completion —
        // a write to a dead remote is swallowed, not teleported past the
        // network.
        let (plan, link) = self.plan(id);
        let rt = self.rt.clone();
        Box::pin(async move {
            if transmit(rt, &link.dead, plan).await {
                self.inner.store(id, block);
            }
        })
    }

    fn remove_async(&self, id: BlockId) -> BoxFuture<'_, bool> {
        let (plan, link) = self.plan(id);
        let rt = self.rt.clone();
        Box::pin(async move { transmit(rt, &link.dead, plan).await && self.inner.remove(id) })
    }
}

/// The sync adapter over a natively-async backend: implements the sync
/// [`BlockSource`]/[`BlockSink`] family by driving each operation's
/// future on its runtime, and answers [`BlockSource::as_async`] with the
/// async interior so the archive moves every batch it issues — the
/// writes of `put`, `seal` and `checkpoint`, the probes of `open`, the
/// reads of `get` and `scrub` — through the in-flight window instead of
/// the one-op-at-a-time sync surface.
#[derive(Debug)]
pub struct BlockOn<A> {
    inner: A,
    rt: Runtime,
}

impl<A: AsyncBlockRepo> BlockOn<A> {
    /// Adapts `inner`, driving its futures on `rt`.
    pub fn new(inner: A, rt: Runtime) -> Self {
        BlockOn { inner, rt }
    }

    /// The wrapped async backend.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The runtime driving the backend's futures.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

impl<A: AsyncBlockRepo> BlockSource for BlockOn<A> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.rt.block_on(self.inner.fetch_async(id))
    }

    fn has(&self, id: BlockId) -> bool {
        self.rt.block_on(self.inner.has_async(id))
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.rt.block_on(self.inner.read_async(id))
    }

    fn as_async(&self) -> Option<AsyncHandle<'_>> {
        Some(AsyncHandle {
            repo: &self.inner,
            driver: &self.rt,
        })
    }
}

impl<A: AsyncBlockRepo> BlockSink for BlockOn<A> {
    fn store(&self, id: BlockId, block: Block) {
        self.rt.block_on(self.inner.store_async(id, block));
    }

    fn remove(&self, id: BlockId) -> bool {
        self.rt.block_on(self.inner.remove_async(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Clock;
    use crate::{windowed, OpFactory};
    use ae_api::BlockMap;
    use ae_blocks::{MetaId, NodeId};

    const MS: u64 = 1_000_000;

    fn data(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn seeded(spec: LinkSpec) -> LatencyStore<BlockMap> {
        let rt = Runtime::new(Clock::virtual_time());
        LatencyStore::uniform(Arc::new(BlockMap::new()), rt, spec, 42)
    }

    #[test]
    fn reads_pay_rtt_on_the_virtual_clock() {
        let net = seeded(LinkSpec::rtt(Duration::from_millis(10)));
        net.inner().store(data(1), Block::from_vec(vec![9; 8]));
        let rt = net.runtime().clone();
        let got = rt.block_on(net.read_async(data(1))).unwrap();
        assert_eq!(got.as_slice(), &[9; 8]);
        assert_eq!(rt.now(), 10 * MS);
    }

    #[test]
    fn jitter_is_seeded_and_replays_identically() {
        let spec = LinkSpec {
            rtt: Duration::from_millis(1),
            jitter: Duration::from_micros(100),
        };
        let run = || {
            let net = seeded(spec);
            for i in 0..4u64 {
                net.inner().store(data(i), Block::from_vec(vec![0; 1000]));
            }
            let rt = net.runtime().clone();
            let futs: Vec<_> = (0..4).map(|i| net.fetch_async(data(i))).collect();
            rt.block_on(async {
                for f in futs {
                    assert!(f.await.is_some());
                }
            });
            rt.now()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "seeded jitter + eager plans replay identically");
        // The four fetches overlap: the last completes one RTT plus at
        // most one jitter bound after they were issued.
        assert!((MS..=MS + MS / 10).contains(&a), "t={a}");
    }

    #[test]
    fn dead_remote_times_out_with_typed_errors_and_never_hangs() {
        let net = seeded(LinkSpec::rtt(Duration::from_millis(1))).with_retry(RetryPolicy {
            attempts: 2,
            timeout: Duration::from_millis(5),
            backoff: Duration::from_millis(2),
            multiplier: 2,
        });
        net.inner().store(data(7), Block::from_vec(vec![1; 4]));
        net.set_dead(Tier::Local, true);
        assert!(net.is_dead(Tier::Local));
        let rt = net.runtime().clone();
        // The virtual-clock executor panics on a hang, so completion of
        // block_on itself proves "typed error, never a hang".
        assert_eq!(
            rt.block_on(net.read_async(data(7))),
            Err(StoreError::TimedOut(data(7)))
        );
        assert_eq!(rt.block_on(net.fetch_async(data(7))), None);
        assert!(!rt.block_on(net.has_async(data(7))));
        assert!(!rt.block_on(net.remove_async(data(7))));
        rt.block_on(net.store_async(data(8), Block::from_vec(vec![2])));
        assert!(!net.inner().has(data(8)), "dead-remote write is swallowed");
        assert!(net.inner().has(data(7)), "dead-remote remove is swallowed");
        // Two attempts x 5 ms timeout + 2 ms backoff bounds each op.
        assert!(rt.now() >= 12 * MS);
    }

    #[test]
    fn reviving_the_link_mid_backoff_heals_the_operation() {
        let net = seeded(LinkSpec::rtt(Duration::from_millis(1))).with_retry(RetryPolicy {
            attempts: 3,
            timeout: Duration::from_millis(10),
            backoff: Duration::from_millis(5),
            multiplier: 2,
        });
        net.inner().store(data(3), Block::from_vec(vec![5; 4]));
        net.set_dead(Tier::Local, true);
        let rt = net.runtime().clone();
        let read: OpFactory<'_, Option<Block>> =
            Box::new(|| Box::pin(async { net.read_async(data(3)).await.ok() }));
        let revive: OpFactory<'_, Option<Block>> = Box::new(|| {
            Box::pin(async {
                rt.sleep(Duration::from_millis(12)).await;
                net.set_dead(Tier::Local, false);
                None
            })
        });
        // Attempt 0 dies at t=10ms; the reviver fires at t=12ms during
        // the 5 ms backoff; attempt 1 (t=15ms) finds the link alive.
        let got = rt.block_on(windowed(vec![read, revive], 2));
        assert_eq!(got[0].as_ref().unwrap().as_slice(), &[5; 4]);
        assert!(rt.now() >= 15 * MS && rt.now() < 25 * MS, "t={}", rt.now());
    }

    #[test]
    fn data_local_tiering_routes_by_id_kind() {
        let rt = Runtime::new(Clock::virtual_time());
        let net = LatencyStore::new(
            Arc::new(BlockMap::new()),
            rt.clone(),
            Tiering::DataLocal {
                local: LinkSpec::rtt(Duration::from_millis(1)),
                remote: LinkSpec::rtt(Duration::from_millis(20)),
            },
            7,
        );
        net.inner().store(data(1), Block::from_vec(vec![1]));
        net.inner()
            .store(BlockId::Meta(MetaId(0)), Block::from_vec(vec![2]));
        let t0 = rt.now();
        rt.block_on(net.read_async(data(1))).unwrap();
        let local = rt.now() - t0;
        let t1 = rt.now();
        rt.block_on(net.read_async(BlockId::Meta(MetaId(0))))
            .unwrap();
        let remote = rt.now() - t1;
        assert_eq!(local, MS);
        assert_eq!(remote, 20 * MS);
        // Killing only the remote tier leaves data reachable.
        net.set_dead(Tier::Remote, true);
        assert!(rt.block_on(net.fetch_async(data(1))).is_some());
        assert_eq!(rt.block_on(net.fetch_async(BlockId::Meta(MetaId(0)))), None);
    }

    #[test]
    fn block_on_adapter_is_a_sync_repo_that_advertises_async() {
        let net = seeded(LinkSpec::rtt(Duration::from_millis(2)));
        let sync = net.into_sync();
        sync.store(data(5), Block::from_vec(vec![3; 6]));
        assert!(sync.has(data(5)));
        assert_eq!(sync.read(data(5)).unwrap().as_slice(), &[3; 6]);
        assert_eq!(sync.fetch(data(9)), None);
        let handle = sync.as_async().expect("BlockOn advertises its interior");
        let got = handle.run(handle.repo.fetch_async(data(5)));
        assert_eq!(got.unwrap().as_slice(), &[3; 6]);
        assert!(sync.remove(data(5)));
        assert!(!sync.has(data(5)));
    }
}
