//! Async mirrors of the backend family: [`AsyncBlockSource`] /
//! [`AsyncBlockSink`] / [`AsyncBlockRepo`].
//!
//! The sync family ([`crate::BlockSource`] and friends) models backends
//! whose operations complete at call time — memory, a local disk array, a
//! test harness. Remote backends are different in kind: a fetch is a
//! round trip, and issuing several round trips **concurrently** is the
//! whole point (a repair that fetches its survivor set one block at a
//! time pays `O(blocks × RTT)`; a pipelined repair with a bounded
//! in-flight window pays `O(blocks × RTT / window)`). This module defines
//! the async side of that story without committing `ae_api` to any
//! particular executor:
//!
//! * the three **async mirror traits**, object-safe via [`BoxFuture`], so
//!   pipelines hold `&dyn AsyncBlockRepo` exactly as sync code holds
//!   `&dyn BlockRepo`;
//! * a **blanket sync→async adapter**: every `&S` where `S:
//!   BlockSource`/`BlockSink` implements the async mirror with
//!   ready-immediate futures (the operation runs at future-creation time
//!   and the future resolves on first poll), so every existing backend —
//!   Mem, Distributed, Tiered, Faulty — is usable in async pipelines
//!   unchanged;
//! * the **discovery hook** [`crate::BlockSource::as_async`] plus the
//!   [`AsyncHandle`] / [`BlockOnDriver`] pair it returns: a sync-facing
//!   wrapper around a natively-async backend (such as `ae_aio`'s
//!   latency-injecting store) advertises its async interior here, and
//!   sync callers (the archive's degraded `get` and `scrub`) switch to
//!   the pipelined path when the hook answers `Some`.
//!
//! The driver indirection exists because executors live *above* this
//! crate (vendored in `ae_aio`): a handle must carry not just the async
//! repo but also something that can run its futures to completion, and
//! that something is whatever runtime the wrapper owns.

use crate::error::StoreError;
use crate::io::{BlockSink, BlockSource};
use ae_blocks::{Block, BlockId};
use std::future::Future;
use std::pin::Pin;

/// An owned, type-erased future — the object-safe currency of the async
/// backend traits (the async analogue of returning `Box<dyn ...>`).
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// The async mirror of [`BlockSource`]: something blocks can be read
/// from, where each read is a future that may take (simulated or real)
/// time to resolve.
///
/// Semantics match the sync family method for method: `fetch_async`
/// answers `None` for anything unavailable, `read_async` distinguishes
/// absent from corrupted via [`StoreError`] — plus the async-only
/// failure mode [`StoreError::TimedOut`] for a remote that stopped
/// answering.
pub trait AsyncBlockSource: Sync {
    /// Fetches a block if it is currently available (async mirror of
    /// [`BlockSource::fetch`]). An unreachable or timed-out remote
    /// resolves to `None`, never hangs forever.
    fn fetch_async(&self, id: BlockId) -> BoxFuture<'_, Option<Block>>;

    /// Whether the block is currently available (async mirror of
    /// [`BlockSource::has`]).
    fn has_async(&self, id: BlockId) -> BoxFuture<'_, bool>;

    /// Error-typed read (async mirror of [`BlockSource::read`]):
    /// additionally reports [`StoreError::TimedOut`] when the backend
    /// gave up retrying a dead remote. The read contract is the sync
    /// one: a block that resolves `Ok` has a checksum equal to the CRC32
    /// of its bytes.
    fn read_async(&self, id: BlockId) -> BoxFuture<'_, Result<Block, StoreError>>;
}

/// The async mirror of [`BlockSink`]: something blocks can be written to.
pub trait AsyncBlockSink: Sync {
    /// Stores a block (async mirror of [`BlockSink::store`]). A write to
    /// a dead remote is swallowed once retries are exhausted — the sink
    /// signature has no error channel, matching the sync family.
    fn store_async(&self, id: BlockId, block: Block) -> BoxFuture<'_, ()>;

    /// Removes a block, resolving to whether it was present (async
    /// mirror of [`BlockSink::remove`]); `false` when the remote timed
    /// out.
    fn remove_async(&self, id: BlockId) -> BoxFuture<'_, bool>;
}

/// A combined async source + sink, as pipelined repair requires — the
/// async analogue of [`crate::BlockRepo`].
pub trait AsyncBlockRepo: AsyncBlockSource + AsyncBlockSink {}

impl<T: AsyncBlockSource + AsyncBlockSink + ?Sized> AsyncBlockRepo for T {}

// --- the blanket sync→async adapter --------------------------------------
//
// Implemented over `&S` (the family's natural shared handle) rather than
// `S` itself so that natively-async backends downstream can implement the
// mirror traits directly without colliding with the blanket impl —
// coherence permits both because no concrete type is ever simultaneously
// a `&S` and a downstream store.

impl<S: BlockSource + ?Sized> AsyncBlockSource for &S {
    /// Ready-immediate adapter: the sync fetch runs when the future is
    /// created and the future resolves on first poll.
    fn fetch_async(&self, id: BlockId) -> BoxFuture<'_, Option<Block>> {
        Box::pin(std::future::ready((**self).fetch(id)))
    }

    fn has_async(&self, id: BlockId) -> BoxFuture<'_, bool> {
        Box::pin(std::future::ready((**self).has(id)))
    }

    fn read_async(&self, id: BlockId) -> BoxFuture<'_, Result<Block, StoreError>> {
        Box::pin(std::future::ready((**self).read(id)))
    }
}

impl<S: BlockSink + Sync + ?Sized> AsyncBlockSink for &S {
    fn store_async(&self, id: BlockId, block: Block) -> BoxFuture<'_, ()> {
        (**self).store(id, block);
        Box::pin(std::future::ready(()))
    }

    fn remove_async(&self, id: BlockId) -> BoxFuture<'_, bool> {
        Box::pin(std::future::ready((**self).remove(id)))
    }
}

/// Runs async-backend futures to completion on whatever executor the
/// backend's wrapper owns.
///
/// Lives here (not in the executor crate) so that
/// [`crate::BlockSource::as_async`] can hand sync callers a complete
/// [`AsyncHandle`] without `ae_api` depending on any runtime: the
/// executor crate implements this trait for its runtime, and archive
/// code drives pipelines through the trait object.
pub trait BlockOnDriver: Sync {
    /// Drives `fut` to completion, advancing whatever timers and virtual
    /// or real clock the executor owns while the future is pending.
    fn drive(&self, fut: BoxFuture<'_, ()>);
}

/// A natively-async backend together with the driver that can run its
/// futures — what [`crate::BlockSource::as_async`] returns.
///
/// Holding the pair keeps call sites one-liners: build a future against
/// [`AsyncHandle::repo`], run it with [`AsyncHandle::run`].
#[derive(Clone, Copy)]
pub struct AsyncHandle<'a> {
    /// The async backend itself.
    pub repo: &'a dyn AsyncBlockRepo,
    /// Drives the backend's futures to completion.
    pub driver: &'a dyn BlockOnDriver,
}

impl AsyncHandle<'_> {
    /// Runs `fut` to completion on the handle's driver and returns its
    /// output — the bridge sync code uses to execute one pipelined phase.
    pub fn run<T: Send>(&self, fut: BoxFuture<'_, T>) -> T {
        let mut out = None;
        let slot = &mut out;
        self.driver.drive(Box::pin(async move {
            *slot = Some(fut.await);
        }));
        out.expect("BlockOnDriver::drive returned before the future completed")
    }
}

impl std::fmt::Debug for AsyncHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncHandle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::BlockMap;
    use ae_blocks::NodeId;
    use std::task::{Context, Poll, Waker};

    fn id(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    /// Polls a future that must already be ready (the blanket adapter's
    /// contract) without any executor.
    fn now_or_never<T>(mut fut: BoxFuture<'_, T>) -> T {
        let mut cx = Context::from_waker(Waker::noop());
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => v,
            Poll::Pending => panic!("blanket adapter futures must be ready-immediate"),
        }
    }

    #[test]
    fn blanket_adapter_mirrors_the_sync_family() {
        let map = BlockMap::new();
        let src = &map;
        assert_eq!(now_or_never(src.fetch_async(id(1))), None);
        assert!(!now_or_never(src.has_async(id(1))));
        assert_eq!(
            now_or_never(src.read_async(id(1))),
            Err(StoreError::NotFound(id(1)))
        );
        now_or_never(src.store_async(id(1), Block::from_vec(vec![7])));
        assert!(now_or_never(src.has_async(id(1))));
        assert_eq!(
            now_or_never(src.fetch_async(id(1))).unwrap().as_slice(),
            &[7]
        );
        assert!(now_or_never(src.remove_async(id(1))));
        assert!(!now_or_never(src.remove_async(id(1))));
    }

    #[test]
    fn blanket_adapter_is_object_safe() {
        let map = BlockMap::new();
        map.store(id(2), Block::zero(4));
        let by_ref = &map;
        let repo: &dyn AsyncBlockRepo = &by_ref;
        assert!(now_or_never(repo.has_async(id(2))));
        assert_eq!(now_or_never(repo.fetch_async(id(2))).unwrap().len(), 4);
    }

    #[test]
    fn sync_backends_advertise_no_native_async_interior() {
        let map = BlockMap::new();
        assert!(map.as_async().is_none());
        // The forwarding impls keep the default too.
        let by_ref: &BlockMap = &map;
        assert!(<&BlockMap as BlockSource>::as_async(&by_ref).is_none());
        assert!(std::sync::Arc::new(BlockMap::new()).as_async().is_none());
    }
}
