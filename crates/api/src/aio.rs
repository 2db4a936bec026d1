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
//! * the **discovery hook** [`crate::BlockSource::as_async`] plus the
//!   [`AsyncHandle`] / [`BlockOnDriver`] pair it returns: a sync-facing
//!   wrapper around a natively-async backend (such as `ae_aio`'s
//!   latency-injecting store) advertises its async interior here, and
//!   the archive moves every batch it issues — the writes of `put`,
//!   `seal` and `checkpoint`, the probes of `open`, the reads of `get`
//!   and `scrub` — through the pipelined path when the hook answers
//!   `Some`. A backend whose operations complete at call time answers
//!   `None` and is called through the sync family directly.
//!
//! The driver indirection exists because executors live *above* this
//! crate (vendored in `ae_aio`): a handle must carry not just the async
//! repo but also something that can run its futures to completion, and
//! that something is whatever runtime the wrapper owns.

use crate::error::StoreError;
use ae_blocks::{Block, BlockId};
use std::future::Future;
use std::pin::Pin;

/// An owned, type-erased future — the object-safe currency of the async
/// backend traits (the async analogue of returning `Box<dyn ...>`).
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// The async mirror of [`crate::BlockSource`]: something blocks can be
/// read from, where each read is a future that may take (simulated or
/// real) time to resolve.
///
/// Semantics match the sync family method for method: `fetch_async`
/// answers `None` for anything unavailable, `read_async` distinguishes
/// absent from corrupted via [`StoreError`] — plus the async-only
/// failure mode [`StoreError::TimedOut`] for a remote that stopped
/// answering.
pub trait AsyncBlockSource: Sync {
    /// Fetches a block if it is currently available (async mirror of
    /// [`crate::BlockSource::fetch`]). An unreachable or timed-out remote
    /// resolves to `None`, never hangs forever.
    fn fetch_async(&self, id: BlockId) -> BoxFuture<'_, Option<Block>>;

    /// Whether the block is currently available (async mirror of
    /// [`crate::BlockSource::has`]).
    fn has_async(&self, id: BlockId) -> BoxFuture<'_, bool>;

    /// Error-typed read (async mirror of [`crate::BlockSource::read`]):
    /// additionally reports [`StoreError::TimedOut`] when the backend
    /// gave up retrying a dead remote. The read contract is the sync
    /// one: a block that resolves `Ok` has a checksum equal to the CRC32
    /// of its bytes.
    fn read_async(&self, id: BlockId) -> BoxFuture<'_, Result<Block, StoreError>>;
}

/// The async mirror of [`crate::BlockSink`]: something blocks can be
/// written to.
pub trait AsyncBlockSink: Sync {
    /// Stores a block (async mirror of [`crate::BlockSink::store`]). A
    /// write to a dead remote is swallowed once retries are exhausted —
    /// the sink signature has no error channel, matching the sync family.
    fn store_async(&self, id: BlockId, block: Block) -> BoxFuture<'_, ()>;

    /// Removes a block, resolving to whether it was present (async
    /// mirror of [`crate::BlockSink::remove`]); `false` when the remote
    /// timed out.
    fn remove_async(&self, id: BlockId) -> BoxFuture<'_, bool>;
}

/// A combined async source + sink, as pipelined repair requires — the
/// async analogue of [`crate::BlockRepo`].
pub trait AsyncBlockRepo: AsyncBlockSource + AsyncBlockSink {}

impl<T: AsyncBlockSource + AsyncBlockSink + ?Sized> AsyncBlockRepo for T {}

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
    use crate::io::{BlockMap, BlockSource};

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
