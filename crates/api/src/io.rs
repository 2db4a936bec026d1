//! Where blocks live: the unified [`BlockSource`] / [`BlockSink`] /
//! [`BlockRepo`] backend family.
//!
//! Encoders write into a sink; decoders read from a source; round-based
//! repair needs both ([`BlockRepo`]). There is exactly **one** backend
//! abstraction: the in-memory [`BlockMap`], every `ae_store` backend (the
//! plain, distributed, tiered and fault-injecting stores) and ad-hoc
//! adapters (tier routers, overlays, counting sinks) all implement these
//! same traits — so the same encode/repair/archive code serves a unit
//! test, a multi-backend deployment and a simulation harness without an
//! adapter layer in between.
//!
//! # The one mutability story
//!
//! Every method takes `&self`. Storage backends are shared by nature —
//! repair planners read them from several threads, archives and brokers
//! write through `Arc` handles — so the traits commit to interior
//! mutability once, instead of `&mut` signatures that concurrent backends
//! would quietly ignore. [`BlockSource`] is additionally `Sync`, because
//! round-based repair plans each round against an immutable snapshot of
//! the source from several planner threads at once (see
//! [`crate::RedundancyScheme::repair_missing`]).
//!
//! The plain `HashMap` therefore no longer qualifies as a backend; the
//! in-memory [`BlockMap`] is that map behind a lock, with the familiar
//! map-flavoured API on `&self`.
//!
//! # Failure surface
//!
//! Backends with real failure modes (unreachable locations, corrupted
//! bytes) speak through the same family: [`BlockSource::fetch`] answers
//! `None` for anything unavailable, and the error-typed
//! [`BlockSource::read`] distinguishes *absent* from *corrupted* via
//! [`StoreError`]. [`BlockSink::remove`] covers deletion (failure
//! injection, garbage collection); pure write-adapters keep the no-op
//! default.

use crate::error::StoreError;
use crate::placement::mix64;
use ae_blocks::{Block, BlockId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Something blocks can be read from.
///
/// `fetch` returns `None` both for never-written and currently-unreachable
/// blocks: to a decoder they are the same thing.
///
/// Sources are `Sync`: round-based repair plans each round against an
/// immutable snapshot of the source from several planner threads at once
/// (see [`crate::RedundancyScheme::repair_missing`]). The lock-guarded
/// [`BlockMap`] and every `ae_store` backend satisfy this for free.
pub trait BlockSource: Sync {
    /// Fetches a block if it is currently available.
    fn fetch(&self, id: BlockId) -> Option<Block>;

    /// Whether the block is currently available (default: try a fetch).
    fn has(&self, id: BlockId) -> bool {
        self.fetch(id).is_some()
    }

    /// Error-typed read: like [`BlockSource::fetch`], but distinguishes a
    /// block that is absent/unreachable ([`StoreError::NotFound`]) from one
    /// that failed integrity verification ([`StoreError::Corrupted`]).
    ///
    /// **The read contract:** a block answered `Ok` has a checksum equal
    /// to the CRC32 of its bytes ([`Block::verify`] passes). A reader may
    /// then use the checksum in place of the bytes: `ae_store`'s
    /// `Archive::get` composes a file's checksum from its blocks'. The
    /// default fetches and verifies, so every backend keeps the contract;
    /// one that overrides this must too — a backend that keeps checksums
    /// apart from bytes verifies the pair it returns.
    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        let block = self.fetch(id).ok_or(StoreError::NotFound(id))?;
        block.verify().map_err(|_| StoreError::Corrupted(id))?;
        Ok(block)
    }

    /// [`BlockSource::read`] of every id of a run, answered in order: one
    /// result per id, each the one `read` would give — under the same
    /// contract: every `Ok` block's checksum is the CRC32 of its bytes.
    /// The default is that loop, so a wrapper that overrides only `read`
    /// keeps its exact semantics. A backend overrides it where a run is
    /// cheaper than its reads one by one: `ae_store::MemStore` takes its
    /// lock once and checksums each block while the next ones load.
    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Block, StoreError>> {
        ids.iter().map(|&id| self.read(id)).collect()
    }

    /// The backend's **native async interior**, if it has one.
    ///
    /// Purely-sync backends (everything in `ae_store`, the in-memory
    /// [`BlockMap`]) keep the `None` default: their operations complete
    /// at call time, so there is nothing to pipeline. A sync-facing
    /// wrapper around a natively-async backend (an executor-owning
    /// adapter such as `ae_aio::BlockOn`) overrides this to expose the
    /// async repo plus a driver for its futures, and latency-aware
    /// callers — every batch of independent calls the archive issues —
    /// move through a bounded in-flight window when the hook answers
    /// `Some` (byte-identical outcomes, collapsed wall-clock).
    fn as_async(&self) -> Option<crate::aio::AsyncHandle<'_>> {
        None
    }
}

/// Something blocks can be written to.
///
/// Takes `&self`: backends are interior-mutable so they can be shared
/// (`Arc<Store>`, `&Store`) between encoders, repair workers and archives
/// without wrapper gymnastics — the one mutability story of the family.
pub trait BlockSink {
    /// Stores a block, replacing any previous contents under the id.
    fn store(&self, id: BlockId, block: Block);

    /// Removes a block, returning whether it was present — the deletion
    /// half of the failure surface (failure injection, garbage collection,
    /// replaced hardware). Pure write-adapters (tier routers, counting
    /// sinks) keep the no-op default.
    fn remove(&self, _id: BlockId) -> bool {
        false
    }
}

/// A combined source + sink, as round-based repair requires (each round
/// reads survivors and writes back what it reconstructed) and as archives
/// require of their backend.
pub trait BlockRepo: BlockSource + BlockSink {}

impl<T: BlockSource + BlockSink + ?Sized> BlockRepo for T {}

impl<S: BlockSource + ?Sized> BlockSource for &S {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        (**self).fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        (**self).has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        (**self).read(id)
    }

    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Block, StoreError>> {
        (**self).read_many(ids)
    }

    fn as_async(&self) -> Option<crate::aio::AsyncHandle<'_>> {
        (**self).as_async()
    }
}

impl<S: BlockSink + ?Sized> BlockSink for &S {
    fn store(&self, id: BlockId, block: Block) {
        (**self).store(id, block)
    }

    fn remove(&self, id: BlockId) -> bool {
        (**self).remove(id)
    }
}

impl<S: BlockSource + Send + ?Sized> BlockSource for Arc<S> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        (**self).fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        (**self).has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        (**self).read(id)
    }

    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Block, StoreError>> {
        (**self).read_many(ids)
    }

    fn as_async(&self) -> Option<crate::aio::AsyncHandle<'_>> {
        (**self).as_async()
    }
}

impl<S: BlockSink + ?Sized> BlockSink for Arc<S> {
    fn store(&self, id: BlockId, block: Block) {
        (**self).store(id, block)
    }

    fn remove(&self, id: BlockId) -> bool {
        (**self).remove(id)
    }
}

/// The hasher of [`BlockMap`]: a multiply-fold over the words a
/// [`BlockId`] hashes to (variant tag, strand class, position), finished
/// with one [`mix64`] avalanche.
///
/// Block ids are scheme arithmetic and tenant tags — dense runs of small
/// integers, never attacker-chosen strings — so the map needs spread, not
/// the flooding resistance `RandomState`'s SipHash pays for on every
/// lookup. The fold is a bijection of each word given the state before
/// it, so ids that differ in one field never collide ahead of the final
/// mix. Unseeded: iteration order is the same in every process.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        mix64(self.0, 0)
    }
}

/// The in-memory backend: block id → contents behind a reader-writer lock.
/// Presence in the map *is* availability.
///
/// This is the plain `HashMap` of earlier revisions put behind the
/// lock-guarded wrapper, so it implements the `&self` backend family
/// honestly instead of ignoring `&mut` exclusivity. The map-flavoured
/// inherent API (`insert` / `remove` / `get` / `contains_key` / …) is kept,
/// on `&self`; reads return owned clones because no reference can outlive
/// the lock guard.
#[derive(Debug, Default)]
pub struct BlockMap {
    inner: RwLock<HashMap<BlockId, Block, BuildHasherDefault<IdHasher>>>,
}

impl BlockMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a block, returning the previous contents under the id.
    pub fn insert(&self, id: BlockId, block: Block) -> Option<Block> {
        self.inner.write().insert(id, block)
    }

    /// Removes a block, returning it if it was present.
    pub fn remove(&self, id: &BlockId) -> Option<Block> {
        self.inner.write().remove(id)
    }

    /// The block under `id`, cloned.
    pub fn get(&self, id: &BlockId) -> Option<Block> {
        self.inner.read().get(id).cloned()
    }

    /// The block under each id of `ids`, cloned, in order — under one
    /// read lock.
    pub fn get_many(&self, ids: &[BlockId]) -> Vec<Option<Block>> {
        let map = self.inner.read();
        ids.iter().map(|id| map.get(id).cloned()).collect()
    }

    /// Whether the map holds `id`.
    pub fn contains_key(&self, id: &BlockId) -> bool {
        self.inner.read().contains_key(id)
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// All ids currently present (snapshot, unordered).
    pub fn ids(&self) -> Vec<BlockId> {
        self.inner.read().keys().copied().collect()
    }

    /// All `(id, block)` pairs currently present (snapshot, unordered).
    pub fn entries(&self) -> Vec<(BlockId, Block)> {
        self.inner
            .read()
            .iter()
            .map(|(id, b)| (*id, b.clone()))
            .collect()
    }

    /// Removes every block.
    pub fn clear(&self) {
        self.inner.write().clear()
    }

    /// Keeps only the blocks for which `f` answers `true`.
    pub fn retain(&self, mut f: impl FnMut(&BlockId, &Block) -> bool) {
        self.inner.write().retain(|id, b| f(id, b));
    }
}

impl Clone for BlockMap {
    fn clone(&self) -> Self {
        BlockMap {
            inner: RwLock::new(self.inner.read().clone()),
        }
    }
}

impl PartialEq for BlockMap {
    fn eq(&self, other: &Self) -> bool {
        *self.inner.read() == *other.inner.read()
    }
}

impl Eq for BlockMap {}

impl FromIterator<(BlockId, Block)> for BlockMap {
    fn from_iter<I: IntoIterator<Item = (BlockId, Block)>>(iter: I) -> Self {
        BlockMap {
            inner: RwLock::new(iter.into_iter().collect()),
        }
    }
}

impl BlockSource for BlockMap {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.get(&id)
    }

    fn has(&self, id: BlockId) -> bool {
        self.contains_key(&id)
    }
}

impl BlockSink for BlockMap {
    fn store(&self, id: BlockId, block: Block) {
        self.insert(id, block);
    }

    fn remove(&self, id: BlockId) -> bool {
        BlockMap::remove(self, &id).is_some()
    }
}

/// A source that overlays repaired blocks on top of a base source without
/// mutating it — the working state of a degraded (read-only) repair.
pub struct Overlay<'a> {
    base: &'a dyn BlockSource,
    /// Blocks reconstructed so far.
    pub patch: BlockMap,
}

impl<'a> Overlay<'a> {
    /// Creates an empty overlay over `base`.
    pub fn new(base: &'a dyn BlockSource) -> Self {
        Overlay {
            base,
            patch: BlockMap::new(),
        }
    }
}

impl BlockSource for Overlay<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.patch.get(&id).or_else(|| self.base.fetch(id))
    }

    fn has(&self, id: BlockId) -> bool {
        self.patch.contains_key(&id) || self.base.has(id)
    }
}

impl BlockSink for Overlay<'_> {
    fn store(&self, id: BlockId, block: Block) {
        self.patch.insert(id, block);
    }

    /// Removes from the patch only — the base stays untouched (that is the
    /// point of an overlay), so a block present in the base reports `false`.
    fn remove(&self, id: BlockId) -> bool {
        self.patch.remove(&id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::NodeId;

    fn id(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    #[test]
    fn block_map_source_sink_roundtrip() {
        let map = BlockMap::new();
        assert!(!map.has(id(1)));
        map.store(id(1), Block::from_vec(vec![1, 2]));
        assert!(map.has(id(1)));
        assert_eq!(map.fetch(id(1)).unwrap().as_slice(), &[1, 2]);
        assert_eq!(map.fetch(id(2)), None);
        assert_eq!(map.read(id(2)), Err(StoreError::NotFound(id(2))));
        assert!(BlockSink::remove(&map, id(1)));
        assert!(!BlockSink::remove(&map, id(1)));
    }

    /// The ids an archive actually stores — dense positions across every
    /// variant — must spread over both ends of the hash: the low bits pick
    /// the bucket, the top seven the control byte.
    #[test]
    fn id_hasher_spreads_dense_ids_and_is_unseeded() {
        use ae_blocks::{EdgeId, ReplicaId, ShardId, StrandClass};
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hash = |id: BlockId| BuildHasherDefault::<IdHasher>::default().hash_one(id);
        let ids = (1..=20_000u64).flat_map(|i| {
            let parity = |class| BlockId::Parity(EdgeId::new(class, NodeId(i)));
            [
                id(i),
                parity(StrandClass::Horizontal),
                parity(StrandClass::RightHanded),
                parity(StrandClass::LeftHanded),
                BlockId::Shard(ShardId {
                    stripe: i / 10,
                    index: (i % 10) as u16,
                }),
                BlockId::Replica(ReplicaId {
                    node: NodeId(i),
                    copy: 1 + (i % 2) as u16,
                }),
            ]
        });
        let (mut low, mut high) = ([0u32; 256], [0u32; 128]);
        let mut seen = std::collections::HashSet::new();
        for id in ids {
            let h = hash(id);
            assert!(seen.insert(h), "{id} collides on the full 64 bits");
            low[(h & 0xFF) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        // 120 000 ids: mean 469 per low bucket, 938 per control byte.
        let spread =
            |counts: &[u32]| (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        let ((low_min, low_max), (high_min, high_max)) = (spread(&low), spread(&high));
        assert!(
            low_min > 350 && low_max < 600,
            "low bits {low_min}..{low_max}"
        );
        assert!(
            high_min > 750 && high_max < 1150,
            "top bits {high_min}..{high_max}"
        );
        // No per-process seed: the same id hashes the same everywhere.
        assert_eq!(hash(id(7)), hash(id(7)));
        assert_ne!(hash(id(7)), hash(id(8)));
    }

    #[test]
    fn block_map_is_shareable_across_threads() {
        let map = Arc::new(BlockMap::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for k in 0..50u64 {
                        // Through the trait: &self stores on a shared handle.
                        map.store(id(t * 100 + k), Block::from_vec(vec![t as u8; 8]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), 200);
    }

    #[test]
    fn block_map_compares_and_clones() {
        let a = BlockMap::new();
        a.insert(id(1), Block::from_vec(vec![1]));
        let b = a.clone();
        assert_eq!(a, b);
        b.insert(id(2), Block::from_vec(vec![2]));
        assert_ne!(a, b);
        let c: BlockMap = b.entries().into_iter().collect();
        assert_eq!(b, c);
    }

    #[test]
    fn overlay_reads_through_and_shields_writes() {
        let base = BlockMap::new();
        base.store(id(1), Block::from_vec(vec![1]));
        let overlay = Overlay::new(&base);
        assert!(overlay.has(id(1)));
        overlay.store(id(2), Block::from_vec(vec![2]));
        assert!(overlay.has(id(2)));
        assert_eq!(overlay.fetch(id(2)).unwrap().as_slice(), &[2]);
        // The base was not touched, and removes never reach it.
        assert!(!base.has(id(2)));
        assert!(!BlockSink::remove(&overlay, id(1)));
        assert!(base.has(id(1)));
    }

    #[test]
    fn repo_is_usable_as_trait_object_and_through_arc() {
        fn exercise(repo: &dyn BlockRepo) {
            repo.store(id(9), Block::zero(4));
            assert!(repo.has(id(9)));
        }
        let map = BlockMap::new();
        exercise(&map);
        assert_eq!(map.len(), 1);

        let shared: Arc<BlockMap> = Arc::new(BlockMap::new());
        // Arc<S> is itself a repo: no adapter needed for shared backends.
        exercise(&shared);
        assert_eq!(shared.len(), 1);
    }
}
