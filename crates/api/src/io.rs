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
//! in-memory [`BlockMap`] is a map paged by write order behind a lock,
//! with the familiar map-flavoured API on `&self`.
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
use ae_blocks::{Block, BlockId, EdgeId, MetaId, NodeId, ReplicaId, ShardId, StrandClass};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
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

/// The hasher of [`BlockMap`]'s pages: a multiply-fold over the two words
/// of a [`PageKey`] (kind, page), finished with one [`mix64`] avalanche.
///
/// Block ids are scheme arithmetic and tenant tags — dense runs of small
/// integers, never attacker-chosen strings — so the map needs spread, not
/// the flooding resistance `RandomState`'s SipHash pays for on every
/// lookup. The fold is a bijection of each word given the state before
/// it, so keys that differ in one word never collide ahead of the final
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

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        mix64(self.0, 0)
    }
}

/// Bits of an id's raw word that pick its slot: a page holds `1 << 3` ids.
/// Larger pages gave `ae_bulk` no more, and cost memory where placement
/// scatters ids so that a page holds about one (a shard of a
/// `DistributedStore`).
const SLOT_BITS: u32 = 3;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The page an id lives on: `kind` is the variant (high bits) and its
/// sub-field — strand class, shard index or replica copy (low 16 bits);
/// `page` is the id's raw word (node, stripe or `MetaId` word, tenant tag
/// included) without its slot bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PageKey {
    kind: u64,
    page: u64,
}

/// An id as its page and its slot on that page.
fn split(id: BlockId) -> (PageKey, usize) {
    let (variant, sub, raw) = match id {
        BlockId::Data(n) => (0, 0, n.0),
        BlockId::Parity(e) => (1, e.class.index() as u64, e.left.0),
        BlockId::Shard(s) => (2, s.index.into(), s.stripe),
        BlockId::Replica(r) => (3, r.copy.into(), r.node.0),
        BlockId::Meta(m) => (4, 0, m.0),
    };
    let key = PageKey {
        kind: variant << 16 | sub,
        page: raw >> SLOT_BITS,
    };
    (key, (raw & SLOT_MASK) as usize)
}

/// The id in `slot` of the page `key`: the inverse of [`split`].
fn join(key: PageKey, slot: usize) -> BlockId {
    let raw = key.page << SLOT_BITS | slot as u64;
    let sub = key.kind & 0xFFFF;
    match key.kind >> 16 {
        0 => BlockId::Data(NodeId(raw)),
        1 => BlockId::Parity(EdgeId::new(StrandClass::ALL[sub as usize], NodeId(raw))),
        2 => BlockId::Shard(ShardId {
            stripe: raw,
            index: sub as u16,
        }),
        3 => BlockId::Replica(ReplicaId {
            node: NodeId(raw),
            copy: sub as u16,
        }),
        _ => BlockId::Meta(MetaId(raw)),
    }
}

/// Eight neighbouring ids of one kind: the block in each slot, if held.
type Page = [Option<Block>; 1 << SLOT_BITS];

/// The map under [`BlockMap`]'s lock. A page with no block left is
/// dropped, so two maps holding the same blocks hold the same pages.
#[derive(Default, Clone, PartialEq)]
struct Pages {
    /// Boxed: an unboxed page is a 208-byte table entry, which a shard
    /// whose ids scatter (about one to a page) pays per id, and which
    /// every doubling copies.
    pages: HashMap<PageKey, Box<Page>, BuildHasherDefault<IdHasher>>,
    len: usize,
}

impl Pages {
    fn get(&self, id: BlockId) -> Option<&Block> {
        let (key, slot) = split(id);
        self.pages.get(&key)?[slot].as_ref()
    }

    fn insert(&mut self, id: BlockId, block: Block) -> Option<Block> {
        let (key, slot) = split(id);
        let old = self.pages.entry(key).or_default()[slot].replace(block);
        self.len += usize::from(old.is_none());
        old
    }

    fn remove(&mut self, id: BlockId) -> Option<Block> {
        let (key, slot) = split(id);
        let page = self.pages.get_mut(&key)?;
        let old = page[slot].take()?;
        self.len -= 1;
        if page.iter().all(Option::is_none) {
            self.pages.remove(&key);
        }
        Some(old)
    }

    fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.pages.iter().flat_map(|(&key, page)| {
            let held = page.iter().enumerate();
            held.filter_map(move |(slot, block)| Some((join(key, slot), block.as_ref()?)))
        })
    }
}

/// The in-memory backend: block id → contents behind a reader-writer lock.
/// Presence in the map *is* availability.
///
/// Inside, the map is paged by write order. An id splits into a page key
/// — its variant, its strand class, shard index or replica copy, and its
/// raw word (tenant tag included) without the low three bits — and a slot,
/// those three bits. One hash table, keyed by page, holds boxed pages of
/// eight slots. Every scheme writes the ids of each kind in dense runs
/// (`block_at(k)` is its write order), so a put's stores and a sweep's
/// reads land on one page per eight ids of a kind, and a table doubling
/// moves an eighth as many entries, each a pointer. A page is dropped when
/// its last block goes.
///
/// The map-flavoured API (`insert` / `remove` / `get` / `contains_key` /
/// …) is on `&self`, so the map implements the `&self` backend family;
/// reads return owned clones because no reference can outlive the lock
/// guard. The order of [`BlockMap::ids`] and [`BlockMap::entries`] is
/// unspecified.
#[derive(Default)]
pub struct BlockMap {
    inner: RwLock<Pages>,
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
        self.inner.write().remove(*id)
    }

    /// The block under `id`, cloned.
    pub fn get(&self, id: &BlockId) -> Option<Block> {
        self.inner.read().get(*id).cloned()
    }

    /// The block under each id of `ids`, cloned, in order, under one read
    /// lock.
    pub fn get_many(&self, ids: &[BlockId]) -> Vec<Option<Block>> {
        let map = self.inner.read();
        ids.iter().map(|&id| map.get(id).cloned()).collect()
    }

    /// Whether the map holds `id`.
    pub fn contains_key(&self, id: &BlockId) -> bool {
        self.inner.read().get(*id).is_some()
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.inner.read().len
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.read().pages.is_empty()
    }

    /// All ids currently present (snapshot, unordered).
    pub fn ids(&self) -> Vec<BlockId> {
        self.inner.read().iter().map(|(id, _)| id).collect()
    }

    /// All `(id, block)` pairs currently present (snapshot, unordered).
    pub fn entries(&self) -> Vec<(BlockId, Block)> {
        let map = self.inner.read();
        map.iter().map(|(id, block)| (id, block.clone())).collect()
    }

    /// Removes every block.
    pub fn clear(&self) {
        *self.inner.write() = Pages::default();
    }

    /// Keeps only the blocks for which `f` answers `true`.
    pub fn retain(&self, mut f: impl FnMut(&BlockId, &Block) -> bool) {
        let mut map = self.inner.write();
        let mut len = 0;
        map.pages.retain(|&key, page| {
            for (slot, held) in page.iter_mut().enumerate() {
                if held
                    .as_ref()
                    .is_some_and(|block| !f(&join(key, slot), block))
                {
                    *held = None;
                }
            }
            let kept = page.iter().flatten().count();
            len += kept;
            kept > 0
        });
        map.len = len;
    }
}

impl fmt::Debug for BlockMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.inner.read().iter()).finish()
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
        let mut map = Pages::default();
        for (id, block) in iter {
            map.insert(id, block);
        }
        BlockMap {
            inner: RwLock::new(map),
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
    use std::collections::HashSet;

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
    /// variant — must spread their page keys over both ends of the hash:
    /// the low bits pick the bucket, the top seven the control byte.
    #[test]
    fn id_hasher_spreads_dense_ids_and_is_unseeded() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hash = |id: BlockId| BuildHasherDefault::<IdHasher>::default().hash_one(split(id).0);
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
        let (mut keys, mut seen) = (HashSet::new(), HashSet::new());
        for id in ids.filter(|&id| keys.insert(split(id).0)) {
            let h = hash(id);
            assert!(
                seen.insert(h),
                "the page of {id} collides on the full 64 bits"
            );
            low[(h & 0xFF) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        // 17 506 pages: mean 68 per low bucket, 137 per control byte; the
        // bounds are four standard deviations of a uniform hash.
        assert_eq!(keys.len(), 17_506);
        let spread =
            |counts: &[u32]| (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        let ((low_min, low_max), (high_min, high_max)) = (spread(&low), spread(&high));
        assert!(
            low_min > 35 && low_max < 102,
            "low bits {low_min}..{low_max}"
        );
        assert!(
            high_min > 90 && high_max < 184,
            "top bits {high_min}..{high_max}"
        );
        // No per-process seed: the same id hashes the same everywhere.
        assert_eq!(hash(id(7)), hash(id(7)));
        assert_ne!(hash(id(7)), hash(id(8)));
    }

    /// Ids at page edges, in every variant and sub-field, tenant tags and
    /// `Meta` copy and pointer bits included.
    fn edge_ids() -> Vec<BlockId> {
        let tenant = 0xBEEF << 48;
        let raws = [0, 1, 7, 8, 9, 63, 64, 65, tenant | 7, tenant | 8, u64::MAX];
        raws.into_iter()
            .flat_map(|raw| {
                let mut ids = vec![id(raw), BlockId::Meta(MetaId(raw))];
                ids.extend(
                    StrandClass::ALL.map(|class| BlockId::Parity(EdgeId::new(class, NodeId(raw)))),
                );
                for sub in [0, 1, 9, u16::MAX] {
                    ids.push(BlockId::Shard(ShardId {
                        stripe: raw,
                        index: sub,
                    }));
                    ids.push(BlockId::Replica(ReplicaId {
                        node: NodeId(raw),
                        copy: sub,
                    }));
                }
                ids
            })
            .chain((0..MetaId::MAX_COPIES).flat_map(|copy| {
                [
                    BlockId::Meta(MetaId::record(8, copy)),
                    BlockId::Meta(MetaId::pointer(7, copy)),
                    BlockId::Meta(MetaId::pointer(0xFF_FFFF_FFFF, copy)),
                ]
            }))
            .collect()
    }

    #[test]
    fn an_id_splits_into_a_page_and_slot_and_joins_back() {
        let ids: HashSet<BlockId> = edge_ids().into_iter().collect();
        let mut places = HashSet::new();
        for &id in &ids {
            let (key, slot) = split(id);
            assert!(slot < 1 << SLOT_BITS);
            assert_eq!(join(key, slot), id);
            assert!(places.insert((key, slot)), "{id} shares a slot");
        }
        // Neighbours in write order share a page; the ninth starts one.
        let page = |raw| split(id(raw)).0;
        assert!(page(8) == page(15) && page(15) != page(16));
        assert!(split(id(8)).0 != split(BlockId::Meta(MetaId(8))).0);
    }

    #[test]
    fn removing_a_pages_last_block_drops_the_page() {
        let map = BlockMap::new();
        for raw in [8, 9, 15, 16] {
            map.insert(id(raw), Block::from_vec(vec![raw as u8]));
        }
        assert_eq!(map.inner.read().pages.len(), 2);
        assert_eq!(map.remove(&id(16)).unwrap().as_slice(), &[16]);
        assert_eq!(map.inner.read().pages.len(), 1);
        map.retain(|id, _| *id != self::id(9));
        assert!(map.remove(&id(8)).is_some() && map.remove(&id(8)).is_none());
        assert_eq!((map.len(), map.inner.read().pages.len()), (1, 1));
        assert_ne!(map, BlockMap::new());
        assert!(map.remove(&id(15)).is_some());
        assert!(map.is_empty() && map.inner.read().pages.is_empty());
        assert_eq!(map, BlockMap::new());
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
