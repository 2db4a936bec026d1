//! Tenant-namespaced views over one shared backend.
//!
//! The §IV use cases are multi-tenant: many users' archives coexist in one
//! storage system. [`TenantStore`] makes that concrete without touching
//! any scheme or archive code — it is a [`BlockRepo`] view that maps every
//! lattice-local block id into a tenant-reserved slice of the shared id
//! space (the tenant number in the high 16 bits, the idiom
//! `ae_store::GeoLattice` established for the §IV.A cooperative backup),
//! covering **all** id kinds: data, entanglement parities, Reed-Solomon
//! shards, replicas and — crucially — the archive's [`BlockId::Meta`]
//! journal records, so every tenant owns a private crash-recovery journal
//! inside the same backend.
//!
//! An `Archive<TenantStore>` therefore behaves exactly like an archive
//! over a private backend while its blocks physically interleave with
//! every other tenant's in the one shared store — which is what lets the
//! service admit concurrent `put`/`get`/`scrub`/`seal` from many tenants
//! against the same backend.

use ae_api::{BlockRepo, BlockSink, BlockSource, StoreError};
use ae_blocks::{Block, BlockId, EdgeId, MetaId, NodeId, ReplicaId, ShardId};
use std::sync::Arc;

/// One tenant of an [`crate::ArchiveService`], identified by its slot
/// index (dense, assigned by [`crate::ArchiveService::add_tenant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The backend an [`crate::ArchiveService`] shares between all tenants:
/// any interior-mutable repo of the unified `ae_api` family.
pub type SharedBackend = Arc<dyn BlockRepo + Send + Sync>;

/// High bits reserved for the tenant tag — the same split
/// `ae_store::GeoLattice` uses for user namespaces, so tenant-local ids
/// must keep their primary index below 2^48. Every roster scheme does;
/// schemes that tag high bits themselves (a `GeoLattice` with a non-zero
/// user) cannot be stacked on top of a non-zero tenant tag.
const TENANT_SHIFT: u32 = 48;

/// A [`BlockRepo`] view translating one tenant's lattice-local ids into
/// its reserved slice of the shared id space.
#[derive(Clone)]
pub struct TenantStore {
    inner: SharedBackend,
    tenant: TenantId,
    tag: u64,
}

impl TenantStore {
    /// A view of `inner` for `tenant`.
    pub fn new(inner: SharedBackend, tenant: TenantId) -> Self {
        let tag = (tenant.0 as u64) << TENANT_SHIFT;
        TenantStore { inner, tenant, tag }
    }

    /// The tenant this view belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The shared backend underneath every tenant's view.
    pub fn shared(&self) -> &SharedBackend {
        &self.inner
    }

    fn tag_index(&self, i: u64) -> u64 {
        debug_assert_eq!(
            i >> TENANT_SHIFT,
            0,
            "tenant-local id {i} overflows the 48-bit local space"
        );
        i | self.tag
    }

    /// Maps a tenant-local id to its key in the shared backend. Public so
    /// drills and parity harnesses can address a tenant's physical blocks
    /// (e.g. to fault-inject them) from outside the archive.
    pub fn global(&self, id: BlockId) -> BlockId {
        match id {
            BlockId::Data(NodeId(i)) => BlockId::Data(NodeId(self.tag_index(i))),
            BlockId::Parity(EdgeId { class, left }) => {
                BlockId::Parity(EdgeId::new(class, NodeId(self.tag_index(left.0))))
            }
            BlockId::Shard(ShardId { stripe, index }) => BlockId::Shard(ShardId {
                stripe: self.tag_index(stripe),
                index,
            }),
            BlockId::Replica(ReplicaId { node, copy }) => BlockId::Replica(ReplicaId {
                node: NodeId(self.tag_index(node.0)),
                copy,
            }),
            BlockId::Meta(MetaId(seq)) => BlockId::Meta(MetaId(self.tag_index(seq))),
        }
    }
}

impl std::fmt::Debug for TenantStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantStore")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl BlockSource for TenantStore {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.inner.fetch(self.global(id))
    }

    fn has(&self, id: BlockId) -> bool {
        self.inner.has(self.global(id))
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.inner.read(self.global(id)).map_err(|e| local(e, id))
    }

    /// The run goes to the shared backend as one run of tagged ids, so a
    /// backend that reads runs faster does so for every tenant.
    fn read_many(&self, ids: &[BlockId]) -> Vec<Result<Block, StoreError>> {
        let global: Vec<BlockId> = ids.iter().map(|&id| self.global(id)).collect();
        let reads = self.inner.read_many(&global);
        let reads = reads.into_iter().zip(ids);
        reads
            .map(|(read, &id)| read.map_err(|e| local(e, id)))
            .collect()
    }
}

/// A shared backend's error, moved back into the tenant-local id space:
/// callers reason about their own universe.
fn local(err: StoreError, id: BlockId) -> StoreError {
    match err {
        StoreError::NotFound(_) => StoreError::NotFound(id),
        StoreError::Corrupted(_) => StoreError::Corrupted(id),
        StoreError::TimedOut(_) => StoreError::TimedOut(id),
    }
}

impl BlockSink for TenantStore {
    fn store(&self, id: BlockId, block: Block) {
        self.inner.store(self.global(id), block);
    }

    fn remove(&self, id: BlockId) -> bool {
        self.inner.remove(self.global(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass;
    use ae_store::MemStore;

    fn view(t: u16) -> (Arc<MemStore>, TenantStore) {
        let mem = Arc::new(MemStore::new());
        let shared: SharedBackend = Arc::clone(&mem) as SharedBackend;
        (mem, TenantStore::new(shared, TenantId(t)))
    }

    #[test]
    fn every_id_kind_is_namespaced_and_disjoint_between_tenants() {
        let mem = Arc::new(MemStore::new());
        let shared: SharedBackend = Arc::clone(&mem) as SharedBackend;
        let a = TenantStore::new(Arc::clone(&shared), TenantId(1));
        let b = TenantStore::new(shared, TenantId(2));
        let ids = [
            BlockId::Data(NodeId(7)),
            BlockId::Parity(EdgeId::new(StrandClass::RightHanded, NodeId(7))),
            BlockId::Shard(ShardId {
                stripe: 3,
                index: 1,
            }),
            BlockId::Replica(ReplicaId {
                node: NodeId(7),
                copy: 2,
            }),
            BlockId::Meta(MetaId(0)),
        ];
        for (k, id) in ids.iter().enumerate() {
            a.store(*id, Block::from_vec(vec![k as u8; 4]));
        }
        // Tenant b sees none of tenant a's blocks under the same local id.
        for id in &ids {
            assert!(a.has(*id), "{id}");
            assert!(!b.has(*id), "{id} leaked across tenants");
        }
        // The shared backend holds them under tagged keys, all distinct.
        assert_eq!(mem.len(), ids.len());
        for id in &ids {
            assert_ne!(a.global(*id), b.global(*id));
            assert_ne!(a.global(*id), *id, "tenant 1 ids are tagged");
        }
    }

    #[test]
    fn tenant_zero_is_the_untagged_namespace() {
        let (mem, t0) = view(0);
        let id = BlockId::Data(NodeId(5));
        assert_eq!(t0.global(id), id);
        t0.store(id, Block::from_vec(vec![1]));
        assert!(mem.contains(id));
    }

    #[test]
    fn read_errors_name_the_local_id() {
        let (_mem, t) = view(3);
        let id = BlockId::Meta(MetaId(4));
        assert_eq!(t.read(id), Err(StoreError::NotFound(id)));
        assert_eq!(t.fetch(id), None);
    }

    #[test]
    fn remove_round_trips() {
        let (mem, t) = view(9);
        let id = BlockId::Data(NodeId(1));
        t.store(id, Block::from_vec(vec![7; 2]));
        assert_eq!(t.read(id).unwrap().as_slice(), &[7, 7]);
        assert!(t.remove(id));
        assert!(!t.has(id));
        assert!(mem.is_empty());
    }
}
