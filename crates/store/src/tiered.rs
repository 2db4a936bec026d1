//! A two-tier backend: a fast local tier over a shared remote tier.
//!
//! The §IV.A cooperative backup keeps a user's data blocks on their own
//! machine and pushes redundancy to geographically distributed nodes.
//! [`TieredStore`] is that routing as a backend of the unified [`ae_api`]
//! family: data blocks land on the local tier, everything else
//! (parities, shards, replicas, the archive's journal) on a shared remote
//! backend, and reads route the same way. An [`crate::Archive`] over it
//! is one user of the cooperative backup ([`crate::geo`]).
//!
//! The local tier is a [`MemStore`] unless the type says otherwise. The
//! §IV.B.1 entangled mirror array is a tiered store whose two tiers are
//! both [`crate::DistributedStore`]s, one location per drive: the data
//! drives and the parity drives, each partitioned by
//! [`crate::Placement::Partition`] (`tests/mirror_array.rs`).
//!
//! Because it is just another [`ae_api::BlockRepo`], the same archive,
//! encoder and repair code that runs over a [`MemStore`] runs over a
//! tiered deployment unchanged — including disaster flows: drop the fast
//! tier ([`TieredStore::drop_fast`], a local disk crash) or fail some of
//! its drives, and degraded reads reconstruct data from the surviving
//! redundancy; fail remote locations and scrubbing regenerates what they
//! held.

use crate::store::MemStore;
use ae_api::{BlockRepo, BlockSink, BlockSource, StoreError};
use ae_blocks::{Block, BlockId};
use std::sync::Arc;

/// A local tier `L` (data blocks) over a shared remote tier `S`
/// (redundancy).
///
/// `S` is any backend — a [`crate::DistributedStore`] of storage nodes in
/// the geo scenario, another [`MemStore`] in tests, or a further
/// `TieredStore` for deeper hierarchies; `L` is any backend too.
#[derive(Debug)]
pub struct TieredStore<S: BlockRepo + Send + ?Sized, L = MemStore> {
    fast: L,
    shared: Arc<S>,
}

impl<S: BlockRepo + Send + ?Sized> TieredStore<S> {
    /// Creates an empty in-memory fast tier over `shared`.
    pub fn new(shared: Arc<S>) -> Self {
        Self::with_fast(MemStore::new(), shared)
    }

    /// Simulates losing the whole local tier (disk crash): every block on
    /// it is dropped. Returns how many blocks were lost.
    pub fn drop_fast(&self) -> usize {
        let ids = self.fast.ids();
        for id in &ids {
            self.fast.remove(*id);
        }
        ids.len()
    }
}

impl<S: BlockRepo + Send + ?Sized, L: BlockRepo> TieredStore<S, L> {
    /// Creates a tiered store with `fast` as its local tier over `shared`.
    pub fn with_fast(fast: L, shared: Arc<S>) -> Self {
        TieredStore { fast, shared }
    }

    /// The fast local tier.
    pub fn fast(&self) -> &L {
        &self.fast
    }

    /// The shared remote tier.
    pub fn shared(&self) -> &Arc<S> {
        &self.shared
    }

    /// Whether `id` routes to the fast tier (data) or the remote tier
    /// (redundancy) — the §IV.A split.
    fn is_fast(id: BlockId) -> bool {
        id.is_data()
    }
}

impl<S: BlockRepo + Send + ?Sized, L: BlockRepo> BlockSource for TieredStore<S, L> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        if Self::is_fast(id) {
            self.fast.fetch(id)
        } else {
            self.shared.fetch(id)
        }
    }

    fn has(&self, id: BlockId) -> bool {
        if Self::is_fast(id) {
            self.fast.has(id)
        } else {
            self.shared.has(id)
        }
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        if Self::is_fast(id) {
            self.fast.read(id)
        } else {
            self.shared.read(id)
        }
    }
}

impl<S: BlockRepo + Send + ?Sized, L: BlockRepo> BlockSink for TieredStore<S, L> {
    fn store(&self, id: BlockId, block: Block) {
        if Self::is_fast(id) {
            self.fast.store(id, block);
        } else {
            self.shared.store(id, block);
        }
    }

    fn remove(&self, id: BlockId) -> bool {
        if Self::is_fast(id) {
            self.fast.remove(id)
        } else {
            self.shared.remove(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::{EdgeId, NodeId, StrandClass};

    fn data(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn parity(i: u64) -> BlockId {
        BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(i)))
    }

    #[test]
    fn routes_data_fast_and_redundancy_shared() {
        let shared = Arc::new(MemStore::new());
        let tiered = TieredStore::new(Arc::clone(&shared));
        tiered.store(data(1), Block::from_vec(vec![1]));
        tiered.store(parity(1), Block::from_vec(vec![2]));
        assert!(tiered.fast().contains(data(1)));
        assert!(!tiered.fast().contains(parity(1)));
        assert!(shared.contains(parity(1)));
        assert_eq!(tiered.fetch(data(1)).unwrap().as_slice(), &[1]);
        assert_eq!(tiered.fetch(parity(1)).unwrap().as_slice(), &[2]);
        assert!(tiered.remove(parity(1)));
        assert!(!shared.contains(parity(1)));
    }

    #[test]
    fn drop_fast_loses_only_the_local_tier() {
        let tiered = TieredStore::new(Arc::new(MemStore::new()));
        for i in 1..=5 {
            tiered.store(data(i), Block::zero(4));
            tiered.store(parity(i), Block::zero(4));
        }
        assert_eq!(tiered.drop_fast(), 5);
        assert!(!tiered.has(data(3)));
        assert!(tiered.has(parity(3)), "remote tier survives");
        assert_eq!(tiered.read(data(3)), Err(StoreError::NotFound(data(3))));
    }
}
