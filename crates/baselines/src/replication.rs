//! n-way replication.
//!
//! The oldest redundancy scheme: n identical copies, n parallel read paths,
//! no decoding. The paper compares against 2-, 3- and 4-way replication
//! (300% additional storage is the cap considered, §V.C). Replication "does
//! not have overheads for single failures" — a repair is one read of one
//! block — but pays linearly in storage for every level of fault tolerance.

use parking_lot::Mutex;

/// An n-way replication scheme.
///
/// The write counter — the only encoding state — sits behind a lock, so
/// one instance can be shared (`Arc<dyn RedundancyScheme>`) between
/// writers and repair workers.
#[derive(Debug)]
pub struct Replication {
    n: usize,
    /// Data blocks written through the scheme API.
    pub(crate) written: Mutex<u64>,
}

impl Clone for Replication {
    fn clone(&self) -> Self {
        Replication {
            n: self.n,
            written: Mutex::new(*self.written.lock()),
        }
    }
}

impl Replication {
    /// Creates n-way replication.
    ///
    /// # Panics
    ///
    /// Panics for `n < 2`: one copy is no redundancy scheme.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "replication needs at least 2 copies, got {n}");
        Replication {
            n,
            written: Mutex::new(0),
        }
    }

    /// Number of copies, original included.
    pub fn copies(&self) -> usize {
        self.n
    }

    /// Additional storage as a percentage: `(n − 1) · 100` (Table IV).
    pub fn storage_overhead_pct(&self) -> f64 {
        (self.n as f64 - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_api::{BlockMap, RedundancyScheme};
    use ae_blocks::{Block, BlockId, NodeId, ReplicaId};

    fn copy(copy: u16) -> BlockId {
        BlockId::Replica(ReplicaId {
            node: NodeId(1),
            copy,
        })
    }

    #[test]
    fn encode_makes_n_copies() {
        let r = Replication::new(3);
        let store = BlockMap::new();
        let b = Block::from_vec(vec![1, 2, 3]);
        r.encode_batch(std::slice::from_ref(&b), &store).unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.entries().iter().all(|(_, c)| *c == b));
    }

    #[test]
    fn repair_returns_any_valid_copy() {
        let r = Replication::new(4);
        let store = BlockMap::new();
        let b = Block::from_vec(vec![9; 32]);
        r.encode_batch(std::slice::from_ref(&b), &store).unwrap();
        store.remove(&BlockId::Data(NodeId(1)));
        store.remove(&copy(1));
        store.remove(&copy(2));
        assert_eq!(r.repair_block(&store, copy(1), 1), Ok(b));
        store.remove(&copy(3));
        assert!(r.repair_block(&store, copy(1), 1).is_err());
    }

    #[test]
    fn costs_match_table_iv() {
        for (n, overhead) in [(2usize, 100.0), (3, 200.0), (4, 300.0)] {
            let r = Replication::new(n);
            assert_eq!(r.storage_overhead_pct(), overhead);
            assert_eq!(r.repair_cost().single_failure_reads, 1);
        }
    }

    #[test]
    fn recoverable_with_one_survivor() {
        // Any n − 1 copies may vanish.
        let r = Replication::new(4);
        let data = BlockId::Data(NodeId(1));
        assert!(r.is_repairable(data, 1, &|id| id == copy(3)));
        assert!(!r.is_repairable(data, 1, &|_| false));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_copy() {
        Replication::new(1);
    }
}
