//! A block store sharded over cluster locations.
//!
//! Combines a [`MemStore`] per location with a [`Placement`] policy and a
//! [`Cluster`]: reads fail while the block's location is unavailable, which
//! is precisely the failure model of the paper's evaluation (a location
//! failure makes every block placed there unavailable at once). Writes
//! follow the paper's maintenance (§IV.A, Table III): a block stored
//! while its location is down — a repair of what that location held — is
//! placed on an available location instead.

use crate::cluster::{Cluster, LocationId};
use crate::placement::{PlaceBlocks, Placement};
use crate::store::{MemStore, StoreError};
use ae_blocks::{Block, BlockId};
use parking_lot::RwLock;

/// A distributed block store with location-grained failures.
#[derive(Debug)]
pub struct DistributedStore {
    shards: Vec<MemStore>,
    placement: Placement,
    cluster: RwLock<Cluster>,
    /// Re-homed blocks: a [`DistributedStore::put`] whose location is down
    /// lands on a live one instead, overriding the deterministic
    /// placement.
    overrides: RwLock<std::collections::HashMap<BlockId, LocationId>>,
}

impl DistributedStore {
    /// Creates a store over `n` locations with the given placement policy.
    pub fn new(n: u32, placement: Placement) -> Self {
        DistributedStore {
            shards: (0..n).map(|_| MemStore::new()).collect(),
            placement,
            cluster: RwLock::new(Cluster::new(n)),
            overrides: RwLock::new(std::collections::HashMap::new()),
        }
    }

    /// Number of locations.
    pub fn locations(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The location a block maps to (honouring any re-homing override).
    pub fn location_of(&self, id: BlockId) -> LocationId {
        if let Some(&loc) = self.overrides.read().get(&id) {
            return loc;
        }
        self.placement.place(id, self.locations())
    }

    /// Runs `f` against the cluster state (fail/restore locations).
    pub fn with_cluster<T>(&self, f: impl FnOnce(&mut Cluster) -> T) -> T {
        f(&mut self.cluster.write())
    }

    /// Whether the block's location is currently reachable.
    pub fn location_available(&self, id: BlockId) -> bool {
        self.cluster.read().is_available(self.location_of(id))
    }

    /// Blocks held at one location (snapshot), regardless of availability.
    pub fn blocks_at(&self, loc: LocationId) -> Vec<BlockId> {
        self.shards[loc.0 as usize].ids()
    }

    /// Total blocks across all locations, including unreachable ones.
    pub fn total_blocks(&self) -> usize {
        self.shards.iter().map(MemStore::len).sum()
    }

    /// Stores a block on its location. When that location is down (a
    /// repair regenerating what it held), the block goes to the first
    /// live location probed from its placed one: the override is recorded
    /// so reads find it there, and the stale copy is dropped. With every
    /// location down it stays on its location.
    pub fn put(&self, id: BlockId, block: Block) {
        let loc = self.location_of(id);
        let target = {
            let cluster = self.cluster.read();
            if cluster.is_available(loc) {
                loc
            } else {
                // Deterministic probe from the block's placed location.
                let n = self.locations();
                let home = self.placement.place(id, n).0;
                (0..n)
                    .map(|k| LocationId((home + k) % n))
                    .find(|&l| cluster.is_available(l))
                    .unwrap_or(loc)
            }
        };
        if target != loc {
            self.shards[loc.0 as usize].remove(id);
            self.overrides.write().insert(id, target);
        }
        self.shards[target.0 as usize].put(id, block);
    }

    /// Fetches a block, verifying its integrity.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when absent or the block's location is
    /// down; [`StoreError::Corrupted`] when the stored checksum no longer
    /// matches.
    pub fn get(&self, id: BlockId) -> Result<Block, StoreError> {
        let loc = self.location_of(id);
        if !self.cluster.read().is_available(loc) {
            return Err(StoreError::NotFound(id));
        }
        self.shards[loc.0 as usize].get(id)
    }

    /// Removes a block, returning whether it was present. Works even while
    /// the block's location is down (garbage collection on dead hardware).
    pub fn remove(&self, id: BlockId) -> bool {
        let loc = self.location_of(id);
        self.shards[loc.0 as usize].remove(id)
    }

    /// Whether the block is present *and* its location reachable.
    pub fn contains(&self, id: BlockId) -> bool {
        let loc = self.location_of(id);
        self.cluster.read().is_available(loc) && self.shards[loc.0 as usize].contains(id)
    }

    /// Number of currently reachable blocks.
    pub fn len(&self) -> usize {
        let cluster = self.cluster.read();
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| cluster.is_available(LocationId(*i as u32)))
            .map(|(_, s)| s.len())
            .sum()
    }

    /// Whether no block is currently reachable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ae_api::BlockSource for DistributedStore {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.get(id).ok()
    }

    fn has(&self, id: BlockId) -> bool {
        self.contains(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.get(id)
    }
}

impl ae_api::BlockSink for DistributedStore {
    fn store(&self, id: BlockId, block: Block) {
        self.put(id, block);
    }

    fn remove(&self, id: BlockId) -> bool {
        DistributedStore::remove(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::NodeId;

    fn id(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn filled(n: u32) -> DistributedStore {
        let s = DistributedStore::new(n, Placement::Random { seed: 11 });
        for i in 1..=200 {
            s.put(id(i), Block::from_vec(vec![i as u8; 8]));
        }
        s
    }

    #[test]
    fn blocks_spread_over_locations() {
        let s = filled(10);
        assert_eq!(s.total_blocks(), 200);
        let nonempty = (0..10)
            .filter(|&l| !s.blocks_at(LocationId(l)).is_empty())
            .count();
        assert!(nonempty >= 8, "random placement should hit most locations");
    }

    #[test]
    fn location_failure_hides_blocks() {
        let s = filled(10);
        let victim = s.location_of(id(1));
        let co_located = s.blocks_at(victim).len();
        s.with_cluster(|c| c.fail(victim));

        assert!(matches!(s.get(id(1)), Err(StoreError::NotFound(_))));
        assert!(!s.contains(id(1)));
        assert!(!s.location_available(id(1)));
        assert_eq!(
            s.len(),
            200 - co_located,
            "len counts only reachable blocks"
        );
        // Contents survive the outage: restore and read again.
        s.with_cluster(|c| c.restore(victim));
        assert_eq!(s.get(id(1)).unwrap().as_slice(), &[1u8; 8]);
    }

    #[test]
    fn remove_works_even_when_unreachable() {
        let s = filled(5);
        let victim = s.location_of(id(7));
        s.with_cluster(|c| c.fail(victim));
        // Garbage collection may still drop blocks on a failed device.
        assert!(s.remove(id(7)));
        s.with_cluster(|c| c.restore(victim));
        assert!(!s.contains(id(7)));
    }

    #[test]
    fn put_moves_block_to_live_location() {
        let s = filled(10);
        let victim_loc = s.location_of(id(3));
        s.with_cluster(|c| c.fail(victim_loc));
        assert!(s.get(id(3)).is_err(), "unreachable while location is down");
        // A put during the outage re-homes onto a live location, where
        // reads find it; the stale copy is gone.
        s.put(id(3), Block::from_vec(vec![3u8; 8]));
        let new_loc = s.location_of(id(3));
        assert_ne!(new_loc, victim_loc, "override recorded");
        assert_eq!(s.get(id(3)).unwrap().as_slice(), &[3u8; 8]);
        assert!(!s.blocks_at(victim_loc).contains(&id(3)));
        assert_eq!(s.total_blocks(), 200);
        // With every location down, the block stays on its location.
        s.with_cluster(|c| {
            for l in 0..10 {
                c.fail(LocationId(l));
            }
        });
        let home = s.location_of(id(4));
        s.put(id(4), Block::zero(8));
        assert_eq!(s.location_of(id(4)), home);
        assert!(s.blocks_at(home).contains(&id(4)));
        s.with_cluster(|c| c.restore_all());
        assert_eq!(s.get(id(4)), Ok(Block::zero(8)));
    }

    #[test]
    fn placement_is_stable() {
        let s = filled(10);
        for i in 1..=200 {
            assert_eq!(s.location_of(id(i)), s.location_of(id(i)));
        }
    }
}
