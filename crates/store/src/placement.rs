//! Placement policies: mapping blocks to locations.
//!
//! The policy itself — uniform random keyed by a SplitMix64 hash,
//! round-robin or partition — is the canonical [`ae_api::Placement`],
//! shared with the availability-plane simulation (`ae-sim` keys it by
//! dense universe position). This module adds the store-side half:
//! deriving a stable 64-bit key from a [`BlockId`] so that blocks of
//! different schemes never collide in one store, via the [`PlaceBlocks`]
//! extension trait.

use crate::cluster::LocationId;
use ae_blocks::{BlockId, EdgeId, NodeId};

pub use ae_api::Placement;

/// Shard/replica ids get key-space offsets far above lattice ids so the
/// schemes never collide in one store.
const FOREIGN_BASE: u64 = 1 << 62;

/// Store-side placement of block ids: the canonical policy applied to a
/// per-id key. Random placement hashes a stable id key; round-robin uses
/// the id's write-sequence index so that a block and its redundancy land
/// in distinct failure domains; partition uses the id's index in its own
/// kind's write order (`d_i` and `p_{i,·}` at `i − 1`), and places
/// journal copies round-robin so that they stay apart whatever the run.
pub trait PlaceBlocks {
    /// The location for `id` among `n` locations.
    fn place(&self, id: BlockId, n: u32) -> LocationId;
}

impl PlaceBlocks for Placement {
    fn place(&self, id: BlockId, n: u32) -> LocationId {
        let (policy, key) = match self {
            Placement::Random { .. } => (self, block_key(id)),
            Placement::RoundRobin => (self, sequence_index(id)),
            // Divided by the run, the copies of one record would share a
            // location.
            Placement::Partition { .. } if id.is_meta() => (&Placement::RoundRobin, kind_index(id)),
            Placement::Partition { .. } => (self, kind_index(id)),
        };
        LocationId(policy.place_key(key, n))
    }
}

/// Stable 64-bit key for a block id.
fn block_key(id: BlockId) -> u64 {
    match id {
        BlockId::Data(NodeId(i)) => i << 2,
        BlockId::Parity(EdgeId { class, left }) => (left.0 << 2) | (class.index() as u64 + 1),
        BlockId::Shard(s) => FOREIGN_BASE | (s.stripe << 9) | s.index as u64,
        BlockId::Replica(r) => (FOREIGN_BASE << 1) | (r.node.0 << 9) | r.copy as u64,
        BlockId::Meta(m) => (FOREIGN_BASE | (FOREIGN_BASE << 1)) | meta_sequence(m),
    }
}

/// Round-robin frame for metadata ids: the copies of one record (or
/// pointer cell) occupy **consecutive** slots, so an n-way copy set lands
/// in n distinct failure domains whenever the store has that many
/// locations — keying by the raw id would collapse copies of a record
/// onto one location for power-of-two location counts, defeating the
/// redundancy. Records use offsets `0..MAX_COPIES` within their frame,
/// pointer cells the `MAX_COPIES..` half, so the two families never
/// collide.
fn meta_sequence(m: ae_blocks::MetaId) -> u64 {
    let half = ae_blocks::MetaId::MAX_COPIES as u64;
    let base = if m.is_pointer() { half } else { 0 };
    m.seq() * 2 * half + base + m.copy() as u64
}

/// Sequential index for round-robin: interleave node and its parities in
/// write order (node i, then its α parities).
fn sequence_index(id: BlockId) -> u64 {
    match id {
        BlockId::Data(NodeId(i)) => i * 4,
        BlockId::Parity(EdgeId { class, left }) => left.0 * 4 + 1 + class.index() as u64,
        BlockId::Shard(s) => s.stripe * 4 + s.index as u64,
        BlockId::Replica(r) => r.node.0 * 4 + r.copy as u64,
        // Metadata records spread over locations like any other sequence,
        // copies of one record in consecutive (distinct) slots.
        BlockId::Meta(m) => meta_sequence(m),
    }
}

/// Index of `id` in its own kind's write order, from 0: data block `d_i`
/// and each parity `p_{i,·}` at `i − 1`, a shard at its stripe, a replica
/// at its node's, a journal copy at its round-robin slot. A tier holding
/// one kind thus partitions it in the order it was written.
fn kind_index(id: BlockId) -> u64 {
    match id {
        BlockId::Data(NodeId(i))
        | BlockId::Parity(EdgeId {
            left: NodeId(i), ..
        }) => i.saturating_sub(1),
        BlockId::Shard(s) => s.stripe,
        BlockId::Replica(r) => r.node.0.saturating_sub(1),
        BlockId::Meta(m) => meta_sequence(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass;

    fn data(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn parity(class: StrandClass, i: u64) -> BlockId {
        BlockId::Parity(EdgeId::new(class, NodeId(i)))
    }

    #[test]
    fn placement_is_deterministic() {
        let p = Placement::Random { seed: 99 };
        for i in 1..100 {
            assert_eq!(p.place(data(i), 100), p.place(data(i), 100));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Placement::Random { seed: 1 };
        let b = Placement::Random { seed: 2 };
        let moved = (1..1000)
            .filter(|&i| a.place(data(i), 100) != b.place(data(i), 100))
            .count();
        assert!(moved > 900, "only {moved} of 999 moved");
    }

    #[test]
    fn random_placement_is_roughly_uniform() {
        let p = Placement::Random { seed: 5 };
        let n = 100u32;
        let mut counts = vec![0u32; n as usize];
        for i in 1..=100_000u64 {
            counts[p.place(data(i), n).0 as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // Mean 1000 per location; allow generous but telling bounds.
        assert!(*min > 800 && *max < 1200, "min {min}, max {max}");
    }

    #[test]
    fn nodes_and_their_parities_get_distinct_keys() {
        let p = Placement::Random { seed: 5 };
        // Distinct blocks must be able to land in distinct locations: check
        // keys differ (collisions in a 100-way map are fine and expected).
        let ids = [
            data(10),
            parity(StrandClass::Horizontal, 10),
            parity(StrandClass::RightHanded, 10),
            parity(StrandClass::LeftHanded, 10),
        ];
        let keys: std::collections::HashSet<u64> =
            ids.iter().map(|&i| super::block_key(i)).collect();
        assert_eq!(keys.len(), 4);
        let _ = p; // placement itself exercised elsewhere
    }

    #[test]
    fn round_robin_separates_lattice_neighbours() {
        let p = Placement::RoundRobin;
        let n = 100;
        // A node and its α parities occupy consecutive slots.
        let a = p.place(data(10), n);
        let b = p.place(parity(StrandClass::Horizontal, 10), n);
        let c = p.place(parity(StrandClass::RightHanded, 10), n);
        let d = p.place(data(11), n);
        let set: std::collections::HashSet<_> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4, "neighbours in distinct locations");
    }

    #[test]
    fn round_robin_wraps() {
        let p = Placement::RoundRobin;
        assert_eq!(
            p.place(data(1), 4),
            p.place(data(2), 4),
            "4 slots per node, n=4"
        );
    }

    #[test]
    fn meta_copies_of_one_record_land_in_distinct_locations() {
        use ae_blocks::MetaId;
        let copies = 3u16;
        let policies = [
            Placement::RoundRobin,
            Placement::Partition { run: 1 },
            Placement::Partition { run: 20 },
        ];
        for p in policies {
            for n in [3u32, 4, 8, 16] {
                for seq in [0u64, 1, 5, 100] {
                    let spots: std::collections::HashSet<_> = (0..copies)
                        .map(|c| p.place(BlockId::Meta(MetaId::record(seq, c)), n))
                        .collect();
                    assert_eq!(
                        spots.len(),
                        copies as usize,
                        "{p:?}: seq {seq}, {n} locations"
                    );
                    let ptr_spots: std::collections::HashSet<_> = (0..copies)
                        .map(|c| p.place(BlockId::Meta(MetaId::pointer(seq % 2, c)), n))
                        .collect();
                    assert_eq!(
                        ptr_spots.len(),
                        copies as usize,
                        "{p:?}: pointer slot, {n} locations"
                    );
                }
            }
        }
        // Random placement keys every copy distinctly too.
        let keys: std::collections::HashSet<u64> = (0..copies)
            .flat_map(|c| {
                [
                    super::block_key(BlockId::Meta(MetaId::record(9, c))),
                    super::block_key(BlockId::Meta(MetaId::pointer(0, c))),
                ]
            })
            .collect();
        assert_eq!(keys.len(), 2 * copies as usize);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_locations_rejected() {
        Placement::RoundRobin.place(data(1), 0);
    }
}
