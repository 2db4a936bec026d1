//! The id ⇄ position bijection behind the zero-materialization plane.
//!
//! Every scheme with `supports_dense_index()` promises that `dense_index`
//! and `block_at` form an authoritative O(1) bijection over the whole
//! universe. `SchemePlane` builds on that promise to hold *no* per-block
//! id state at all — the bijection is its only id ⇄ position path — so
//! these properties are what keeps the plane honest:
//!
//! * `block_at(k) == block_ids(n)[k]` and `dense_index(block_ids(n)[k])
//!   == k` for every position — both directions against the enumeration
//!   oracle, over every scheme in the extended roster (the store-backed
//!   chain and geo schemes included) and over RS deployments with partial
//!   final stripes;
//! * round-trips `block_at(dense_index(id)) == id` and
//!   `dense_index(block_at(k)) == k`.
//!
//! Enumeration (`block_ids`) is the oracle; `SchemePlane`'s constructor
//! repeats the first check exhaustively in debug builds.

use aecodes::blocks::{BlockId, NodeId, ShardId};
use aecodes::sim::Scheme;
use proptest::prelude::*;

/// Every scheme in the roster, by index (proptest picks the index).
fn roster() -> Vec<Scheme> {
    Scheme::extended_lineup()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both directions of the bijection agree with the enumeration oracle
    /// over the full universe, for every roster scheme and for extents
    /// that leave RS final stripes partial.
    #[test]
    fn bijection_matches_enumeration(
        pick in 0usize..13,
        n in 1u64..200,
    ) {
        let scheme = roster()[pick].build(0);
        let name = scheme.scheme_name();
        prop_assert!(scheme.supports_dense_index(), "{name}");
        let ids = scheme.block_ids(n);
        prop_assert_eq!(scheme.universe_len(n), ids.len() as u64, "{}", &name);
        for (k, id) in ids.iter().enumerate() {
            prop_assert_eq!(scheme.block_at(k as u32, n), Some(*id), "{} at {}", &name, k);
            prop_assert_eq!(scheme.dense_index(id, n), Some(k as u32), "{} {}", &name, id);
        }
        // One past the end, and far out.
        prop_assert_eq!(scheme.block_at(ids.len() as u32, n), None, "{}", &name);
        prop_assert_eq!(scheme.block_at(u32::MAX, n), None, "{}", &name);
    }

    /// Round-trips: position → id → position and id → position → id.
    #[test]
    fn bijection_round_trips(
        pick in 0usize..13,
        n in 1u64..150,
    ) {
        let scheme = roster()[pick].build(0);
        let name = scheme.scheme_name();
        let len = scheme.universe_len(n);
        for k in 0..len as u32 {
            let id = scheme.block_at(k, n).expect("within universe");
            prop_assert_eq!(scheme.dense_index(&id, n), Some(k), "{} at {}", &name, k);
        }
        for id in scheme.block_ids(n) {
            let k = scheme.dense_index(&id, n).expect("universe member");
            prop_assert_eq!(scheme.block_at(k, n), Some(id), "{} {}", &name, id);
        }
        // Foreign ids have no position in any roster scheme's universe.
        for foreign in [
            BlockId::Data(NodeId(0)),
            BlockId::Data(NodeId((1 << 60) + 1)),
            BlockId::Shard(ShardId { stripe: 1 << 40, index: 0 }),
        ] {
            prop_assert_eq!(scheme.dense_index(&foreign, n), None, "{} {}", &name, foreign);
        }
    }
}

/// RS partial final stripes, pinned explicitly: every `k`, `m` and extent
/// combination where the last stripe stores fewer than `k` data blocks.
#[test]
fn rs_partial_final_stripes_invert_exactly() {
    for (k, m) in [(4u32, 2u32), (10, 4), (5, 5)] {
        for rem in 1..k {
            let n = u64::from(3 * k + rem); // 3 full stripes + a partial one
            let scheme = Scheme::Rs { k, m }.build(0);
            let ids = scheme.block_ids(n);
            assert_eq!(scheme.universe_len(n), ids.len() as u64);
            for (pos, id) in ids.iter().enumerate() {
                assert_eq!(
                    scheme.block_at(pos as u32, n),
                    Some(*id),
                    "RS({k},{m}) n={n} at {pos}"
                );
                assert_eq!(scheme.dense_index(id, n), Some(pos as u32));
            }
            assert_eq!(scheme.block_at(ids.len() as u32, n), None);
        }
    }
}
