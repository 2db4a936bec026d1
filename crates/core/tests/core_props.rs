//! Property-based tests of the byte-plane encoder, decoder and repair
//! engine.

use ae_blocks::{Block, BlockId, EdgeId, NodeId};
use ae_core::{upgrade, BlockMap, Code, Entangler, RedundancyScheme, WriteScheduler};
use ae_lattice::Config;
use proptest::prelude::*;

fn any_config() -> impl Strategy<Value = Config> {
    prop_oneof![
        Just(Config::single()),
        Just(Config::new(2, 1, 3).unwrap()),
        Just(Config::new(2, 2, 2).unwrap()),
        Just(Config::new(3, 2, 5).unwrap()),
        Just(Config::new(3, 4, 4).unwrap()),
    ]
}

fn build(cfg: Config, n: u64, seed: u64) -> (Code, BlockMap) {
    let code = Code::new(cfg, 24);
    let store = BlockMap::new();
    let mut enc = code.entangler();
    let mut state = seed | 1;
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let bytes: Vec<u8> = (0..24).map(|k| (state >> (k & 31)) as u8).collect();
        enc.entangle(Block::from_vec(bytes))
            .unwrap()
            .insert_into(&store);
    }
    (code, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deleting any single block and repairing restores identical bytes.
    #[test]
    fn single_block_repairs_byte_identical(
        cfg in any_config(),
        seed: u64,
        pos in 1u64..200,
        kind in 0u8..4,
    ) {
        let n = 260;
        let (code, store) = build(cfg, n, seed);
        let id = match kind % (1 + cfg.alpha()) {
            0 => BlockId::Data(NodeId(pos)),
            k => BlockId::Parity(EdgeId::new(cfg.classes()[(k - 1) as usize], NodeId(pos))),
        };
        let original = store.remove(&id).expect("block exists");
        let repaired = code.repair_block(&store, id, n).expect("single failure");
        prop_assert_eq!(repaired, original);
    }

    /// Random scattered erasures below the ME(2) bound recover fully and
    /// byte-identically through the round engine.
    #[test]
    fn scattered_erasures_recover(
        cfg in any_config(),
        seed: u64,
        positions in proptest::collection::btree_set(50u64..250, 1..6),
    ) {
        let n = 300;
        let (code, store) = build(cfg, n, seed);
        let full = store.clone();
        // Erase one data block per chosen position — far enough apart that
        // no dead pattern can form (dead patterns need co-located erasures
        // of data AND parities).
        let victims: Vec<BlockId> = positions
            .iter()
            .map(|&p| BlockId::Data(NodeId(p)))
            .collect();
        for v in &victims {
            store.remove(v);
        }
        let report = code.repair_missing(&store, &victims, n);
        prop_assert!(report.fully_recovered());
        for v in &victims {
            prop_assert_eq!(store.get(v), full.get(v));
        }
    }

    /// A broker restored from stored parities continues the stream exactly
    /// like the original, from any crash point.
    #[test]
    fn restore_at_any_point_is_seamless(cfg in any_config(), seed: u64, crash in 30u64..150) {
        let code = Code::new(cfg, 24);
        let store = BlockMap::new();
        let mut enc = code.entangler();
        let mut state = seed | 1;
        let mut next_block = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            Block::from_vec((0..24).map(|k| (state >> (k & 31)) as u8).collect())
        };
        for _ in 0..crash {
            enc.entangle(next_block()).unwrap().insert_into(&store);
        }
        let mut restored = Entangler::restore(cfg, 24, crash, |e| {
            store.get(&BlockId::Parity(e))
        })
        .expect("all frontier parities stored");
        // Both encoders continue with the same inputs.
        for _ in 0..40 {
            let b = next_block();
            let a = enc.entangle(b.clone()).unwrap();
            let r = restored.entangle(b).unwrap();
            prop_assert_eq!(a.node, r.node);
            prop_assert_eq!(a.parities, r.parities);
        }
    }

    /// Upgrading α produces exactly the parities a from-scratch encoder at
    /// the higher α would have produced for the added classes.
    #[test]
    fn upgrade_matches_from_scratch(seed: u64) {
        let from = Config::new(2, 2, 4).unwrap();
        let to = Config::new(3, 2, 4).unwrap();
        let mut state = seed | 1;
        let blocks: Vec<Block> = (0..100)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                Block::from_vec((0..24).map(|k| (state >> (k & 31)) as u8).collect())
            })
            .collect();
        let truth = BlockMap::new();
        let mut enc = Entangler::new(to, 24);
        for b in &blocks {
            enc.entangle(b.clone()).unwrap().insert_into(&truth);
        }
        let added = upgrade::upgrade_parities(&from, &to, 24, blocks).unwrap();
        prop_assert_eq!(added.len(), 100);
        for (e, p) in added {
            prop_assert_eq!(truth.get(&BlockId::Parity(e)), Some(p));
        }
    }

    /// Writer-model invariants: totals add up, s = p never defers, and the
    /// required horizon matches the wrap distance.
    #[test]
    fn writer_model_invariants(s in 2u16..8, extra in 0u16..6, horizon in 1u64..4) {
        let p = s + extra;
        let cfg = Config::new(3, s, p).unwrap();
        let r = WriteScheduler::new(cfg, horizon).simulate(2 * p as u64, 30);
        prop_assert_eq!(r.full_writes + r.deferred, r.total);
        prop_assert_eq!(r.total, 30 * s as u64);
        if s == p {
            prop_assert_eq!(r.required_horizon, 1);
            prop_assert_eq!(r.deferred, 0);
        } else {
            prop_assert_eq!(r.required_horizon, (p - s + 1) as u64);
            if horizon >= r.required_horizon {
                prop_assert_eq!(r.deferred, 0);
            } else {
                prop_assert!(r.deferred > 0);
            }
        }
    }
}
