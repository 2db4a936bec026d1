//! Planner parity.
//!
//! The parallel round planner is pure performance work: it must never
//! change a single outcome. The byte-plane `repair_missing` worklist
//! planner produces summaries bit-identical to the reference sequential
//! planner.

use aecodes::api::RedundancyScheme;
use aecodes::baselines::{ReedSolomon, Replication};
use aecodes::blocks::{Block, BlockId};
use aecodes::core::{BlockMap, Code};
use aecodes::lattice::Config;
use aecodes::store::{ChainMode, EntangledChain, GeoLattice};
use proptest::prelude::*;

const BLOCK: usize = 32;

fn scheme_for(pick: u8) -> Box<dyn RedundancyScheme> {
    match pick % 10 {
        0 => Box::new(Code::new(Config::single(), BLOCK)),
        1 => Box::new(Code::new(Config::new(2, 2, 5).unwrap(), BLOCK)),
        2 => Box::new(Code::new(Config::new(3, 2, 5).unwrap(), BLOCK)),
        3 => Box::new(ReedSolomon::new(4, 2).unwrap()),
        4 => Box::new(ReedSolomon::new(10, 4).unwrap()),
        5 => Box::new(Replication::new(2)),
        6 => Box::new(Replication::new(3)),
        7 => Box::new(EntangledChain::new(ChainMode::Open, BLOCK)),
        8 => Box::new(EntangledChain::new(ChainMode::Closed, BLOCK)),
        _ => Box::new(GeoLattice::new(
            Code::new(Config::new(2, 2, 5).unwrap(), BLOCK),
            7,
        )),
    }
}

fn payload(n: u64, seed: u64) -> Vec<Block> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Block::from_vec((0..BLOCK).map(|k| (state >> (k % 56)) as u8).collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel worklist planner and the reference sequential planner
    /// produce identical repair summaries and identical stores on random
    /// multi-failure erasure patterns.
    #[test]
    fn parallel_and_serial_repair_missing_agree(
        pick in 0u8..10,
        seed: u64,
        down in proptest::collection::btree_set(0usize..800, 1..120),
    ) {
        let n = 200u64;
        let build = || {
            let scheme = scheme_for(pick);
            let store = BlockMap::new();
            scheme
                .encode_batch(&payload(n, seed), &store)
                .expect("uniform sizes");
            scheme.seal(&store).expect("flush");
            let universe = scheme.block_ids(n);
            let mut victims: Vec<BlockId> = down
                .iter()
                .map(|&k| universe[k % universe.len()])
                .collect();
            // Wrapped picks can collide; schemes count duplicate targets
            // differently, and erasing one twice is meaningless anyway.
            let mut seen = std::collections::HashSet::new();
            victims.retain(|&id| seen.insert(id));
            for v in &victims {
                store.remove(v);
            }
            (scheme, store, victims)
        };
        let (scheme_a, store_a, victims) = build();
        let (scheme_b, store_b, _) = build();
        let parallel = scheme_a.repair_missing(&store_a, &victims, n);
        let serial = scheme_b.repair_missing_serial(&store_b, &victims, n);
        prop_assert_eq!(
            &parallel,
            &serial,
            "{}: planners disagree",
            scheme_a.scheme_name()
        );
        prop_assert_eq!(store_a.len(), store_b.len());
        for (id, block) in store_a.entries() {
            prop_assert_eq!(
                store_b.get(&id),
                Some(block),
                "{}",
                scheme_a.scheme_name()
            );
        }
    }
}
