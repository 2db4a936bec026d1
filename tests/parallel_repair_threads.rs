//! Drives the byte-plane repair planner through its *threaded* branch.
//!
//! The other parity suites use small target sets, which plan inline
//! (below `PARALLEL_PLAN_MIN`); this test forces a multi-thread planner
//! via `AE_REPAIR_THREADS` and a target set large enough to fan out, so
//! the scoped-thread chunk merge and blocker filing from threaded
//! results are exercised by `cargo test`, not just by benches.
//!
//! This lives in its own integration-test binary: the planner thread
//! count is memoized per process, so the env override must be set before
//! anything else calls into repair.

use aecodes::api::RedundancyScheme;
use aecodes::blocks::{Block, BlockId};
use aecodes::core::{BlockMap, Code};
use aecodes::lattice::Config;

#[test]
fn threaded_planner_matches_serial_on_a_large_disaster() {
    // Read before any repair call in this process memoizes the default.
    std::env::set_var("AE_REPAIR_THREADS", "4");
    assert_eq!(aecodes::api::repair_threads(), 4);

    let n = 400u64;
    let build = || {
        let code = Code::new(Config::new(2, 2, 5).unwrap(), 32);
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..n)
            .map(|i| Block::from_vec((0..32).map(|k| ((i * 37 + k * 11) % 251) as u8).collect()))
            .collect();
        code.encode_batch(&blocks, &store).expect("encode");
        // A clustered disaster well above PARALLEL_PLAN_MIN (256)
        // targets: a contiguous dead span plus deterministic scatter.
        let universe = code.block_ids(n);
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let victims: Vec<BlockId> = universe
            .iter()
            .copied()
            .enumerate()
            .filter(|&(k, _)| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (300..700).contains(&k) || (state >> 33) % 100 < 20
            })
            .map(|(_, id)| id)
            .collect();
        assert!(victims.len() > 256, "must cross the fan-out threshold");
        for v in &victims {
            store.remove(v);
        }
        (code, store, victims)
    };

    let (code_a, store_a, victims) = build();
    let (code_b, store_b, _) = build();
    let parallel = code_a.repair_missing(&store_a, &victims, n);
    let serial = code_b.repair_missing_serial(&store_b, &victims, n);
    assert_eq!(parallel, serial, "threaded planner diverged from serial");
    assert!(parallel.total_repaired() > 0);
    assert_eq!(store_a.len(), store_b.len());
    assert_eq!(store_a, store_b);
}
