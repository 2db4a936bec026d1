//! Planner parity.
//!
//! The parallel round planner is pure performance work: it must never
//! change a single outcome. The byte-plane `repair_missing` worklist
//! planner produces summaries bit-identical to the reference sequential
//! planner. And the availability plane, which plans on flags alone (and
//! asks about a Reed-Solomon stripe once), repairs what the byte planner
//! repairs: same losses, rounds and traffic after the same disaster,
//! under i.i.d., whole-group and bit-rot failure models alike, and after
//! every wave of a rolling upgrade with repair between the waves.

use aecodes::api::{RedundancyScheme, RepairSummary};
use aecodes::baselines::{ReedSolomon, Replication};
use aecodes::blocks::{Block, BlockId};
use aecodes::core::{BlockMap, Code};
use aecodes::lattice::Config;
use aecodes::sim::{upgrade_wave, FullRepairOutcome, Scheme, SchemePlane, SimPlacement};
use aecodes::store::{ChainMode, EntangledChain, GeoLattice};
use proptest::prelude::*;

/// Block bytes: two 64-byte vectors, one more, then a byte of scalar
/// tail, so Reed-Solomon repairs run every step of the dispatched GF
/// body.
const BLOCK: usize = 193;

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

/// A failure model of the availability plane: marks blocks missing at a
/// fraction, under a seed.
type Disaster = fn(&mut SchemePlane, f64, u64);

/// `scheme` over `n` data blocks of `seed`'s payload, sealed, in a fresh
/// `BlockMap`.
fn encoded(scheme: &Scheme, n: u64, seed: u64) -> (Box<dyn RedundancyScheme>, BlockMap) {
    let coder = scheme.build(BLOCK);
    let store = BlockMap::new();
    coder
        .encode_batch(&payload(n, seed), &store)
        .expect("uniform sizes");
    coder.seal(&store).expect("flush");
    (coder, store)
}

/// The plane's `repair_full` and the bytes' `repair_missing` lost the
/// same data and redundancy, in the same rounds, reading as many blocks.
fn assert_same_repair(case: &str, flags: &FullRepairOutcome, bytes: &RepairSummary) {
    let data_unrecovered = bytes.unrecovered.iter().filter(|id| id.is_data()).count();
    assert_eq!(
        flags.data_lost, data_unrecovered as u64,
        "{case}: data lost"
    );
    assert_eq!(
        flags.parity_lost,
        (bytes.unrecovered.len() - data_unrecovered) as u64,
        "{case}: redundancy lost"
    );
    assert_eq!(flags.rounds, bytes.rounds, "{case}: rounds");
    assert_eq!(flags.traffic, bytes.blocks_read, "{case}: traffic");
}

/// Every roster scheme under four failure models over 600 data blocks
/// on 40 locations, three seeds each: i.i.d. location disasters of 10,
/// 30 and 50 %, whole-group knockouts of 10 and 30 % of 12 placement
/// groups, bit rot of 10 and 30 % of the blocks, and rolling upgrades
/// of 4 and 6 waves with repair between them. The blocks the plane
/// marks missing are removed from an encoded `BlockMap`, and
/// `repair_missing` must lose the same data and redundancy as the
/// plane's `repair_full`, in the same rounds, reading as many blocks;
/// under rolling upgrades after every wave, each wave removing only the
/// blocks it newly marked missing from the bytes the earlier repairs
/// left.
#[test]
fn the_plane_repairs_what_the_bytes_repair() {
    let n = 600;
    let models: [(&str, Disaster, &[f64]); 3] = [
        (
            "i.i.d.",
            |plane, f, seed| {
                plane.inject_disaster(f, seed);
            },
            &[0.1, 0.3, 0.5],
        ),
        (
            "groups",
            |plane, f, seed| {
                plane.inject_group_disaster(12, f, seed);
            },
            &[0.1, 0.3],
        ),
        (
            "bit rot",
            |plane, f, seed| {
                plane.inject_bit_rot(f, seed);
            },
            &[0.1, 0.3],
        ),
    ];
    for scheme in Scheme::extended_lineup() {
        for (model, inject, fractions) in models {
            let mut failed = 0;
            for &fraction in fractions {
                for seed in 1..=3 {
                    let case = format!("{scheme}, {model} at {fraction}, seed {seed}");
                    let mut plane =
                        SchemePlane::new(scheme.build(0), n, 40, SimPlacement::Random { seed });
                    inject(&mut plane, fraction, seed);
                    let (coder, store) = encoded(&scheme, n, seed);
                    let lost: Vec<BlockId> = coder
                        .block_ids(n)
                        .into_iter()
                        .filter(|&id| !plane.is_available(id))
                        .collect();
                    for id in &lost {
                        assert!(store.remove(id).is_some(), "{case}: {id} was stored");
                    }
                    failed += lost.len();
                    let bytes = coder.repair_missing(&store, &lost, n);
                    assert_same_repair(&case, &plane.repair_full(), &bytes);
                }
            }
            assert!(failed > 0, "{scheme}: {model} failed no block");
        }
        let mut failed = 0;
        for waves in [4, 6] {
            for seed in 1..=3 {
                let mut plane =
                    SchemePlane::new(scheme.build(0), n, 40, SimPlacement::Random { seed });
                let (coder, store) = encoded(&scheme, n, seed);
                let universe = coder.block_ids(n);
                for wave in 0..waves {
                    let case = format!("{scheme}, upgrade wave {wave} of {waves}, seed {seed}");
                    let before: Vec<bool> =
                        universe.iter().map(|&id| plane.is_available(id)).collect();
                    plane.fail_locations(&upgrade_wave(40, waves, wave));
                    let mut lost = Vec::new();
                    for (&id, was_available) in universe.iter().zip(before) {
                        if plane.is_available(id) {
                            continue;
                        }
                        if was_available {
                            assert!(store.remove(&id).is_some(), "{case}: {id} was stored");
                            failed += 1;
                        } else {
                            assert!(store.get(&id).is_none(), "{case}: {id} was lost before");
                        }
                        lost.push(id);
                    }
                    let bytes = coder.repair_missing(&store, &lost, n);
                    assert_same_repair(&case, &plane.repair_full(), &bytes);
                }
            }
        }
        assert!(failed > 0, "{scheme}: rolling upgrades failed no block");
    }
}
