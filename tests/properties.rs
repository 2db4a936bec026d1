//! Property-based tests on the core invariants.

use aecodes::baselines::ReedSolomon;
use aecodes::blocks::{Block, BlockId, EdgeId, NodeId, ShardId};
use aecodes::core::{BlockMap, Code, RedundancyScheme};
use aecodes::gf::Gf256;
use aecodes::lattice::{me, Config, LatticeBlock, MeSearch};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The paper's code settings used across the random tests.
fn any_config() -> impl Strategy<Value = Config> {
    prop_oneof![
        Just(Config::single()),
        Just(Config::new(2, 1, 2).unwrap()),
        Just(Config::new(2, 2, 5).unwrap()),
        Just(Config::new(3, 2, 5).unwrap()),
        Just(Config::new(3, 3, 3).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GF(2^8) field axioms on random triples.
    #[test]
    fn gf256_field_axioms(a: u8, b: u8, c: u8) {
        let (x, y, z) = (Gf256(a), Gf256(b), Gf256(c));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!((x * y) * z, x * (y * z));
        prop_assert_eq!(x * (y + z), x * y + x * z);
        prop_assert_eq!(x + x, Gf256::ZERO);
        if !y.is_zero() {
            prop_assert_eq!((x * y) / y, x);
            prop_assert_eq!(y * y.inv(), Gf256::ONE);
        }
    }

    /// XOR entanglement identity: every parity equals its data block XOR
    /// the previous parity on the strand, for random data.
    #[test]
    fn encoder_identity_holds(cfg in any_config(), seed: u64) {
        let n = 120u64;
        let code = Code::new(cfg, 32);
        let store = BlockMap::new();
        let mut enc = code.entangler();
        let mut state = seed;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bytes: Vec<u8> = (0..32).map(|k| (state >> (k % 8)) as u8).collect();
            enc.entangle(Block::from_vec(bytes)).unwrap().insert_into(&store);
        }
        for i in 1..=n {
            let d = store.get(&BlockId::Data(NodeId(i))).unwrap();
            for &class in cfg.classes() {
                let out = store.get(&BlockId::Parity(EdgeId::new(class, NodeId(i)))).unwrap();
                let h = aecodes::lattice::rules::input_source(&cfg, class, i as i64);
                let expected = if h >= 1 {
                    let input = store
                        .get(&BlockId::Parity(EdgeId::new(class, NodeId(h as u64))))
                        .unwrap();
                    d.xor(&input).unwrap()
                } else {
                    d.clone()
                };
                prop_assert_eq!(out, expected);
            }
        }
    }

    /// Any erasure strictly smaller than |ME(2)| is fully recoverable —
    /// the defining guarantee of the minimal-erasure analysis.
    #[test]
    fn erasures_below_me2_always_recover(
        cfg in prop_oneof![
            Just(Config::new(2, 1, 1).unwrap()),
            Just(Config::new(2, 2, 2).unwrap()),
            Just(Config::new(3, 1, 1).unwrap()),
            Just(Config::new(3, 2, 2).unwrap()),
        ],
        picks in proptest::collection::vec((0u8..4, 0i64..60), 1..8),
    ) {
        let me2 = match (cfg.alpha(), cfg.s()) {
            (2, 1) => 4usize, // Fig 7 A
            (2, 2) => 6,      // Fig 8 at p = s = 2
            (3, 1) => 5,      // Fig 7 B
            (3, 2) => 8,      // Fig 8 at p = s = 2
            _ => unreachable!("strategy covers exactly four configs"),
        };
        let base = 10_000i64;
        let mut erased = BTreeSet::new();
        for (kind, off) in picks {
            let b = match kind % (1 + cfg.alpha()) {
                0 => LatticeBlock::Node(base + off),
                k => LatticeBlock::Edge(cfg.classes()[(k - 1) as usize], base + off),
            };
            erased.insert(b);
            if erased.len() == me2 - 1 {
                break;
            }
        }
        let rest = me::decode_fixpoint(&cfg, &erased);
        prop_assert!(
            rest.is_empty(),
            "{} erasure of {} blocks stuck: {:?}",
            cfg, erased.len(), rest
        );
    }

    /// Reed-Solomon tolerates any erasure pattern of at most m members of
    /// a stripe — the final one virtual-padded when `extra < k` — and
    /// rebuilds each byte-identically, alone and all at once.
    #[test]
    fn rs_tolerates_any_m_erasures(
        k in 2usize..9,
        m in 1usize..5,
        extra in 1usize..9,
        seed: u64,
        erase_seed: u64,
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let store = BlockMap::new();
        let n = k + extra.min(k);
        let mut state = seed;
        let data: Vec<Block> = (0..n).map(|_| {
            Block::from_vec((0..40).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            }).collect())
        }).collect();
        rs.encode_batch(&data, &store).unwrap();
        rs.seal(&store).unwrap();
        // The stored members of the second stripe: its data blocks, then
        // its m shards.
        let members: Vec<BlockId> = (k + 1..=n)
            .map(|i| BlockId::Data(NodeId(i as u64)))
            .chain((0..m as u16).map(|index| BlockId::Shard(ShardId { stripe: 1, index })))
            .collect();
        // Erase exactly m pseudo-random members.
        let mut state = erase_seed;
        let mut erased = Vec::new();
        while erased.len() < m {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let id = members[(state >> 33) as usize % members.len()];
            if !erased.contains(&id) {
                erased.push(id);
            }
        }
        let originals: Vec<Block> = erased.iter().map(|id| store.remove(id).unwrap()).collect();
        for (id, original) in erased.iter().zip(&originals) {
            prop_assert_eq!(&rs.repair_block(&store, *id, n as u64).unwrap(), original);
        }
        prop_assert!(rs.repair_missing(&store, &erased, n as u64).fully_recovered());
        for (id, original) in erased.iter().zip(&originals) {
            prop_assert_eq!(&store.get(id).unwrap(), original);
        }
    }

    /// Byte-plane repair and lattice-plane fixpoint agree on what is
    /// recoverable, for random interior erasures.
    #[test]
    fn byte_plane_matches_lattice_plane(
        cfg in prop_oneof![
            Just(Config::new(2, 1, 1).unwrap()),
            Just(Config::new(2, 2, 3).unwrap()),
            Just(Config::new(3, 2, 5).unwrap()),
        ],
        picks in proptest::collection::vec((0u8..4, 0i64..40), 1..14),
    ) {
        let n = 400u64;
        let base = 150i64; // interior: far from both head and tail
        let code = Code::new(cfg, 16);
        let store = BlockMap::new();
        let mut enc = code.entangler();
        for k in 0..n {
            enc.entangle(Block::from_vec(vec![(k % 255) as u8; 16])).unwrap()
                .insert_into(&store);
        }
        // Build the erasure on both planes.
        let mut lattice_erased = BTreeSet::new();
        let mut ids = Vec::new();
        for (kind, off) in picks {
            let pos = base + off;
            let (lb, id) = match kind % (1 + cfg.alpha()) {
                0 => (LatticeBlock::Node(pos), BlockId::Data(NodeId(pos as u64))),
                k => {
                    let class = cfg.classes()[(k - 1) as usize];
                    (
                        LatticeBlock::Edge(class, pos),
                        BlockId::Parity(EdgeId::new(class, NodeId(pos as u64))),
                    )
                }
            };
            if lattice_erased.insert(lb) {
                ids.push(id);
                store.remove(&id);
            }
        }
        let report = code.repair_missing(&store, &ids, n);
        let lattice_rest = me::decode_fixpoint(&cfg, &lattice_erased);
        let byte_rest: BTreeSet<LatticeBlock> = report
            .unrecovered
            .iter()
            .map(|&id| aecodes::core::to_lattice(id))
            .collect();
        prop_assert_eq!(byte_rest, lattice_rest);
    }
}

/// The ME search finds patterns that the decoder indeed cannot repair and
/// that are irreducible (non-random sanity anchor for the suite above).
#[test]
fn me_patterns_are_sharp() {
    for cfg in [
        Config::new(2, 1, 1).unwrap(),
        Config::new(2, 2, 2).unwrap(),
        Config::new(3, 1, 2).unwrap(),
    ] {
        let pat = MeSearch::new(cfg).min_erasure(2).expect("pattern exists");
        assert!(me::is_dead(&cfg, &pat.blocks), "{cfg}");
        assert!(me::is_irreducible(&cfg, &pat.blocks), "{cfg}");
        // One block fewer is always recoverable.
        for b in &pat.blocks {
            let mut smaller = pat.blocks.clone();
            smaller.remove(b);
            assert!(
                me::decode_fixpoint(&cfg, &smaller).len() < smaller.len(),
                "{cfg}: removing {b:?} must unlock something"
            );
        }
    }
}
