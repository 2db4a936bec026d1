//! Property-based tests of the lattice geometry.

use ae_lattice::{graph, me, rules, strand, Config, LatticeBlock};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Arbitrary valid configurations over the ranges the paper considers.
fn any_config() -> impl Strategy<Value = Config> {
    (1u8..=3, 1u16..=6, 0u16..=8).prop_filter_map("valid AE settings", |(a, s, p)| {
        if a == 1 {
            Config::new(1, 1, 0).ok()
        } else {
            let p = p.max(s);
            Config::new(a, s, p).ok()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Input and output rules are mutual inverses on every class, at any
    /// position.
    #[test]
    fn rules_invert(cfg in any_config(), i in 1i64..100_000) {
        // Keep away from the origin so inputs are real.
        let i = i + (cfg.s() as i64 * cfg.p().max(1) as i64) * 4;
        for &class in cfg.classes() {
            let j = rules::output_target(&cfg, class, i);
            prop_assert!(j > i);
            prop_assert_eq!(rules::input_source(&cfg, class, j), i);
            let h = rules::input_source(&cfg, class, i);
            prop_assert!(h < i);
            prop_assert_eq!(rules::output_target(&cfg, class, h), i);
        }
    }

    /// Row/column/category are mutually consistent.
    #[test]
    fn geometry_coordinates_consistent(cfg in any_config(), i in 1i64..1_000_000) {
        let s = cfg.s() as i64;
        let (row, col) = (rules::row(&cfg, i), rules::column(&cfg, i));
        prop_assert_eq!(col * s + row + 1, i);
        prop_assert!((0..s).contains(&row));
        match rules::category(&cfg, i) {
            ae_lattice::NodeCategory::Top => prop_assert_eq!(row, 0),
            ae_lattice::NodeCategory::Bottom => prop_assert_eq!(row, s - 1),
            ae_lattice::NodeCategory::Central => prop_assert!(row > 0 && row < s - 1),
            ae_lattice::NodeCategory::SingleRow => prop_assert_eq!(s, 1),
        }
    }

    /// Walking forward then backward along any strand returns home.
    #[test]
    fn strand_walks_invert(cfg in any_config(), start in 1i64..10_000, len in 1usize..30) {
        let start = start + (cfg.s() as i64 * cfg.p().max(1) as i64) * 40;
        for &class in cfg.classes() {
            let fwd = strand::walk_forward(&cfg, class, start, len);
            let back = strand::walk_backward(&cfg, class, *fwd.last().unwrap(), len);
            prop_assert_eq!(*back.last().unwrap(), start);
        }
    }

    /// Every node's repair tuples are α pp-tuples whose blocks are
    /// incident edges of the node.
    #[test]
    fn node_options_are_incident(cfg in any_config(), i in 1i64..50_000) {
        let i = i + (cfg.s() as i64 * cfg.p().max(1) as i64) * 4;
        let incident: BTreeSet<LatticeBlock> =
            graph::incident_edges(&cfg, i).into_iter().collect();
        let mut tuples = Vec::new();
        let _ = graph::tuples(&cfg, LatticeBlock::Node(i), i64::MAX, |t| {
            tuples.push(t);
            std::ops::ControlFlow::<()>::Continue(())
        });
        prop_assert_eq!(tuples.len(), cfg.alpha() as usize);
        for t in tuples {
            prop_assert_eq!(t.blocks().count(), 2);
            for r in t.blocks() {
                prop_assert!(incident.contains(&r), "{:?} not incident to d{}", r, i);
            }
        }
    }

    /// A single missing block is always repairable; so is any pair (every
    /// dead pattern needs at least |ME(2)| ≥ 3 blocks).
    #[test]
    fn singles_and_pairs_always_recover(
        cfg in any_config(),
        a in 0u8..4,
        b in 0u8..4,
        off in 0i64..50,
    ) {
        let base = (cfg.s() as i64 * cfg.p().max(1) as i64) * 50 + 1000;
        let to_block = |kind: u8, pos: i64| match kind % (1 + cfg.alpha()) {
            0 => LatticeBlock::Node(pos),
            k => LatticeBlock::Edge(cfg.classes()[(k - 1) as usize], pos),
        };
        let mut erased = BTreeSet::new();
        erased.insert(to_block(a, base));
        erased.insert(to_block(b, base + off));
        let rest = me::decode_fixpoint(&cfg, &erased);
        prop_assert!(rest.is_empty(), "{:?} stuck for {}", rest, cfg);
    }

    /// decode_fixpoint is monotone: erasing more blocks never recovers
    /// blocks that a smaller erasure could not.
    #[test]
    fn fixpoint_monotone(cfg in any_config(), picks in proptest::collection::vec((0u8..4, 0i64..40), 2..10)) {
        let base = (cfg.s() as i64 * cfg.p().max(1) as i64) * 50 + 1000;
        let blocks: Vec<LatticeBlock> = picks
            .iter()
            .map(|&(kind, off)| match kind % (1 + cfg.alpha()) {
                0 => LatticeBlock::Node(base + off),
                k => LatticeBlock::Edge(cfg.classes()[(k - 1) as usize], base + off),
            })
            .collect();
        let small: BTreeSet<LatticeBlock> = blocks[..blocks.len() / 2].iter().copied().collect();
        let large: BTreeSet<LatticeBlock> = blocks.iter().copied().collect();
        let small_rest = me::decode_fixpoint(&cfg, &small);
        let large_rest = me::decode_fixpoint(&cfg, &large);
        // Anything the small erasure could not recover is also stuck (or
        // erased) in the large erasure's remainder.
        for b in &small_rest {
            prop_assert!(large_rest.contains(b), "{:?} recovered only in the larger erasure", b);
        }
    }

    /// Dead sets stay dead under the byte-level definition used everywhere:
    /// patterns found by search never shrink under fixpoint decoding.
    #[test]
    fn search_patterns_are_fixpoints(
        cfg in prop_oneof![
            Just(Config::new(2, 1, 1).unwrap()),
            Just(Config::new(2, 2, 2).unwrap()),
            Just(Config::new(3, 1, 2).unwrap()),
        ],
    ) {
        let pat = me::MeSearch::new(cfg).min_erasure(2).expect("exists");
        prop_assert_eq!(me::decode_fixpoint(&cfg, &pat.blocks), pat.blocks);
    }
}
