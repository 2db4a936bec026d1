//! Round-based global repair of the lattice, on real bytes.
//!
//! After a disaster, many blocks are missing at once. "At each round, our AE
//! decoder computes 1 XOR between two available blocks for any data and
//! parity blocks that is repaired. When data blocks cannot be repaired at
//! the first round, the decoder will do it at the second round if other
//! required data or parity block becomes available" (§V.C.4). The round
//! loop is scheme-generic ([`ae_api::RedundancyScheme::repair_missing`]);
//! what the lattice adds — clustered failures that need several rounds,
//! minimal erasure patterns that never repair — is pinned here.

mod tests {
    use crate::code::{BlockMap, Code};
    use ae_api::RedundancyScheme;
    use ae_blocks::{Block, BlockId, EdgeId, NodeId, StrandClass};
    use ae_lattice::Config;

    fn build(cfg: Config, n: u64, len: usize) -> (Code, BlockMap) {
        let code = Code::new(cfg, len);
        let store = BlockMap::new();
        let mut enc = code.entangler();
        for k in 0..n {
            enc.entangle(Block::from_vec(vec![(k % 251) as u8; len]))
                .unwrap()
                .insert_into(&store);
        }
        (code, store)
    }

    /// Deleting scattered single blocks repairs in one round, one XOR each.
    #[test]
    fn scattered_singles_repair_in_one_round() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let (code, store) = build(cfg, 300, 16);
        let full = store.clone();
        let victims: Vec<BlockId> = vec![
            BlockId::Data(NodeId(50)),
            BlockId::Data(NodeId(120)),
            BlockId::Parity(EdgeId::new(StrandClass::RightHanded, NodeId(200))),
        ];
        for v in &victims {
            store.remove(v);
        }
        let report = code.repair_missing(&store, &victims, 300);
        assert!(report.fully_recovered());
        assert_eq!(report.round_count(), 1);
        assert_eq!(report.total_repaired(), 3);
        assert_eq!(report.single_failure_data_repairs(), 2);
        for v in &victims {
            assert_eq!(store.get(v), full.get(v), "{v:?}");
        }
    }

    /// A clustered failure needs multiple rounds: repairing the cluster's
    /// data blocks through surviving helical strands in round 1 unlocks the
    /// horizontal parities in round 2.
    #[test]
    fn clustered_failure_needs_multiple_rounds() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let (code, store) = build(cfg, 400, 8);
        let full = store.clone();
        // Erase a contiguous range of nodes together with their horizontal
        // parities: the H pp-tuples are gone, so data blocks must repair via
        // RH/LH first, and the H parities only become repairable afterwards.
        let mut victims = Vec::new();
        for i in 100..=140u64 {
            victims.push(BlockId::Data(NodeId(i)));
            victims.push(BlockId::Parity(EdgeId::new(
                StrandClass::Horizontal,
                NodeId(i),
            )));
        }
        for v in &victims {
            store.remove(v);
        }
        let report = code.repair_missing(&store, &victims, 400);
        assert!(
            report.fully_recovered(),
            "unrecovered: {:?}",
            report.unrecovered
        );
        assert!(report.round_count() > 1, "rounds: {:?}", report.rounds);
        for v in &victims {
            assert_eq!(store.get(v), full.get(v), "{v:?}");
        }
    }

    /// A minimal erasure pattern is genuinely irrecoverable; the round
    /// loop reports it rather than looping.
    #[test]
    fn dead_pattern_reported_unrecovered() {
        let cfg = Config::new(2, 1, 1).unwrap();
        let (code, store) = build(cfg, 100, 8);
        // Fig 7 A: two adjacent nodes plus both parallel edges between them.
        let victims = vec![
            BlockId::Data(NodeId(50)),
            BlockId::Data(NodeId(51)),
            BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(50))),
            BlockId::Parity(EdgeId::new(StrandClass::RightHanded, NodeId(50))),
        ];
        for v in &victims {
            store.remove(v);
        }
        let report = code.repair_missing(&store, &victims, 100);
        assert!(!report.fully_recovered());
        assert_eq!(report.unrecovered.len(), 4);
        assert_eq!(report.round_count(), 0);
    }

    /// Removing a dead pattern plus extra repairable blocks: the decoder
    /// recovers everything outside the dead core.
    #[test]
    fn partial_recovery_around_dead_core() {
        let cfg = Config::new(2, 1, 1).unwrap();
        let (code, store) = build(cfg, 100, 8);
        let mut victims = vec![
            BlockId::Data(NodeId(50)),
            BlockId::Data(NodeId(51)),
            BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(50))),
            BlockId::Parity(EdgeId::new(StrandClass::RightHanded, NodeId(50))),
        ];
        // Plus repairable extras.
        victims.push(BlockId::Data(NodeId(10)));
        victims.push(BlockId::Parity(EdgeId::new(
            StrandClass::Horizontal,
            NodeId(70),
        )));
        for v in &victims {
            store.remove(v);
        }
        let report = code.repair_missing(&store, &victims, 100);
        assert_eq!(report.unrecovered.len(), 4);
        assert_eq!(report.total_repaired(), 2);
    }

    #[test]
    fn already_present_targets_are_skipped() {
        let cfg = Config::single();
        let (code, store) = build(cfg, 20, 8);
        let report = code.repair_missing(&store, &[BlockId::Data(NodeId(5))], 20);
        assert_eq!(report.round_count(), 0);
        assert!(report.fully_recovered());
    }
}
