//! Dynamic fault tolerance and puncturing (§I, §III):
//!
//! 1. Start cheap with AE(2,1,2), later raise to AE(3,1,2) *without
//!    re-encoding* — only the new strand class's parities are computed and
//!    stored; every existing block stays byte-identical.
//! 2. Puncture a fraction of parities to reclaim storage, and show single
//!    failures still repair.
//!
//! ```sh
//! cargo run --example dynamic_upgrade
//! ```

use aecodes::blocks::{Block, BlockId, NodeId, StrandClass};
use aecodes::core::puncture::PuncturePlan;
use aecodes::core::{upgrade, BlockMap, Code, Entangler, RedundancyScheme};
use aecodes::lattice::Config;

fn main() {
    let old_cfg = Config::new(2, 1, 2).expect("valid");
    let new_cfg = Config::new(3, 1, 2).expect("valid");
    let block_size = 128;

    // Year one: double entanglement, 200% overhead.
    let data: Vec<Block> = (0..200u8)
        .map(|k| Block::from_vec(vec![k.wrapping_mul(13); block_size]))
        .collect();
    let store = BlockMap::new();
    let mut enc = Entangler::new(old_cfg, block_size);
    for d in &data {
        enc.entangle(d.clone()).unwrap().insert_into(&store);
    }
    println!(
        "year 1: {old_cfg} holds {} blocks ({}% overhead)",
        store.len(),
        old_cfg.storage_overhead_pct()
    );

    // Year five: reliability requirements grew. Add the left-handed class.
    let added = upgrade::upgrade_parities(&old_cfg, &new_cfg, block_size, data.clone())
        .expect("valid upgrade path");
    let added_count = added.len();
    for (e, p) in added {
        store.insert(BlockId::Parity(e), p);
    }
    println!(
        "year 5: upgraded to {new_cfg} by adding {added_count} LH parities; \
         no existing block was touched"
    );

    // The upgraded lattice survives losing a block plus BOTH its old-class
    // parities — fatal under AE(2), routine under AE(3).
    let code = Code::new(new_cfg, block_size);
    let victim = BlockId::Data(NodeId(100));
    let original = store.remove(&victim).unwrap();
    use aecodes::blocks::EdgeId;
    store.remove(&BlockId::Parity(EdgeId::new(
        StrandClass::Horizontal,
        NodeId(100),
    )));
    store.remove(&BlockId::Parity(EdgeId::new(
        StrandClass::RightHanded,
        NodeId(100),
    )));
    let repaired = code
        .repair_block(&store, victim, 200)
        .expect("the new LH strand saves it");
    assert_eq!(repaired, original);
    println!("survived d100 + H parity + RH parity loss via the new LH strand");

    // Puncturing: drop half the LH parities again to reclaim space.
    let plan = PuncturePlan::every_in_class(StrandClass::LeftHanded, 2);
    let before = store.len();
    store.retain(|id, _| match id {
        BlockId::Parity(e) => plan.is_stored(*e),
        _ => true,
    });
    println!(
        "\npunctured {} parities; effective overhead {:.0}% (plain AE(3) is 300%)",
        before - store.len(),
        plan.effective_overhead_pct(&new_cfg)
    );

    // Single failures still repair: surviving strands carry the load.
    let victim = BlockId::Data(NodeId(150));
    let original = store.remove(&victim).unwrap();
    let repaired = code
        .repair_block(&store, victim, 200)
        .expect("still repairable");
    assert_eq!(repaired, original);
    println!("single-failure repair still works on the punctured lattice");
}
