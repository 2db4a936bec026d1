//! Single-block repairs.
//!
//! "The decoder repairs a node using two adjacent edges that belong to the
//! same strand, thus, there are α options. \[It\] repairs an edge using any of
//! the two incident nodes on the damaged edge and its corresponding adjacent
//! edge, hence, there are always two options" (§III.B). Each repair is one
//! XOR of two blocks — the fixed "k = 2" single-failure cost of Table IV.
//!
//! The tuples are [`ae_lattice::graph::tuples`], the one definition; this
//! module walks them in byte-plane ids ([`tuples`]) and evaluates a walk:
//! read and XOR ([`repair`]) or ask an availability oracle ([`complete`]).
//! `ae_core::Code` and the closed chain of `ae-store` (whose walk adds its
//! ring tuples after these) both evaluate here. Lookups are closures, so
//! the in-memory [`ae_api::BlockMap`] and every backend serve alike. On
//! failure a repair returns [`RepairError::NoCompleteTuple`] naming
//! exactly the unavailable blocks that blocked every tuple — so operators
//! see *which* members to chase, not a bare `None`.

use ae_api::RepairError;
use ae_blocks::{Block, BlockId};
use ae_lattice::{graph, Config, LatticeBlock};
use std::ops::ControlFlow;

/// A repair tuple in byte-plane ids: the target is the XOR of the two
/// members; `None` is the virtual all-zero parity at a strand head.
pub type Pair = [Option<BlockId>; 2];

/// Calls `visit` with the repair tuples of `id` in a lattice of `written`
/// data blocks, in [`graph::tuples`] order, until it breaks.
///
/// # Errors
///
/// Before visiting anything: [`RepairError::ForeignBlock`] for ids that are
/// no block of this lattice (other schemes' ids, position 0, a strand class
/// absent at this α); [`RepairError::OutOfExtent`] for a position past
/// `written`.
pub fn tuples<B>(
    cfg: &Config,
    id: BlockId,
    written: u64,
    mut visit: impl FnMut(Pair) -> ControlFlow<B>,
) -> Result<ControlFlow<B>, RepairError> {
    let (position, block) = match id {
        BlockId::Data(node) => (node.0, LatticeBlock::Node(node.0 as i64)),
        BlockId::Parity(e) if e.class.index() < usize::from(cfg.alpha()) => {
            (e.left.0, LatticeBlock::Edge(e.class, e.left.0 as i64))
        }
        _ => return Err(RepairError::ForeignBlock { id }),
    };
    if position == 0 {
        return Err(RepairError::ForeignBlock { id });
    }
    if position > written {
        return Err(RepairError::OutOfExtent { id, written });
    }
    let max_node = i64::try_from(written).unwrap_or(i64::MAX);
    let stored = |b: LatticeBlock| BlockId::try_from(b).expect("tuple members are real positions");
    Ok(graph::tuples(cfg, block, max_node, |t| {
        visit(t.members.map(|m| m.map(stored)))
    }))
}

/// The visitor of an availability check: `Break` when every real member of
/// `pair` is available. Members are asked in order, stopping at the first
/// that is not, so the ids a walk asks are a repair's read set.
pub fn complete(pair: Pair, avail: &dyn Fn(BlockId) -> bool) -> ControlFlow<()> {
    match pair.iter().all(|m| m.is_none_or(avail)) {
        true => ControlFlow::Break(()),
        false => ControlFlow::Continue(()),
    }
}

/// Rebuilds `target` from the first complete tuple of the walk `each`
/// (such as [`tuples`]), reading both members of each tuple in order — a
/// virtual member is `zero`. A member of any size but `zero`'s is no block
/// of this lattice (a torn write) and as unavailable as a lost one.
///
/// # Errors
///
/// The walk's own; else [`RepairError::NoCompleteTuple`] listing every
/// unavailable member, deduplicated, in tuple order.
pub fn repair(
    target: BlockId,
    zero: &Block,
    lookup: &mut impl FnMut(BlockId) -> Option<Block>,
    each: impl FnOnce(
        &mut dyn FnMut(Pair) -> ControlFlow<Block>,
    ) -> Result<ControlFlow<Block>, RepairError>,
) -> Result<Block, RepairError> {
    let mut missing = Vec::new();
    let walk = each(&mut |pair| {
        let got = pair.map(|m| match m {
            None => Some(zero.clone()),
            Some(id) => lookup(id).filter(|b| b.len() == zero.len()),
        });
        if let [Some(a), Some(b)] = &got {
            if let Ok(block) = a.xor(b) {
                return ControlFlow::Break(block);
            }
        }
        for (member, got) in pair.into_iter().zip(got) {
            match member {
                Some(id) if got.is_none() && !missing.contains(&id) => missing.push(id),
                _ => {}
            }
        }
        ControlFlow::Continue(())
    })?;
    match walk {
        ControlFlow::Break(block) => Ok(block),
        ControlFlow::Continue(()) => Err(RepairError::NoCompleteTuple { target, missing }),
    }
}

/// Repairs any block of the lattice by id: its [`tuples`], read by
/// [`repair`].
///
/// # Errors
///
/// As [`tuples`] and [`repair`].
pub fn repair_block(
    cfg: &Config,
    id: BlockId,
    written: u64,
    zero: &Block,
    lookup: &mut impl FnMut(BlockId) -> Option<Block>,
) -> Result<Block, RepairError> {
    repair(id, zero, lookup, |visit| tuples(cfg, id, written, visit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Entangler;
    use ae_blocks::{EdgeId, NodeId, StrandClass};
    use std::collections::HashMap;

    fn build(cfg: Config, n: u64, len: usize) -> HashMap<BlockId, Block> {
        let mut enc = Entangler::new(cfg, len);
        let store = ae_api::BlockMap::new();
        for k in 0..n {
            enc.entangle(Block::from_vec(vec![k as u8; len]))
                .unwrap()
                .insert_into(&store);
        }
        store.entries().into_iter().collect()
    }

    fn parity(class: StrandClass, i: u64) -> BlockId {
        BlockId::Parity(EdgeId::new(class, NodeId(i)))
    }

    /// Repairs `id` from `store`, returning the result and the ids read.
    fn repair_logged(
        cfg: &Config,
        store: &HashMap<BlockId, Block>,
        id: BlockId,
        written: u64,
        zero: &Block,
    ) -> (Result<Block, RepairError>, Vec<BlockId>) {
        let mut read = Vec::new();
        let mut lookup = |q: BlockId| {
            read.push(q);
            store.get(&q).cloned()
        };
        (repair_block(cfg, id, written, zero, &mut lookup), read)
    }

    #[test]
    fn node_repair_uses_each_strand() {
        use StrandClass::*;
        let cfg = Config::new(3, 2, 5).unwrap();
        let mut store = build(cfg, 200, 16);
        let zero = Block::zero(16);
        let d100 = BlockId::Data(NodeId(100));
        let original = store.remove(&d100).unwrap();
        // d100 is a bottom node: inputs p98 (H), p97 (RH), p91 (LH).
        let tuple = |class| {
            let input = match class {
                Horizontal => 98,
                RightHanded => 97,
                LeftHanded => 91,
            };
            vec![parity(class, input), parity(class, 100)]
        };

        // Full store: repairs via the first class (horizontal).
        let (r, read) = repair_logged(&cfg, &store, d100, 200, &zero);
        assert_eq!(r.unwrap(), original);
        assert_eq!(read, tuple(Horizontal));

        // Knock out the horizontal tuple: falls over to RH, then LH.
        for (lost, next) in [(Horizontal, RightHanded), (RightHanded, LeftHanded)] {
            store.remove(&parity(lost, 100));
            let (r, read) = repair_logged(&cfg, &store, d100, 200, &zero);
            assert_eq!(r.unwrap(), original);
            assert_eq!(read[read.len() - 2..], tuple(next)[..]);
        }

        // All three output parities gone: no pp-tuple is complete, and the
        // error lists exactly the three missing outputs, in class order.
        store.remove(&parity(LeftHanded, 100));
        let (r, _) = repair_logged(&cfg, &store, d100, 200, &zero);
        assert_eq!(
            r.unwrap_err(),
            RepairError::NoCompleteTuple {
                target: d100,
                missing: [Horizontal, RightHanded, LeftHanded]
                    .map(|c| parity(c, 100))
                    .to_vec(),
            }
        );
    }

    #[test]
    fn edge_repair_left_and_right() {
        let cfg = Config::new(3, 5, 5).unwrap();
        let mut store = build(cfg, 40, 8);
        let zero = Block::zero(8);
        // Paper's example: repair p21,26 = XOR(d21, p16,21).
        let target = parity(StrandClass::Horizontal, 21);
        let original = store.remove(&target).unwrap();
        let (r, read) = repair_logged(&cfg, &store, target, 40, &zero);
        assert_eq!(r.unwrap(), original);
        assert_eq!(
            read,
            [
                BlockId::Data(NodeId(21)),
                parity(StrandClass::Horizontal, 16)
            ]
        );

        // Remove d21 as well: must fall back to the right tuple
        // p21,26 = XOR(d26, p26,31).
        store.remove(&BlockId::Data(NodeId(21)));
        let (r, read) = repair_logged(&cfg, &store, target, 40, &zero);
        assert_eq!(r.unwrap(), original);
        assert_eq!(
            read[2..],
            [
                BlockId::Data(NodeId(26)),
                parity(StrandClass::Horizontal, 26)
            ]
        );
    }

    #[test]
    fn edge_at_tail_has_no_right_tuple() {
        let cfg = Config::single();
        let mut partial = build(cfg, 10, 8);
        let zero = Block::zero(8);
        // Remove the last edge and its left node: with only 10 nodes
        // written, d11 does not exist, so p10,11 is unrepairable — and the
        // error names only the left tuple's missing member.
        let target = parity(StrandClass::Horizontal, 10);
        partial.remove(&target);
        partial.remove(&BlockId::Data(NodeId(10)));
        let (r, read) = repair_logged(&cfg, &partial, target, 10, &zero);
        assert_eq!(
            r.unwrap_err(),
            RepairError::NoCompleteTuple {
                target,
                missing: vec![BlockId::Data(NodeId(10))],
            }
        );
        assert_eq!(read.len(), 2, "{read:?}");
    }

    #[test]
    fn strand_head_repairs_use_virtual_zero() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let mut store = build(cfg, 50, 8);
        let zero = Block::zero(8);
        // Node 1's pp-tuples are (virtual, output): losing d1 still
        // repairs, reading the output alone.
        let d1 = BlockId::Data(NodeId(1));
        let original = store.remove(&d1).unwrap();
        let (r, read) = repair_logged(&cfg, &store, d1, 50, &zero);
        assert_eq!(r.unwrap(), original);
        assert_eq!(read, [parity(StrandClass::Horizontal, 1)]);
    }

    #[test]
    fn repair_block_dispatches() {
        let cfg = Config::new(2, 2, 2).unwrap();
        let mut store = build(cfg, 30, 8);
        let zero = Block::zero(8);
        let d = BlockId::Data(NodeId(15));
        let e = parity(StrandClass::RightHanded, 15);
        let od = store.remove(&d).unwrap();
        let oe = store.remove(&e).unwrap();
        assert_eq!(repair_logged(&cfg, &store, d, 30, &zero).0.unwrap(), od);
        assert_eq!(repair_logged(&cfg, &store, e, 30, &zero).0.unwrap(), oe);
    }

    /// A member of another size than the lattice's — a torn write — is as
    /// absent as a lost one: the walk moves on to the next tuple, and with
    /// every tuple torn the error names the torn members, never a panic.
    #[test]
    fn torn_members_count_as_unavailable() {
        let cfg = Config::new(2, 2, 2).unwrap();
        let store = ae_api::BlockMap::new();
        let mut enc = Entangler::new(cfg, 8);
        for k in 0..30u8 {
            enc.entangle(Block::from_vec(vec![k; 8]))
                .unwrap()
                .insert_into(&store);
        }
        let zero = Block::zero(8);
        let d = BlockId::Data(NodeId(15));
        let original = store.remove(&d).unwrap();
        let mut firsts = Vec::new();
        let walk = tuples(&cfg, d, 30, |[first, _]| {
            firsts.push(first.expect("an interior node has no virtual member"));
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(walk, Ok(ControlFlow::Continue(())));
        assert_eq!(firsts.len(), 2, "one tuple per strand");
        let mut lookup = |q: BlockId| store.get(&q);
        for (torn, first) in firsts.iter().enumerate() {
            let whole = store.get(first).unwrap();
            store.insert(*first, Block::from_vec(whole.as_slice()[..4].to_vec()));
            let repaired = repair_block(&cfg, d, 30, &zero, &mut lookup);
            if torn + 1 < firsts.len() {
                assert_eq!(repaired.unwrap(), original);
            } else {
                assert_eq!(
                    repaired.unwrap_err(),
                    RepairError::NoCompleteTuple {
                        target: d,
                        missing: firsts.clone(),
                    }
                );
            }
        }
    }

    #[test]
    fn foreign_ids_rejected() {
        let cfg = Config::single();
        let store = build(cfg, 5, 8);
        let zero = Block::zero(8);
        let foreign = BlockId::Shard(ae_blocks::ShardId {
            stripe: 0,
            index: 0,
        });
        for id in [
            foreign,
            BlockId::Data(NodeId(0)),
            parity(StrandClass::RightHanded, 2),
        ] {
            let (r, read) = repair_logged(&cfg, &store, id, 5, &zero);
            assert_eq!(r, Err(RepairError::ForeignBlock { id }));
            assert!(read.is_empty());
        }
        for id in [BlockId::Data(NodeId(6)), parity(StrandClass::Horizontal, 6)] {
            let (r, read) = repair_logged(&cfg, &store, id, 5, &zero);
            assert_eq!(r, Err(RepairError::OutOfExtent { id, written: 5 }));
            assert!(read.is_empty());
        }
    }
}
