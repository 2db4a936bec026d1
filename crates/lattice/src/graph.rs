//! Graph navigation over the helical lattice.
//!
//! Builds on [`crate::rules`] to answer the questions the encoder, decoder
//! and analyses ask: what are the endpoints of an edge, which edges are
//! incident to a node, and — centrally — what are the **repair tuples** of
//! a block (§III.B):
//!
//! * a node (data block) `d_i` is repaired from a complete *pp-tuple*: both
//!   incident parities on any one of its α strands (§IV.A "Failure Mode");
//! * an edge (parity block) `p_{i,j}` is repaired from a complete
//!   *dp-tuple*: one incident node plus that node's other parity on the same
//!   strand — two options, one per endpoint.
//!
//! [`tuples`] is the one owner of that definition. The byte-plane decoder
//! (`ae_core::decoder`), the availability hooks and maintenance targets of
//! `ae_core::Code`, the closed chain's ring (which adds tuples of its own
//! after these) and the minimal-erasure search in [`crate::me`] all read
//! it, in its order. Virtual blocks (positions ≤ 0) are all-zero and always
//! available: a tuple marks them as `None` members.

use crate::config::Config;
use crate::rules;
use ae_blocks::StrandClass;
use std::fmt;
use std::ops::ControlFlow;

/// A block of the lattice identified by position: a node `d_i` or the edge
/// `p_{i,j}` of strand `class` whose left endpoint is `i`.
///
/// This is the `i64` analysis-plane counterpart of
/// [`ae_blocks::BlockId`]; positions ≤ 0 are virtual and never appear in a
/// `LatticeBlock` (they are omitted instead).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LatticeBlock {
    /// Data block `d_i`.
    Node(i64),
    /// Parity block: output edge of node `i` on `class`.
    Edge(StrandClass, i64),
}

impl LatticeBlock {
    /// Whether this is a data block.
    pub fn is_node(self) -> bool {
        matches!(self, LatticeBlock::Node(_))
    }

    /// The block's anchor position (`i` for both nodes and edges).
    pub fn position(self) -> i64 {
        match self {
            LatticeBlock::Node(i) | LatticeBlock::Edge(_, i) => i,
        }
    }
}

impl fmt::Debug for LatticeBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeBlock::Node(i) => write!(f, "d{i}"),
            LatticeBlock::Edge(c, i) => write!(f, "p[{c}]{i}"),
        }
    }
}

/// Error converting a [`LatticeBlock`] into a stored [`ae_blocks::BlockId`]:
/// the position is virtual (`i < 1`) and has no stored counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualPosition {
    /// The offending analysis-plane block.
    pub block: LatticeBlock,
}

impl fmt::Display for VirtualPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "virtual lattice block {} has no stored block id",
            self.block
        )
    }
}

impl std::error::Error for VirtualPosition {}

/// Byte-plane id for an analysis-plane block. Fails on virtual positions
/// (`i < 1`), which are the implicit all-zero blocks before the lattice
/// and are never stored.
impl TryFrom<LatticeBlock> for ae_blocks::BlockId {
    type Error = VirtualPosition;

    fn try_from(b: LatticeBlock) -> Result<Self, VirtualPosition> {
        use ae_blocks::{BlockId, EdgeId, NodeId};
        if b.position() < 1 {
            return Err(VirtualPosition { block: b });
        }
        Ok(match b {
            LatticeBlock::Node(i) => BlockId::Data(NodeId(i as u64)),
            LatticeBlock::Edge(class, i) => BlockId::Parity(EdgeId::new(class, NodeId(i as u64))),
        })
    }
}

/// Analysis-plane view of a stored block id. Fails on redundancy ids that
/// are not lattice blocks (Reed-Solomon shards, replicas).
impl TryFrom<ae_blocks::BlockId> for LatticeBlock {
    type Error = ae_blocks::BlockId;

    fn try_from(id: ae_blocks::BlockId) -> Result<Self, ae_blocks::BlockId> {
        use ae_blocks::BlockId;
        match id {
            BlockId::Data(n) => Ok(LatticeBlock::Node(n.0 as i64)),
            BlockId::Parity(e) => Ok(LatticeBlock::Edge(e.class, e.left.0 as i64)),
            other => Err(other),
        }
    }
}

impl fmt::Display for LatticeBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// Endpoints of an edge: the parity `p_{left,right}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoints {
    /// Left endpoint `i` (the node whose entanglement created the parity).
    pub left: i64,
    /// Right endpoint `j` (the node the parity is tangled with next).
    pub right: i64,
}

/// One repair tuple: the target is the XOR of its two members, which lie
/// on one strand. A `None` member is the virtual all-zero parity at a strand
/// head — always available, never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// The strand class the tuple lives on.
    pub class: StrandClass,
    /// The two members, in the order a decoder reads them.
    pub members: [Option<LatticeBlock>; 2],
}

impl Tuple {
    /// The members that are real blocks (virtual zeros skipped), in order.
    pub fn blocks(self) -> impl Iterator<Item = LatticeBlock> {
        self.members.into_iter().flatten()
    }
}

/// Endpoints of edge `(class, left)`.
pub fn endpoints(cfg: &Config, class: StrandClass, left: i64) -> Endpoints {
    Endpoints {
        left,
        right: rules::output_target(cfg, class, left),
    }
}

/// The input edge of node `i` on `class`, or `None` when the input is the
/// virtual zero parity at a strand head.
pub fn input_edge(cfg: &Config, class: StrandClass, i: i64) -> Option<LatticeBlock> {
    let h = rules::input_source(cfg, class, i);
    (h >= 1).then_some(LatticeBlock::Edge(class, h))
}

/// The output edge of node `i` on `class` (always exists once `d_i` is
/// written).
pub fn output_edge(_cfg: &Config, class: StrandClass, i: i64) -> LatticeBlock {
    LatticeBlock::Edge(class, i)
}

/// All 2α incident edges of node `i` (inputs that exist, plus outputs).
pub fn incident_edges(cfg: &Config, i: i64) -> Vec<LatticeBlock> {
    let mut out = Vec::with_capacity(2 * cfg.alpha() as usize);
    for &class in cfg.classes() {
        if let Some(e) = input_edge(cfg, class, i) {
            out.push(e);
        }
        out.push(output_edge(cfg, class, i));
    }
    out
}

/// Calls `visit` with the repair tuples of `block`, in the order every
/// decoder tries them, until it breaks, and returns where it stopped: for a
/// node `d_i`, its α pp-tuples in class order, each `[input parity, output
/// parity]` (§III.B: "The decoder repairs a node using two adjacent edges
/// that belong to the same strand, thus, there are α options"); for an edge
/// `p_{i,j}`, the dp-tuple `[d_i, p_{h,i}]` at its left endpoint, then
/// `[d_j, p_{j,k}]` at its right endpoint while `j ≤ max_node` (pass
/// `i64::MAX` for the unbounded analysis plane).
///
/// `block` must be a real position of a class present in `cfg`. Nothing is
/// allocated, and a tuple is computed only if the previous one did not
/// stop the walk: the availability checks of the simulation planes run
/// this millions of times, as tight as a hand-written loop.
pub fn tuples<B>(
    cfg: &Config,
    block: LatticeBlock,
    max_node: i64,
    mut visit: impl FnMut(Tuple) -> ControlFlow<B>,
) -> ControlFlow<B> {
    match block {
        LatticeBlock::Node(i) => {
            for &class in cfg.classes() {
                let members = [input_edge(cfg, class, i), Some(output_edge(cfg, class, i))];
                visit(Tuple { class, members })?;
            }
        }
        LatticeBlock::Edge(class, i) => {
            // Left: p_{i,j} = d_i XOR p_{h,i}.
            let members = [Some(LatticeBlock::Node(i)), input_edge(cfg, class, i)];
            visit(Tuple { class, members })?;
            // Right: p_{i,j} = d_j XOR p_{j,k}; both exist only if d_j was
            // written.
            let j = rules::output_target(cfg, class, i);
            if j <= max_node {
                let members = [
                    Some(LatticeBlock::Node(j)),
                    Some(output_edge(cfg, class, j)),
                ];
                visit(Tuple { class, members })?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Iterates all blocks of a lattice with nodes `1..=n`: `n` nodes and
/// `α · n` edges (every written node creates α output parities).
pub fn all_blocks(cfg: &Config, n: i64) -> impl Iterator<Item = LatticeBlock> + '_ {
    (1..=n).flat_map(move |i| {
        std::iter::once(LatticeBlock::Node(i)).chain(
            cfg.classes()
                .iter()
                .map(move |&class| LatticeBlock::Edge(class, i)),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass::*;

    fn cfg(a: u8, s: u16, p: u16) -> Config {
        Config::new(a, s, p).unwrap()
    }

    #[test]
    fn endpoints_match_rules() {
        let c = cfg(3, 5, 5);
        let e = endpoints(&c, Horizontal, 26);
        assert_eq!((e.left, e.right), (26, 31));
        let e = endpoints(&c, LeftHanded, 26);
        assert_eq!((e.left, e.right), (26, 35));
    }

    /// Every tuple of `block`, in visiting order.
    fn all_tuples(c: &Config, block: LatticeBlock, max_node: i64) -> Vec<Tuple> {
        let mut out = Vec::new();
        let _ = tuples(c, block, max_node, |t| {
            out.push(t);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    #[test]
    fn node_has_alpha_repair_options_of_two_blocks() {
        let c = cfg(3, 2, 5);
        let ts = all_tuples(&c, LatticeBlock::Node(100), i64::MAX);
        assert_eq!(ts.len(), 3);
        for t in &ts {
            assert_eq!(t.blocks().count(), 2, "pp-tuple on {t:?}");
            assert!(t.blocks().all(|b| !b.is_node()));
        }
        // Distinct classes, input parity first.
        assert_ne!(ts[0].class, ts[1].class);
        assert_ne!(ts[1].class, ts[2].class);
        assert_eq!(
            ts[0].members,
            [
                Some(LatticeBlock::Edge(Horizontal, 98)),
                Some(LatticeBlock::Edge(Horizontal, 100))
            ]
        );
        // A break stops the walk at the tuple that asked for it.
        let mut seen = 0;
        let stop = tuples(&c, LatticeBlock::Node(100), i64::MAX, |t| {
            seen += 1;
            match t.class {
                RightHanded => ControlFlow::Break(t),
                _ => ControlFlow::Continue(()),
            }
        });
        assert_eq!((stop, seen), (ControlFlow::Break(ts[1]), 2));
    }

    #[test]
    fn node_near_origin_has_shorter_tuples() {
        let c = cfg(3, 2, 5);
        // Node 1: all inputs virtual, so each tuple's first member is zero.
        for t in all_tuples(&c, LatticeBlock::Node(1), i64::MAX) {
            assert_eq!(t.members[0], None, "{t:?}");
            assert_eq!(
                t.blocks().collect::<Vec<_>>(),
                [LatticeBlock::Edge(t.class, 1)]
            );
        }
    }

    #[test]
    fn edge_repair_options_are_dp_tuples() {
        let c = cfg(3, 5, 5);
        // Paper §III.B: to repair p21,26, compute XOR(d21, p16,21).
        let ts = all_tuples(&c, LatticeBlock::Edge(Horizontal, 21), i64::MAX);
        assert_eq!(ts.len(), 2);
        assert_eq!(
            ts[0].members,
            [
                Some(LatticeBlock::Node(21)),
                Some(LatticeBlock::Edge(Horizontal, 16))
            ]
        );
        assert_eq!(
            ts[1].members,
            [
                Some(LatticeBlock::Node(26)),
                Some(LatticeBlock::Edge(Horizontal, 26))
            ]
        );
        // A strand head's left tuple is its data block and a zero.
        let head = all_tuples(&c, LatticeBlock::Edge(Horizontal, 3), i64::MAX);
        assert_eq!(head[0].members, [Some(LatticeBlock::Node(3)), None]);
    }

    #[test]
    fn edge_right_option_vanishes_at_lattice_tail() {
        let c = cfg(3, 5, 5);
        // Edge p26,31 with only 30 nodes written: right endpoint missing.
        let ts = all_tuples(&c, LatticeBlock::Edge(Horizontal, 26), 30);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].members[0], Some(LatticeBlock::Node(26)));
    }

    #[test]
    fn incident_edges_count() {
        let c = cfg(3, 3, 3);
        // Far from origin: α inputs + α outputs.
        assert_eq!(incident_edges(&c, 500).len(), 6);
        // Node 1: inputs are virtual.
        assert_eq!(incident_edges(&c, 1).len(), 3);
    }

    #[test]
    fn all_blocks_counts() {
        let c = cfg(2, 2, 3);
        let blocks: Vec<_> = all_blocks(&c, 10).collect();
        assert_eq!(blocks.len(), 10 + 2 * 10);
        assert_eq!(blocks.iter().filter(|b| b.is_node()).count(), 10);
    }

    #[test]
    fn block_ordering_and_display() {
        let a = LatticeBlock::Node(3);
        let b = LatticeBlock::Edge(Horizontal, 3);
        assert!(a < b, "nodes sort before edges at equal position");
        assert_eq!(format!("{a}"), "d3");
        assert_eq!(format!("{b}"), "p[h]3");
        assert_eq!(a.position(), 3);
        assert_eq!(b.position(), 3);
        assert!(a.is_node() && !b.is_node());
    }
}
