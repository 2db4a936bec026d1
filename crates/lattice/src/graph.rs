//! Graph navigation over the helical lattice.
//!
//! Builds on [`crate::rules`] to answer the questions the encoder, decoder
//! and analyses ask: what are the endpoints of an edge, which edges are
//! incident to a node, and — centrally — what are the **repair options** of
//! a block:
//!
//! * a node (data block) `d_i` is repaired from a complete *pp-tuple*: both
//!   incident parities on any one of its α strands (§IV.A "Failure Mode");
//! * an edge (parity block) `p_{i,j}` is repaired from a complete
//!   *dp-tuple*: one incident node plus that node's other parity on the same
//!   strand — two options, one per endpoint.
//!
//! Virtual blocks (positions ≤ 0) are all-zero and always available, so
//! they are simply omitted from the requirement lists.

use crate::config::Config;
use crate::rules;
use ae_blocks::StrandClass;
use std::fmt;

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

/// One way to repair a block: XOR together all `requires` blocks.
///
/// Blocks listed are real lattice positions; virtual zero blocks are already
/// omitted, so an empty list means the target equals zero (never the case
/// for real data, but kept for completeness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOption {
    /// The strand class the tuple lives on.
    pub class: StrandClass,
    /// Blocks that must all be available.
    pub requires: Vec<LatticeBlock>,
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

/// The α repair options of node `i`: for each strand class, the pp-tuple of
/// both incident parities (§III.B: "The decoder repairs a node using two
/// adjacent edges that belong to the same strand, thus, there are α
/// options").
pub fn node_repair_options(cfg: &Config, i: i64) -> Vec<RepairOption> {
    cfg.classes()
        .iter()
        .map(|&class| {
            let mut requires = Vec::with_capacity(2);
            if let Some(e) = input_edge(cfg, class, i) {
                requires.push(e);
            }
            requires.push(output_edge(cfg, class, i));
            RepairOption { class, requires }
        })
        .collect()
}

/// The two repair options of edge `(class, left)`: the dp-tuple at its left
/// endpoint (`d_i` plus `i`'s input parity on the strand) or at its right
/// endpoint (`d_j` plus `j`'s output parity on the strand).
///
/// In a lattice bounded to `max_node` nodes, the right option only exists
/// while `j ≤ max_node`; pass `i64::MAX` for the unbounded analysis plane.
pub fn edge_repair_options(
    cfg: &Config,
    class: StrandClass,
    left: i64,
    max_node: i64,
) -> Vec<RepairOption> {
    let mut opts = Vec::with_capacity(2);
    // Left: p_{i,j} = d_i XOR p_{h,i}.
    let mut requires = vec![LatticeBlock::Node(left)];
    if let Some(e) = input_edge(cfg, class, left) {
        requires.push(e);
    }
    opts.push(RepairOption { class, requires });
    // Right: p_{i,j} = d_j XOR p_{j,k}; both exist only if d_j was written.
    let right = rules::output_target(cfg, class, left);
    if right <= max_node {
        opts.push(RepairOption {
            class,
            requires: vec![LatticeBlock::Node(right), output_edge(cfg, class, right)],
        });
    }
    opts
}

/// Repair options for any block (dispatches on node vs edge).
pub fn repair_options(cfg: &Config, block: LatticeBlock, max_node: i64) -> Vec<RepairOption> {
    match block {
        LatticeBlock::Node(i) => node_repair_options(cfg, i),
        LatticeBlock::Edge(class, left) => edge_repair_options(cfg, class, left, max_node),
    }
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

    #[test]
    fn node_has_alpha_repair_options_of_two_blocks() {
        let c = cfg(3, 2, 5);
        let opts = node_repair_options(&c, 100);
        assert_eq!(opts.len(), 3);
        for o in &opts {
            assert_eq!(o.requires.len(), 2, "pp-tuple on {o:?}");
            assert!(o.requires.iter().all(|b| !b.is_node()));
        }
        // Distinct classes.
        assert_ne!(opts[0].class, opts[1].class);
        assert_ne!(opts[1].class, opts[2].class);
    }

    #[test]
    fn node_near_origin_has_shorter_tuples() {
        let c = cfg(3, 2, 5);
        // Node 1: all inputs virtual, so each option needs only the output.
        for o in node_repair_options(&c, 1) {
            assert_eq!(o.requires.len(), 1, "{o:?}");
        }
    }

    #[test]
    fn edge_repair_options_are_dp_tuples() {
        let c = cfg(3, 5, 5);
        // Paper §III.B: to repair p21,26, compute XOR(d21, p16,21).
        let opts = edge_repair_options(&c, Horizontal, 21, i64::MAX);
        assert_eq!(opts.len(), 2);
        assert_eq!(
            opts[0].requires,
            vec![LatticeBlock::Node(21), LatticeBlock::Edge(Horizontal, 16)]
        );
        assert_eq!(
            opts[1].requires,
            vec![LatticeBlock::Node(26), LatticeBlock::Edge(Horizontal, 26)]
        );
    }

    #[test]
    fn edge_right_option_vanishes_at_lattice_tail() {
        let c = cfg(3, 5, 5);
        // Edge p26,31 with only 30 nodes written: right endpoint missing.
        let opts = edge_repair_options(&c, Horizontal, 26, 30);
        assert_eq!(opts.len(), 1);
        assert_eq!(opts[0].requires[0], LatticeBlock::Node(26));
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
