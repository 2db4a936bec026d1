//! Minimal-erasure analysis (§V.A of the paper, Figs 6–9).
//!
//! A **minimal erasure** ME(x) is an irreducible pattern of erased blocks
//! that causes the irrecoverable loss of `x` data blocks: no block in the
//! pattern can be repaired from blocks outside it, and removing any single
//! block from the pattern makes some erased block repairable. The paper
//! characterizes fault tolerance by `|ME(x)|`, the size (in blocks, data +
//! parity) of the smallest such pattern, and shows it grows with `s` and `p`
//! at zero storage cost.
//!
//! The authors verified their patterns with a private Prolog tool; this
//! module replaces it with an exhaustive branch-and-bound search.
//!
//! # Algorithm
//!
//! A set `S` of blocks is **dead** when no block in `S` has a repair tuple
//! (see [`crate::graph::tuples`]) whose real members all lie outside `S`.
//! The search anchors one data node far from the lattice origin and grows
//! `S` by *violation-driven branching*: while some block of `S` is still
//! repairable, a dead superset must block one of its open repair tuples,
//! and each open tuple can be blocked by at most two specific blocks — so
//! branch on those. Every step adds exactly one block, giving a
//! search tree of depth `|S|`; iterative deepening on the target size finds
//! the minimum. Completeness caveat (shared with the paper, which also "does
//! not identify all erasure patterns"): patterns that contain a *dead proper
//! subset* are not reachable by violation-driven growth; for the pattern
//! families of Figs 6–9 this does not arise, and disjoint unions of smaller
//! patterns are handled separately by [`MeSearch::min_erasure`]'s partition
//! step.

use crate::config::Config;
use crate::graph::{self, LatticeBlock, Tuple};
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;

/// A minimal erasure pattern found by the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MePattern {
    /// The erased blocks (data and parity), in lattice order.
    pub blocks: BTreeSet<LatticeBlock>,
}

impl MePattern {
    /// Total pattern size `|ME(x)|` in blocks (the paper's metric).
    pub fn size(&self) -> usize {
        self.blocks.len()
    }

    /// Number of data blocks lost (`x`).
    pub fn data_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_node()).count()
    }

    /// Number of parity blocks in the pattern (`y − x`).
    pub fn parity_count(&self) -> usize {
        self.size() - self.data_count()
    }

    /// The protection ratio `y / x`: pattern blocks per lost data block.
    /// Larger is better ("Ideally, we want patterns with y ≫ x", §V.A).
    pub fn protection_ratio(&self) -> f64 {
        self.size() as f64 / self.data_count() as f64
    }
}

/// Searcher for minimal erasure patterns of one code configuration.
#[derive(Debug, Clone)]
pub struct MeSearch {
    cfg: Config,
    max_size: usize,
    anchor_base: i64,
}

impl MeSearch {
    /// Default cap on pattern size; the largest pattern reported in the
    /// paper is |ME(8)| = 20 for AE(3,3,3).
    pub const DEFAULT_MAX_SIZE: usize = 24;

    /// Creates a searcher with the default size cap.
    pub fn new(cfg: Config) -> Self {
        MeSearch {
            cfg,
            max_size: Self::DEFAULT_MAX_SIZE,
            anchor_base: Self::anchor_base_for(&cfg),
        }
    }

    /// Overrides the size cap (searches are exponential in the cap; sizes
    /// beyond ~26 get slow).
    pub fn with_max_size(mut self, max_size: usize) -> Self {
        self.max_size = max_size;
        self
    }

    fn anchor_base_for(cfg: &Config) -> i64 {
        // Far enough from the origin that no block touched by a bounded
        // search has a virtual input: patterns drift at most max_size wrap
        // spans from the anchor.
        let span = cfg.s() as i64 * cfg.p().max(1) as i64;
        (span * 64).max(4096)
    }

    /// Minimum-size *connected* dead pattern losing exactly `x` data blocks,
    /// or `None` if none exists within the size cap.
    pub fn min_connected(&self, x: usize) -> Option<MePattern> {
        assert!(x >= 1, "patterns lose at least one data block");
        // No finite dead set loses fewer than 2 data blocks: an erased edge
        // chain must terminate on erased nodes at both ends.
        if x < 2 {
            return None;
        }
        for limit in (x + 1)..=self.max_size {
            // Try an anchor in every row category (top/central/bottom);
            // minimal patterns may require a specific alignment.
            for r in 0..self.cfg.s() as i64 {
                let anchor = self.anchor_base + 1 + r;
                let mut dfs = Dfs {
                    cfg: &self.cfg,
                    limit,
                    target_data: x,
                    member: HashSet::new(),
                    order: Vec::new(),
                    data_count: 0,
                    seen: HashSet::new(),
                };
                dfs.push(LatticeBlock::Node(anchor));
                if let Some(found) = dfs.run() {
                    return Some(MePattern { blocks: found });
                }
            }
        }
        None
    }

    /// Minimum-size dead pattern losing exactly `x` data blocks, allowing
    /// disjoint unions of connected components (each component is dead on
    /// its own, so the union is too). This is the paper's `|ME(x)|`.
    pub fn min_erasure(&self, x: usize) -> Option<MePattern> {
        // Connected minima for every component size.
        let conn: Vec<Option<MePattern>> = (0..=x)
            .map(|k| if k < 2 { None } else { self.min_connected(k) })
            .collect();
        // Partition DP: best[j] = minimal total size losing j data blocks.
        let mut best: Vec<Option<(usize, Vec<usize>)>> = vec![None; x + 1];
        best[0] = Some((0, Vec::new()));
        for j in 1..=x {
            for k in 2..=j {
                let (Some(p), Some((base, parts))) = (&conn[k], &best[j - k]) else {
                    continue;
                };
                let cand = base + p.size();
                if best[j].as_ref().is_none_or(|(b, _)| cand < *b) {
                    let mut parts = parts.clone();
                    parts.push(k);
                    best[j] = Some((cand, parts));
                }
            }
        }
        let (_, parts) = best[x].take()?;
        // Materialize the union, translating components apart by multiples
        // of s (which preserves node categories and hence the rules).
        let sep = (self.cfg.s() as i64 * self.cfg.p().max(1) as i64 + self.cfg.s() as i64) * 40;
        let mut blocks = BTreeSet::new();
        for (idx, &k) in parts.iter().enumerate() {
            let comp = conn[k].as_ref().expect("DP only uses present components");
            let delta = idx as i64 * sep;
            for &b in &comp.blocks {
                blocks.insert(match b {
                    LatticeBlock::Node(i) => LatticeBlock::Node(i + delta),
                    LatticeBlock::Edge(c, i) => LatticeBlock::Edge(c, i + delta),
                });
            }
        }
        Some(MePattern { blocks })
    }
}

/// Runs the iterated decoder on an erased set: repeatedly repairs any block
/// that has a repair tuple fully outside the erased set, until a fixpoint.
/// Returns the irrecoverable remainder (empty = full recovery).
pub fn decode_fixpoint(cfg: &Config, erased: &BTreeSet<LatticeBlock>) -> BTreeSet<LatticeBlock> {
    let mut remaining = erased.clone();
    loop {
        let repairable: Vec<LatticeBlock> = remaining
            .iter()
            .copied()
            .filter(|&b| open_tuple(cfg, b, |r| remaining.contains(r)).is_some())
            .collect();
        if repairable.is_empty() {
            return remaining;
        }
        for b in repairable {
            remaining.remove(&b);
        }
    }
}

/// The first repair tuple of `b` none of whose real members is `erased`.
fn open_tuple(
    cfg: &Config,
    b: LatticeBlock,
    erased: impl Fn(&LatticeBlock) -> bool,
) -> Option<Tuple> {
    graph::tuples(cfg, b, i64::MAX, |t| match t.blocks().any(|r| erased(&r)) {
        true => ControlFlow::Continue(()),
        false => ControlFlow::Break(t),
    })
    .break_value()
}

/// Whether `set` is dead: no member is repairable from outside the set.
pub fn is_dead(cfg: &Config, set: &BTreeSet<LatticeBlock>) -> bool {
    set.iter()
        .all(|&b| open_tuple(cfg, b, |r| set.contains(r)).is_none())
}

/// Whether `set` is an irreducible erasure: it is dead, and removing any
/// single block lets the decoder recover at least one further block
/// (Wiley's minimal-erasure criterion as restated in §V.A).
pub fn is_irreducible(cfg: &Config, set: &BTreeSet<LatticeBlock>) -> bool {
    if !is_dead(cfg, set) {
        return false;
    }
    set.iter().all(|&b| {
        let mut without = set.clone();
        without.remove(&b);
        decode_fixpoint(cfg, &without) != without
    })
}

/// Violation-driven DFS: grows the erased set until dead or out of budget.
struct Dfs<'a> {
    cfg: &'a Config,
    limit: usize,
    target_data: usize,
    member: HashSet<LatticeBlock>,
    order: Vec<LatticeBlock>,
    data_count: usize,
    /// Canonical (sorted) states already explored at this limit.
    seen: HashSet<Vec<LatticeBlock>>,
}

impl Dfs<'_> {
    fn push(&mut self, b: LatticeBlock) {
        debug_assert!(!self.member.contains(&b));
        if b.is_node() {
            self.data_count += 1;
        }
        self.member.insert(b);
        self.order.push(b);
    }

    fn pop(&mut self) {
        let b = self.order.pop().expect("pop matches push");
        if b.is_node() {
            self.data_count -= 1;
        }
        self.member.remove(&b);
    }

    /// Finds the first repairable member and returns its first open repair
    /// tuple: its real members are the blocks that could close it.
    fn first_violation(&self) -> Option<Tuple> {
        self.order
            .iter()
            .find_map(|&b| open_tuple(self.cfg, b, |r| self.member.contains(r)))
    }

    fn run(&mut self) -> Option<BTreeSet<LatticeBlock>> {
        let Some(candidates) = self.first_violation() else {
            // Dead. Accept only exact data-loss targets.
            return (self.data_count == self.target_data)
                .then(|| self.order.iter().copied().collect());
        };
        if self.order.len() >= self.limit {
            return None;
        }
        let mut canonical: Vec<LatticeBlock> = self.order.clone();
        canonical.sort_unstable();
        if !self.seen.insert(canonical) {
            return None;
        }
        for cand in candidates.blocks() {
            if cand.is_node() && self.data_count >= self.target_data {
                continue;
            }
            self.push(cand);
            if let Some(found) = self.run() {
                return Some(found);
            }
            self.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass::*;

    fn cfg(a: u8, s: u16, p: u16) -> Config {
        Config::new(a, s, p).unwrap()
    }

    /// Fig 6, primitive form I: a single entanglement cannot tolerate two
    /// adjacent nodes plus their shared edge — |ME(2)| = 3.
    #[test]
    fn single_entanglement_me2_is_3() {
        let pat = MeSearch::new(Config::single()).min_erasure(2).unwrap();
        assert_eq!(pat.size(), 3);
        assert_eq!(pat.data_count(), 2);
        assert!(is_irreducible(&Config::single(), &pat.blocks));
    }

    /// Fig 6, primitive form II: nodes at distance L with all L connecting
    /// edges erased is dead (the example drawn has |ME(2)| = 6).
    #[test]
    fn single_entanglement_extended_form_is_dead() {
        let c = Config::single();
        let base = 1000;
        let mut set = BTreeSet::new();
        set.insert(LatticeBlock::Node(base));
        set.insert(LatticeBlock::Node(base + 4));
        for k in 0..4 {
            set.insert(LatticeBlock::Edge(Horizontal, base + k));
        }
        assert_eq!(set.len(), 6);
        assert!(is_dead(&c, &set));
        assert!(is_irreducible(&c, &set));
    }

    /// Fig 7 pattern A: AE(2,1,1) has |ME(2)| = 4.
    #[test]
    fn ae211_me2_is_4() {
        let pat = MeSearch::new(cfg(2, 1, 1)).min_erasure(2).unwrap();
        assert_eq!(pat.size(), 4, "{pat:?}");
        assert!(is_irreducible(&cfg(2, 1, 1), &pat.blocks));
    }

    /// Fig 7 pattern B: AE(3,1,1) has |ME(2)| = 5.
    #[test]
    fn ae311_me2_is_5() {
        let pat = MeSearch::new(cfg(3, 1, 1)).min_erasure(2).unwrap();
        assert_eq!(pat.size(), 5, "{pat:?}");
    }

    /// Fig 7 pattern C: AE(3,1,4) has |ME(2)| = 8 (also quoted in §I).
    #[test]
    fn ae314_me2_is_8() {
        let pat = MeSearch::new(cfg(3, 1, 4)).min_erasure(2).unwrap();
        assert_eq!(pat.size(), 8, "{pat:?}");
        assert!(is_irreducible(&cfg(3, 1, 4), &pat.blocks));
    }

    /// Fig 9's explanation: with α = 2, redundancy propagates across a
    /// square of 4 nodes and 4 edges, so |ME(4)| = 8 regardless of s and p.
    #[test]
    fn ae2_me4_is_square_of_8() {
        for (s, p) in [(1, 1), (2, 2), (2, 3)] {
            let pat = MeSearch::new(cfg(2, s, p)).min_erasure(4).unwrap();
            assert_eq!(pat.size(), 8, "AE(2,{s},{p}): {pat:?}");
            assert_eq!(pat.data_count(), 4);
        }
    }

    #[test]
    fn no_pattern_loses_a_single_data_block() {
        assert!(MeSearch::new(cfg(2, 1, 1)).min_erasure(1).is_none());
        assert!(MeSearch::new(Config::single()).min_erasure(1).is_none());
    }

    #[test]
    fn found_patterns_are_dead_and_exact() {
        for (a, s, p, x) in [(2u8, 1u16, 2u16, 2usize), (2, 2, 2, 2), (3, 1, 2, 2)] {
            let c = cfg(a, s, p);
            let pat = MeSearch::new(c).min_erasure(x).unwrap();
            assert!(is_dead(&c, &pat.blocks), "AE({a},{s},{p})");
            assert_eq!(pat.data_count(), x);
            // Nothing in a dead set is recoverable.
            assert_eq!(decode_fixpoint(&c, &pat.blocks), pat.blocks);
        }
    }

    #[test]
    fn decode_fixpoint_recovers_non_dead_sets() {
        let c = cfg(3, 2, 5);
        // A lone missing node repairs in one step; a node plus one incident
        // edge still repairs (α = 3 leaves two open strands).
        let mut set = BTreeSet::new();
        set.insert(LatticeBlock::Node(500));
        set.insert(LatticeBlock::Edge(Horizontal, 500));
        assert!(decode_fixpoint(&c, &set).is_empty());
    }

    #[test]
    fn protection_ratio_reported() {
        let pat = MeSearch::new(cfg(2, 1, 1)).min_erasure(2).unwrap();
        assert!(
            (pat.protection_ratio() - 2.0).abs() < 1e-12,
            "4 blocks / 2 data"
        );
        assert_eq!(pat.parity_count(), 2);
    }

    /// min_erasure must consider disjoint unions: losing 4 data blocks via
    /// two separate |ME(2)| patterns costs 2·|ME(2)|; the reported |ME(4)|
    /// is the cheaper of that and the connected minimum.
    #[test]
    fn min_erasure_uses_partition_dp() {
        let c = cfg(2, 1, 1);
        let me2 = MeSearch::new(c).min_erasure(2).unwrap().size();
        let me4 = MeSearch::new(c).min_erasure(4).unwrap().size();
        assert!(
            me4 <= 2 * me2,
            "ME(4)={me4} must not exceed two ME(2)={me2}"
        );
        let pat = MeSearch::new(c).min_erasure(4).unwrap();
        assert!(is_dead(&c, &pat.blocks), "union of dead components is dead");
    }
}
