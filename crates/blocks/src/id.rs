//! Typed identifiers for lattice blocks.
//!
//! The helical lattice of AE(α, s, p) is a graph whose vertices are data
//! blocks and whose edges are parity blocks (§III). A vertex is uniquely
//! identified by its position `i ≥ 1` in write order. Because every node has
//! exactly one *output* edge per strand class, an edge is uniquely identified
//! by `(class, left endpoint)`; the right endpoint follows from the code
//! parameters. These identifiers are shared by every crate in the workspace
//! so that a block referenced by the lattice, the repair engine and a store
//! is unambiguously the same block.

use std::fmt;

/// Position of a data block (lattice node), starting at 1.
///
/// The paper writes nodes `d_i` with `i` the position in the sequential write
/// order; position 0 is reserved for "before the lattice" (virtual zero
/// blocks at strand heads).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Returns the raw 1-based position.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// The three strand classes of an alpha entanglement lattice.
///
/// A lattice has `s` horizontal strands and, per helical class present,
/// `p` strands: double entanglements (α = 2) add the right-handed class,
/// triple entanglements (α = 3) add the left-handed class as well (§III.B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StrandClass {
    /// Horizontal strand: connects `d_i` to `d_{i+s}`.
    Horizontal,
    /// Right-handed helical strand (diagonal of slope 1, wrapping downward).
    RightHanded,
    /// Left-handed helical strand (diagonal of slope −1, wrapping upward).
    LeftHanded,
}

impl StrandClass {
    /// All classes, in the order `[H, RH, LH]`.
    pub const ALL: [StrandClass; 3] = [
        StrandClass::Horizontal,
        StrandClass::RightHanded,
        StrandClass::LeftHanded,
    ];

    /// The classes present in a code with `alpha` parities per data block:
    /// `[H]`, `[H, RH]` or `[H, RH, LH]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is 0 or greater than 3; codes beyond α = 3 are an
    /// open problem in the paper ("it is not clear how to connect the extra
    /// helical strands", §V.A).
    pub fn for_alpha(alpha: u8) -> &'static [StrandClass] {
        match alpha {
            1 => &Self::ALL[..1],
            2 => &Self::ALL[..2],
            3 => &Self::ALL[..3],
            _ => panic!("alpha entanglement codes support alpha in 1..=3, got {alpha}"),
        }
    }

    /// Small dense index (0 = H, 1 = RH, 2 = LH) for array-backed tables.
    pub fn index(self) -> usize {
        match self {
            StrandClass::Horizontal => 0,
            StrandClass::RightHanded => 1,
            StrandClass::LeftHanded => 2,
        }
    }

    /// Short lower-case label used in tables and debug output (`h`, `rh`,
    /// `lh`), matching the paper's Table V.
    pub fn label(self) -> &'static str {
        match self {
            StrandClass::Horizontal => "h",
            StrandClass::RightHanded => "rh",
            StrandClass::LeftHanded => "lh",
        }
    }
}

impl fmt::Debug for StrandClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for StrandClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// Identifier of a parity block (lattice edge): the output edge of node
/// `left` on strand class `class`.
///
/// The paper writes edges `p_{i,j}`; since `j` is a function of `(class, i)`
/// and the code parameters, `(class, i)` is the canonical form. Use
/// [`ae_lattice`-level helpers](https://docs.rs/ae-lattice) to recover `j`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId {
    /// Strand class the parity belongs to (each edge belongs to exactly one
    /// strand).
    pub class: StrandClass,
    /// Left endpoint `d_i`; the parity is `p_{i,j}`.
    pub left: NodeId,
}

impl EdgeId {
    /// Convenience constructor.
    pub fn new(class: StrandClass, left: NodeId) -> Self {
        EdgeId { class, left }
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p[{}]{}→", self.class.label(), self.left.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// Identifier of a Reed-Solomon parity shard: shard `index` (0-based among
/// the `m` parity shards) of stripe `stripe` (0-based in write order).
///
/// Data shards of a stripe are ordinary [`BlockId::Data`] blocks — all
/// redundancy schemes share the data id space, so a scheme-agnostic store
/// or simulation can compare them block for block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId {
    /// 0-based stripe number in write order.
    pub stripe: u64,
    /// 0-based index among the stripe's parity shards.
    pub index: u16,
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}.{}", self.stripe, self.index)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// Identifier of a replica: copy `copy` (1-based; copy 0 is the original
/// [`BlockId::Data`] block) of data block `node`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId {
    /// The replicated data block.
    pub node: NodeId,
    /// 1-based copy number (the original data block is copy 0).
    pub copy: u16,
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}#{}", self.node.0, self.copy)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// Identifier of an archive metadata block: a journal record **copy** or
/// a checkpoint **pointer cell**.
///
/// Metadata blocks live in a **reserved namespace** of the shared id
/// space: no redundancy scheme ever emits a `Meta` id, every scheme
/// treats one as foreign, and placement keys them far away from all
/// scheme ids — so an archive can persist its manifest, write-order id
/// log and encoder frontier through the *same* backend that holds the
/// blocks, without colliding with any code's universe.
///
/// # Bit layout
///
/// The raw `u64` packs three sub-fields, all kept below bit 48 because
/// multi-tenant stores tag the tenant number into the high 16 bits of
/// every id kind:
///
/// | bits   | field |
/// |-------:|-------|
/// | 0..40  | journal sequence number (records) or pointer slot |
/// | 40..43 | copy index, `0..`[`MetaId::MAX_COPIES`] |
/// | 43     | pointer-cell flag |
///
/// Copy 0 of record `seq` is the raw value `seq` itself, so journals
/// written before metadata redundancy existed read back as a one-copy
/// copy set unchanged.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetaId(pub u64);

impl MetaId {
    /// Most copies a metadata record can be spread over (3 copy bits).
    pub const MAX_COPIES: u16 = 8;
    /// Width of the sequence-number field.
    pub const SEQ_BITS: u32 = 40;
    const COPY_SHIFT: u32 = Self::SEQ_BITS;
    const POINTER_BIT: u64 = 1 << 43;
    const SEQ_MASK: u64 = (1 << Self::SEQ_BITS) - 1;

    /// The id of copy `copy` of journal record `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` overflows the 40-bit sequence space or `copy` is
    /// not below [`MetaId::MAX_COPIES`].
    pub fn record(seq: u64, copy: u16) -> Self {
        assert!(seq <= Self::SEQ_MASK, "meta sequence {seq} overflows");
        assert!(copy < Self::MAX_COPIES, "copy {copy} out of range");
        MetaId(seq | ((copy as u64) << Self::COPY_SHIFT))
    }

    /// The id of copy `copy` of checkpoint-pointer cell `slot`.
    ///
    /// # Panics
    ///
    /// Panics as [`MetaId::record`] does on out-of-range fields.
    pub fn pointer(slot: u64, copy: u16) -> Self {
        MetaId(Self::record(slot, copy).0 | Self::POINTER_BIT)
    }

    /// Sequence number (records) or slot (pointer cells).
    pub fn seq(self) -> u64 {
        self.0 & Self::SEQ_MASK
    }

    /// Which copy of the record or pointer cell this is.
    pub fn copy(self) -> u16 {
        ((self.0 >> Self::COPY_SHIFT) & (Self::MAX_COPIES as u64 - 1)) as u16
    }

    /// Whether this id addresses a checkpoint-pointer cell.
    pub fn is_pointer(self) -> bool {
        self.0 & Self::POINTER_BIT != 0
    }
}

impl fmt::Debug for MetaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pointer() {
            write!(f, "meta-ptr#{}", self.seq())?;
        } else {
            write!(f, "meta#{}", self.seq())?;
        }
        if self.copy() != 0 {
            write!(f, "~{}", self.copy())?;
        }
        Ok(())
    }
}

impl fmt::Display for MetaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// Any block in an entangled (or baseline-encoded) storage system.
///
/// Data blocks are shared across all redundancy schemes; the redundancy
/// variants identify each scheme's derived blocks: lattice parities for
/// alpha entanglement, parity shards for Reed-Solomon, extra copies for
/// replication. A scheme only ever emits ids of its own redundancy kind,
/// but stores and simulations handle all of them uniformly. The
/// [`BlockId::Meta`] namespace is reserved for archive metadata records
/// (see [`MetaId`]) and belongs to no scheme.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockId {
    /// A data block `d_i`.
    Data(NodeId),
    /// An entanglement parity block `p_{i,j}` identified by its class and
    /// left endpoint.
    Parity(EdgeId),
    /// A Reed-Solomon parity shard.
    Shard(ShardId),
    /// An extra replica of a data block.
    Replica(ReplicaId),
    /// An archive metadata record (reserved namespace; scheme-foreign).
    Meta(MetaId),
}

impl BlockId {
    /// Returns `true` for data blocks.
    pub fn is_data(self) -> bool {
        matches!(self, BlockId::Data(_))
    }

    /// Returns `true` for entanglement parity blocks.
    pub fn is_parity(self) -> bool {
        matches!(self, BlockId::Parity(_))
    }

    /// Returns `true` for any redundancy block (everything but data and
    /// archive metadata).
    pub fn is_redundancy(self) -> bool {
        !self.is_data() && !self.is_meta()
    }

    /// Returns `true` for archive metadata records (the reserved
    /// scheme-foreign namespace).
    pub fn is_meta(self) -> bool {
        matches!(self, BlockId::Meta(_))
    }

    /// The node id if this is a data block.
    pub fn as_data(self) -> Option<NodeId> {
        match self {
            BlockId::Data(n) => Some(n),
            _ => None,
        }
    }

    /// The edge id if this is an entanglement parity block.
    pub fn as_parity(self) -> Option<EdgeId> {
        match self {
            BlockId::Parity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NodeId> for BlockId {
    fn from(n: NodeId) -> Self {
        BlockId::Data(n)
    }
}

impl From<EdgeId> for BlockId {
    fn from(e: EdgeId) -> Self {
        BlockId::Parity(e)
    }
}

impl From<ShardId> for BlockId {
    fn from(s: ShardId) -> Self {
        BlockId::Shard(s)
    }
}

impl From<ReplicaId> for BlockId {
    fn from(r: ReplicaId) -> Self {
        BlockId::Replica(r)
    }
}

impl From<MetaId> for BlockId {
    fn from(m: MetaId) -> Self {
        BlockId::Meta(m)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockId::Data(n) => write!(f, "{n:?}"),
            BlockId::Parity(e) => write!(f, "{e:?}"),
            BlockId::Shard(s) => write!(f, "{s:?}"),
            BlockId::Replica(r) => write!(f, "{r:?}"),
            BlockId::Meta(m) => write!(f, "{m:?}"),
        }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_for_alpha_slices() {
        assert_eq!(StrandClass::for_alpha(1), &[StrandClass::Horizontal]);
        assert_eq!(
            StrandClass::for_alpha(2),
            &[StrandClass::Horizontal, StrandClass::RightHanded]
        );
        assert_eq!(StrandClass::for_alpha(3).len(), 3);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn class_for_alpha_rejects_zero() {
        StrandClass::for_alpha(0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn class_for_alpha_rejects_four() {
        StrandClass::for_alpha(4);
    }

    #[test]
    fn display_formats_match_paper_notation() {
        assert_eq!(NodeId(26).to_string(), "d26");
        let e = EdgeId::new(StrandClass::LeftHanded, NodeId(26));
        assert_eq!(e.to_string(), "p[lh]26→");
        assert_eq!(StrandClass::RightHanded.to_string(), "rh");
    }

    #[test]
    fn block_id_accessors() {
        let d: BlockId = NodeId(5).into();
        let p: BlockId = EdgeId::new(StrandClass::Horizontal, NodeId(5)).into();
        assert!(d.is_data() && !d.is_parity());
        assert!(p.is_parity() && !p.is_data());
        let m: BlockId = MetaId(7).into();
        assert!(m.is_meta() && !m.is_data() && !m.is_redundancy());
        assert_eq!(m.to_string(), "meta#7");
        assert!(p.is_redundancy() && !d.is_redundancy());
        assert_eq!(d.as_data(), Some(NodeId(5)));
        assert_eq!(p.as_data(), None);
        assert_eq!(p.as_parity().unwrap().left, NodeId(5));
        assert_eq!(d.as_parity(), None);
    }

    #[test]
    fn meta_copy_addressing_roundtrips_below_the_tenant_bits() {
        // Copy 0 of a record is the bare sequence number (v1 journals).
        assert_eq!(MetaId::record(7, 0), MetaId(7));
        let mut seen = std::collections::HashSet::new();
        for seq in [0, 1, 7, (1 << MetaId::SEQ_BITS) - 1] {
            for copy in 0..MetaId::MAX_COPIES {
                let r = MetaId::record(seq, copy);
                assert_eq!((r.seq(), r.copy(), r.is_pointer()), (seq, copy, false));
                assert!(seen.insert(r.0), "{r:?} collides");
                assert_eq!(r.0 >> 48, 0, "copy ids stay in the tenant-local space");
                if seq < 2 {
                    let p = MetaId::pointer(seq, copy);
                    assert_eq!((p.seq(), p.copy(), p.is_pointer()), (seq, copy, true));
                    assert!(seen.insert(p.0), "{p:?} collides");
                    assert_eq!(p.0 >> 48, 0);
                }
            }
        }
        assert_eq!(MetaId::record(3, 2).to_string(), "meta#3~2");
        assert_eq!(MetaId::pointer(1, 0).to_string(), "meta-ptr#1");
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn meta_record_rejects_overflowing_sequences() {
        MetaId::record(1 << MetaId::SEQ_BITS, 0);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(BlockId::Data(NodeId(2)));
        s.insert(BlockId::Data(NodeId(1)));
        s.insert(BlockId::Parity(EdgeId::new(
            StrandClass::Horizontal,
            NodeId(1),
        )));
        assert_eq!(s.len(), 3);
    }
}
