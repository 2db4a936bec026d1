//! The streaming entanglement encoder.
//!
//! "The entanglement function computes the exclusive-or (XOR) of two
//! consecutive blocks at the head of a strand and inserts the output
//! adjacent to the last block" (§III). Concretely, when data block `d_i`
//! arrives, for each of its α strand classes the encoder XORs `d_i` with
//! the parity currently at the head of that strand (`p_{h,i}`, the output
//! of the strand's previous node, or the all-zero virtual parity if the
//! strand has not started) and emits the result as `p_{i,j}`.
//!
//! The encoder's working state — the *frontier* — is the last parity of
//! every strand: `s + (α−1)·p` blocks, exactly the broker memory footprint
//! described in §IV.A ("AE(3,5,5) requires to keep in memory the last
//! p-block of its 15 strands"). Because every parity is consumed by exactly
//! one later node, the frontier never grows beyond that bound.
//!
//! The frontier is stored flat, one slot per strand, with the strand of a
//! position resolved by table lookup (the strand structure repeats every
//! `s·p` positions) — no hashing on the hot path. The batch entry point
//! [`Entangler::entangle_batch`] is the preferred producer: it validates
//! once, skips the per-block output scaffolding and streams data plus
//! parities straight into a [`BlockSink`]. Either way the parities are
//! written in place into slabs ([`Block::xor_slab`]: one XOR per parity,
//! one allocation per 64 KiB of them), and the frontier holds views.

use ae_api::{AeError, BlockSink, EncodeReport};
use ae_blocks::{Block, BlockError, BlockId, EdgeId, NodeId, XorWith};
use ae_lattice::{rules, Config};

/// The result of entangling one data block: the node it became and the α
/// parities the entanglement created.
#[derive(Debug, Clone)]
pub struct EntangleOutput {
    /// Position assigned to the data block.
    pub node: NodeId,
    /// The data block itself.
    pub data: Block,
    /// The α new parities, one per strand class, in class order.
    pub parities: Vec<(EdgeId, Block)>,
}

impl EntangleOutput {
    /// Inserts the data block and all parities into any backend (a "sealed
    /// bucket" write: the d-block plus its α parities, §V.B).
    pub fn insert_into(&self, store: &dyn BlockSink) {
        store.store(BlockId::Data(self.node), self.data.clone());
        for (e, b) in &self.parities {
            store.store(BlockId::Parity(*e), b.clone());
        }
    }

    /// All block ids this write produced.
    pub fn block_ids(&self) -> Vec<BlockId> {
        let mut out = vec![BlockId::Data(self.node)];
        out.extend(self.parities.iter().map(|(e, _)| BlockId::Parity(*e)));
        out
    }
}

/// Per-class strand table: which frontier slot each lattice position maps
/// to. The mapping is periodic in `s·p` (or `s` when no helical strands
/// exist), so one small table serves the whole infinite lattice.
#[derive(Debug, Clone)]
struct StrandTable {
    /// Slot of position `i` at `slot[(i-1) % period]`.
    slot: Vec<u16>,
    period: u64,
    /// Number of strands of this class.
    strands: u16,
}

impl StrandTable {
    fn new(cfg: &Config, class: ae_blocks::StrandClass) -> Self {
        let s = cfg.s() as i64;
        let p = cfg.p() as i64;
        let period = (s * p.max(1)) as usize;
        let mut slot = vec![u16::MAX; period];
        let mut strands = 0u16;
        // The backward map r -> input_source projects to a permutation of
        // the residues; label its cycles. Pick representatives far enough
        // from the origin that inputs are real positions.
        for r0 in 0..period {
            if slot[r0] != u16::MAX {
                continue;
            }
            let mut r = r0;
            loop {
                slot[r] = strands;
                let i = r as i64 + 1 + period as i64 * 4;
                let h = rules::input_source(cfg, class, i);
                let rh = (h - 1).rem_euclid(period as i64) as usize;
                if slot[rh] != u16::MAX {
                    break;
                }
                r = rh;
            }
            strands += 1;
        }
        StrandTable {
            slot,
            period: period as u64,
            strands,
        }
    }

    /// Frontier slot of the strand through position `i` (1-based).
    #[inline]
    fn slot_of(&self, i: u64) -> usize {
        self.slot[((i - 1) % self.period) as usize] as usize
    }
}

/// The head of one strand, as the frontier holds it.
#[derive(Debug, Clone)]
enum Head {
    /// No node of the strand has been written yet.
    Unstarted,
    /// The strand's last parity.
    Stored(Block),
    /// Inside a tangle step only: the strand's last parity is output
    /// `.0` of the [`Block::xor_slab`] call being assembled.
    Pending(usize),
}

/// Streaming encoder for one entanglement lattice.
///
/// # Examples
///
/// ```
/// use ae_core::Entangler;
/// use ae_blocks::Block;
/// use ae_lattice::Config;
///
/// let mut enc = Entangler::new(Config::new(3, 5, 5).unwrap(), 16);
/// let out = enc.entangle(Block::from_vec(vec![7; 16])).unwrap();
/// assert_eq!(out.node.0, 1);
/// assert_eq!(out.parities.len(), 3);
/// // The first parity of a strand equals the data block (XOR with zero).
/// assert_eq!(out.parities[0].1, out.data);
/// ```
#[derive(Debug, Clone)]
pub struct Entangler {
    cfg: Config,
    block_size: usize,
    /// Last processed position (the paper's counter `c`).
    counter: u64,
    /// Per-class strand tables (class order).
    tables: Vec<StrandTable>,
    /// Strand frontier: the head of each strand, flat per class.
    frontier: Vec<Vec<Head>>,
}

impl Entangler {
    /// Creates an encoder for blocks of `block_size` bytes.
    pub fn new(cfg: Config, block_size: usize) -> Self {
        let tables: Vec<StrandTable> = cfg
            .classes()
            .iter()
            .map(|&c| StrandTable::new(&cfg, c))
            .collect();
        let frontier = tables
            .iter()
            .map(|t| vec![Head::Unstarted; t.strands as usize])
            .collect();
        Entangler {
            cfg,
            block_size,
            counter: 0,
            tables,
            frontier,
        }
    }

    /// The code configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Number of data blocks entangled so far.
    pub fn written(&self) -> u64 {
        self.counter
    }

    /// Current frontier size in parities. Once the lattice is warmed up this
    /// equals [`Config::strand_count`].
    pub fn memory_footprint(&self) -> usize {
        self.frontier
            .iter()
            .flatten()
            .filter(|head| matches!(head, Head::Stored(_)))
            .count()
    }

    /// Restores the frontier from previously stored parities, as a broker
    /// does after a crash ("If the broker crashes, it only needs to retrieve
    /// the p-blocks from the remote nodes", §IV.A).
    ///
    /// `counter` is the last written position; `fetch` must return the
    /// stored parity for each in-flight edge id it is asked for.
    ///
    /// # Errors
    ///
    /// Returns the edge id for which `fetch` produced nothing.
    pub fn restore(
        cfg: Config,
        block_size: usize,
        counter: u64,
        mut fetch: impl FnMut(EdgeId) -> Option<Block>,
    ) -> Result<Self, EdgeId> {
        let mut enc = Entangler::new(cfg, block_size);
        enc.counter = counter;
        for (c, e) in Self::in_flight_edges(&cfg, counter) {
            let block = fetch(e).ok_or(e)?;
            let slot = enc.tables[c].slot_of(e.left.0);
            enc.frontier[c][slot] = Head::Stored(block);
        }
        Ok(enc)
    }

    /// The strand-frontier edges at write position `counter`, each with
    /// its class index, in the order [`Entangler::restore`] fetches them:
    /// produced by a node ≤ counter but consumed by a node > counter.
    /// Producers lie within one maximal forward span of the counter, so
    /// that window is scanned.
    pub fn in_flight_edges(cfg: &Config, counter: u64) -> Vec<(usize, EdgeId)> {
        let span = (cfg.s() as i64 * cfg.p().max(1) as i64 + cfg.s() as i64 + 2).max(4);
        let mut edges = Vec::new();
        for (c, &class) in cfg.classes().iter().enumerate() {
            for h in ((counter as i64 - span).max(1))..=(counter as i64) {
                if rules::output_target(cfg, class, h) > counter as i64 {
                    edges.push((c, EdgeId::new(class, NodeId(h as u64))));
                }
            }
        }
        edges
    }

    /// The one tangle step, behind [`Entangler::entangle`] and
    /// [`Entangler::entangle_batch`] alike: the α parities of each of
    /// `blocks` (sizes validated by the caller), node by node in class
    /// order, for positions `counter + 1 …`; advances the counter and
    /// leaves the frontier holding the new strand heads. All the XORs run
    /// as one [`Block::xor_slab`] call, so the parities — and the
    /// frontier's views of them — are cut from slabs.
    fn tangle(&mut self, blocks: &[Block]) -> Vec<Block> {
        let classes = self.cfg.classes();
        let mut ops = Vec::with_capacity(blocks.len() * classes.len());
        for (data, i) in blocks.iter().zip(self.counter + 1..) {
            for (c, &class) in classes.iter().enumerate() {
                let head = &mut self.frontier[c][self.tables[c].slot_of(i)];
                // Consume: each parity is input to exactly one entanglement.
                let input = std::mem::replace(head, Head::Pending(ops.len()));
                let with = if rules::input_source(&self.cfg, class, i as i64) < 1 {
                    // Strand head: XOR with the virtual zero parity.
                    XorWith::Zero
                } else {
                    match input {
                        Head::Stored(parity) => XorWith::Block(parity),
                        Head::Pending(k) => XorWith::Output(k),
                        Head::Unstarted => {
                            panic!("frontier holds the last parity of every live strand")
                        }
                    }
                };
                ops.push((data, with));
            }
        }
        let parities = Block::xor_slab(self.block_size, &ops);
        for head in self.frontier.iter_mut().flatten() {
            if let Head::Pending(k) = *head {
                *head = Head::Stored(parities[k].clone());
            }
        }
        self.counter += blocks.len() as u64;
        parities
    }

    /// Entangles the next data block, assigning it position `counter + 1`
    /// and producing α parities.
    ///
    /// Prefer [`Entangler::entangle_batch`] when blocks arrive in groups;
    /// it validates once and cuts the whole batch's parities from shared
    /// slabs.
    ///
    /// # Errors
    ///
    /// Fails with [`BlockError::SizeMismatch`] if the block size differs
    /// from the lattice's.
    pub fn entangle(&mut self, data: Block) -> Result<EntangleOutput, BlockError> {
        if data.len() != self.block_size {
            return Err(BlockError::SizeMismatch {
                expected: self.block_size,
                actual: data.len(),
            });
        }
        let parities = self.tangle(std::slice::from_ref(&data));
        let node = NodeId(self.counter);
        let edges = self.cfg.classes().iter().map(|&c| EdgeId::new(c, node));
        Ok(EntangleOutput {
            node,
            data,
            parities: edges.zip(parities).collect(),
        })
    }

    /// Entangles a batch of data blocks, writing data and parities straight
    /// into `sink` — the hot path used by the archive, the simulations and
    /// the benchmark.
    ///
    /// Equivalent to calling [`Entangler::entangle`] once per block and
    /// inserting every output — the sink sees `D_i, P_i,1 … P_i,α` node by
    /// node, the same calls in the same order — but validates the whole
    /// slice up front and computes the batch's parities first, in place in
    /// slabs, before the first store.
    ///
    /// # Errors
    ///
    /// Fails with [`AeError::SizeMismatch`] — before writing anything — if
    /// any block's size differs from the lattice's.
    pub fn entangle_batch(
        &mut self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        for b in blocks {
            if b.len() != self.block_size {
                return Err(AeError::SizeMismatch {
                    expected: self.block_size,
                    actual: b.len(),
                });
            }
        }
        let first_node = self.counter + 1;
        let classes = self.cfg.classes();
        let mut ids = Vec::with_capacity(blocks.len() * (1 + classes.len()));
        let mut parities = self.tangle(blocks).into_iter();
        for (data, i) in blocks.iter().zip(first_node..) {
            let node = NodeId(i);
            sink.store(BlockId::Data(node), data.clone());
            ids.push(BlockId::Data(node));
            for (&class, parity) in classes.iter().zip(&mut parities) {
                let id = BlockId::Parity(EdgeId::new(class, node));
                sink.store(id, parity);
                ids.push(id);
            }
        }
        Ok(EncodeReport { first_node, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass::*;
    use ae_blocks::{xor, StrandClass};
    use std::collections::HashMap;

    fn blk(seed: u8, len: usize) -> Block {
        Block::from_vec(
            (0..len)
                .map(|k| seed.wrapping_add(k as u8).wrapping_mul(31))
                .collect(),
        )
    }

    fn run_encoder(cfg: Config, n: u64, len: usize) -> (Entangler, HashMap<BlockId, Block>) {
        let mut enc = Entangler::new(cfg, len);
        let store = ae_api::BlockMap::new();
        for k in 0..n {
            let out = enc.entangle(blk(k as u8, len)).unwrap();
            out.insert_into(&store);
        }
        // Snapshot into a plain map for the indexing-heavy assertions.
        (enc, store.entries().into_iter().collect())
    }

    #[test]
    fn produces_alpha_parities_per_block() {
        for (a, s, p) in [(1u8, 1u16, 0u16), (2, 2, 3), (3, 2, 5)] {
            let cfg = Config::new(a, s, p).unwrap();
            let mut enc = Entangler::new(cfg, 8);
            let out = enc.entangle(blk(1, 8)).unwrap();
            assert_eq!(out.parities.len(), a as usize);
            assert_eq!(out.block_ids().len(), 1 + a as usize);
        }
    }

    #[test]
    fn frontier_is_bounded_by_strand_count() {
        let cfg = Config::new(3, 5, 5).unwrap();
        let (enc, _) = run_encoder(cfg, 500, 8);
        assert_eq!(
            enc.memory_footprint(),
            cfg.strand_count() as usize,
            "AE(3,5,5) keeps the last p-block of its 15 strands (§IV.A)"
        );
        assert_eq!(enc.written(), 500);
    }

    #[test]
    fn strand_tables_count_strands() {
        // s horizontal strands, p per helical class (§III.B).
        for (a, s, p) in [(2u8, 2u16, 5u16), (3, 2, 5), (3, 5, 5), (2, 1, 3)] {
            let cfg = Config::new(a, s, p).unwrap();
            let enc = Entangler::new(cfg, 8);
            assert_eq!(enc.tables[0].strands, s, "{cfg} H strands");
            for t in &enc.tables[1..] {
                assert_eq!(t.strands, p, "{cfg} helical strands");
            }
        }
        let single = Entangler::new(Config::single(), 8);
        assert_eq!(single.tables[0].strands, 1);
    }

    /// Every parity must satisfy the entanglement identity
    /// p_{i,j} = d_i XOR p_{h,i} (with p_{h,i} = 0 at strand heads).
    #[test]
    fn parities_satisfy_entanglement_identity() {
        for (a, s, p) in [
            (1u8, 1u16, 0u16),
            (2, 1, 2),
            (2, 2, 5),
            (3, 2, 5),
            (3, 5, 5),
        ] {
            let cfg = Config::new(a, s, p).unwrap();
            let (_, store) = run_encoder(cfg, 300, 16);
            for i in 1..=300i64 {
                let d = &store[&BlockId::Data(NodeId(i as u64))];
                for &class in cfg.classes() {
                    let out_edge = BlockId::Parity(EdgeId::new(class, NodeId(i as u64)));
                    let h = rules::input_source(&cfg, class, i);
                    let expect = if h >= 1 {
                        let input = &store[&BlockId::Parity(EdgeId::new(class, NodeId(h as u64)))];
                        Block::from_vec(xor::xor_of(d.as_slice(), input.as_slice()))
                    } else {
                        d.clone()
                    };
                    assert_eq!(store[&out_edge], expect, "{cfg} node {i} class {class}");
                }
            }
        }
    }

    /// The batch path must be byte-identical to the streaming path.
    #[test]
    fn batch_matches_streaming() {
        for (a, s, p) in [(1u8, 1u16, 0u16), (2, 1, 2), (3, 2, 5), (3, 5, 5)] {
            let cfg = Config::new(a, s, p).unwrap();
            let blocks: Vec<Block> = (0..200).map(|k| blk(k as u8, 16)).collect();

            let (_, streamed) = run_encoder(cfg, 200, 16);
            let batched = ae_api::BlockMap::new();
            let mut enc = Entangler::new(cfg, 16);
            // Split into uneven batches to exercise batch boundaries.
            let report_a = enc.entangle_batch(&blocks[..37], &batched).unwrap();
            let report_b = enc.entangle_batch(&blocks[37..], &batched).unwrap();

            assert_eq!(report_a.first_node, 1);
            assert_eq!(report_b.first_node, 38);
            assert_eq!(report_a.data_written() + report_b.data_written(), 200);
            assert_eq!(enc.written(), 200);
            assert_eq!(batched.len(), streamed.len(), "{cfg}");
            for (id, block) in &streamed {
                assert_eq!(batched.get(id).as_ref(), Some(block), "{cfg}: {id}");
            }
        }
    }

    /// Records every `store` call in the order it arrives.
    #[derive(Default)]
    struct Recording(std::cell::RefCell<Vec<(BlockId, Block)>>);

    impl BlockSink for Recording {
        fn store(&self, id: BlockId, block: Block) {
            self.0.borrow_mut().push((id, block));
        }
    }

    /// `entangle_batch` hands a sink exactly what the concatenated
    /// `entangle` outputs hold — ids, bytes, checksums and **call order**
    /// (`D_i, P_i,1 … P_i,α` per node) — at 4 KiB blocks with batch
    /// lengths on both sides of any grouping of a batch's parities
    /// (16 / 17 nodes is 64 KiB of parity at α = 1; 5 / 6 at α = 3), and
    /// from a batch that starts mid-lattice on a restored frontier.
    #[test]
    fn batch_stores_what_streaming_emits_in_the_same_order() {
        const BS: usize = 4096;
        let block = |k: usize| {
            let bytes = (0..BS).map(|b| (b * 31 + k * 131 + (b >> 8)) as u8);
            Block::from_vec(bytes.collect())
        };
        for (a, s, p) in [(1u8, 1u16, 0u16), (2, 1, 2), (3, 2, 5), (3, 5, 5)] {
            let cfg = Config::new(a, s, p).unwrap();
            let lens = [1usize, 2, 5, 6, 16, 17, 64, 200];
            let blocks: Vec<Block> = (0..lens.iter().sum()).map(block).collect();

            let mut streaming = Entangler::new(cfg, BS);
            let streamed = Recording::default();
            for b in &blocks {
                streaming
                    .entangle(b.clone())
                    .unwrap()
                    .insert_into(&streamed);
            }
            let streamed = streamed.0.into_inner();

            let mut enc = Entangler::new(cfg, BS);
            let batched = Recording::default();
            let (mut at, mut reported) = (0, Vec::new());
            for (round, len) in lens.into_iter().enumerate() {
                if round == 4 {
                    // Resume from the stored parities alone, mid-lattice.
                    let stored = batched.0.borrow();
                    enc = Entangler::restore(cfg, BS, at as u64, |e| {
                        let hit = stored.iter().find(|(id, _)| *id == BlockId::Parity(e));
                        hit.map(|(_, b)| b.clone())
                    })
                    .unwrap();
                }
                let report = enc.entangle_batch(&blocks[at..at + len], &batched).unwrap();
                assert_eq!(report.first_node, at as u64 + 1, "{cfg}");
                reported.extend(report.ids);
                at += len;
            }
            let batched = batched.0.into_inner();

            assert_eq!(batched.len(), streamed.len(), "{cfg}");
            for (k, (got, want)) in batched.iter().zip(&streamed).enumerate() {
                assert_eq!(got.0, want.0, "{cfg}: id of store call {k}");
                assert_eq!(reported[k], want.0, "{cfg}: reported id {k}");
                assert_eq!(got.1.as_slice(), want.1.as_slice(), "{cfg}: {}", want.0);
                assert_eq!(got.1.crc(), want.1.crc(), "{cfg}: {}", want.0);
                got.1.verify().unwrap();
            }
        }
    }

    /// The paper's Table V worked example: in AE(3,5,5), block d26's six
    /// incident parities are p21,26 / p26,31 (h), p22,26 / p26,35 (lh),
    /// p25,26 / p26,32 (rh), and d26 is recoverable from any complete pair.
    #[test]
    fn table5_worked_example() {
        let cfg = Config::new(3, 5, 5).unwrap();
        let (_, store) = run_encoder(cfg, 40, 32);
        let d26 = store[&BlockId::Data(NodeId(26))].clone();
        let pairs: [(StrandClass, u64, u64); 3] = [
            (Horizontal, 21, 26),
            (RightHanded, 25, 26),
            (LeftHanded, 22, 26),
        ];
        for (class, h, i) in pairs {
            let input = &store[&BlockId::Parity(EdgeId::new(class, NodeId(h)))];
            let output = &store[&BlockId::Parity(EdgeId::new(class, NodeId(i)))];
            assert_eq!(
                input.xor(output).unwrap(),
                d26,
                "d26 = p[{class}]{h},26 XOR p[{class}]26,*"
            );
        }
    }

    #[test]
    fn rejects_wrong_block_size() {
        let mut enc = Entangler::new(Config::single(), 8);
        assert!(matches!(
            enc.entangle(Block::zero(9)),
            Err(BlockError::SizeMismatch {
                expected: 8,
                actual: 9
            })
        ));
        // The batch path rejects before writing anything.
        let store = ae_api::BlockMap::new();
        let result = enc.entangle_batch(&[Block::zero(8), Block::zero(9)], &store);
        assert!(matches!(
            result,
            Err(AeError::SizeMismatch {
                expected: 8,
                actual: 9
            })
        ));
        assert!(store.is_empty(), "failed batch must not write");
        assert_eq!(enc.written(), 0);
    }

    #[test]
    fn restore_resumes_identically() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let n = 123;
        let (mut original, store) = run_encoder(cfg, n, 8);

        // Rebuild a broker from the stored parities alone.
        let mut restored =
            Entangler::restore(cfg, 8, n, |e| store.get(&BlockId::Parity(e)).cloned()).unwrap();
        assert_eq!(restored.memory_footprint(), original.memory_footprint());

        // Both encoders must produce identical parities from here on.
        for k in 0..50 {
            let a = original.entangle(blk(k, 8)).unwrap();
            let b = restored.entangle(blk(k, 8)).unwrap();
            assert_eq!(a.node, b.node);
            for ((ea, pa), (eb, pb)) in a.parities.iter().zip(&b.parities) {
                assert_eq!(ea, eb);
                assert_eq!(pa, pb);
            }
        }
    }

    #[test]
    fn restore_reports_missing_parity() {
        let cfg = Config::new(2, 2, 2).unwrap();
        let (_, store) = run_encoder(cfg, 50, 8);
        let result = Entangler::restore(cfg, 8, 50, |e| {
            // Withhold one frontier parity.
            if e.left == NodeId(50) {
                None
            } else {
                store.get(&BlockId::Parity(e)).cloned()
            }
        });
        assert!(matches!(result, Err(e) if e.left == NodeId(50)));
    }
}
