//! Scheme parity: AE, Reed-Solomon and replication all round-trip
//! `encode_batch` → random erasures → `repair_missing` through one
//! `RedundancyScheme`-generic harness. No code in this file knows which
//! scheme it is exercising.

use aecodes::api::{BlockSink, BlockSource};
use aecodes::baselines::{ReedSolomon, Replication};
use aecodes::blocks::{Block, BlockId, EdgeId, NodeId, StrandClass};
use aecodes::core::{BlockMap, Code, RedundancyScheme};
use aecodes::lattice::Config;
use aecodes::store::{ChainMode, EntangledChain, GeoLattice};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Mutex;

const BLOCK: usize = 32;

/// Any scheme in the lineup — the Table IV codes plus the store-backed
/// §IV use-case schemes — boxed behind the one trait.
fn any_scheme() -> impl Strategy<Value = Box<dyn RedundancyScheme>> {
    (0u8..10).prop_map(|pick| -> Box<dyn RedundancyScheme> {
        match pick {
            0 => Box::new(Code::new(Config::single(), BLOCK)),
            1 => Box::new(Code::new(Config::new(2, 2, 5).unwrap(), BLOCK)),
            2 => Box::new(Code::new(Config::new(3, 2, 5).unwrap(), BLOCK)),
            3 => Box::new(ReedSolomon::new(4, 2).unwrap()),
            4 => Box::new(ReedSolomon::new(10, 4).unwrap()),
            5 => Box::new(Replication::new(2)),
            6 => Box::new(Replication::new(3)),
            7 => Box::new(EntangledChain::new(ChainMode::Open, BLOCK)),
            8 => Box::new(EntangledChain::new(ChainMode::Closed, BLOCK)),
            _ => Box::new(GeoLattice::new(
                Code::new(Config::new(2, 2, 5).unwrap(), BLOCK),
                7,
            )),
        }
    })
}

fn payload(n: u64, seed: u64) -> Vec<Block> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Block::from_vec((0..BLOCK).map(|k| (state >> (k % 56)) as u8).collect())
        })
        .collect()
}

/// Encodes `blocks` through the trait, returning the filled store.
fn encode_all(scheme: &dyn RedundancyScheme, blocks: &[Block]) -> BlockMap {
    let store = BlockMap::new();
    let report = scheme.encode_batch(blocks, &store).expect("uniform sizes");
    assert_eq!(report.data_written(), blocks.len() as u64);
    scheme.seal(&store).expect("flush buffered redundancy");
    store
}

/// Every store in arrival order.
#[derive(Default)]
struct Recorder(Mutex<Vec<(BlockId, Block)>>);

impl BlockSink for Recorder {
    fn store(&self, id: BlockId, block: Block) {
        self.0.lock().unwrap().push((id, block));
    }
}

/// `store` minus `down`, logging every id asked of it in order.
struct Logged<'a> {
    store: &'a BlockMap,
    down: &'a BTreeSet<BlockId>,
    asked: Mutex<Vec<BlockId>>,
}

impl Logged<'_> {
    fn available(&self, id: BlockId) -> bool {
        self.asked.lock().unwrap().push(id);
        !self.down.contains(&id) && self.store.contains_key(&id)
    }

    fn take(&self) -> Vec<BlockId> {
        std::mem::take(&mut *self.asked.lock().unwrap())
    }
}

impl BlockSource for Logged<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.available(id).then(|| self.store.get(&id)).flatten()
    }

    fn has(&self, id: BlockId) -> bool {
        self.available(id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The open chain of §IV.B.1 is single entanglement AE(1,-,-): the two
    /// schemes store the same bytes under the same ids, index the same
    /// universe, and at every written position under a random damage mask
    /// ask the same ids in the same order, answer the same, fetch the same
    /// ids in the same order and return the same repair result.
    #[test]
    fn open_chain_is_single_entanglement(
        seed: u64,
        n in 1u64..90,
        split in 0u64..90,
        down in proptest::collection::btree_set(0usize..180, 0..70),
    ) {
        let chain = EntangledChain::new(ChainMode::Open, BLOCK);
        let ae = Code::new(Config::single(), BLOCK);
        let schemes: [&dyn RedundancyScheme; 2] = [&chain, &ae];
        let blocks = payload(n, seed);
        let (head, tail) = blocks.split_at(split.min(n) as usize);
        let [a, b] = schemes.map(|s| {
            let sink = Recorder::default();
            let reports = [head, tail].map(|batch| s.encode_batch(batch, &sink).unwrap());
            let sealed = s.seal(&sink).unwrap();
            (reports, sealed, sink.0.into_inner().unwrap())
        });
        prop_assert_eq!(&a, &b);

        let universe = ae.block_ids(n);
        prop_assert_eq!(&chain.block_ids(n), &universe);
        prop_assert_eq!(chain.universe_len(n), ae.universe_len(n));
        for k in 0..=universe.len() as u32 {
            prop_assert_eq!(chain.block_at(k, n), ae.block_at(k, n));
        }
        let outside = [
            BlockId::Data(NodeId(0)),
            BlockId::Data(NodeId(n + 1)),
            BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(n + 1))),
            BlockId::Parity(EdgeId::new(StrandClass::RightHanded, NodeId(1))),
        ];
        for id in universe.iter().chain(&outside) {
            prop_assert_eq!(chain.dense_index(id, n), ae.dense_index(id, n));
        }

        let store = BlockMap::new();
        for (id, block) in a.2 {
            store.insert(id, block);
        }
        let down: BTreeSet<BlockId> = down.iter().filter_map(|&k| universe.get(k).copied()).collect();
        let missing_data: Vec<BlockId> = down.iter().copied().filter(|id| id.is_data()).collect();
        prop_assert_eq!(
            chain.maintenance_targets(&missing_data, n),
            ae.maintenance_targets(&missing_data, n)
        );
        let source = Logged { store: &store, down: &down, asked: Mutex::new(Vec::new()) };
        for &id in &universe {
            let [asked_chain, asked_ae] = schemes.map(|s| {
                let answer = s.is_repairable(id, n, &|q| source.available(q));
                (answer, source.take())
            });
            prop_assert_eq!(asked_chain, asked_ae, "is_repairable({})", id);
            let [fetched_chain, fetched_ae] = schemes.map(|s| {
                let result = s.repair_block(&source, id, n);
                (result, source.take())
            });
            prop_assert_eq!(fetched_chain, fetched_ae, "repair_block({})", id);
        }
    }

    /// Scattered single data-block erasures, far enough apart that every
    /// scheme in the lineup must recover all of them, byte-identically,
    /// through the same generic code path.
    #[test]
    fn all_schemes_round_trip_scattered_erasures(
        scheme in any_scheme(),
        seed: u64,
        picks in proptest::collection::btree_set(0u64..20, 1..5),
    ) {
        let n = 400u64;
        let blocks = payload(n, seed);
        let store = encode_all(scheme.as_ref(), &blocks);

        // One victim per 20-wide stride: strictly more than any stripe
        // width or repair-tuple span apart, so no scheme can be over-erased.
        // Victims come from the scheme's own universe (the geo lattice
        // namespaces its ids), in write order, data blocks only.
        let data_ids: Vec<BlockId> = scheme
            .block_ids(n)
            .into_iter()
            .filter(|id| id.is_data())
            .collect();
        let victims: Vec<BlockId> = picks.iter().map(|&p| data_ids[(p * 20) as usize]).collect();
        let originals: Vec<Block> = victims
            .iter()
            .map(|v| store.remove(v).expect("victim was stored"))
            .collect();

        let summary = scheme.repair_missing(&store, &victims, n);
        prop_assert!(
            summary.fully_recovered(),
            "{} left {:?}",
            scheme.scheme_name(),
            summary.unrecovered
        );
        prop_assert!(summary.blocks_read > 0);
        for (v, original) in victims.iter().zip(&originals) {
            let repaired = store.get(v);
            prop_assert_eq!(
                repaired.as_ref(),
                Some(original),
                "{}: {}",
                scheme.scheme_name(),
                v
            );
        }
    }

    /// Single-block repair agrees with the round engine and reports
    /// missing tuple members on an empty store.
    #[test]
    fn repair_block_matches_and_errors_are_rich(
        scheme in any_scheme(),
        seed: u64,
        victim in 1u64..200,
    ) {
        let n = 200u64;
        let blocks = payload(n, seed);
        let store = encode_all(scheme.as_ref(), &blocks);
        // The victim's id in the scheme's own (possibly namespaced) space.
        let id = scheme
            .block_ids(n)
            .into_iter()
            .filter(|q| q.is_data())
            .nth(victim as usize - 1)
            .expect("victim within extent");
        let original = store.remove(&id).expect("victim was stored");
        let repaired = scheme.repair_block(&store, id, n);
        prop_assert_eq!(
            repaired.as_ref().ok(),
            Some(&original),
            "{}",
            scheme.scheme_name()
        );

        // With nothing available the repair fails and says what it needed.
        let err = scheme.repair_block(&BlockMap::new(), id, n).unwrap_err();
        prop_assert!(
            !err.missing_blocks().is_empty(),
            "{} error must name missing members",
            scheme.scheme_name()
        );
    }

    /// The availability hooks agree with the byte plane: a block the
    /// structural oracle calls repairable under a random availability
    /// pattern is indeed repairable with bytes, and vice versa.
    #[test]
    fn availability_oracle_matches_byte_plane(
        scheme in any_scheme(),
        seed: u64,
        down in proptest::collection::btree_set(0usize..600, 1..40),
    ) {
        let n = 120u64;
        let blocks = payload(n, seed);
        let full = encode_all(scheme.as_ref(), &blocks);
        let universe = scheme.block_ids(n);

        // Knock out a random subset of the universe.
        let downed: BTreeSet<BlockId> = down
            .iter()
            .filter_map(|&k| universe.get(k % universe.len()).copied())
            .collect();
        let store = full.clone();
        for id in &downed {
            store.remove(id);
        }

        for &target in downed.iter().take(10) {
            let avail = |q: BlockId| q != target && !downed.contains(&q) && full.contains_key(&q);
            let oracle = scheme.is_repairable(target, n, &avail);
            let bytes = scheme.repair_block(&store, target, n).is_ok();
            prop_assert_eq!(
                oracle,
                bytes,
                "{}: {} oracle vs bytes",
                scheme.scheme_name(),
                target
            );
        }
    }
}
