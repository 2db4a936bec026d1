//! The id ⇄ position bijection is a scheme's write order.
//!
//! Every scheme answers `dense_index` and `block_at` in O(1), and the
//! trait requires both: they are the one definition of the order in
//! which a deployment stores its blocks. `SchemePlane` and `Archive`
//! build on them and hold *no* per-block id state at all, so these
//! properties are what keeps them honest:
//!
//! * the ids `encode_batch` reports, batch after batch, followed by the
//!   ids `seal` returns, are `block_at(0..universe_len)` in order — over
//!   every scheme in the extended roster (the store-backed chain and geo
//!   schemes included), proptest-drawn batch splits, and RS deployments
//!   with partial final stripes — and those reports are exactly what
//!   reached the sink, in the order it was stored;
//! * round-trips `block_at(dense_index(id)) == id` and
//!   `dense_index(block_at(k)) == k`.
//!
//! What the scheme writes is the oracle; `Archive::put` holds every
//! report to the same arithmetic as it stores.

use aecodes::api::{BlockSink, RedundancyScheme};
use aecodes::blocks::{Block, BlockId, NodeId, ShardId};
use aecodes::sim::Scheme;
use proptest::prelude::*;
use std::sync::Mutex;

/// Every scheme in the roster, by index (proptest picks the index).
fn roster() -> Vec<Scheme> {
    Scheme::extended_lineup()
}

const BLOCK: usize = 8;

/// A sink that keeps only the ids stored into it, in arrival order.
#[derive(Default)]
struct Recorder(Mutex<Vec<BlockId>>);

impl BlockSink for Recorder {
    fn store(&self, id: BlockId, _block: Block) {
        self.0.lock().unwrap().push(id);
    }
}

/// Encodes one batch per entry of `sizes` through `scheme`, then seals.
/// Answers the reported ids (every `EncodeReport::ids`, then `seal`'s)
/// after checking they are what reached the sink.
fn written(scheme: &dyn RedundancyScheme, sizes: &[usize]) -> Vec<BlockId> {
    let sink = Recorder::default();
    let mut reported = Vec::new();
    for (b, &size) in sizes.iter().enumerate() {
        let batch: Vec<Block> = (0..size)
            .map(|i| Block::from_vec(vec![(b * 31 + i) as u8; BLOCK]))
            .collect();
        let report = scheme
            .encode_batch(&batch, &sink)
            .expect("equal-sized blocks");
        reported.extend(report.ids);
    }
    reported.extend(scheme.seal(&sink).expect("seal"));
    assert_eq!(
        reported,
        sink.0.into_inner().unwrap(),
        "{}: the reports are what was stored",
        scheme.scheme_name()
    );
    reported
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both directions of the bijection agree with what the scheme
    /// writes, for every roster scheme, over batch splits that leave RS
    /// final stripes partial, exactly full, and completed by a later
    /// batch.
    #[test]
    fn bijection_matches_enumeration(
        pick in 0usize..13,
        sizes in proptest::collection::vec(0usize..40, 1..8),
    ) {
        let scheme = roster()[pick].build(BLOCK);
        let name = scheme.scheme_name();
        let ids = written(&*scheme, &sizes);
        let n = sizes.iter().sum::<usize>() as u64;
        prop_assert_eq!(scheme.data_written(), n, "{}", &name);
        prop_assert_eq!(&ids, &scheme.block_ids(n), "{} over {:?}", &name, &sizes);
        for (k, id) in ids.iter().enumerate() {
            prop_assert_eq!(scheme.dense_index(id, n), Some(k as u32), "{} {}", &name, id);
        }
        // One past the end, and far out.
        prop_assert_eq!(scheme.block_at(ids.len() as u32, n), None, "{}", &name);
        prop_assert_eq!(scheme.block_at(u32::MAX, n), None, "{}", &name);
    }

    /// Round-trips: position → id → position and id → position → id.
    #[test]
    fn bijection_round_trips(
        pick in 0usize..13,
        n in 1u64..150,
    ) {
        let scheme = roster()[pick].build(0);
        let name = scheme.scheme_name();
        let len = scheme.universe_len(n);
        for k in 0..len as u32 {
            let id = scheme.block_at(k, n).expect("within universe");
            prop_assert_eq!(scheme.dense_index(&id, n), Some(k), "{} at {}", &name, k);
        }
        for id in scheme.block_ids(n) {
            let k = scheme.dense_index(&id, n).expect("universe member");
            prop_assert_eq!(scheme.block_at(k, n), Some(id), "{} {}", &name, id);
        }
        // Foreign ids have no position in any roster scheme's universe.
        for foreign in [
            BlockId::Data(NodeId(0)),
            BlockId::Data(NodeId((1 << 60) + 1)),
            BlockId::Shard(ShardId { stripe: 1 << 40, index: 0 }),
        ] {
            prop_assert_eq!(scheme.dense_index(&foreign, n), None, "{} {}", &name, foreign);
        }
    }
}

/// RS partial final stripes, pinned explicitly: every `k`, `m` and extent
/// combination where the last stripe stores fewer than `k` data blocks,
/// written in batches that straddle stripe boundaries and leave the
/// partial stripe to the seal.
#[test]
fn rs_partial_final_stripes_invert_exactly() {
    for (k, m) in [(4u32, 2u32), (10, 4), (5, 5)] {
        for rem in 1..k {
            let n = u64::from(3 * k + rem); // 3 full stripes + a partial one
            let scheme = Scheme::Rs { k, m }.build(BLOCK);
            let (k, rem) = (k as usize, rem as usize);
            let ids = written(&*scheme, &[1, k, 2 * k - 1 + rem]);
            assert_eq!(ids, scheme.block_ids(n), "RS({k},{m}) n={n}");
            for (pos, id) in ids.iter().enumerate() {
                assert_eq!(scheme.dense_index(id, n), Some(pos as u32));
            }
            assert_eq!(scheme.block_at(ids.len() as u32, n), None);
        }
    }
}
