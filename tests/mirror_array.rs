//! Use case B (§IV.B.1) on the one archive: an entangled mirror array is
//! an `Archive` over an `EntangledChain` whose backend is a `TieredStore`
//! with two tiers of drives. Data drive `j` is location `j` of the data
//! tier, parity drive `j` location `j` of the parity tier, and both tiers
//! are partitioned in runs of `run` blocks: `run = 1` stripes, `run` =
//! blocks per drive fills one drive before the next. A drive failure is a
//! failed location and a rebuild is `scrub`.

use aecodes::api::{BlockSink, BlockSource};
use aecodes::blocks::{BlockId, EdgeId, NodeId, StrandClass};
use aecodes::store::{
    Archive, ChainMode, DistributedStore, EntangledChain, LocationId, Placement, TieredStore,
};
use std::sync::Arc;

const BLOCK: usize = 16;

type Mirror = Archive<TieredStore<DistributedStore, DistributedStore>>;

/// Which tier a drive belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Data,
    Parity,
}

fn data(i: u64) -> BlockId {
    BlockId::Data(NodeId(i))
}

fn parity(i: u64) -> BlockId {
    BlockId::Parity(EdgeId::new(StrandClass::Horizontal, NodeId(i)))
}

/// A sealed array of `drives` data drives and as many parity drives,
/// partitioned in runs of `run`, holding `blocks` blocks as one file.
fn mirror(drives: u32, run: u64, mode: ChainMode, blocks: u64) -> (Mirror, Vec<u8>) {
    let tier = || DistributedStore::new(drives, Placement::Partition { run });
    let store = TieredStore::with_fast(tier(), Arc::new(tier()));
    let chain = Arc::new(EntangledChain::new(mode, BLOCK));
    let mut ar = Archive::with_scheme(chain, BLOCK, Arc::new(store));
    let file: Vec<u8> = (0..blocks as usize * BLOCK)
        .map(|b| (b * 13 / BLOCK + b) as u8)
        .collect();
    ar.put("file", &file).expect("fresh name");
    ar.seal().expect("first seal");
    (ar, file)
}

/// The drives of one tier.
fn tier(ar: &Mirror, tier: Tier) -> &DistributedStore {
    match tier {
        Tier::Data => ar.store().fast(),
        Tier::Parity => ar.store().shared(),
    }
}

/// The tier that holds `id`: data blocks on the data drives, the rest
/// (parities and the archive's journal) on the parity drives.
fn tier_of(id: BlockId) -> Tier {
    if id.is_data() {
        Tier::Data
    } else {
        Tier::Parity
    }
}

/// The drive that holds `id`.
fn drive_of(ar: &Mirror, id: BlockId) -> (Tier, LocationId) {
    (tier_of(id), tier(ar, tier_of(id)).location_of(id))
}

/// The array's blocks it cannot read.
fn missing(ar: &Mirror) -> Vec<BlockId> {
    let ids = ar.stored_ids().iter().copied();
    ids.filter(|&id| !ar.store().has(id)).collect()
}

/// Scrubs the array and checks the file reads back: what the rebuild
/// could not bring back.
fn rebuild(ar: &mut Mirror, file: &[u8]) -> Vec<BlockId> {
    ar.scrub();
    let lost = missing(ar);
    if lost.is_empty() {
        assert_eq!(ar.get("file").unwrap(), file);
        assert_eq!(ar.scrub(), 0, "a second scrub restores nothing");
    }
    lost
}

/// Every block sits on the drive of its index in its kind's write order:
/// `d_i` and `p_i` on drive `((i − 1) / run) mod d` of their tier, and
/// failing that drive leaves exactly the blocks on it unreadable. A closed
/// chain's closing parity `(H, n+1)` is keyed like any parity, so it sits
/// on parity drive `(n / run) mod d`, not on `p_n`'s: the ring's tuples
/// hold `p_n` and `p_{n+1}` as two of their members, so keeping them apart
/// is no worse than keeping them together.
fn check_partition_drives(run: u64) {
    let blocks = 40u64;
    for mode in [ChainMode::Open, ChainMode::Closed] {
        for drives in [2u32, 4] {
            let ctx = format!("{mode}, {drives} drives, run {run}");
            let (ar, _) = mirror(drives, run, mode, blocks);
            let ids = ar.stored_ids().to_vec();
            assert_eq!(ids, ar.scheme().block_ids(blocks), "{ctx}");
            let want = |id: BlockId| {
                let i = match id {
                    BlockId::Data(NodeId(i)) => i,
                    BlockId::Parity(e) => e.left.0,
                    other => panic!("{other} is not a chain block"),
                };
                (
                    tier_of(id),
                    LocationId(((i - 1) / run % drives as u64) as u32),
                )
            };
            let closing = parity(blocks + 1);
            let on_closing = (
                Tier::Parity,
                LocationId((blocks / run % drives as u64) as u32),
            );
            assert_eq!(want(closing), on_closing, "{ctx}");
            for &id in &ids {
                assert_eq!(drive_of(&ar, id), want(id), "{ctx}: {id}");
            }
            for kind in [Tier::Data, Tier::Parity] {
                for loc in (0..drives).map(LocationId) {
                    tier(&ar, kind).with_cluster(|c| c.fail(loc));
                    let on_it: Vec<BlockId> = ids
                        .iter()
                        .copied()
                        .filter(|&id| want(id) == (kind, loc))
                        .collect();
                    assert_eq!(missing(&ar), on_it, "{ctx}: {kind:?} drive {loc:?}");
                    tier(&ar, kind).with_cluster(|c| c.restore(loc));
                }
            }
        }
    }
}

/// Striping (`run = 1`): consecutive blocks go to consecutive drives,
/// `d_i` and `p_i` on drive `(i − 1) mod d` of their tier.
#[test]
fn striping_spreads_consecutive_blocks() {
    let (ar, _) = mirror(4, 1, ChainMode::Open, 40);
    assert_eq!(drive_of(&ar, data(1)), (Tier::Data, LocationId(0)));
    assert_eq!(drive_of(&ar, data(2)), (Tier::Data, LocationId(1)));
    assert_eq!(drive_of(&ar, data(5)), (Tier::Data, LocationId(0)));
    assert_eq!(drive_of(&ar, parity(1)), (Tier::Parity, LocationId(0)));
    check_partition_drives(1);
}

/// Full partition (`run` = blocks per drive): one drive fills before the
/// next, `d_i` and `p_i` on drive `((i − 1) / run) mod d` of their tier.
#[test]
fn full_partition_fills_drives_in_order() {
    let (ar, _) = mirror(4, 10, ChainMode::Open, 40);
    assert_eq!(drive_of(&ar, data(1)), (Tier::Data, LocationId(0)));
    assert_eq!(drive_of(&ar, data(10)), (Tier::Data, LocationId(0)));
    assert_eq!(drive_of(&ar, data(11)), (Tier::Data, LocationId(1)));
    assert_eq!(drive_of(&ar, data(40)), (Tier::Data, LocationId(3)));
    check_partition_drives(10);
}

/// Equal numbers of data and parity drives: one parity per data block,
/// like mirroring, plus the closed ring's closing parity.
#[test]
fn mirror_equivalent_space_overhead() {
    let blocks = 30u64;
    for mode in [ChainMode::Open, ChainMode::Closed] {
        for run in [1u64, 10] {
            let (ar, _) = mirror(3, run, mode, blocks);
            let ids = ar.stored_ids();
            let data = ids.iter().filter(|id| id.is_data()).count() as u64;
            let parities = ids.iter().filter(|id| id.is_parity()).count() as u64;
            let closed = (mode == ChainMode::Closed) as u64;
            assert_eq!(data, blocks, "{mode}, run {run}");
            assert_eq!(parities, data + closed, "{mode}, run {run}");
            assert_eq!(ar.store().fast().total_blocks() as u64, data, "{mode}");
        }
    }
}

#[test]
fn single_drive_failure_rebuilds_fully() {
    for run in [1u64, 10] {
        for mode in [ChainMode::Open, ChainMode::Closed] {
            let (mut ar, file) = mirror(4, run, mode, 40);
            ar.store().fast().with_cluster(|c| c.fail(LocationId(1)));
            let unrecovered = rebuild(&mut ar, &file);
            assert!(unrecovered.is_empty(), "run {run} {mode}: {unrecovered:?}");
        }
    }
}

#[test]
fn parity_drive_failure_rebuilds_fully() {
    let (mut ar, file) = mirror(4, 1, ChainMode::Closed, 40);
    ar.store().shared().with_cluster(|c| c.fail(LocationId(2)));
    assert!(rebuild(&mut ar, &file).is_empty());
}

/// The open chain's extremity weakness: losing the last data block and
/// its (only) parity tuple is fatal; the closed ring survives it.
#[test]
fn closed_chain_fixes_the_extremity() {
    for mode in [ChainMode::Open, ChainMode::Closed] {
        let (mut ar, file) = mirror(2, 1, mode, 10);
        ar.store().remove(data(10));
        ar.store().remove(parity(10));
        let unrecovered = rebuild(&mut ar, &file);
        // The weakness is announced, not silent: the scheme's typed
        // warning names exactly the pair that died.
        let warning = EntangledChain::new(mode, BLOCK).extremity_warning(10);
        assert_eq!(
            warning.map(|w| w.exposed).unwrap_or_default(),
            unrecovered,
            "{mode}"
        );
    }
}

/// The ring also protects the head: d_1 gains a second repair tuple.
#[test]
fn closed_chain_gives_head_two_tuples() {
    let (mut ar, file) = mirror(2, 1, ChainMode::Closed, 10);
    // Remove d_1 and its first parity: the open-chain tuple is gone.
    ar.store().remove(data(1));
    ar.store().remove(parity(1));
    let unrecovered = rebuild(&mut ar, &file);
    assert!(unrecovered.is_empty(), "{unrecovered:?}");
}

#[test]
fn adjacent_node_pair_with_shared_edge_is_fatal() {
    // Fig 6 primitive form I holds for arrays too: d_i, d_{i+1} and the
    // shared parity p_i form a dead triple.
    let (mut ar, file) = mirror(2, 1, ChainMode::Closed, 20);
    for id in [data(5), data(6), parity(5)] {
        ar.store().remove(id);
    }
    assert_eq!(rebuild(&mut ar, &file), [data(5), parity(5), data(6)]);
}
