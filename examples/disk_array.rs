//! Use case B (§IV.B): entangled mirror disk arrays.
//!
//! An array with equal numbers of data and parity drives — mirroring's
//! space overhead — where parity drives hold an α = 1 entanglement chain
//! instead of copies. The array is an `Archive` over an `EntangledChain`
//! on two tiers of drives: data drive `j` is location `j` of the data
//! tier, parity drive `j` location `j` of the parity tier, both
//! partitioned in runs of `run` blocks (1 stripes, blocks per drive fills
//! one drive before the next). A drive failure is a failed location, a
//! rebuild is `scrub`. Demonstrates both layouts, a double drive failure
//! rebuild, and why closed chains beat open chains at the extremities.
//!
//! ```sh
//! cargo run --example disk_array
//! ```

use aecodes::api::{BlockSink, BlockSource};
use aecodes::blocks::{BlockId, EdgeId, NodeId, StrandClass};
use aecodes::store::{
    Archive, ChainMode, DistributedStore, EntangledChain, ExtremityWarning, LocationId, Placement,
    TieredStore,
};
use std::sync::Arc;

const DRIVES: u32 = 4;
const BLOCK: usize = 512;
const FILES: usize = 8;
const BLOCKS_PER_FILE: usize = 10;

type Mirror = Archive<TieredStore<DistributedStore, DistributedStore>>;

/// A sealed array over `chain` of 4 data and 4 parity drives partitioned
/// in runs of `run`, holding 80 blocks in 8 files, and the files' bytes.
fn fill(chain: Arc<EntangledChain>, run: u64) -> (Mirror, Vec<Vec<u8>>) {
    let drives = || DistributedStore::new(DRIVES, Placement::Partition { run });
    let tiers = TieredStore::with_fast(drives(), Arc::new(drives()));
    let mut ar = Archive::with_scheme(chain, BLOCK, Arc::new(tiers));
    let files: Vec<Vec<u8>> = (0..FILES)
        .map(|f| {
            (0..BLOCKS_PER_FILE * BLOCK)
                .map(|b| ((f * BLOCKS_PER_FILE + b / BLOCK) * 31 + b % BLOCK) as u8)
                .collect()
        })
        .collect();
    for (f, bytes) in files.iter().enumerate() {
        ar.put(&format!("file{f}"), bytes).expect("fresh name");
    }
    ar.seal().expect("first seal");
    (ar, files)
}

/// The array's blocks it cannot read.
fn missing(ar: &Mirror) -> Vec<BlockId> {
    let ids = ar.stored_ids().iter().copied();
    ids.filter(|&id| !ar.store().has(id)).collect()
}

/// Every file reads back byte for byte.
fn check(ar: &Mirror, files: &[Vec<u8>]) {
    for (f, bytes) in files.iter().enumerate() {
        assert_eq!(&ar.get(&format!("file{f}")).unwrap(), bytes);
    }
}

/// Removes the tail data block and its parity, then returns what a
/// rebuild cannot bring back and the chain's extremity warning.
fn tail_loss(mode: ChainMode) -> (Vec<BlockId>, Option<ExtremityWarning>) {
    let chain = Arc::new(EntangledChain::new(mode, BLOCK));
    let (mut ar, _) = fill(chain.clone(), 1);
    let n = ar.blocks_written();
    ar.store().remove(BlockId::Data(NodeId(n)));
    let tail_parity = EdgeId::new(StrandClass::Horizontal, NodeId(n));
    ar.store().remove(BlockId::Parity(tail_parity));
    ar.scrub();
    (missing(&ar), chain.extremity_warning(n))
}

fn main() {
    // Striped, closed-chain array: 4 data drives + 4 parity drives.
    let chain = |mode| Arc::new(EntangledChain::new(mode, BLOCK));
    let (mut ar, files) = fill(chain(ChainMode::Closed), 1);
    println!(
        "entangled mirror: {DRIVES} data drives + {DRIVES} parity drives, {} blocks, closed chain",
        ar.blocks_written()
    );

    // Lose one data drive AND one parity drive at once.
    ar.store().fast().with_cluster(|c| c.fail(LocationId(2)));
    ar.store().shared().with_cluster(|c| c.fail(LocationId(1)));
    println!("failed data drive 2 and parity drive 1");
    check(&ar, &files);
    let restored = ar.scrub();
    assert!(missing(&ar).is_empty(), "rebuild must fully recover");
    check(&ar, &files);
    println!(
        "rebuild put {restored} blocks back on live drives: all {FILES} files verified byte-identical\n"
    );

    // MAID-style full partition: sequential fills keep most drives idle.
    let (mut maid, files) = fill(chain(ChainMode::Closed), 20);
    let data_drive = |i| maid.store().fast().location_of(BlockId::Data(NodeId(i))).0;
    println!(
        "full-partition (MAID) layout: block 1 on drive {}, block 21 on drive {}",
        data_drive(1),
        data_drive(21)
    );
    maid.store().fast().with_cluster(|c| c.fail(LocationId(0)));
    maid.scrub();
    assert!(missing(&maid).is_empty());
    check(&maid, &files);
    println!("lost the first data drive entirely; chain rebuilt it\n");

    // Open vs closed chains at the extremity (the paper's motivation for
    // closed chains): losing the tail block plus its only parity is fatal
    // for an open chain, harmless for a closed one.
    let (open_lost, open_warning) = tail_loss(ChainMode::Open);
    let (closed_lost, closed_warning) = tail_loss(ChainMode::Closed);
    println!(
        "tail loss (d80 + its parity): open chain loses {} blocks, closed chain loses {}",
        open_lost.len(),
        closed_lost.len()
    );
    assert!(!open_lost.is_empty() && closed_lost.is_empty());
    // The open chain announces its weakness instead of failing silently:
    // the scheme's typed warning names exactly the pair that died.
    let warning = open_warning.expect("open chains warn");
    assert_eq!(warning.exposed, open_lost);
    assert!(closed_warning.is_none());
    println!("open-chain warning: {warning}");
    println!("closed chains remove the extremity weakness, as §IV.B.1 argues");
}
