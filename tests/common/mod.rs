//! Reading the committed checkpoint off a backend through the public
//! record format alone — shared by the tests that hold the chain of
//! segments to its shape (`checkpoint_replay.rs`) and forge its headers
//! (`checkpoint_chain.rs`).

use aecodes::blocks::BlockId;
use aecodes::store::meta::{meta_copy_id, pointer_id, CheckpointPayload, MetaRecord};
use aecodes::store::MemStore;

pub fn record(store: &MemStore, id: BlockId, seq: u64) -> MetaRecord {
    let block = store.get(id).expect("a live record");
    MetaRecord::decode(seq, block.as_slice()).expect("a live record decodes")
}

/// The committed chain `store` holds, newest segment first, as `(part-0
/// seq, part count, segment)`: the newer pointer cell, then base by base.
pub fn chain(store: &MemStore) -> Vec<(u64, u32, CheckpointPayload)> {
    let cells = (0..2).filter(|&slot| store.contains(pointer_id(slot, 0)));
    let named = cells.map(|slot| match record(store, pointer_id(slot, 0), slot) {
        MetaRecord::Pointer { checkpoint, parts } => (checkpoint, parts),
        other => panic!("pointer cell {slot} holds {other:?}"),
    });
    let mut next = named.max();
    let mut out = Vec::new();
    while let Some((seq, parts)) = next {
        let mut payload = Vec::new();
        for part in 0..parts {
            let at = seq + u64::from(part);
            match record(store, meta_copy_id(at, 0), at) {
                MetaRecord::Checkpoint {
                    part: p,
                    parts: n,
                    chunk,
                } if p == part && n == parts => payload.extend_from_slice(&chunk),
                other => panic!("meta#{at} is not part {part}/{parts}: {other:?}"),
            }
        }
        let segment = CheckpointPayload::decode(&payload).expect("a live segment decodes");
        next = segment.base;
        out.push((seq, parts, segment));
    }
    out
}
