//! `BlockMap` against a model: a plain `HashMap<BlockId, Block>` given
//! the same random operations. The map is paged by write order inside
//! (eight neighbouring ids of one kind to a page); from outside it must
//! answer every operation exactly as the model does. Ids come from every
//! variant and sub-field at page edges (raw 7/8, 63/64, `u64::MAX`), with
//! tenant tags in the high 16 bits and `Meta` record, pointer and copy
//! bits, so a run of operations fills, overwrites and empties shared
//! pages.

use aecodes::api::{BlockMap, BlockSink, BlockSource};
use aecodes::blocks::{Block, BlockId, EdgeId, MetaId, NodeId, ReplicaId, ShardId, StrandClass};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The ids a case draws from.
fn pool() -> Vec<BlockId> {
    let tenant = 3 << 48;
    let edges = [0, 1, 6, 7, 8, 9, 63, 64, 65, u64::MAX];
    let raws = edges.into_iter().chain([tenant | 7, tenant | 8]);
    let mut ids: Vec<BlockId> = raws
        .flat_map(|raw| {
            let parity = |class| BlockId::Parity(EdgeId::new(class, NodeId(raw)));
            [
                BlockId::Data(NodeId(raw)),
                parity(StrandClass::Horizontal),
                parity(StrandClass::RightHanded),
                parity(StrandClass::LeftHanded),
                BlockId::Shard(ShardId {
                    stripe: raw,
                    index: 0,
                }),
                BlockId::Shard(ShardId {
                    stripe: raw,
                    index: 3,
                }),
                BlockId::Replica(ReplicaId {
                    node: NodeId(raw),
                    copy: 1,
                }),
                BlockId::Replica(ReplicaId {
                    node: NodeId(raw),
                    copy: 2,
                }),
                BlockId::Meta(MetaId(raw)),
            ]
        })
        .collect();
    for copy in [0, 1, MetaId::MAX_COPIES - 1] {
        for seq in [7, 8] {
            ids.push(BlockId::Meta(MetaId::record(seq, copy)));
            ids.push(BlockId::Meta(MetaId::pointer(seq, copy)));
            ids.push(BlockId::Meta(MetaId(MetaId::pointer(seq, copy).0 | tenant)));
        }
    }
    let mut seen = HashSet::new();
    ids.retain(|&id| seen.insert(id));
    ids
}

/// One operation: what to do, the id it starts at in the pool, a byte.
type Op = (u8, usize, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..12, 0usize..1024, any::<u8>()), 1..300)
}

fn as_set(pairs: impl IntoIterator<Item = (BlockId, Block)>) -> HashSet<(BlockId, Vec<u8>)> {
    pairs
        .into_iter()
        .map(|(id, block)| (id, block.as_slice().to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_map_answers_as_a_hash_map_does(ops in ops()) {
        let pool = pool();
        let map = BlockMap::new();
        let mut model: HashMap<BlockId, Block> = HashMap::new();
        for (step, &(op, at, byte)) in ops.iter().enumerate() {
            let id = pool[at % pool.len()];
            match op {
                // Inserts are a third of the operations, overwrites included.
                0..=3 => {
                    let block = Block::from_vec(vec![byte, step as u8]);
                    prop_assert_eq!(map.insert(id, block.clone()), model.insert(id, block));
                }
                4 => prop_assert_eq!(map.remove(&id), model.remove(&id)),
                5 => {
                    prop_assert_eq!(map.get(&id), model.get(&id).cloned());
                    prop_assert_eq!(map.contains_key(&id), model.contains_key(&id));
                    prop_assert_eq!(map.has(id), model.contains_key(&id));
                }
                // A run of neighbouring pool ids, one of them repeated, so
                // runs share pages, leave them and come back.
                6 => {
                    let mut run: Vec<BlockId> = (0..usize::from(byte % 20))
                        .map(|k| pool[(at + k) % pool.len()])
                        .collect();
                    run.push(id);
                    let want: Vec<Option<Block>> = run.iter().map(|id| model.get(id).cloned()).collect();
                    prop_assert_eq!(map.get_many(&run), want);
                }
                7 => {
                    let ids = map.ids();
                    prop_assert_eq!(ids.len(), model.len());
                    prop_assert_eq!(ids.into_iter().collect::<HashSet<_>>(), model.keys().copied().collect::<HashSet<_>>());
                    let entries = map.entries();
                    prop_assert_eq!(entries.len(), model.len());
                    prop_assert_eq!(as_set(entries), as_set(model.clone()));
                }
                8 => {
                    // Drop a third of the blocks by contents, and the op's id.
                    let keep = |held: &BlockId, block: &Block| {
                        !(block.as_slice()[0] ^ byte).is_multiple_of(3) && *held != id
                    };
                    map.retain(keep);
                    model.retain(|id, block| keep(id, block));
                }
                9 if byte < 24 => {
                    map.clear();
                    model.clear();
                }
                // Clones equal, part, and equal the map rebuilt from the
                // model, whatever the order it was filled in.
                10 => {
                    let copy = map.clone();
                    prop_assert!(copy == map);
                    let rebuilt: BlockMap = model.iter().map(|(&id, b)| (id, b.clone())).collect();
                    prop_assert!(rebuilt == map);
                    copy.store(id, Block::from_vec(vec![byte, step as u8, 1]));
                    prop_assert!(copy != map);
                    prop_assert!(BlockSink::remove(&copy, id));
                    prop_assert_eq!(copy == map, !model.contains_key(&id));
                }
                _ => {}
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        prop_assert_eq!(as_set(map.entries()), as_set(model.clone()));
        let emptied = map.clone();
        for id in map.ids() {
            prop_assert!(emptied.remove(&id).is_some());
        }
        prop_assert!(emptied == BlockMap::new());
    }
}
