//! `read_many(ids)` answers exactly what `ids.map(read)` does, for every
//! backend and wrapper in the tree: the plain `MemStore` (which overrides
//! it with a prefetching run), the in-memory `BlockMap` (the trait's
//! default `read`), the fault injector, the sharded store with a location
//! down, the two tiers, a tenant's view (which forwards the run), the
//! latency model under the virtual clock and the `&S` / `Arc<S>`
//! forwards. Every block `read` or `read_many` answers `Ok` passes
//! `Block::verify`: the read contract `Archive::get` composes its file
//! checksum on. Runs mix present, absent, corrupted, blackholed and
//! wrong-length blocks, and their lengths include the run and look-ahead
//! edges: 0, 1, 2, 3, 64 and 65.

use aecodes::aio::{Clock, LatencyStore, LinkSpec, Runtime};
use aecodes::api::{BlockMap, BlockRepo, BlockSource, StoreError};
use aecodes::blocks::{Block, BlockId, EdgeId, MetaId, NodeId, ReplicaId, ShardId, StrandClass};
use aecodes::service::{SharedBackend, TenantId, TenantStore};
use aecodes::store::{DistributedStore, FaultyStore, LocationId, MemStore, Placement, TieredStore};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const BLOCK: usize = 64;
const LOCATIONS: u32 = 6;

/// What one id of the universe holds in a case.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Absent,
    Present,
    /// Stored with `BLOCK - 3` bytes: a torn write the backend kept.
    WrongLength,
    /// Stored, then garbled by a fault injector (present elsewhere).
    Corrupted,
    /// Stored, then blackholed by a fault injector (present elsewhere).
    Blackholed,
}

/// Every id kind, the tier split included: data ids go to a tiered
/// store's fast tier, the rest to its shared one.
fn universe() -> Vec<BlockId> {
    (1..=16u64)
        .flat_map(|i| {
            let parity = |class| BlockId::Parity(EdgeId::new(class, NodeId(i)));
            [
                BlockId::Data(NodeId(i)),
                parity(StrandClass::Horizontal),
                parity(StrandClass::RightHanded),
                BlockId::Shard(ShardId {
                    stripe: i,
                    index: (i % 3) as u16,
                }),
                BlockId::Replica(ReplicaId {
                    node: NodeId(i),
                    copy: 1,
                }),
                BlockId::Meta(MetaId(i)),
            ]
        })
        .collect()
}

fn contents(k: usize, len: usize) -> Block {
    Block::from_vec((0..len).map(|b| (k * 31 + b * 7) as u8).collect())
}

/// Stores every slot that holds bytes into `repo`.
fn load(repo: &dyn BlockRepo, ids: &[BlockId], slots: &[Slot]) {
    for (k, (&id, &slot)) in ids.iter().zip(slots).enumerate() {
        match slot {
            Slot::Absent => {}
            Slot::WrongLength => repo.store(id, contents(k, BLOCK - 3)),
            _ => repo.store(id, contents(k, BLOCK)),
        }
    }
}

/// A `FaultyStore` over `inner`, loaded, with its faults injected.
fn faulty<S: BlockRepo + Send + Sync + ?Sized>(
    inner: Arc<S>,
    ids: &[BlockId],
    slots: &[Slot],
) -> Arc<FaultyStore<S>> {
    let store = Arc::new(FaultyStore::new(inner));
    load(&*store, ids, slots);
    for (&id, &slot) in ids.iter().zip(slots) {
        match slot {
            Slot::Corrupted => store.corrupt(id),
            Slot::Blackholed => store.fail(id),
            _ => {}
        }
    }
    store
}

fn assert_runs_match(name: &str, repo: &dyn BlockSource, run: &[BlockId]) {
    let one_by_one: Vec<_> = run.iter().map(|&id| repo.read(id)).collect();
    let many = repo.read_many(run);
    assert_eq!(many, one_by_one, "{name}, run of {}", run.len());
    for (read, &id) in many.iter().zip(run) {
        if let Ok(block) = read {
            assert_eq!(block.verify(), Ok(()), "{name}: {id:?} read Ok");
        }
    }
}

/// Every backend and wrapper under test, loaded with `slots`, `mem`
/// among them. Faults reach a backend only through a `FaultyStore` in
/// its stack; a bare one stores the faulted slots' bytes intact.
fn backends<'a>(
    mem: &'a Arc<MemStore>,
    ids: &[BlockId],
    slots: &[Slot],
    down: u32,
) -> Vec<(&'static str, Box<dyn BlockSource + 'a>)> {
    load(&**mem, ids, slots);

    let sharded = DistributedStore::new(LOCATIONS, Placement::Random { seed: 7 });
    load(&sharded, ids, slots);
    sharded.with_cluster(|c| c.fail(LocationId(down)));

    // (The fast tier is a bare `MemStore`: data ids hold no faults.)
    let tiered = TieredStore::new(faulty(Arc::new(MemStore::new()), ids, slots));
    load(&tiered, ids, slots);

    let shared: SharedBackend = faulty(Arc::new(MemStore::new()), ids, slots);
    let untagged = TenantStore::new(shared, TenantId(0));
    let tagged = TenantStore::new(
        Arc::new(FaultyStore::new(Arc::new(MemStore::new()))),
        TenantId(3),
    );
    load(&tagged, ids, slots);

    let rt = Runtime::new(Clock::virtual_time());
    let link = LinkSpec::rtt(Duration::from_millis(1));
    let slow = faulty(Arc::new(MemStore::new()), ids, slots);
    let wan = LatencyStore::uniform(slow, rt, link, 0).into_sync();

    let map = BlockMap::new();
    load(&map, ids, slots);

    let as_dyn: Arc<dyn BlockRepo + Send + Sync> = Arc::clone(mem) as _;
    vec![
        ("BlockMap", Box::new(map)),
        ("&MemStore", Box::new(&**mem)),
        ("Arc<MemStore>", Box::new(Arc::clone(mem))),
        ("Arc<dyn BlockRepo>", Box::new(as_dyn)),
        (
            "FaultyStore",
            Box::new(faulty(Arc::new(MemStore::new()), ids, slots)),
        ),
        ("DistributedStore, a location down", Box::new(sharded)),
        ("TieredStore<FaultyStore>", Box::new(tiered)),
        ("TenantStore t0 over FaultyStore", Box::new(untagged)),
        ("TenantStore t3", Box::new(tagged)),
        ("BlockOn<LatencyStore<FaultyStore>>", Box::new(wan)),
    ]
}

fn slot() -> impl Strategy<Value = Slot> {
    prop_oneof![
        Just(Slot::Present),
        Just(Slot::Present),
        Just(Slot::Absent),
        Just(Slot::WrongLength),
        Just(Slot::Corrupted),
        Just(Slot::Blackholed),
    ]
}

/// A run of ids drawn from the universe, repeats allowed; its length is
/// one of the edges or anything up to two runs and a bit.
fn run(universe: usize) -> impl Strategy<Value = Vec<usize>> {
    const EDGES: [usize; 6] = [0, 1, 2, 3, 64, 65];
    let ids = proptest::collection::vec(0..universe, 140);
    (0..EDGES.len() + 1, 4..140usize, ids).prop_map(|(edge, other, mut ids)| {
        ids.truncate(EDGES.get(edge).copied().unwrap_or(other));
        ids
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_many_is_read_in_order_on_every_backend(
        slots in proptest::collection::vec(slot(), 96),
        runs in proptest::collection::vec(run(96), 1..4),
        down in 0..LOCATIONS,
    ) {
        let (ids, mem) = (universe(), Arc::new(MemStore::new()));
        for (name, repo) in backends(&mem, &ids, &slots, down) {
            for run in &runs {
                let run: Vec<BlockId> = run.iter().map(|&k| ids[k]).collect();
                assert_runs_match(name, &*repo, &run);
            }
        }
    }
}

/// A tenant's run names the tenant-local id in every error, as `read`
/// does: a corrupted, an absent and a torn block side by side.
#[test]
fn a_tenant_run_names_local_ids_in_its_errors() {
    let ids = universe();
    let faults = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
    let view = TenantStore::new(Arc::clone(&faults) as SharedBackend, TenantId(5));
    let slots = [
        Slot::Present,
        Slot::Present,
        Slot::Absent,
        Slot::WrongLength,
    ];
    load(&view, &ids, &slots);
    faults.corrupt(view.global(ids[1]));
    let reads = view.read_many(&ids[..4]);
    assert_eq!(reads[0], Ok(contents(0, BLOCK)));
    assert_eq!(reads[1], Err(StoreError::Corrupted(ids[1])));
    assert_eq!(reads[2], Err(StoreError::NotFound(ids[2])));
    assert_eq!(reads[3], Ok(contents(3, BLOCK - 3)));
    assert_runs_match("TenantStore t5", &view, &ids[..4]);
}
