//! Integration suite for the multi-tenant archive service.
//!
//! Four properties are pinned here:
//!
//! 1. **Parity** — one seeded workload, driven through the in-line
//!    configuration and through sharded worker pools of several widths,
//!    leaves the same bytes in the shared backend as
//!    [`Workload::replay`], which drives the archives directly. The fault
//!    drill holds the same line over thirteen seeded lifetimes of six
//!    tenants drawn from twelve schemes. In each, the service crashes
//!    mid-warm and a fresh one reopens every tenant from the backend;
//!    then a stride of every tenant's blocks goes dark and live `Meta`
//!    copies are removed or garbled while traffic is served, and scrubs
//!    heal all of it.
//! 2. **Backpressure** — a full shard queue answers a typed
//!    [`ServiceError::Saturated`] immediately instead of blocking, and
//!    every accepted operation still completes.
//! 3. **Fairness** — a slow tenant (a wedged backend write, or
//!    fault-induced repair work during a scrub) cannot starve tenants on
//!    other shards.
//! 4. **Containment** — an operation that panics poisons its tenant,
//!    typed, and nothing else: not its shard, not the run.

use aecodes::api::{
    AeError, BlockRepo, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost,
    RepairError, StoreError,
};
use aecodes::baselines::Replication;
use aecodes::blocks::{Block, BlockId};
use aecodes::core::Code;
use aecodes::lattice::Config;
use aecodes::service::{
    ArchiveService, MetaConfig, OpMix, Phase, ScheduledOp, ServiceConfig, ServiceError,
    SharedBackend, SplitMix64, TenantId, TenantStore, Workload, WorkloadConfig, WorkloadOp,
};
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::{ArchiveError, FaultyStore, MemStore, TieredStore};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A mixed-scheme tenant roster over `backend`: AE(3,2,5), RS(4,2) and
/// 3-way replication in turn.
fn roster(backend: SharedBackend, config: ServiceConfig, tenants: u16) -> ArchiveService {
    let mixed = [
        Scheme::Ae(Config::new(3, 2, 5).unwrap()),
        Scheme::Rs { k: 4, m: 2 },
        Scheme::Replication { n: 3 },
    ];
    let schemes: Vec<Scheme> = (0..tenants as usize).map(|t| mixed[t % 3]).collect();
    lineup(backend, config, &schemes)
}

fn parity_workload() -> Workload {
    Workload::generate(
        0xD518,
        WorkloadConfig {
            tenants: 6,
            phases: vec![
                Phase {
                    ops: 48,
                    mix: OpMix::write_only(),
                },
                Phase {
                    ops: 160,
                    mix: OpMix::read_heavy(),
                },
            ],
            tenant_skew: 0.9,
            file_skew: 1.1,
            payload: (32, 700),
            seal_tail: true,
        },
    )
}

/// Full backend contents, bytes and all.
fn snapshot(mem: &MemStore) -> BTreeMap<BlockId, Vec<u8>> {
    let mut out = BTreeMap::new();
    for id in mem.ids() {
        out.insert(id, mem.get(id).unwrap().as_slice().to_vec());
    }
    out
}

/// Per-tenant manifest summary: (tenant, name, byte_len, crc) rows.
fn manifests(svc: &ArchiveService) -> Vec<(u16, String, usize, u32)> {
    svc.tenant_ids()
        .flat_map(|t| {
            svc.archive(t)
                .manifest()
                .map(move |(name, e)| (t.0, name.to_string(), e.byte_len, e.crc))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn sharded_runs_leave_byte_identical_state_to_serial_replay() {
    let w = parity_workload();

    // Reference: direct serial replay, no service threading at all.
    let ref_mem = Arc::new(MemStore::new());
    let mut reference = roster(
        Arc::clone(&ref_mem) as SharedBackend,
        ServiceConfig::serial(),
        6,
    );
    w.replay(&mut reference).expect("serial replay is clean");
    let want = snapshot(&ref_mem);
    let want_manifests = manifests(&reference);
    assert!(!want.is_empty());

    // The in-line client path and several pool widths must all converge
    // to the same bytes.
    let mut configs = vec![ServiceConfig::serial()];
    for shards in [1, 2, 4] {
        configs.push(ServiceConfig::with_shards(shards));
    }
    for config in configs {
        let mem = Arc::new(MemStore::new());
        let mut svc = roster(Arc::clone(&mem) as SharedBackend, config.clone(), 6);
        let (outcome, report) = svc.run(|client| w.drive(client));
        assert!(outcome.clean(), "{config:?}: {:?}", outcome.failures);
        assert_eq!(report.completed() as usize, w.ops.len());
        assert_eq!(
            snapshot(&mem),
            want,
            "backend diverged from serial replay under {config:?}"
        );
        assert_eq!(manifests(&svc), want_manifests);
        assert!(svc.verify_all().is_empty());
    }
}

#[test]
fn workload_generation_is_identical_under_any_build() {
    // The parity above compares executions; this pins the generated
    // schedule itself so every configuration drives the same ops.
    let a = parity_workload();
    let b = parity_workload();
    assert_eq!(a.ops.len(), b.ops.len());
    for (x, y) in a.ops.iter().zip(&b.ops) {
        assert_eq!(x.tenant, y.tenant);
        assert_eq!(x.op, y.op);
    }
}

/// A backend whose writes to a chosen tenant's namespace block until the
/// gate opens — a deterministic way to wedge exactly one shard's worker.
/// Only the sharded tests use it: an in-line service runs ops on the
/// driver thread, so wedging a write would deadlock the test.
struct GateStore {
    inner: MemStore,
    /// Tenant tag (high 16 bits) whose writes are gated.
    gated_tenant: u64,
    closed: Mutex<bool>,
    cv: Condvar,
    waiting: AtomicUsize,
}

fn tenant_bits(id: BlockId) -> u64 {
    use aecodes::blocks::{EdgeId, MetaId, NodeId, ReplicaId, ShardId};
    let raw = match id {
        BlockId::Data(NodeId(i)) => i,
        BlockId::Parity(EdgeId { left, .. }) => left.0,
        BlockId::Shard(ShardId { stripe, .. }) => stripe,
        BlockId::Replica(ReplicaId { node, .. }) => node.0,
        BlockId::Meta(MetaId(seq)) => seq,
    };
    raw >> 48
}

impl GateStore {
    /// Starts **open** so tenant-creation journal writes pass; tests
    /// close it once the roster is built.
    fn new(gated_tenant: u64) -> Self {
        GateStore {
            inner: MemStore::new(),
            gated_tenant,
            closed: Mutex::new(false),
            cv: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    fn close(&self) {
        *self.closed.lock().unwrap() = true;
    }

    fn open(&self) {
        *self.closed.lock().unwrap() = false;
        self.cv.notify_all();
    }

    /// Worker threads parked on the gate right now.
    fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    fn wait_open(&self) {
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            self.waiting.fetch_add(1, Ordering::SeqCst);
            closed = self.cv.wait(closed).unwrap();
            self.waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl BlockSource for GateStore {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.inner.fetch(id)
    }
    fn has(&self, id: BlockId) -> bool {
        self.inner.has(id)
    }
    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.inner.read(id)
    }
}

impl BlockSink for GateStore {
    fn store(&self, id: BlockId, block: Block) {
        if tenant_bits(id) == self.gated_tenant {
            self.wait_open();
        }
        self.inner.store(id, block);
    }
    fn remove(&self, id: BlockId) -> bool {
        BlockSink::remove(&self.inner, id)
    }
}

#[test]
fn full_queue_answers_saturated_without_blocking() {
    let gate = Arc::new(GateStore::new(0)); // wedge tenant 0's writes
    let mut svc = ArchiveService::new(
        Arc::clone(&gate) as SharedBackend,
        ServiceConfig {
            shards: Some(1),
            queue_depth: 2,
            inline: false,
            meta: MetaConfig::default(),
        },
    );
    let t0 = svc.add_tenant(Arc::new(Replication::new(2)), 64);
    gate.close();

    let ((), report) = svc.run(|client| {
        // The worker dequeues this put and wedges inside the backend
        // write; wait until it is provably parked on the gate.
        let wedged = client.put(t0, "wedge", &[1u8; 64]).unwrap();
        while gate.waiting() == 0 {
            std::thread::yield_now();
        }
        // Fill the whole queue behind it.
        let mut queued = Vec::new();
        for i in 0..2 {
            queued.push(client.put(t0, &format!("q{i}"), &[2u8; 64]).unwrap());
        }
        // The next submission must bounce, typed and immediate.
        let start = Instant::now();
        let err = client.put(t0, "overflow", &[3u8; 64]).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Saturated {
                shard: 0,
                capacity: 2
            }
        );
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "saturation must not block"
        );
        // Release the worker; everything accepted completes.
        gate.open();
        wedged.wait().unwrap();
        for t in queued {
            t.wait().unwrap();
        }
    });
    assert_eq!(report.saturated, 1);
    assert_eq!(report.completed(), 3);
    assert!(report.queue_highwater[0] >= 2);
    assert!(svc.verify_all().is_empty());
}

#[test]
fn wedged_shard_does_not_starve_other_shards() {
    let gate = Arc::new(GateStore::new(0)); // only tenant 0 wedges
    let mut svc = ArchiveService::new(
        Arc::clone(&gate) as SharedBackend,
        ServiceConfig {
            shards: Some(2),
            queue_depth: 8,
            inline: false,
            meta: MetaConfig::default(),
        },
    );
    let t0 = svc.add_tenant(Arc::new(Replication::new(2)), 64); // shard 0
    let t1 = svc.add_tenant(Arc::new(Replication::new(2)), 64); // shard 1
    gate.close();

    svc.run(|client| {
        let wedged = client.put(t0, "wedge", &[1u8; 64]).unwrap();
        while gate.waiting() == 0 {
            std::thread::yield_now();
        }
        // Shard 1 keeps serving while shard 0 is stuck mid-write.
        for i in 0..10 {
            let name = format!("f{i}");
            let put = client.put(t1, &name, &[i as u8; 100]).unwrap();
            match put.wait_timeout(Duration::from_secs(10)) {
                Ok(res) => {
                    res.unwrap();
                }
                Err(_) => panic!("shard 1 starved by shard 0's wedge"),
            }
            let bytes = client
                .get(t1, &name)
                .unwrap()
                .wait_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("shard 1 read starved"))
                .unwrap();
            assert_eq!(bytes, vec![i as u8; 100]);
        }
        assert_eq!(gate.waiting(), 1, "shard 0 is still wedged");
        gate.open();
        wedged.wait().unwrap();
    });
    assert!(svc.verify_all().is_empty());
}

#[test]
fn repair_heavy_tenant_does_not_starve_other_shards() {
    // The "slow tenant" here is realistic service work, not a test gate:
    // tenant 0 scrubs an archive with many fault-injected losses (each a
    // real repair) while tenant 1's traffic must keep flowing on its own
    // shard.
    let faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
    let mut svc = ArchiveService::new(
        Arc::clone(&faulty) as SharedBackend,
        ServiceConfig {
            shards: Some(2),
            queue_depth: 64,
            inline: false,
            meta: MetaConfig::default(),
        },
    );
    let t0 = svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64);
    let t1 = svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64);

    // Build tenant 0 a sizeable archive, then blow away a third of it.
    svc.run(|client| {
        let mut tickets = Vec::new();
        for i in 0..40 {
            tickets.push(client.put(t0, &format!("big{i}"), &[i as u8; 640]).unwrap());
        }
        for t in tickets {
            t.wait().unwrap();
        }
    });
    let view = Arc::clone(svc.archive(t0).store());
    let victims: Vec<BlockId> = svc
        .archive(t0)
        .stored_ids()
        .iter()
        .enumerate()
        .filter(|(k, _)| k % 3 == 0)
        .map(|(_, id)| view.global(*id))
        .collect();
    assert!(victims.len() > 100);
    faulty.fail_all(victims);

    svc.run(|client| {
        let scrub = client.scrub(t0).unwrap();
        // While the scrub repairs a hundred-plus blocks, tenant 1's ops
        // complete on their own shard.
        for i in 0..10 {
            let name = format!("f{i}");
            client
                .put(t1, &name, &[7u8; 128])
                .unwrap()
                .wait_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("shard 1 starved by tenant 0's scrub"))
                .unwrap();
        }
        let repaired = scrub.wait().unwrap();
        assert!(repaired > 100, "the scrub really was repair-heavy");
    });
    assert_eq!(faulty.failed_len(), 0, "scrub healed every fault");
    assert!(svc.verify_all().is_empty());
}

#[test]
fn saturated_error_is_typed_and_printable() {
    let e = ServiceError::Saturated {
        shard: 1,
        capacity: 64,
    };
    assert!(e.to_string().contains("full"));
    assert!(matches!(e, ServiceError::Saturated { capacity: 64, .. }));
}

/// The phased workload of the fault drill: a warm phase of writes, then
/// reads over writes with scrubs mixed in, served while faults are live.
fn fault_phases(seed: u64) -> Vec<Workload> {
    Workload::generate_phased(
        seed,
        WorkloadConfig {
            tenants: 6,
            phases: vec![
                Phase {
                    ops: 60,
                    mix: OpMix::write_only(),
                },
                Phase {
                    ops: 180,
                    mix: OpMix {
                        put: 15,
                        get: 75,
                        scrub: 10,
                    },
                },
            ],
            tenant_skew: 0.9,
            file_skew: 1.1,
            payload: (32, 6 * 64),
            seal_tail: false,
        },
    )
}

/// The schemes a tenant can run: the extended lineup minus the geo
/// lattice, which tags its own high bits and so collides with any
/// non-zero tenant tag (`ae_service::tenant`). Its crash coverage is
/// `tests/archive_recovery.rs`'s matrix.
fn stackable_lineup() -> Vec<Scheme> {
    Scheme::extended_lineup()
        .into_iter()
        .filter(|s| !matches!(s, Scheme::Geo { .. }))
        .collect()
}

/// A service over `backend` with one tenant per scheme, in order.
fn lineup(backend: SharedBackend, config: ServiceConfig, schemes: &[Scheme]) -> ArchiveService {
    let mut svc = ArchiveService::new(backend, config);
    for s in schemes {
        svc.add_tenant(Arc::from(s.build(64)), 64);
    }
    svc
}

/// A fresh service process over `backend` that reopens every tenant of
/// `schemes` from the backend alone, in their original order, and
/// checks that each opened clean: no torn record, no damaged copy.
fn reopen(
    backend: SharedBackend,
    config: &ServiceConfig,
    schemes: &[Scheme],
    seed: u64,
) -> ArchiveService {
    let mut svc = ArchiveService::new(backend, config.clone());
    for (t, s) in schemes.iter().enumerate() {
        let t = TenantId(t as u16);
        let id = svc.open_tenant(Arc::from(s.build(64)), t);
        assert_eq!(id, Ok(t), "seed {seed}: {} reopens", s.name());
        let ar = svc.archive(t);
        assert_eq!(ar.torn_tail(), None, "seed {seed}: {t} torn");
        assert_eq!(ar.meta_damage(), [], "seed {seed}: {t} damaged");
    }
    svc
}

/// The memory under the drill's fault layer: one store, or the two tiers
/// of a `TieredStore` (data local, everything else remote).
enum Memory {
    Flat(Arc<MemStore>),
    Tiered(Arc<TieredStore<MemStore>>),
}

impl Memory {
    fn repo(&self) -> Arc<dyn BlockRepo + Send + Sync> {
        match self {
            Memory::Flat(mem) => Arc::clone(mem) as _,
            Memory::Tiered(tiered) => Arc::clone(tiered) as _,
        }
    }

    /// Full contents across tiers, bytes and all.
    fn snapshot(&self) -> BTreeMap<BlockId, Vec<u8>> {
        match self {
            Memory::Flat(mem) => snapshot(mem),
            Memory::Tiered(tiered) => {
                let mut all = snapshot(tiered.fast());
                all.extend(snapshot(tiered.shared()));
                all
            }
        }
    }
}

/// Removes or garbles live `Meta` copies of `ar`'s journal at random,
/// fewer than the copy count of any one record, so every record keeps a
/// readable copy. Returns how many copies were harmed.
fn harm_meta(rng: &mut SplitMix64, ar: &Archive<TenantStore>) -> usize {
    let mut by_record: BTreeMap<(u64, bool), Vec<BlockId>> = BTreeMap::new();
    for id in ar.live_meta_ids() {
        let BlockId::Meta(m) = id else { continue };
        by_record
            .entry((m.seq(), m.is_pointer()))
            .or_default()
            .push(id);
    }
    let mut harmed = 0;
    for copies in by_record.into_values() {
        let budget = rng.below(copies.len() as u64) as usize;
        for id in copies.into_iter().take(budget) {
            if rng.below(2) == 0 {
                ar.store().remove(id);
            } else {
                let garbage = (0..48).map(|_| rng.next_u64() as u8).collect();
                ar.store().store(id, Block::from_vec(garbage));
            }
            harmed += 1;
        }
    }
    harmed
}

/// One seeded lifetime in which a crash, concurrent serving, data loss
/// and metadata loss all happen. From the seed it draws six tenants of
/// the stackable lineup (a rotation of it), a metadata policy
/// (2–3 copies, a checkpoint every 1–4 records, 128 B or 64 KiB
/// segments), a backend (`FaultyStore` over memory or over a
/// `TieredStore`) and a crash point in the warm phase. It warms the
/// tenants through a two-shard pool up to the crash, drops the service,
/// reopens every tenant in a fresh one and finishes the warm phase. Then
/// it blackholes a stride of every tenant's blocks, harms live `Meta`
/// copies, serves the mixed phase through the live faults and sweeps
/// every tenant with a scrub. The end state is compared byte for byte
/// with a never-faulted, never-crashed serial replay of the same seed.
/// Returns the roster, for the coverage check.
fn lifetime(seed: u64) -> Vec<Scheme> {
    // One stream for the world the lifetime runs in, one for its faults,
    // so a draw added to either never perturbs the other.
    let mut root = SplitMix64::new(seed ^ 0xFA17);
    let (mut rng, mut faults) = (root.split(), root.split());
    let stackable = stackable_lineup();
    let start = rng.below(stackable.len() as u64) as usize;
    let schemes: Vec<Scheme> = (0..6)
        .map(|t| stackable[(start + t) % stackable.len()])
        .collect();
    let meta = MetaConfig {
        copies: 2 + rng.below(2) as u16,
        checkpoint_every: Some(1 + rng.below(4)),
        segment_bytes: if rng.below(2) == 0 { 128 } else { 64 * 1024 },
    };
    let memory = if rng.below(2) == 0 {
        Memory::Flat(Arc::new(MemStore::new()))
    } else {
        Memory::Tiered(Arc::new(TieredStore::new(Arc::new(MemStore::new()))))
    };
    let faulty = Arc::new(FaultyStore::new(memory.repo()));
    let backend = || Arc::clone(&faulty) as SharedBackend;
    let config = ServiceConfig {
        meta: meta.clone(),
        ..ServiceConfig::with_shards(2)
    };
    let phases = fault_phases(seed);
    let cut = 1 + rng.below(phases[0].ops.len() as u64 - 1) as usize;
    let (before, after) = phases[0].ops.split_at(cut);
    let part = |ops: &[ScheduledOp]| Workload { ops: ops.to_vec() };

    // Warm up to the cut, then crash: the service, every archive in it
    // and every encoder frontier die.
    {
        let mut svc = lineup(backend(), config.clone(), &schemes);
        let (warm, _) = svc.run(|client| part(before).drive(client));
        assert!(warm.clean(), "seed {seed}: warm phase {:?}", warm.failures);
    }
    let mut svc = reopen(backend(), &config, &schemes, seed);
    for sop in before {
        if let WorkloadOp::Put { name, contents } = &sop.op {
            let got = svc.archive(sop.tenant).get(name);
            assert_eq!(got.as_ref(), Ok(contents), "seed {seed}: pre-crash {name}");
        }
    }
    let (warm, _) = svc.run(|client| part(after).drive(client));
    assert!(
        warm.clean(),
        "seed {seed}: resumed warm phase {:?}",
        warm.failures
    );

    // A stride rather than i.i.d. coin flips keeps the losses inside every
    // stackable scheme's repair tolerance — RS(8,2)'s ten-block stripe
    // takes at most two hits at a stride of five — so the sweep below
    // must heal everything. A block the scheme cannot rebuild from all
    // the others is spared: the data of a Reed-Solomon stripe still
    // filling has no parity on the backend until the stripe fills or the
    // archive seals (`ae_store::archive`), so losing it is data loss, not
    // a fault.
    let mut harmed = 0;
    for t in svc.tenant_ids().collect::<Vec<_>>() {
        let stride = 5 + faults.below(3);
        let offset = faults.below(stride);
        let ar = svc.archive(t);
        let (stored, data) = (ar.stored_ids(), ar.scheme().data_written());
        let held: HashSet<BlockId> = stored.iter().copied().collect();
        let protected = |id: BlockId| {
            let others = |b: BlockId| b != id && held.contains(&b);
            ar.scheme().is_repairable(id, data, &others)
        };
        let victims = stored.iter().enumerate().filter_map(|(k, &id)| {
            let hit = k as u64 % stride == offset && protected(id);
            hit.then(|| ar.store().global(id))
        });
        faulty.fail_all(victims);
        harmed += harm_meta(&mut faults, ar);
    }
    let failed = faulty.failed_len();
    assert!(
        failed > 0 && harmed > 0,
        "seed {seed}: {failed} blocks, {harmed} Meta copies"
    );

    // Every op of the serving phase succeeds: each tenant's ops run in
    // submission order on its shard, so its degraded gets meet the same
    // losses in every run, and every loss is within tolerance.
    let (mixed, _) = svc.run(|client| phases[1].drive(client));
    assert!(
        mixed.clean(),
        "seed {seed}: serving phase {:?}",
        mixed.failures
    );

    let ref_mem = Arc::new(MemStore::new());
    let ref_config = ServiceConfig {
        meta,
        ..ServiceConfig::serial()
    };
    let mut reference = lineup(Arc::clone(&ref_mem) as SharedBackend, ref_config, &schemes);
    for phase in &phases {
        phase.replay(&mut reference).expect("clean replay");
    }
    let want = snapshot(&ref_mem);

    // What the sweep must restore, per tenant: every block the live faults
    // still hide or alter (seen through the fault layer) against the
    // never-faulted state. Puts and scrubs of the serving phase healed
    // the rest.
    let mut owed = [0u64; 6];
    for (id, bytes) in &want {
        if faulty.fetch(*id).as_ref().map(Block::as_slice) != Some(bytes.as_slice()) {
            owed[tenant_bits(*id) as usize] += 1;
        }
    }
    let (restored, _) = svc.run(|client| {
        let tickets: Vec<_> = (0..6).map(|t| client.scrub(TenantId(t)).unwrap()).collect();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect::<Vec<u64>>()
    });
    assert_eq!(
        restored, owed,
        "seed {seed}: the sweep restores exactly what is owed"
    );
    assert_eq!(
        faulty.failed_len(),
        0,
        "seed {seed}: scrubs healed all {failed} faults"
    );
    assert_eq!(svc.verify_all(), vec![], "seed {seed}");

    // A second crash: every harmed copy was healed, so the journals reopen
    // clean (`reopen` checks), with the never-crashed manifests and write
    // orders.
    drop(svc);
    let svc = reopen(backend(), &config, &schemes, seed);
    assert_eq!(manifests(&svc), manifests(&reference), "seed {seed}");
    for t in svc.tenant_ids() {
        let (got, want) = (svc.archive(t), reference.archive(t));
        assert_eq!(got.stored_ids(), want.stored_ids(), "seed {seed}: {t}");
    }
    let held = memory.snapshot();
    assert!(
        held == want,
        "seed {seed}: backend diverged from the serial replay"
    );
    let mut live: Vec<BlockId> = svc
        .tenant_ids()
        .flat_map(|t| {
            let ar = svc.archive(t);
            ar.live_meta_ids()
                .into_iter()
                .map(|id| ar.store().global(id))
                .collect::<Vec<_>>()
        })
        .collect();
    let held: Vec<BlockId> = held.into_keys().filter(|id| id.is_meta()).collect();
    live.sort();
    assert_eq!(
        held, live,
        "seed {seed}: the backend holds the live journals and no more"
    );
    schemes
}

/// Every seed crashes and reopens every tenant mid-warm and heals data
/// and metadata loss under traffic; every stackable scheme is a tenant in
/// at least three of them.
#[test]
fn faults_during_traffic_are_healed_and_state_matches_serial() {
    let mut seeds_per_scheme: BTreeMap<String, usize> = BTreeMap::new();
    for seed in std::iter::once(0xFA17).chain(44_638..=44_649) {
        for s in lifetime(seed) {
            *seeds_per_scheme.entry(s.name()).or_default() += 1;
        }
    }
    assert_eq!(seeds_per_scheme.len(), stackable_lineup().len());
    for (scheme, seeds) in seeds_per_scheme {
        assert!(seeds >= 3, "{scheme} is a tenant in only {seeds} seeds");
    }
}

/// 3-way replication whose `encode_batch` panics while `armed`.
struct PanicOnDemand {
    inner: Replication,
    armed: AtomicBool,
}

impl RedundancyScheme for PanicOnDemand {
    fn scheme_name(&self) -> String {
        self.inner.scheme_name()
    }

    fn data_written(&self) -> u64 {
        self.inner.data_written()
    }

    fn repair_cost(&self) -> RepairCost {
        self.inner.repair_cost()
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        assert!(!self.armed.load(Ordering::SeqCst), "panic on demand");
        self.inner.encode_batch(blocks, sink)
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        self.inner.repair_block(source, id, data_blocks)
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.inner.is_repairable(id, data_blocks, avail)
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        self.inner.universe_len(data_blocks)
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        self.inner.dense_index(id, data_blocks)
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        self.inner.block_at(k, data_blocks)
    }
}

/// A panic inside an operation resolves that operation's ticket to a
/// typed error and poisons its tenant — every later operation on it, of
/// any kind, in this run or the next, answers the same error — while the
/// tenant sharing its shard keeps completing and the run returns its
/// report. Sharded and in-line alike: the catch is around the operation.
#[test]
fn a_panicking_op_poisons_its_tenant_and_nothing_else() {
    for config in [ServiceConfig::with_shards(1), ServiceConfig::serial()] {
        let mut svc = ArchiveService::new(Arc::new(MemStore::new()), config);
        let scheme = Arc::new(PanicOnDemand {
            inner: Replication::new(3),
            armed: AtomicBool::new(false),
        });
        let a = svc.add_tenant(scheme.clone(), 64);
        let b = svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64);
        let (poison, report) = svc.run(|client| {
            client.put(a, "before", b"fine").unwrap().wait().unwrap();
            client.put(b, "b0", &[7; 300]).unwrap().wait().unwrap();
            scheme.armed.store(true, Ordering::SeqCst);
            let poison = client.put(a, "boom", b"x").unwrap().wait().unwrap_err();
            assert!(
                matches!(&poison, ServiceError::TenantPoisoned { tenant, panic }
                    if *tenant == a && panic.contains("panic on demand")),
                "{poison:?}"
            );
            // The scheme would behave again; the tenant stays poisoned.
            scheme.armed.store(false, Ordering::SeqCst);
            let get = client.get(a, "before").unwrap().wait().unwrap_err();
            let put = client.put(a, "after", b"y").unwrap().wait().unwrap_err();
            let scrub = client.scrub(a).unwrap().wait().unwrap_err();
            let seal = client.seal(a).unwrap().wait().unwrap_err();
            assert_eq!([&get, &put, &scrub, &seal], [&poison; 4]);
            // Its shard-mate never notices.
            client.put(b, "b1", &[9; 100]).unwrap().wait().unwrap();
            assert_eq!(client.get(b, "b0").unwrap().wait().unwrap(), [7; 300]);
            assert_eq!(client.scrub(b).unwrap().wait().unwrap(), 0);
            poison
        });
        assert_eq!(report.completed(), 10, "every ticket resolved");
        let (again, _) = svc.run(|client| client.get(a, "before").unwrap().wait().unwrap_err());
        assert_eq!(again, poison, "the poison outlives the run");
        assert_eq!(svc.archive(b).get("b1").unwrap(), [9; 100]);
    }
}

/// A refusal the archive makes before it writes anything reaches the
/// client as the same typed error, and costs the tenant nothing.
#[test]
fn a_name_too_long_for_the_journal_is_a_typed_error_on_the_ticket() {
    let mut svc = roster(
        Arc::new(MemStore::new()) as SharedBackend,
        ServiceConfig::serial(),
        1,
    );
    let too_long = "n".repeat(65_536);
    svc.run(|client| {
        let refused = client.put(TenantId(0), &too_long, b"x").unwrap().wait();
        let expected = ArchiveError::NameTooLong { len: 65_536 };
        assert_eq!(refused, Err(ServiceError::Archive(expected)));
        client
            .put(TenantId(0), "next", b"y")
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            client.get(TenantId(0), "next").unwrap().wait().unwrap(),
            b"y"
        );
    });
    assert_eq!(svc.archive(TenantId(0)).file_count(), 1);
}
