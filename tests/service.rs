//! Integration suite for the multi-tenant archive service.
//!
//! Three properties are pinned here:
//!
//! 1. **Parity** — one seeded workload, executed serially (direct replay
//!    and the in-line client) and through sharded worker pools of several
//!    widths, leaves byte-identical state in the shared backend.
//! 2. **Backpressure** — a full shard queue answers a typed
//!    [`ServiceError::Saturated`] immediately instead of blocking, and
//!    every accepted operation still completes.
//! 3. **Fairness** — a slow tenant (a wedged backend write, or
//!    fault-induced repair work during a scrub) cannot starve tenants on
//!    other shards.
//! 4. **Containment** — an operation that panics poisons its tenant,
//!    typed, and nothing else: not its shard, not the run.

use aecodes::api::{
    AeError, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost, RepairError,
    StoreError,
};
use aecodes::baselines::{ReedSolomon, Replication};
use aecodes::blocks::{Block, BlockId};
use aecodes::core::Code;
use aecodes::lattice::Config;
use aecodes::service::{
    ArchiveService, MetaConfig, OpMix, Phase, ServiceConfig, ServiceError, SharedBackend, TenantId,
    Workload, WorkloadConfig,
};
use aecodes::store::{ArchiveError, FaultyStore, MemStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A mixed-scheme tenant roster over `backend`.
fn roster(backend: SharedBackend, config: ServiceConfig, tenants: u16) -> ArchiveService {
    let mut svc = ArchiveService::new(backend, config);
    for t in 0..tenants {
        match t % 3 {
            0 => svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64),
            1 => svc.add_tenant(Arc::new(ReedSolomon::new(4, 2).unwrap()), 64),
            _ => svc.add_tenant(Arc::new(Replication::new(3)), 64),
        };
    }
    svc
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
                    interarrival: Duration::ZERO,
                },
                Phase {
                    ops: 160,
                    mix: OpMix::read_heavy(),
                    interarrival: Duration::ZERO,
                },
            ],
            tenant_skew: Some(0.9),
            file_skew: Some(1.1),
            payload: (32, 700),
            scrub_tenant: None,
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

#[test]
fn faults_during_traffic_are_healed_and_state_matches_serial() {
    // Phased drive with fault injection between phases, then parity
    // against a fault-free serial replay: scrub repair re-creates the
    // exact bytes, so the final inner stores agree block for block.
    let cfg = WorkloadConfig {
        tenants: 4,
        phases: vec![
            Phase {
                ops: 40,
                mix: OpMix::write_only(),
                interarrival: Duration::ZERO,
            },
            Phase {
                ops: 80,
                mix: OpMix {
                    put: 20,
                    get: 70,
                    scrub: 10,
                },
                interarrival: Duration::ZERO,
            },
        ],
        tenant_skew: None,
        file_skew: Some(0.8),
        payload: (64, 400),
        scrub_tenant: None,
        seal_tail: false,
    };
    let phases = Workload::generate_phased(0xFA17, cfg.clone());

    let faulty = Arc::new(FaultyStore::new(Arc::new(MemStore::new())));
    let mut svc = roster(
        Arc::clone(&faulty) as SharedBackend,
        ServiceConfig::with_shards(2),
        4,
    );
    let (o1, _) = svc.run(|client| phases[0].drive(client));
    assert!(o1.clean(), "{:?}", o1.failures);

    // Lose every fourth block of every tenant, then run serving traffic;
    // degraded gets may fail or succeed depending on timing, but scrubs
    // repair, and the inner store (which never lost the bytes' ground
    // truth... it did: FaultyStore blackholes reads, writes go through)
    // converges back to full health after a final scrub sweep.
    for t in svc.tenant_ids().collect::<Vec<_>>() {
        let view = Arc::clone(svc.archive(t).store());
        let victims: Vec<BlockId> = svc
            .archive(t)
            .stored_ids()
            .iter()
            .enumerate()
            .filter(|(k, _)| k % 4 == 0)
            .map(|(_, id)| view.global(*id))
            .collect();
        faulty.fail_all(victims);
    }
    let before = faulty.failed_len();
    assert!(before > 0);
    let (o2, _) = svc.run(|client| phases[1].drive(client));
    // Serving traffic may or may not hit the faulted blocks; whatever it
    // did, a full scrub sweep afterwards must heal everything.
    let (scrubbed, _) = svc.run(|client| {
        let tickets: Vec<_> = (0..4).map(|t| client.scrub(TenantId(t)).unwrap()).collect();
        tickets.into_iter().map(|t| t.wait().unwrap()).sum::<u64>()
    });
    let _ = o2; // degraded-phase outcome is timing-dependent by design
    let _ = scrubbed; // ditto: in-phase scrubs may have healed everything already
    assert_eq!(faulty.failed_len(), 0, "scrubs healed all {before} faults");
    assert!(svc.verify_all().is_empty());

    // Parity with a never-faulted serial execution of the same seed.
    let ref_mem = Arc::new(MemStore::new());
    let mut reference = roster(
        Arc::clone(&ref_mem) as SharedBackend,
        ServiceConfig::serial(),
        4,
    );
    for phase in &phases {
        phase.replay(&mut reference).expect("clean replay");
    }
    assert_eq!(snapshot(faulty.inner()), snapshot(&ref_mem));
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
