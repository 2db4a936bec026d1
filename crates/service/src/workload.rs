//! The deterministic workload engine: config-driven op mixes and
//! Zipf-skewed popularity, all derived from one seed.
//!
//! [`Workload::generate`] expands a `(seed, WorkloadConfig)` pair into a
//! concrete, fully materialized operation sequence — every payload byte
//! and tenant choice pinned at generation time, so the *same* sequence
//! can be driven through a sharded [`crate::ArchiveService`]
//! ([`Workload::drive`]) and replayed serially against a second service
//! ([`Workload::replay`]) and the two final states compared block for
//! block. Warm/cold phases are op-mix segments of one generator stream:
//! generating phase *n*+1 continues exactly where phase *n* stopped.

use crate::rng::{SplitMix64, Zipf};
use crate::service::{ArchiveService, ServiceClient, ServiceError, Ticket};
use crate::tenant::TenantId;
use ae_blocks::{crc32, BlockId};
use ae_store::archive::{ArchiveError, Entry};

/// Relative weights of the operations a phase issues.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Weight of archive writes.
    pub put: u32,
    /// Weight of file reads.
    pub get: u32,
    /// Weight of whole-archive scrubs.
    pub scrub: u32,
}

impl OpMix {
    /// The warm-up mix: all writes, populating cold archives.
    pub fn write_only() -> Self {
        OpMix {
            put: 1,
            get: 0,
            scrub: 0,
        }
    }

    /// A serving mix: mostly reads over occasional writes and scrubs.
    pub fn read_heavy() -> Self {
        OpMix {
            put: 15,
            get: 80,
            scrub: 5,
        }
    }

    fn total(&self) -> u64 {
        (self.put + self.get + self.scrub) as u64
    }
}

/// One segment of a workload: `ops` operations drawn from `mix`.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Operations this phase issues.
    pub ops: usize,
    /// Relative op weights.
    pub mix: OpMix,
}

/// Everything that determines a workload, besides the seed.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Tenants the workload addresses (`t0..`); the driving service must
    /// have at least this many.
    pub tenants: u16,
    /// Warm/cold segments, generated back to back from one stream.
    pub phases: Vec<Phase>,
    /// Zipf skew for tenant popularity.
    pub tenant_skew: f64,
    /// Zipf skew for file popularity within a tenant.
    pub file_skew: f64,
    /// Inclusive payload size range for puts, in bytes.
    pub payload: (usize, usize),
    /// Append a deterministic seal of every tenant after the last phase.
    pub seal_tail: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            tenants: 4,
            phases: vec![
                Phase {
                    ops: 64,
                    mix: OpMix::write_only(),
                },
                Phase {
                    ops: 192,
                    mix: OpMix::read_heavy(),
                },
            ],
            tenant_skew: 0.9,
            file_skew: 0.9,
            payload: (64, 1024),
            seal_tail: false,
        }
    }
}

/// One archive operation, fully materialized at generation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Write `contents` under `name`.
    Put {
        /// File name, unique per tenant.
        name: String,
        /// Payload bytes, pinned by the seed.
        contents: Vec<u8>,
    },
    /// Read `name` back and check it against the generation-time CRC.
    Get {
        /// File to read.
        name: String,
        /// CRC32 of the contents the read must return.
        expect_crc: u32,
    },
    /// Scrub the tenant's archive.
    Scrub,
    /// Seal the tenant's archive (only emitted by the seal tail).
    Seal,
}

/// A [`WorkloadOp`] with its tenant.
#[derive(Debug, Clone)]
pub struct ScheduledOp {
    /// The tenant the op addresses.
    pub tenant: TenantId,
    /// The operation.
    pub op: WorkloadOp,
}

/// A materialized operation sequence — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Workload {
    /// The schedule, in submission order.
    pub ops: Vec<ScheduledOp>,
}

/// File ranks the per-tenant Zipf sampler covers; beyond that many files
/// in one tenant, popularity folds back to uniform over the overflow.
const FILE_RANKS: usize = 1024;

/// Generator state carried across phases.
struct Generator {
    cfg: WorkloadConfig,
    tenant_rng: SplitMix64,
    kind_rng: SplitMix64,
    file_rng: SplitMix64,
    payload_rng: SplitMix64,
    tenant_zipf: Zipf,
    file_zipf: Zipf,
    /// Per-tenant: how many files exist, and each file's generation-time
    /// CRC (index = file number).
    files: Vec<Vec<u32>>,
}

impl Generator {
    fn new(seed: u64, cfg: WorkloadConfig) -> Self {
        assert!(cfg.tenants > 0, "workloads need at least one tenant");
        assert!(
            cfg.payload.0 <= cfg.payload.1 && cfg.payload.1 > 0,
            "payload range must be non-empty"
        );
        let mut root = SplitMix64::new(seed);
        let tenant_rng = root.split();
        let kind_rng = root.split();
        let file_rng = root.split();
        let payload_rng = root.split();
        let tenant_zipf = Zipf::new(cfg.tenants as usize, cfg.tenant_skew);
        let file_zipf = Zipf::new(FILE_RANKS, cfg.file_skew);
        let files = vec![Vec::new(); cfg.tenants as usize];
        Generator {
            cfg,
            tenant_rng,
            kind_rng,
            file_rng,
            payload_rng,
            tenant_zipf,
            file_zipf,
            files,
        }
    }

    fn pick_tenant(&mut self) -> TenantId {
        TenantId(self.tenant_zipf.sample(&mut self.tenant_rng) as u16)
    }

    fn pick_file(&mut self, count: usize) -> usize {
        debug_assert!(count > 0);
        // Bounded rejection keeps the draw deterministic; if the hot
        // ranks keep missing (young tenant), fall through to uniform.
        for _ in 0..16 {
            let r = self.file_zipf.sample(&mut self.file_rng);
            if r < count {
                return r;
            }
        }
        self.file_rng.below(count as u64) as usize
    }

    fn payload(&mut self) -> Vec<u8> {
        let (lo, hi) = self.cfg.payload;
        let len = lo + self.payload_rng.below((hi - lo + 1) as u64) as usize;
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            let word = self.payload_rng.next_u64().to_le_bytes();
            let take = word.len().min(len - bytes.len());
            bytes.extend_from_slice(&word[..take]);
        }
        bytes
    }

    fn next_op(&mut self, mix: &OpMix) -> ScheduledOp {
        let tenant = self.pick_tenant();
        let count = self.files[tenant.0 as usize].len();
        let mut w = self.kind_rng.below(mix.total());
        let op = if w < mix.put as u64 || count == 0 {
            // A read or scrub against an empty tenant degrades to a put so
            // every generated op is satisfiable; the substitution is part
            // of the deterministic sequence.
            let contents = self.payload();
            let name = format!("{tenant}-f{count:05}");
            self.files[tenant.0 as usize].push(crc32(&contents));
            WorkloadOp::Put { name, contents }
        } else {
            w -= mix.put as u64;
            if w < mix.get as u64 {
                let f = self.pick_file(count);
                WorkloadOp::Get {
                    name: format!("{tenant}-f{f:05}"),
                    expect_crc: self.files[tenant.0 as usize][f],
                }
            } else {
                WorkloadOp::Scrub
            }
        };
        ScheduledOp { tenant, op }
    }

    fn phase(&mut self, phase: &Phase) -> Workload {
        let ops = (0..phase.ops).map(|_| self.next_op(&phase.mix));
        Workload { ops: ops.collect() }
    }

    fn seal_tail(&mut self) -> Vec<ScheduledOp> {
        (0..self.cfg.tenants)
            .map(|t| ScheduledOp {
                tenant: TenantId(t),
                op: WorkloadOp::Seal,
            })
            .collect()
    }
}

/// What [`Workload::drive`] observed: submission/completion accounting
/// plus every per-op failure, by op index.
#[derive(Debug, Default)]
pub struct DriveOutcome {
    /// Operations submitted (always the workload length).
    pub submitted: usize,
    /// Operations that completed successfully, reads CRC-verified.
    pub completed: usize,
    /// Failed operations: `(op index, error)`. A read returning bytes
    /// whose CRC differs from the generation-time CRC reports
    /// [`ArchiveError::ChecksumMismatch`].
    pub failures: Vec<(usize, ServiceError)>,
}

impl DriveOutcome {
    /// True when every operation completed successfully.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.completed == self.submitted
    }
}

/// An in-flight op's ticket, tagged with its workload index.
enum Pending {
    Put(usize, Ticket<Entry>),
    Get(usize, u32, Ticket<Vec<u8>>),
    Scrub(usize, Ticket<u64>),
    Seal(usize, Ticket<Vec<BlockId>>),
}

impl Workload {
    /// Materializes the full workload for `(seed, cfg)` as one sequence;
    /// phase boundaries disappear.
    pub fn generate(seed: u64, cfg: WorkloadConfig) -> Workload {
        let phased = Self::generate_phased(seed, cfg);
        Workload {
            ops: phased.into_iter().flat_map(|w| w.ops).collect(),
        }
    }

    /// Materializes the workload for `(seed, cfg)` as one [`Workload`]
    /// per phase (the seal tail, if configured, rides on the last
    /// phase). Driving the pieces in order through any service —
    /// with anything in between, e.g. fault injection — touches the same
    /// operation sequence as [`Workload::generate`].
    pub fn generate_phased(seed: u64, cfg: WorkloadConfig) -> Vec<Workload> {
        let seal_tail = cfg.seal_tail;
        let phases = cfg.phases.clone();
        let mut g = Generator::new(seed, cfg);
        let mut out: Vec<Workload> = phases.iter().map(|p| g.phase(p)).collect();
        if seal_tail {
            let tail = g.seal_tail();
            match out.last_mut() {
                Some(last) => last.ops.extend(tail),
                None => out.push(Workload { ops: tail }),
            }
        }
        out
    }

    /// Submits the whole schedule through `client` as fast as the queues
    /// accept it (a submission that bounces off a full queue is retried),
    /// then waits for every ticket. Reads are verified against their
    /// generation-time CRC.
    pub fn drive(&self, client: &ServiceClient<'_>) -> DriveOutcome {
        let mut outcome = DriveOutcome {
            submitted: self.ops.len(),
            ..DriveOutcome::default()
        };
        let mut pending = Vec::with_capacity(self.ops.len());
        for (i, sop) in self.ops.iter().enumerate() {
            loop {
                let submitted = match &sop.op {
                    WorkloadOp::Put { name, contents } => client
                        .put(sop.tenant, name, contents)
                        .map(|t| Pending::Put(i, t)),
                    WorkloadOp::Get { name, expect_crc } => client
                        .get(sop.tenant, name)
                        .map(|t| Pending::Get(i, *expect_crc, t)),
                    WorkloadOp::Scrub => client.scrub(sop.tenant).map(|t| Pending::Scrub(i, t)),
                    WorkloadOp::Seal => client.seal(sop.tenant).map(|t| Pending::Seal(i, t)),
                };
                match submitted {
                    Ok(p) => {
                        pending.push(p);
                        break;
                    }
                    Err(ServiceError::Saturated { .. }) => {
                        // Backpressure: yield and retry until the shard's
                        // worker drains its queue.
                        std::thread::yield_now();
                    }
                    Err(e) => {
                        outcome.failures.push((i, e));
                        break;
                    }
                }
            }
        }
        for p in pending {
            let (i, res): (usize, Result<(), ServiceError>) = match p {
                Pending::Put(i, t) => (i, t.wait().map(|_| ())),
                Pending::Get(i, expect, t) => (
                    i,
                    t.wait().and_then(|bytes| {
                        let actual = crc32(&bytes);
                        if actual == expect {
                            Ok(())
                        } else {
                            Err(ServiceError::Archive(ArchiveError::ChecksumMismatch {
                                name: match &self.ops[i].op {
                                    WorkloadOp::Get { name, .. } => name.clone(),
                                    _ => String::new(),
                                },
                                expected: expect,
                                actual,
                            }))
                        }
                    }),
                ),
                Pending::Scrub(i, t) => (i, t.wait().map(|_| ())),
                Pending::Seal(i, t) => (i, t.wait().map(|_| ())),
            };
            match res {
                Ok(()) => outcome.completed += 1,
                Err(e) => outcome.failures.push((i, e)),
            }
        }
        outcome.failures.sort_by_key(|(i, _)| *i);
        outcome
    }

    /// Executes the schedule serially, in generation order, directly
    /// against `svc`'s archives — the reference execution the parity
    /// suite compares sharded runs to. Stops at the first error.
    pub fn replay(&self, svc: &mut ArchiveService) -> Result<(), (usize, ArchiveError)> {
        for (i, sop) in self.ops.iter().enumerate() {
            let ar = svc.archive_mut(sop.tenant);
            match &sop.op {
                WorkloadOp::Put { name, contents } => {
                    ar.put(name, contents).map_err(|e| (i, e))?;
                }
                WorkloadOp::Get { name, expect_crc } => {
                    let bytes = ar.get(name).map_err(|e| (i, e))?;
                    let actual = crc32(&bytes);
                    if actual != *expect_crc {
                        return Err((
                            i,
                            ArchiveError::ChecksumMismatch {
                                name: name.clone(),
                                expected: *expect_crc,
                                actual,
                            },
                        ));
                    }
                }
                WorkloadOp::Scrub => {
                    ar.scrub();
                }
                WorkloadOp::Seal => {
                    ar.seal().map_err(|e| (i, e))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ServiceError};
    use crate::tenant::SharedBackend;
    use ae_core::Code;
    use ae_lattice::Config;
    use ae_store::MemStore;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            tenants: 3,
            phases: vec![
                Phase {
                    ops: 20,
                    mix: OpMix::write_only(),
                },
                Phase {
                    ops: 60,
                    mix: OpMix::read_heavy(),
                },
            ],
            tenant_skew: 1.0,
            file_skew: 1.0,
            payload: (16, 200),
            seal_tail: false,
        }
    }

    fn service(shards: usize, tenants: u16) -> ArchiveService {
        let backend: SharedBackend = Arc::new(MemStore::new());
        let mut svc = ArchiveService::new(backend, ServiceConfig::with_shards(shards));
        for _ in 0..tenants {
            svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64);
        }
        svc
    }

    #[test]
    fn same_seed_same_workload() {
        let a = Workload::generate(42, small_cfg());
        let b = Workload::generate(42, small_cfg());
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.op, y.op);
        }
        let c = Workload::generate(43, small_cfg());
        assert!(
            a.ops.iter().zip(&c.ops).any(|(x, y)| x.op != y.op),
            "different seeds diverge"
        );
    }

    #[test]
    fn phased_generation_matches_flat() {
        let flat = Workload::generate(7, small_cfg());
        let phased = Workload::generate_phased(7, small_cfg());
        assert_eq!(phased.len(), 2);
        let joined: Vec<_> = phased.into_iter().flat_map(|w| w.ops).collect();
        assert_eq!(flat.ops.len(), joined.len());
        for (x, y) in flat.ops.iter().zip(&joined) {
            assert_eq!(x.op, y.op);
        }
    }

    #[test]
    fn gets_always_reference_written_files() {
        let w = Workload::generate(99, small_cfg());
        let mut written = HashSet::new();
        let mut gets = 0;
        for sop in &w.ops {
            match &sop.op {
                WorkloadOp::Put { name, .. } => {
                    assert!(written.insert((sop.tenant, name.clone())), "unique names");
                }
                WorkloadOp::Get { name, .. } => {
                    gets += 1;
                    assert!(
                        written.contains(&(sop.tenant, name.clone())),
                        "get of never-written {name}"
                    );
                }
                _ => {}
            }
        }
        assert!(gets > 0, "read-heavy phase produced reads");
    }

    #[test]
    fn seal_tail_covers_every_tenant_and_only_at_the_end() {
        let mut cfg = small_cfg();
        cfg.seal_tail = true;
        let w = Workload::generate(1, cfg);
        let seals: Vec<_> = w
            .ops
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op == WorkloadOp::Seal)
            .collect();
        assert_eq!(seals.len(), 3);
        assert_eq!(seals[0].0, w.ops.len() - 3, "seals are the tail");
        let sealed: HashSet<_> = seals.iter().map(|(_, s)| s.tenant).collect();
        assert_eq!(sealed.len(), 3);
    }

    #[test]
    fn drive_and_replay_agree_with_generation() {
        let w = Workload::generate(1234, small_cfg());
        let mut sharded = service(2, 3);
        let (outcome, report) = sharded.run(|client| w.drive(client));
        assert!(outcome.clean(), "failures: {:?}", outcome.failures);
        assert_eq!(report.completed() as usize, w.ops.len());

        let mut serial = service(1, 3);
        w.replay(&mut serial).expect("serial replay is clean");
        // Both executions verify end to end.
        assert!(sharded.verify_all().is_empty());
        assert!(serial.verify_all().is_empty());
    }

    #[test]
    fn drive_reports_archive_failures_by_op_index() {
        // A workload against a service with too few tenants: every op
        // addressed at the missing tenant fails with UnknownTenant.
        let w = Workload::generate(5, small_cfg());
        let mut svc = service(2, 2); // workload wants 3 tenants
        let (outcome, _) = svc.run(|client| w.drive(client));
        assert!(!outcome.clean());
        for (i, e) in &outcome.failures {
            assert_eq!(w.ops[*i].tenant, TenantId(2), "only t2 ops fail");
            assert!(matches!(e, ServiceError::UnknownTenant(TenantId(2))));
        }
        assert_eq!(
            outcome.completed + outcome.failures.len(),
            outcome.submitted
        );
    }
}
