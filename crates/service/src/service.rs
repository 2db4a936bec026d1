//! The multi-tenant archive service: tenant-affine shards, bounded
//! submission queues, typed per-op results.
//!
//! # Threading model
//!
//! [`ArchiveService`] owns one [`Archive`] per tenant, every tenant a view
//! ([`TenantStore`]) of the **same shared backend**. [`ArchiveService::run`]
//! raises a fixed pool of `std::thread::scope` workers — one per shard,
//! defaulting to the [`ae_api::repair_threads`] width (so the
//! `AE_REPAIR_THREADS` convention governs the service too) — hands the
//! caller a [`ServiceClient`], and joins the pool when the caller's closure
//! returns, yielding a [`ServiceReport`] of per-op latency histograms,
//! completion counts, queue-depth highwaters and saturation rejections.
//!
//! # Shard affinity
//!
//! A tenant is pinned to shard `tenant % shards` for the service's
//! lifetime. Each shard's worker is the **single writer** for every
//! archive it owns, so no archive-level locking exists anywhere: mutation
//! order per tenant is exactly submission order, whatever the other
//! shards do. Cross-shard traffic still lands on the one shared backend —
//! that is where contention is real and measured. Reads of the shared
//! backend may cross shards freely through the existing `Sync` snapshot
//! surface.
//!
//! # Backpressure
//!
//! Every shard has a bounded submission queue. [`ServiceClient`] submission
//! never blocks: a full queue answers a typed
//! [`ServiceError::Saturated`] immediately, and the caller decides whether
//! to retry, shed or slow down. Queue-depth highwater and the number of
//! saturation rejections are part of the run's report.
//!
//! # Panics
//!
//! An operation that panics — a scheme bug, a backend bug — takes down
//! neither its worker nor the run: the panic is caught around the
//! operation, its [`Ticket`] resolves to a typed
//! [`ServiceError::TenantPoisoned`], and the tenant, whose archive the
//! panic may have left half-mutated, answers that same error to every
//! later operation. The other tenants of the shard keep completing.
//!
//! # In-line mode
//!
//! [`ServiceConfig::serial`] is the same service with one shard whose
//! dispatch runs on the caller's thread: every client call builds the
//! request a worker would have dequeued and executes it at once, over the
//! shard's archives behind a lock, so its ticket is resolved before the
//! call returns. Nothing else differs — routing, panic containment and
//! the report are the pool's.
//!
//! # Determinism
//!
//! Because sharding is tenant-affine and queues are FIFO, each tenant's
//! operations execute in submission order no matter how many shards run.
//! Tenants' id spaces are disjoint ([`TenantStore`]), so the final archive
//! and backend state after a run is **byte-identical** to executing every
//! tenant's subsequence serially — the property the parity suite pins by
//! comparing seeded workloads driven through both configurations, in-line
//! and pooled, against [`crate::Workload::replay`], which drives the
//! archives directly with no service in between.

use crate::stats::{OpKind, ServiceReport, ShardStats};
use crate::tenant::{SharedBackend, TenantId, TenantStore};
use ae_api::RedundancyScheme;
use ae_blocks::BlockId;
use ae_store::archive::{Archive, ArchiveError, Entry, RecoveryError};
use ae_store::meta::MetaConfig;
use parking_lot::Mutex;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing knobs for [`ArchiveService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards; `None` resolves to [`ae_api::repair_threads`] (the
    /// `AE_REPAIR_THREADS` convention). Ignored in in-line mode, which is
    /// always one shard.
    pub shards: Option<usize>,
    /// Bounded submission-queue capacity per shard; a full queue rejects
    /// with [`ServiceError::Saturated`]. In-line mode queues nothing.
    pub queue_depth: usize,
    /// Run the one shard's dispatch on the submitting thread instead of a
    /// worker thread: each operation executes, and resolves its ticket,
    /// inside the client call that submits it — the reference serial
    /// configuration, with no queue hop and no thread hand-off.
    pub inline: bool,
    /// Default metadata durability policy for new tenants: copy-set width,
    /// checkpoint cadence, checkpoint segment size. Per-tenant overrides
    /// via [`ArchiveService::add_tenant_with_meta`].
    pub meta: MetaConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: None,
            queue_depth: 64,
            inline: false,
            meta: MetaConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// A config pinned to `shards` worker shards.
    pub fn with_shards(shards: usize) -> Self {
        ServiceConfig {
            shards: Some(shards),
            ..Self::default()
        }
    }

    /// The reference serial configuration: one shard, run in-line.
    pub fn serial() -> Self {
        ServiceConfig {
            inline: true,
            ..Self::default()
        }
    }
}

/// Errors from service submission or completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No tenant with that id was added to the service.
    UnknownTenant(TenantId),
    /// The tenant's shard has a full submission queue — backpressure.
    /// Submission never blocks; retry, shed or slow down.
    Saturated {
        /// The saturated shard.
        shard: usize,
        /// Its queue capacity.
        capacity: usize,
    },
    /// The worker pool is gone (the run ended before the reply arrived).
    Shutdown,
    /// The archive operation itself failed; the wrapped error names
    /// exactly what went wrong (missing tuple members, checksum, seal).
    Archive(ArchiveError),
    /// An operation on this tenant panicked — this one, or an earlier
    /// one: the panic may have left the archive half-mutated, so the
    /// service runs nothing more on it.
    TenantPoisoned {
        /// The poisoned tenant.
        tenant: TenantId,
        /// The message of the panic that poisoned it.
        panic: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant(t) => write!(f, "no tenant {t}"),
            ServiceError::Saturated { shard, capacity } => {
                write!(f, "shard {shard} submission queue full ({capacity} deep)")
            }
            ServiceError::Shutdown => write!(f, "service worker pool has shut down"),
            ServiceError::Archive(e) => write!(f, "archive operation failed: {e}"),
            ServiceError::TenantPoisoned { tenant, panic } => {
                write!(
                    f,
                    "tenant {tenant} is poisoned: an operation panicked: {panic}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Archive(e) => Some(e),
            _ => None,
        }
    }
}

/// A pending typed result for one submitted operation.
///
/// The operation resolves its ticket when it completes — on the shard's
/// worker, or in in-line mode before the submitting call returns;
/// dropping an unwanted ticket is fine (the result is discarded).
#[derive(Debug)]
pub struct Ticket<T> {
    rx: Receiver<Result<T, ServiceError>>,
}

impl<T> Ticket<T> {
    fn new() -> (SyncSender<Result<T, ServiceError>>, Self) {
        let (tx, rx) = mpsc::sync_channel(1);
        (tx, Ticket { rx })
    }

    /// Blocks until the operation completes.
    pub fn wait(self) -> Result<T, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// Waits up to `timeout`; on timeout the ticket comes back unresolved
    /// so the caller can keep waiting — the fairness suite uses this to
    /// prove one shard's progress while another is wedged.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<T, ServiceError>, Ticket<T>> {
        match self.rx.recv_timeout(timeout) {
            Ok(res) => Ok(res),
            Err(RecvTimeoutError::Timeout) => Err(self),
            Err(RecvTimeoutError::Disconnected) => Ok(Err(ServiceError::Shutdown)),
        }
    }
}

/// A tenant's archive and, once an operation on it has panicked, the
/// message of that panic.
struct Tenant {
    archive: Archive<TenantStore>,
    poisoned: Option<String>,
}

/// A tenant paired with its service-wide tenant index.
type Slot = (usize, Tenant);

/// One shard's archives and accounting: a worker thread's own in pool
/// mode, behind the client's lock in in-line mode.
#[derive(Default)]
struct Shard {
    archives: Vec<Slot>,
    stats: ShardStats,
}

/// One submitted operation, bound to its tenant's shard-local slot: run
/// on the tenant's shard, it records its latency and resolves its ticket.
type Request = Box<dyn FnOnce(&mut Shard) + Send>;

/// Runs one operation on a tenant's archive, on whichever thread executes
/// operations. A panic inside `op` is caught here, around the operation
/// rather than around the worker, and poisons the tenant; a poisoned
/// tenant runs nothing.
fn run_op<T>(
    (index, tenant): &mut Slot,
    op: impl FnOnce(&mut Archive<TenantStore>) -> Result<T, ArchiveError>,
) -> Result<T, ServiceError> {
    let poisoned = |panic: &String| ServiceError::TenantPoisoned {
        tenant: TenantId(*index as u16),
        panic: panic.clone(),
    };
    if let Some(panic) = &tenant.poisoned {
        return Err(poisoned(panic));
    }
    let archive = &mut tenant.archive;
    // Unwind safety: a panic may leave the archive half-mutated, which is
    // why nothing runs on it again. The schemes' and backends' locks
    // (vendored `parking_lot`) do not poison, so nothing is left behind for
    // the other tenants.
    match catch_unwind(AssertUnwindSafe(|| op(archive))) {
        Ok(res) => res.map_err(ServiceError::Archive),
        Err(payload) => {
            let text = payload.downcast_ref::<String>().map(String::as_str);
            let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
            let panic = tenant
                .poisoned
                .insert(text.unwrap_or("(no message)").into());
            Err(poisoned(panic))
        }
    }
}

/// Per-shard queue pressure gauges, shared between client and report.
struct ShardQueue {
    depth: AtomicI64,
    highwater: AtomicI64,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            depth: AtomicI64::new(0),
            highwater: AtomicI64::new(0),
            capacity,
        }
    }

    fn enqueued(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.highwater.fetch_max(d, Ordering::Relaxed);
    }

    fn dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Where a [`ServiceClient`] hands its requests.
enum Dispatch<'a> {
    /// Each shard's bounded queue, drained by the shard's worker thread.
    Pool(Vec<SyncSender<Request>>),
    /// The one shard, executed on the submitting thread.
    Inline(&'a Mutex<Shard>),
}

/// The submission handle [`ArchiveService::run`] lends its driver closure.
///
/// Submission is non-blocking: each call routes the operation to the
/// tenant's shard and answers a typed [`Ticket`] (or
/// [`ServiceError::Saturated`] when the shard's bounded queue is full).
/// In in-line mode the call runs the operation itself, so the ticket is
/// already resolved when it comes back.
pub struct ServiceClient<'a> {
    dispatch: Dispatch<'a>,
    queues: &'a [ShardQueue],
    /// tenant index → (shard, shard-local slot)
    route: &'a [(usize, usize)],
    saturated: &'a AtomicU64,
}

impl ServiceClient<'_> {
    /// Builds the request for `op` on `tenant` and dispatches it: onto the
    /// tenant's shard queue in pool mode, run on this thread in in-line
    /// mode.
    fn submit<T: Send + 'static>(
        &self,
        tenant: TenantId,
        kind: OpKind,
        op: impl FnOnce(&mut Archive<TenantStore>) -> Result<T, ArchiveError> + Send + 'static,
    ) -> Result<Ticket<T>, ServiceError> {
        let (shard, local) = self
            .route
            .get(tenant.0 as usize)
            .copied()
            .ok_or(ServiceError::UnknownTenant(tenant))?;
        let (reply, ticket) = Ticket::new();
        let submitted = Instant::now();
        let req: Request = Box::new(move |home: &mut Shard| {
            let res = run_op(&mut home.archives[local], op);
            home.stats.record(kind, submitted.elapsed());
            let _ = reply.send(res);
        });
        let senders = match &self.dispatch {
            Dispatch::Inline(one) => {
                req(&mut one.lock());
                return Ok(ticket);
            }
            Dispatch::Pool(senders) => senders,
        };
        match senders[shard].try_send(req) {
            Ok(()) => {
                self.queues[shard].enqueued();
                Ok(ticket)
            }
            Err(TrySendError::Full(_)) => {
                self.saturated.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Saturated {
                    shard,
                    capacity: self.queues[shard].capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Shutdown),
        }
    }

    /// Archives `contents` under `name` in `tenant`'s archive.
    pub fn put(
        &self,
        tenant: TenantId,
        name: &str,
        contents: &[u8],
    ) -> Result<Ticket<Entry>, ServiceError> {
        let (name, contents) = (name.to_owned(), contents.to_vec());
        self.submit(tenant, OpKind::Put, move |ar| ar.put(&name, &contents))
    }

    /// Reads `name` back from `tenant`'s archive (degraded reads repair
    /// missing blocks on the fly, read-only).
    pub fn get(&self, tenant: TenantId, name: &str) -> Result<Ticket<Vec<u8>>, ServiceError> {
        let name = name.to_owned();
        self.submit(tenant, OpKind::Get, move |ar| ar.get(&name))
    }

    /// Scrubs `tenant`'s archive: repairs every block its backend view
    /// should hold but lost, journal records included. Resolves to the
    /// number of blocks restored.
    pub fn scrub(&self, tenant: TenantId) -> Result<Ticket<u64>, ServiceError> {
        self.submit(tenant, OpKind::Scrub, |ar| Ok(ar.scrub()))
    }

    /// Seals `tenant`'s archive: flushes buffered redundancy and freezes
    /// it. Resolves to the ids the flush stored.
    pub fn seal(&self, tenant: TenantId) -> Result<Ticket<Vec<BlockId>>, ServiceError> {
        self.submit(tenant, OpKind::Seal, |ar| ar.seal())
    }
}

/// A multi-tenant archive service over one shared backend.
///
/// See the [module docs](self) for the threading model, shard affinity
/// and determinism guarantees.
///
/// # Examples
///
/// ```
/// use ae_service::{ArchiveService, ServiceConfig, SharedBackend};
/// use ae_store::MemStore;
/// use ae_core::Code;
/// use ae_lattice::Config;
/// use std::sync::Arc;
///
/// let backend: SharedBackend = Arc::new(MemStore::new());
/// let mut svc = ArchiveService::new(backend, ServiceConfig::with_shards(2));
/// let a = svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64);
/// let b = svc.add_tenant(Arc::new(Code::new(Config::new(2, 2, 5).unwrap(), 64)), 64);
///
/// let (done, report) = svc.run(|client| {
///     let ta = client.put(a, "a.bin", b"alpha").unwrap();
///     let tb = client.put(b, "b.bin", b"bravo").unwrap();
///     ta.wait().unwrap();
///     tb.wait().unwrap();
///     client.get(a, "a.bin").unwrap().wait().unwrap()
/// });
/// assert_eq!(done, b"alpha");
/// assert_eq!(report.completed(), 3);
/// ```
pub struct ArchiveService {
    backend: SharedBackend,
    /// Tenants by id; `None` only while a run has them out on loan to
    /// the worker pool (unobservable: `run` takes `&mut self`).
    tenants: Vec<Option<Tenant>>,
    config: ServiceConfig,
}

impl ArchiveService {
    /// An empty service over `backend`.
    pub fn new(backend: SharedBackend, config: ServiceConfig) -> Self {
        ArchiveService {
            backend,
            tenants: Vec::new(),
            config,
        }
    }

    /// Whether operations execute in-line on the submitting thread.
    pub fn is_inline(&self) -> bool {
        self.config.inline
    }

    /// Worker shards a run will raise (1 in in-line mode).
    pub fn shard_count(&self) -> usize {
        if self.is_inline() {
            return 1;
        }
        self.config
            .shards
            .unwrap_or_else(ae_api::repair_threads)
            .max(1)
    }

    /// Adds a tenant with a fresh archive: `scheme` over this service's
    /// shared backend, viewed through the tenant's private namespace.
    ///
    /// The tenant is pinned to shard `tenant % shards` for the service's
    /// lifetime.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not fresh, the tenant's namespace already
    /// holds an archive, or the tenant roster is full (2^16 tenants).
    pub fn add_tenant(&mut self, scheme: Arc<dyn RedundancyScheme>, block_size: usize) -> TenantId {
        let meta = self.config.meta.clone();
        self.add_tenant_with_meta(scheme, block_size, meta)
    }

    /// [`ArchiveService::add_tenant`] with a per-tenant metadata policy —
    /// one tenant can run wider copy sets or a tighter checkpoint cadence
    /// than the service default.
    ///
    /// # Panics
    ///
    /// As [`ArchiveService::add_tenant`].
    pub fn add_tenant_with_meta(
        &mut self,
        scheme: Arc<dyn RedundancyScheme>,
        block_size: usize,
        meta: MetaConfig,
    ) -> TenantId {
        assert!(self.tenants.len() < u16::MAX as usize, "tenant roster full");
        let id = TenantId(self.tenants.len() as u16);
        let view = Arc::new(TenantStore::new(Arc::clone(&self.backend), id));
        self.tenants.push(Some(Tenant {
            archive: Archive::with_scheme_meta(scheme, block_size, view, meta),
            poisoned: None,
        }));
        id
    }

    /// Reopens a tenant archive that a **previous service process** left
    /// on the shared backend: the tenant's namespaced metadata journal is
    /// replayed checkpoint-first (O(checkpoint), exactly like
    /// [`Archive::open`]) and the tenant joins this service's roster under
    /// the next free id. `scheme` must be a fresh instance of the scheme
    /// the tenant was created with; the service's
    /// [`ServiceConfig::meta`] cadence governs future checkpoints while
    /// the copy-set width is adopted from the tenant's genesis record.
    ///
    /// The caller supplies `previous` — the tenant id the archive had in
    /// the crashed process (namespaces are positional) — and gets back
    /// the id it holds **now**. What the open had to skip or truncate is
    /// on the reopened archive ([`Archive::meta_damage`],
    /// [`Archive::torn_tail`]).
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] from the underlying [`Archive::open_with_meta`].
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not fresh or the roster is full.
    pub fn open_tenant(
        &mut self,
        scheme: Arc<dyn RedundancyScheme>,
        previous: TenantId,
    ) -> Result<TenantId, RecoveryError> {
        assert!(self.tenants.len() < u16::MAX as usize, "tenant roster full");
        assert_eq!(
            self.tenants.len(),
            previous.0 as usize,
            "tenant namespaces are positional: reopen tenants in their original order"
        );
        let view = Arc::new(TenantStore::new(Arc::clone(&self.backend), previous));
        let ar = Archive::open_with_meta(scheme, view, self.config.meta.clone())?;
        let id = TenantId(self.tenants.len() as u16);
        self.tenants.push(Some(Tenant {
            archive: ar,
            poisoned: None,
        }));
        Ok(id)
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// All tenant ids, in slot order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = TenantId> + '_ {
        (0..self.tenants.len()).map(|i| TenantId(i as u16))
    }

    /// The shared backend all tenants write through.
    pub fn backend(&self) -> &SharedBackend {
        &self.backend
    }

    /// A tenant's archive (idle access, e.g. for verification between
    /// runs).
    ///
    /// # Panics
    ///
    /// Panics on an unknown tenant.
    pub fn archive(&self, tenant: TenantId) -> &Archive<TenantStore> {
        &self.tenants[tenant.0 as usize]
            .as_ref()
            .expect("tenant archives are home between runs")
            .archive
    }

    /// Mutable idle access to a tenant's archive — the serial-replay path
    /// ([`crate::Workload::replay`]) drives archives directly through
    /// this.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tenant.
    pub fn archive_mut(&mut self, tenant: TenantId) -> &mut Archive<TenantStore> {
        &mut self.tenants[tenant.0 as usize]
            .as_mut()
            .expect("tenant archives are home between runs")
            .archive
    }

    /// Verifies every tenant end to end; returns the tenants with failing
    /// files and which files failed.
    pub fn verify_all(&self) -> Vec<(TenantId, Vec<String>)> {
        self.tenant_ids()
            .filter_map(|t| {
                let bad = self.archive(t).verify_all();
                (!bad.is_empty()).then_some((t, bad))
            })
            .collect()
    }

    /// Raises the worker pool, lends the driver closure a
    /// [`ServiceClient`], and joins the pool when the closure returns —
    /// every submitted operation completes before `run` does. Returns the
    /// closure's result and the run's [`ServiceReport`].
    ///
    /// In in-line mode ([`ServiceConfig::serial`]) no threads are raised:
    /// the one shard's operations execute on the submitting thread in
    /// submission order.
    pub fn run<R>(&mut self, f: impl FnOnce(&ServiceClient<'_>) -> R) -> (R, ServiceReport) {
        let shards = self.shard_count();
        let depth = self.config.queue_depth;
        let mut route = vec![(0usize, 0usize); self.tenants.len()];
        let mut parts: Vec<Shard> = (0..shards).map(|_| Shard::default()).collect();
        for (i, slot) in self.tenants.iter_mut().enumerate() {
            let shard = i % shards;
            route[i] = (shard, parts[shard].archives.len());
            parts[shard]
                .archives
                .push((i, slot.take().expect("archives are home")));
        }
        let queues: Vec<ShardQueue> = (0..shards).map(|_| ShardQueue::new(depth)).collect();
        let saturated = AtomicU64::new(0);
        let client = |dispatch| ServiceClient {
            dispatch,
            queues: &queues,
            route: &route,
            saturated: &saturated,
        };

        let (r, joined) = if self.is_inline() {
            let one = Mutex::new(parts.pop().expect("in-line mode is one shard"));
            let r = f(&client(Dispatch::Inline(&one)));
            // The vendored parking_lot has no `into_inner`.
            let shard = std::mem::take(&mut *one.lock());
            (r, vec![shard])
        } else {
            std::thread::scope(|scope| {
                let (senders, handles): (Vec<_>, Vec<_>) = parts
                    .into_iter()
                    .zip(&queues)
                    .map(|(mut shard, queue)| {
                        let (tx, rx) = mpsc::sync_channel::<Request>(depth);
                        let worker = scope.spawn(move || {
                            while let Ok(req) = rx.recv() {
                                queue.dequeued();
                                req(&mut shard);
                            }
                            shard
                        });
                        (tx, worker)
                    })
                    .unzip();
                // The client, and with it every sender, is dropped at the
                // end of this statement; workers drain their queues and
                // exit, so joining them means every accepted operation
                // has completed.
                let r = f(&client(Dispatch::Pool(senders)));
                let joined: Vec<Shard> = handles
                    .into_iter()
                    .map(|h| h.join().expect("service worker panicked"))
                    .collect();
                (r, joined)
            })
        };

        let mut latency = ShardStats::new().latency;
        let mut shard_completed = Vec::with_capacity(shards);
        for shard in joined {
            for (i, tenant) in shard.archives {
                self.tenants[i] = Some(tenant);
            }
            for (merged, shard_hist) in latency.iter_mut().zip(&shard.stats.latency) {
                merged.merge(shard_hist);
            }
            shard_completed.push(shard.stats.total_completed());
        }
        let report = ServiceReport {
            latency,
            shard_completed,
            queue_highwater: queues
                .iter()
                .map(|q| q.highwater.load(Ordering::Relaxed).max(0) as usize)
                .collect(),
            saturated: saturated.load(Ordering::Relaxed),
        };
        (r, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_api::{BlockSink, BlockSource};
    use ae_blocks::Block;
    use ae_core::Code;
    use ae_lattice::Config;
    use ae_store::MemStore;
    use std::thread::ThreadId;

    fn ae_scheme() -> Arc<dyn RedundancyScheme> {
        Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64))
    }

    fn service(shards: usize, tenants: usize) -> ArchiveService {
        let backend: SharedBackend = Arc::new(MemStore::new());
        let mut svc = ArchiveService::new(backend, ServiceConfig::with_shards(shards));
        for _ in 0..tenants {
            svc.add_tenant(ae_scheme(), 64);
        }
        svc
    }

    #[test]
    fn concurrent_tenants_round_trip_on_one_backend() {
        let mut svc = service(3, 7);
        let payload =
            |t: u16, i: usize| vec![(t as u8).wrapping_mul(31).wrapping_add(i as u8); 200];
        let (_, report) = svc.run(|client| {
            let mut tickets = Vec::new();
            for t in 0..7u16 {
                for i in 0..4 {
                    tickets.push(
                        client
                            .put(TenantId(t), &format!("f{i}"), &payload(t, i))
                            .unwrap(),
                    );
                }
            }
            for ticket in tickets {
                ticket.wait().unwrap();
            }
        });
        assert_eq!(report.completed(), 28);
        // One stats row per shard.
        assert_eq!(report.shard_completed.len(), svc.shard_count());
        assert!(report.latency(OpKind::Put).count() == 28);
        // Every tenant's files read back through idle access too.
        for t in 0..7u16 {
            for i in 0..4 {
                assert_eq!(
                    svc.archive(TenantId(t)).get(&format!("f{i}")).unwrap(),
                    payload(t, i)
                );
            }
        }
        assert!(svc.verify_all().is_empty());
    }

    #[test]
    fn typed_archive_errors_come_back_through_tickets() {
        let mut svc = service(2, 2);
        svc.run(|client| {
            client.put(TenantId(0), "x", b"1").unwrap().wait().unwrap();
            let dup = client.put(TenantId(0), "x", b"2").unwrap().wait();
            assert!(matches!(
                dup,
                Err(ServiceError::Archive(ArchiveError::DuplicateName(_)))
            ));
            let missing = client.get(TenantId(1), "nope").unwrap().wait();
            assert!(matches!(
                missing,
                Err(ServiceError::Archive(ArchiveError::UnknownFile(_)))
            ));
        });
    }

    #[test]
    fn unknown_tenants_are_rejected_at_submission() {
        let mut svc = service(2, 1);
        svc.run(|client| {
            assert_eq!(
                client.get(TenantId(9), "f").unwrap_err(),
                ServiceError::UnknownTenant(TenantId(9))
            );
        });
    }

    #[test]
    fn seal_and_scrub_flow_through_the_service() {
        use ae_baselines::ReedSolomon;
        let backend: SharedBackend = Arc::new(MemStore::new());
        let mut svc = ArchiveService::new(backend, ServiceConfig::with_shards(2));
        let rs = svc.add_tenant(Arc::new(ReedSolomon::new(4, 2).unwrap()), 64);
        svc.run(|client| {
            // 300 bytes = 5 blocks of 64: one full RS(4,2) stripe plus a
            // buffered partial that only seal flushes.
            client.put(rs, "f", &[7u8; 300]).unwrap().wait().unwrap();
            let flushed = client.seal(rs).unwrap().wait().unwrap();
            assert!(!flushed.is_empty(), "partial stripe flushed");
            assert_eq!(client.scrub(rs).unwrap().wait().unwrap(), 0);
            let late = client.put(rs, "late", b"no").unwrap().wait();
            assert!(matches!(
                late,
                Err(ServiceError::Archive(ArchiveError::Sealed(_)))
            ));
        });
        assert!(svc.archive(rs).is_sealed());
    }

    /// A backend that notes which thread made each write.
    struct WriterLog {
        inner: MemStore,
        writers: Mutex<Vec<ThreadId>>,
    }

    impl BlockSource for WriterLog {
        fn fetch(&self, id: BlockId) -> Option<Block> {
            self.inner.fetch(id)
        }
    }

    impl BlockSink for WriterLog {
        fn store(&self, id: BlockId, block: Block) {
            self.writers.lock().push(std::thread::current().id());
            self.inner.store(id, block);
        }
    }

    /// Runs one put and one get under `config`; returns the get's bytes,
    /// the run's report and the threads that made the put's writes.
    fn put_and_get(config: ServiceConfig) -> (Vec<u8>, ServiceReport, Vec<ThreadId>) {
        let log = Arc::new(WriterLog {
            inner: MemStore::new(),
            writers: Mutex::new(Vec::new()),
        });
        let mut svc = ArchiveService::new(Arc::clone(&log) as SharedBackend, config);
        let t = svc.add_tenant(ae_scheme(), 64);
        // Creating the tenant journaled on this thread; only the run counts.
        log.writers.lock().clear();
        let (bytes, report) = svc.run(|client| {
            client.put(t, "f", b"where").unwrap().wait().unwrap();
            client.get(t, "f").unwrap().wait().unwrap()
        });
        let writers = std::mem::take(&mut *log.writers.lock());
        assert!(!writers.is_empty());
        (bytes, report, writers)
    }

    #[test]
    fn inline_mode_serves_identically_on_the_submitting_thread() {
        let svc = ArchiveService::new(Arc::new(MemStore::new()), ServiceConfig::serial());
        assert!(svc.is_inline());
        assert_eq!(svc.shard_count(), 1);
        let (bytes, report, writers) = put_and_get(ServiceConfig::serial());
        assert_eq!(bytes, b"where");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.queue_highwater, vec![0]);
        let me = std::thread::current().id();
        assert!(writers.iter().all(|&w| w == me), "{writers:?} vs {me:?}");
    }

    #[test]
    fn pool_mode_serves_on_a_worker_thread() {
        let (bytes, report, writers) = put_and_get(ServiceConfig::with_shards(1));
        assert_eq!(bytes, b"where");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.shard_completed, vec![2]);
        let me = std::thread::current().id();
        assert!(writers.iter().all(|&w| w != me), "{writers:?} vs {me:?}");
    }

    #[test]
    fn runs_can_repeat_and_archives_come_home() {
        let mut svc = service(4, 5);
        svc.run(|client| {
            for t in 0..5u16 {
                client
                    .put(TenantId(t), "a", &[t as u8; 100])
                    .unwrap()
                    .wait()
                    .unwrap();
            }
        });
        let (_, second) = svc.run(|client| {
            for t in 0..5u16 {
                assert_eq!(
                    client.get(TenantId(t), "a").unwrap().wait().unwrap(),
                    vec![t as u8; 100]
                );
            }
        });
        assert_eq!(second.completed(), 5);
        assert_eq!(svc.tenant_count(), 5);
    }

    #[test]
    fn a_new_service_process_reopens_its_tenants_from_the_backend() {
        let backend: SharedBackend = Arc::new(MemStore::new());
        let mut config = ServiceConfig::with_shards(2);
        config.meta.checkpoint_every = Some(3);
        let payload = |t: u16, i: usize| vec![t as u8 ^ i as u8; 150];
        {
            let mut svc = ArchiveService::new(Arc::clone(&backend), config.clone());
            for _ in 0..3 {
                svc.add_tenant(ae_scheme(), 64);
            }
            svc.run(|client| {
                for t in 0..3u16 {
                    for i in 0..6 {
                        client
                            .put(TenantId(t), &format!("f{i}"), &payload(t, i))
                            .unwrap()
                            .wait()
                            .unwrap();
                    }
                }
            });
            // The service process "crashes" here: nothing is flushed
            // beyond what every put already journaled.
        }
        let mut svc = ArchiveService::new(backend, config);
        for t in 0..3u16 {
            let id = svc.open_tenant(ae_scheme(), TenantId(t)).unwrap();
            assert_eq!(id, TenantId(t));
            // Checkpoints fired under the cadence of 3, so reopen replayed
            // a bounded suffix, not the whole history.
            let ar = svc.archive(id);
            assert!(ar.checkpoint_seq().is_some(), "tenant {t} checkpointed");
            assert!(ar.replayed_records() < ar.meta_len());
        }
        svc.run(|client| {
            for t in 0..3u16 {
                for i in 0..6 {
                    assert_eq!(
                        client
                            .get(TenantId(t), &format!("f{i}"))
                            .unwrap()
                            .wait()
                            .unwrap(),
                        payload(t, i)
                    );
                }
            }
        });
        assert!(svc.verify_all().is_empty());
    }

    #[test]
    fn per_tenant_meta_policy_overrides_the_service_default() {
        let backend: SharedBackend = Arc::new(MemStore::new());
        let mut svc = ArchiveService::new(backend, ServiceConfig::default());
        let default = svc.add_tenant(ae_scheme(), 64);
        let custom = svc.add_tenant_with_meta(
            ae_scheme(),
            64,
            MetaConfig {
                copies: 2,
                checkpoint_every: Some(1),
                ..MetaConfig::default()
            },
        );
        assert_eq!(svc.archive(default).meta_config().copies, 3);
        assert_eq!(svc.archive(custom).meta_config().copies, 2);
        svc.run(|client| {
            client.put(custom, "f", b"eager").unwrap().wait().unwrap();
        });
        assert!(
            svc.archive(custom).checkpoint_seq().is_some(),
            "cadence of 1 checkpoints on the first put"
        );
        assert_eq!(svc.archive(default).checkpoint_seq(), None);
    }

    #[test]
    fn reopening_out_of_order_is_refused() {
        let backend: SharedBackend = Arc::new(MemStore::new());
        {
            let mut svc = ArchiveService::new(Arc::clone(&backend), ServiceConfig::default());
            svc.add_tenant(ae_scheme(), 64);
            svc.add_tenant(ae_scheme(), 64);
        }
        let mut svc = ArchiveService::new(backend, ServiceConfig::default());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = svc.open_tenant(ae_scheme(), TenantId(1));
        }));
        assert!(err.is_err(), "skipping tenant 0 must panic, typed");
    }

    #[test]
    fn error_display_names_the_problem() {
        let e = ServiceError::Saturated {
            shard: 2,
            capacity: 8,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(ServiceError::UnknownTenant(TenantId(3))
            .to_string()
            .contains("t3"));
        assert!(ServiceError::Shutdown.to_string().contains("shut down"));
    }
}
