//! Multi-tenant archive **serving layer** with a deterministic workload
//! engine.
//!
//! The paper's §IV use cases all end in the same deployment shape: many
//! users' archives, one storage system, concurrent traffic. This crate is
//! that shape as a subsystem over the workspace's existing pieces — any
//! [`ae_api::RedundancyScheme`] per tenant, one shared
//! [`ae_api::BlockRepo`] backend under everyone.
//!
//! # Architecture
//!
//! Three layers, bottom up:
//!
//! * [`TenantStore`] — a per-tenant namespaced view of the shared backend.
//!   Every block id a tenant's archive emits (data, parities, shards,
//!   replicas **and journal records**) is tagged with the tenant number in
//!   its high 16 bits, so whole archives — crash-recovery journal included
//!   — coexist in one store without any scheme or archive code changing.
//! * [`ArchiveService`] — the serving core. Tenants are pinned to shards
//!   (`tenant % shards`, width defaulting to the
//!   [`ae_api::repair_threads`] / `AE_REPAIR_THREADS` convention); each
//!   shard is one `std::thread::scope` worker that is the single writer
//!   for its archives, fed by a bounded FIFO queue whose overflow answers
//!   a typed [`ServiceError::Saturated`] instead of blocking. A run
//!   yields a [`ServiceReport`]: per-op latency histograms (p50/p95/p99),
//!   completion counts, queue-depth highwaters, saturation counts.
//! * [`Workload`] — the deterministic engine. A `(seed, config)` pair
//!   materializes one exact operation sequence — op mix per phase,
//!   Zipf-skewed tenant and file popularity, payload bytes — which can
//!   be **driven** through a sharded service and **replayed** serially,
//!   and the two final states compared block for block. Tenant-affine
//!   sharding makes that comparison meaningful: each tenant's ops
//!   execute in submission order on every shard count, and tenants' id
//!   spaces are disjoint, so the final backend state is independent of
//!   cross-tenant interleaving.
//!
//! [`ServiceConfig::serial`] is the reference configuration of the same
//! service: one shard whose dispatch runs on the caller's thread. The
//! parity suite checks it and the sharded pool alike against
//! [`Workload::replay`].
//!
//! ```
//! use ae_service::{ArchiveService, ServiceConfig, Workload, WorkloadConfig};
//! use ae_store::MemStore;
//! use ae_core::Code;
//! use ae_lattice::Config;
//! use std::sync::Arc;
//!
//! let mut svc = ArchiveService::new(Arc::new(MemStore::new()), ServiceConfig::default());
//! for _ in 0..4 {
//!     svc.add_tenant(Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64)), 64);
//! }
//! let workload = Workload::generate(0xAE, WorkloadConfig::default());
//! let (outcome, report) = svc.run(|client| workload.drive(client));
//! assert!(outcome.clean());
//! assert_eq!(report.completed() as usize, workload.ops.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod service;
pub mod stats;
pub mod tenant;
pub mod workload;

pub use ae_store::meta::MetaConfig;
pub use rng::{SplitMix64, Zipf};
pub use service::{ArchiveService, ServiceClient, ServiceConfig, ServiceError, Ticket};
pub use stats::{LatencyHistogram, OpKind, ServiceReport, ShardStats};
pub use tenant::{SharedBackend, TenantId, TenantStore};
pub use workload::{DriveOutcome, OpMix, Phase, ScheduledOp, Workload, WorkloadConfig, WorkloadOp};
