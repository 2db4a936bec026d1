//! Reliability-frontier sweep harness: the scheme roster × failure-model
//! grid behind the paper's §V.C evaluation, as one seeded, config-driven
//! runner.
//!
//! A [`SweepConfig`] names a grid — every [`Scheme`] in the roster crossed
//! with every [`FailureSpec`] and every scenario seed — and
//! [`run_sweep`] expands it into per-cell [`ae_sim::SchemePlane`]
//! simulations, emitting one [`CellResult`] per cell. The
//! CSV serialization ([`SweepResult::to_csv`]) is the CI contract: the
//! `sweeps` job replays a pinned smoke grid and diffs the bytes against a
//! checked-in golden file, planned in parallel and under
//! `AE_REPAIR_THREADS=1`.
//!
//! # CSV schema
//!
//! One header line, then one row per cell in `schemes × failures × seeds`
//! order. `scheme` and `failure` are double-quoted (their labels contain
//! commas — `"RS(10,4)"`, `"iid(0.15)"`); every other column is bare.
//!
//! | column | meaning |
//! |---|---|
//! | `scheme` | roster label ([`Scheme::name`]) |
//! | `failure` | failure-model label ([`FailureSpec::label`]) |
//! | `seed` | scenario seed for this cell |
//! | `data_blocks` | data blocks in the deployment |
//! | `locations` | failure-domain locations |
//! | `storage_overhead_pct` | the scheme's additional storage (Table IV "AS") |
//! | `failed_data`, `failed_redundancy` | blocks the scenario failed, by kind |
//! | `repaired` | blocks repaired across all rounds |
//! | `lost_data`, `lost_redundancy` | blocks still missing at scenario end |
//! | `irrecoverable` | `lost_data + lost_redundancy` |
//! | `blocks_read`, `blocks_written` | total repair traffic |
//! | `rounds` | repair rounds across all scenario events |
//! | `read_cost_p50`, `read_cost_p99` | per-repaired-block read cost quantiles |
//!
//! Every column is integer except `storage_overhead_pct`, which is a
//! scheme constant formatted to one decimal — there is no accumulated
//! floating point anywhere, so equal runs produce equal bytes.
//!
//! # Seeding contract
//!
//! A `(seed, config)` pair names one exact outcome:
//!
//! * Placement uses [`ae_sim::SimPlacement::Random`] keyed by the
//!   config's `placement_seed`, shared by every cell so all schemes see
//!   the same location map.
//! * Each cell's scenario is driven by its `seed` alone: i.i.d. and churn
//!   disasters key the location shuffle with it, correlated-group
//!   knockouts and bit rot derive their draws from
//!   [`ae_api::mix64`]`(·, seed)`, churn epochs use `mix64(epoch, seed)`.
//!   Rolling upgrades are operator-driven (wave order is fixed) and
//!   ignore the scenario seed by design.
//! * Repair planning fans out over [`ae_api::repair_threads`] scoped
//!   threads, but chunk-order merging keeps the planned sets — and every
//!   number derived from them — bit-identical to a sequential plan
//!   (`AE_REPAIR_THREADS=1`), so the CSV is byte-stable across thread
//!   counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod failure;
pub mod report;
pub mod run;

pub use ae_sim::Scheme;
pub use config::{SweepConfig, SweepError};
pub use failure::FailureSpec;
pub use report::{bench_json, frontier_report, scheme_frontiers, SchemeFrontier};
pub use run::{run_sweep, CellResult, SweepResult, CSV_HEADER};
