//! The repository's benchmark: six named workloads, universal end-to-end
//! metrics estimated robustly against host interference, and an
//! outside-in per-layer trace. See `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive_wl;
pub mod gen;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod service_wl;
pub mod stats;
pub mod sweep_wl;
pub mod trace;
pub mod workload;
