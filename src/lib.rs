//! Alpha entanglement codes — umbrella crate.
//!
//! Re-exports the workspace crates under one roof so examples and downstream
//! users can depend on a single package. See the individual crates for the
//! full APIs:
//!
//! * [`api`] — the scheme-agnostic surface: the
//!   [`api::RedundancyScheme`] trait, [`api::BlockSource`] /
//!   [`api::BlockSink`], and the [`api::AeError`] / [`api::RepairError`]
//!   hierarchy.
//! * [`blocks`] — block primitives, XOR kernels, CRC32.
//! * [`gf`] — GF(2^8) arithmetic for the Reed-Solomon baseline.
//! * [`lattice`] — the helical lattice and minimal-erasure analysis.
//! * [`core`] — the AE(α, s, p) encoder and decoder.
//! * [`baselines`] — Reed-Solomon and replication comparison codes.
//! * [`store`] — the simulated distributed storage substrate.
//! * [`service`] — the multi-tenant archive serving layer and its
//!   deterministic workload engine.
//! * [`sim`] — the disaster-recovery simulation framework, built on one
//!   generic scheme plane.
//! * [`sweep`] — the reliability-frontier sweep harness: scheme roster ×
//!   failure models into one seeded, byte-stable CSV.
//! * [`aio`] — the async block I/O subsystem: vendored executor +
//!   virtual clock, latency-faithful network backends
//!   ([`aio::LatencyStore`]) and pipelined bounded-in-flight repair.
//!
//! # Quickstart
//!
//! Everything speaks [`api::RedundancyScheme`]: encode a batch, lose
//! blocks, repair — with any code. Swapping `Code` below for
//! [`baselines::ReedSolomon`] or [`baselines::Replication`] changes
//! nothing else.
//!
//! ```
//! use aecodes::api::RedundancyScheme;
//! use aecodes::blocks::{Block, BlockId, NodeId};
//! use aecodes::core::{BlockMap, Code};
//! use aecodes::lattice::Config;
//! use std::sync::Arc;
//!
//! // Schemes and backends are shared-by-default: every method is &self.
//! let scheme: Arc<dyn RedundancyScheme> = Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64));
//! let store = BlockMap::new();
//! let blocks: Vec<Block> = (0u8..50).map(|n| Block::from_vec(vec![n; 64])).collect();
//! scheme.encode_batch(&blocks, &store).unwrap();
//!
//! // Lose a few blocks; round-based repair restores them byte-identically.
//! let victims = [BlockId::Data(NodeId(7)), BlockId::Data(NodeId(33))];
//! let originals: Vec<Block> = victims.iter().map(|v| store.remove(v).unwrap()).collect();
//! let summary = scheme.repair_missing(&store, &victims, 50);
//! assert!(summary.fully_recovered());
//! assert_eq!(store.get(&victims[0]).unwrap(), originals[0]);
//!
//! // Failed repairs say which tuple members were missing.
//! let err = scheme.repair_block(&BlockMap::new(), victims[0], 50).unwrap_err();
//! assert!(!err.missing_blocks().is_empty());
//! ```

pub use ae_aio as aio;
pub use ae_api as api;
pub use ae_baselines as baselines;
pub use ae_blocks as blocks;
pub use ae_core as core;
pub use ae_gf as gf;
pub use ae_lattice as lattice;
pub use ae_service as service;
pub use ae_sim as sim;
pub use ae_store as store;
pub use ae_sweep as sweep;
