//! The [`RedundancyScheme`] trait: one interface for every code.
//!
//! A scheme owns its encoding state (alpha entanglement keeps a strand
//! frontier, Reed-Solomon a partial stripe, replication a write counter)
//! and exposes two planes:
//!
//! * the **byte plane** — [`RedundancyScheme::encode_batch`],
//!   [`RedundancyScheme::repair_block`] and
//!   [`RedundancyScheme::repair_missing`] move real bytes through a
//!   [`BlockSink`]/[`BlockSource`];
//! * the **availability plane** — [`RedundancyScheme::is_repairable`]
//!   and friends describe the code's structure so a simulation can drive
//!   disasters over flags only, the way the paper's §V.C evaluation does.
//!
//! Both planes share one write order, defined once by arithmetic: the
//! required [`RedundancyScheme::dense_index`] ⇄
//! [`RedundancyScheme::block_at`] bijection numbers every block a
//! deployment stores, and [`RedundancyScheme::block_ids`] is derived from
//! it. A scheme without that bijection does not compile.
//!
//! The trait is object-safe; simulations and stores hold
//! `Box<dyn RedundancyScheme>` / `&dyn RedundancyScheme`.

use crate::error::{AeError, RepairError};
use crate::io::{BlockRepo, BlockSink, BlockSource};
use ae_blocks::{Block, BlockId};
use std::collections::HashMap;

/// What one [`RedundancyScheme::encode_batch`] call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeReport {
    /// Lattice position of the batch's first data block (1-based; data
    /// positions are shared across schemes).
    pub first_node: u64,
    /// All block ids stored by this call, data and redundancy, in write
    /// order. Redundancy that is still buffered (for example a partial
    /// Reed-Solomon stripe) appears only once a later call or
    /// [`RedundancyScheme::seal`] flushes it.
    pub ids: Vec<BlockId>,
}

impl EncodeReport {
    /// Data blocks written by this call.
    pub fn data_written(&self) -> u64 {
        self.ids.iter().filter(|id| id.is_data()).count() as u64
    }

    /// Redundancy blocks written by this call.
    pub fn redundancy_written(&self) -> u64 {
        self.ids.len() as u64 - self.data_written()
    }
}

/// The Table IV cost model of a scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairCost {
    /// Blocks read to repair one isolated missing block ("SF" row): 2 for
    /// alpha entanglement, `k` for RS(k, m), 1 for replication.
    pub single_failure_reads: u32,
    /// Additional storage as a percentage of the data ("AS" row).
    pub additional_storage_pct: f64,
    /// Blocks left with a single repair tuple at a chain extremity — the
    /// open-chain weakness of §IV.B.1 (the tail data block and its only
    /// parity form a dead pair). Zero for closed chains and for schemes
    /// without chain structure; Table IV-style cost reports use it to
    /// distinguish open from closed chains instead of letting the weaker
    /// redundancy pass silently.
    pub extremity_exposed: u32,
}

impl RepairCost {
    /// Cost model without any chain-extremity exposure (every scheme but
    /// open entanglement chains).
    pub fn new(single_failure_reads: u32, additional_storage_pct: f64) -> Self {
        RepairCost {
            single_failure_reads,
            additional_storage_pct,
            extremity_exposed: 0,
        }
    }
}

/// Statistics of one repair round, on the byte plane
/// ([`RedundancyScheme::repair_missing`]) and the availability plane
/// (`ae_sim::SchemePlane`) alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Blocks repaired this round (data + redundancy).
    pub repaired: usize,
    /// Of which data blocks.
    pub data_repaired: usize,
    /// Blocks read to execute this round's repairs
    /// ([`RedundancyScheme::repair_traffic`] over the round's commit set) —
    /// per-round traffic, so callers can report repair-cost distributions
    /// instead of a bare total.
    pub blocks_read: u64,
}

impl RoundStats {
    /// Blocks written this round (every repair writes its block back).
    pub fn writes(&self) -> u64 {
        self.repaired as u64
    }
}

/// Outcome of a round-based [`RedundancyScheme::repair_missing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairSummary {
    /// Per-round statistics, in order.
    pub rounds: Vec<RoundStats>,
    /// Targets the scheme could not reconstruct.
    pub unrecovered: Vec<BlockId>,
    /// Total blocks read while repairing.
    pub blocks_read: u64,
}

impl RepairSummary {
    /// Number of rounds that made progress.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total blocks repaired.
    pub fn total_repaired(&self) -> usize {
        self.rounds.iter().map(|r| r.repaired).sum()
    }

    /// Total data blocks repaired.
    pub fn total_data_repaired(&self) -> usize {
        self.rounds.iter().map(|r| r.data_repaired).sum()
    }

    /// Data blocks repaired in round 1 — single failures in the paper's
    /// sense (§V.C.3, Fig 13).
    pub fn single_failure_data_repairs(&self) -> usize {
        self.rounds.first().map_or(0, |r| r.data_repaired)
    }

    /// Whether every target was reconstructed.
    pub fn fully_recovered(&self) -> bool {
        self.unrecovered.is_empty()
    }

    /// Converts to a hard error when anything was left unrecovered.
    pub fn into_result(self) -> Result<RepairSummary, RepairError> {
        if self.unrecovered.is_empty() {
            Ok(self)
        } else {
            Err(RepairError::Unrecoverable {
                targets: self.unrecovered,
            })
        }
    }
}

/// A redundancy scheme: encode data blocks into redundancy, repair missing
/// blocks from survivors, describe the structure to simulations.
///
/// All data blocks share the id space `BlockId::Data(NodeId(1..))` in
/// write order; every scheme emits its own redundancy ids (lattice
/// parities, parity shards, replicas). Block sizes are uniform within a
/// scheme instance.
///
/// Schemes are `Send + Sync` and every method takes `&self`: encoding
/// state (a strand frontier, a partial stripe, a write counter) sits
/// behind interior mutability inside the scheme, so one instance can be
/// shared — `Arc<dyn RedundancyScheme>` between an archive, a plane and
/// repair workers — with no wrapper gymnastics. This mirrors the backend
/// family ([`BlockSink`] is `&self` too): shared-by-default is the one
/// mutability story of the public API.
pub trait RedundancyScheme: Send + Sync {
    /// Paper-style display name, e.g. `AE(3,2,5)`, `RS(10,4)`,
    /// `3-way replic.`.
    fn scheme_name(&self) -> String;

    /// Data blocks encoded so far (the write counter).
    fn data_written(&self) -> u64;

    /// The Table IV cost model.
    fn repair_cost(&self) -> RepairCost;

    /// Encodes a batch of equal-sized data blocks: assigns them the next
    /// positions, writes them and their redundancy into `sink`.
    ///
    /// Batching is the hot path — implementations amortise per-block
    /// bookkeeping (strand-head lookups, stripe assembly) over the slice.
    ///
    /// # Errors
    ///
    /// Fails (without writing anything) when a block's size differs from
    /// the scheme's.
    fn encode_batch(&self, blocks: &[Block], sink: &dyn BlockSink)
        -> Result<EncodeReport, AeError>;

    /// Flushes any buffered redundancy (for example a partial
    /// Reed-Solomon stripe, padded with virtual zero blocks). Returns the
    /// ids written; the default is a no-op for schemes that never buffer.
    fn seal(&self, _sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        Ok(Vec::new())
    }

    /// Serializes the scheme's **encoder frontier** — everything beyond
    /// the already-stored blocks that the encoder needs to keep producing
    /// (the AE strand-frontier counter, the Reed-Solomon write counter and
    /// buffered-stripe length, replication's write counter, a chain's
    /// sealed flag) — into a small, versioned, scheme-defined byte string.
    ///
    /// The snapshot is deliberately *thin*: block contents that already
    /// live on the backend (frontier parities, buffered stripe data) are
    /// **not** embedded; [`RedundancyScheme::restore_frontier`] refetches
    /// them, the way the paper's broker recovers after a crash ("it only
    /// needs to retrieve the p-blocks from the remote nodes", §IV.A).
    /// Archives persist the snapshot in their on-backend metadata journal
    /// after every mutation, making the whole archive crash-recoverable.
    ///
    /// The default snapshot is the little-endian write counter — enough
    /// for schemes whose only state is `data_written` — but restoring is
    /// opt-in: the default [`RedundancyScheme::restore_frontier`] reports
    /// [`AeError::FrontierUnsupported`]. Implement **both** to make a
    /// custom scheme archive-recoverable.
    fn frontier_snapshot(&self) -> Vec<u8> {
        self.data_written().to_le_bytes().to_vec()
    }

    /// Restores the encoder frontier from a
    /// [`RedundancyScheme::frontier_snapshot`], refetching any in-flight
    /// blocks (strand-frontier parities, buffered partial-stripe data)
    /// from `source`. After a successful restore the scheme continues
    /// encoding **bit-identically** to the instance that took the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// * [`AeError::CorruptFrontier`] — the snapshot bytes do not parse
    ///   (wrong version, wrong length, inconsistent counters).
    /// * [`AeError::FrontierBlockMissing`] — a block the restore needed is
    ///   no longer available from `source`; the error names it.
    /// * [`AeError::FrontierUnsupported`] — the scheme keeps the default
    ///   and cannot be restored.
    fn restore_frontier(&self, _snapshot: &[u8], _source: &dyn BlockSource) -> Result<(), AeError> {
        Err(AeError::FrontierUnsupported {
            scheme: self.scheme_name(),
        })
    }

    /// The ids [`RedundancyScheme::restore_frontier`] will fetch for
    /// `snapshot`, in fetch order — the read set a caller may move in one
    /// batch before restoring, instead of paying one round trip per
    /// frontier block. Purely a prefetch hint: the empty default (and a
    /// wrapper that does not forward the method) leaves every fetch to
    /// the restore itself, and a snapshot that does not parse answers
    /// empty so the restore reports the typed error.
    fn frontier_reads(&self, _snapshot: &[u8]) -> Vec<BlockId> {
        Vec::new()
    }

    /// Repairs a single block from currently available blocks.
    /// `data_blocks` bounds the written extent (repair coordinators often
    /// know it without owning the encoder).
    ///
    /// # Errors
    ///
    /// [`RepairError::NoCompleteTuple`] names the unavailable blocks that
    /// blocked every repair option.
    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError>;

    /// Round-based repair of `targets` until fixpoint: each round repairs
    /// every target that currently has a complete repair option, commits
    /// them together, and newly repaired blocks enable further repairs
    /// next round (§V.C.4). Already-present targets are skipped.
    ///
    /// The default plans each round against the immutable round-start
    /// snapshot, fanning [`RedundancyScheme::repair_block`] calls across
    /// [`crate::repair_threads`] scoped threads, then commits the planned
    /// repairs in deterministic (target-order) sequence. Between rounds it
    /// keeps a worklist: a failed target is re-attempted only after one of
    /// the blocks its last [`RepairError`] named was repaired — sound
    /// because an incomplete repair option can only complete when one of
    /// its named-missing members comes back. Rounds, per-round statistics,
    /// traffic and unrecovered targets are bit-identical to
    /// [`RedundancyScheme::repair_missing_serial`] (proved by the parity
    /// suites, which compare both planners in one process);
    /// multi-failure disasters just plan each round in parallel and skip
    /// provably-futile re-attempts.
    fn repair_missing(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        repair_missing_worklist(self, repo, targets, data_blocks)
    }

    /// The reference single-threaded round loop behind
    /// [`RedundancyScheme::repair_missing`]: every round re-attempts every
    /// still-missing target against the round-start state. Kept public as
    /// the oracle the worklist planner is tested against.
    fn repair_missing_serial(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        let mut missing: Vec<BlockId> = targets
            .iter()
            .copied()
            .filter(|&id| !repo.has(id))
            .collect();
        let mut rounds = Vec::new();
        let mut blocks_read = 0;
        while !missing.is_empty() {
            // Plan all repairs against the round-start state...
            let mut planned: Vec<(BlockId, Block)> = Vec::new();
            let mut still_missing = Vec::new();
            for &id in &missing {
                match self.repair_block(repo, id, data_blocks) {
                    Ok(block) => planned.push((id, block)),
                    Err(_) => still_missing.push(id),
                }
            }
            if planned.is_empty() {
                break; // fixpoint: a dead pattern remains
            }
            let round_reads =
                self.repair_traffic(&planned.iter().map(|(id, _)| *id).collect::<Vec<_>>());
            blocks_read += round_reads;
            let stats = RoundStats {
                repaired: planned.len(),
                data_repaired: planned.iter().filter(|(id, _)| id.is_data()).count(),
                blocks_read: round_reads,
            };
            // ...then commit them together, making them visible next round.
            for (id, block) in planned {
                repo.store(id, block);
            }
            rounds.push(stats);
            missing = still_missing;
        }
        RepairSummary {
            rounds,
            unrecovered: missing,
            blocks_read,
        }
    }

    /// Blocks read to repair the given set of blocks in one round (used
    /// for traffic accounting). The default charges the single-failure
    /// cost per block; Reed-Solomon overrides it to charge one stripe
    /// decode per touched stripe.
    fn repair_traffic(&self, repaired: &[BlockId]) -> u64 {
        repaired.len() as u64 * self.repair_cost().single_failure_reads as u64
    }

    // --- availability plane -------------------------------------------

    /// Whether `id`, assumed missing, could be repaired right now given
    /// the availability oracle `avail` (asked only about other blocks).
    ///
    /// Two things callers rely on, which an implementation must keep:
    ///
    /// * **The ids asked are the read set of a single-block repair.**
    ///   The archive's degraded read prefetches exactly the ids this asks
    ///   about (answering "present" for the ones it has not fetched yet),
    ///   round by round, before [`RedundancyScheme::repair_block`] runs
    ///   on what it fetched. An early exit that skips members the repair
    ///   would read turns into extra round trips; asking about more than
    ///   it reads, into extra fetches. Both move
    ///   `tests/golden/wan_rtts.csv`.
    /// * **It is monotone in `avail`.** If it answers `true` under one
    ///   oracle, it answers `true` under every oracle that reports at
    ///   least the same blocks available. The availability plane relies
    ///   on this to stop re-asking about blocks it found unrepairable at
    ///   a fixpoint, while blocks only go missing.
    fn is_repairable(&self, id: BlockId, data_blocks: u64, avail: &dyn Fn(BlockId) -> bool)
        -> bool;

    /// Whether a repair of missing block `id` would be a *single failure*
    /// in the paper's Fig 13 sense: solvable in one step with the minimum
    /// read cost. Default: repairable right now.
    ///
    /// **A single failure is repairable.** For every block the scheme
    /// stores, an implementation that answers `true` here must answer
    /// `true` from [`RedundancyScheme::is_repairable`] under the same
    /// oracle. The availability plane relies on this to count Fig 13's
    /// singles on the disaster state alone: an uncapped first repair
    /// round rebuilds every one of them.
    fn is_single_failure(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        self.is_repairable(id, data_blocks, avail)
    }

    /// The repair group of a stored block: a key under which missing
    /// blocks share their availability answers, so a planner that asks
    /// about many missing blocks against one snapshot may ask once per
    /// group.
    ///
    /// **Missing members of a group answer alike.** Two ids the scheme
    /// stores, both missing under an oracle and both in the same group,
    /// get the same answer from [`RedundancyScheme::is_repairable`] and
    /// the same answer from [`RedundancyScheme::is_single_failure`] under
    /// that oracle. Nothing is promised about available members.
    ///
    /// The default, `None`, puts every block in a group of its own, which
    /// is always sound. Reed-Solomon answers with the stripe of each
    /// stored member: whether a missing member can be rebuilt depends only
    /// on how many of its stripe's members are available. Ids the scheme
    /// does not store (padding, foreign ids) answer `None`.
    fn repair_group(&self, _id: &BlockId, _data_blocks: u64) -> Option<u64> {
        None
    }

    /// Redundancy blocks worth repairing under *minimal maintenance*
    /// (§V.C.2) for the currently-missing data blocks — e.g. the members
    /// of their repair tuples. Schemes that repair data only (RS,
    /// replication) keep the empty default.
    fn maintenance_targets(&self, _missing_data: &[BlockId], _data_blocks: u64) -> Vec<BlockId> {
        Vec::new()
    }

    // --- write order ---------------------------------------------------

    /// Number of blocks a deployment of `data_blocks` data blocks stores:
    /// the size of the universe [`RedundancyScheme::block_at`] numbers.
    fn universe_len(&self, data_blocks: u64) -> u64;

    /// Maps `id` to its position in write order, in O(1) arithmetic: the
    /// inverse of [`RedundancyScheme::block_at`]. Returns `None` for ids
    /// outside the universe (foreign schemes, positions past the written
    /// extent) and for positions past `u32::MAX`.
    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32>;

    /// The id of the block at write-order position `k`, in O(1)
    /// arithmetic. Returns `None` for `k >= universe_len(data_blocks)`.
    ///
    /// Together with [`RedundancyScheme::dense_index`] this is the one
    /// definition of a scheme's write order: a full id ⇄ position
    /// bijection, `block_at(dense_index(id)) == id` and
    /// `dense_index(block_at(k)) == k` over the whole universe. The ids
    /// [`RedundancyScheme::encode_batch`] reports and then
    /// [`RedundancyScheme::seal`] returns, concatenated, are
    /// `block_at(0..universe_len)` in order. Callers such as
    /// `SchemePlane` and the archive never materialize the universe:
    /// positions are their working representation and ids are recomputed
    /// at the edges (repair commits, summaries).
    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId>;

    /// Every block a deployment of `data_blocks` data blocks stores, in
    /// write order with redundancy interleaved next to the data it
    /// protects: [`RedundancyScheme::block_at`] over the universe,
    /// stopping at the `u32` position ceiling. Materializes the universe;
    /// for tests, examples and small deployments.
    ///
    /// # Panics
    ///
    /// Panics if `block_at` answers `None` inside `universe_len`: the
    /// two disagree about the universe, a bug in the scheme.
    fn block_ids(&self, data_blocks: u64) -> Vec<BlockId> {
        let len = self.universe_len(data_blocks).min(1 << 32);
        (0..len)
            .map(|k| {
                self.block_at(k as u32, data_blocks)
                    .expect("block_at answers every position below universe_len")
            })
            .collect()
    }

    /// Always `true`: every scheme has the bijection above. Nothing in
    /// the workspace reads it; it remains only because the benchmark
    /// package's tracing wrapper overrides it, and goes when that wrapper
    /// may change.
    fn supports_dense_index(&self) -> bool {
        true
    }
}

/// How many targets one round must reach before planning fans out across
/// threads — below this, scoped-thread spawn overhead beats the win.
const PARALLEL_PLAN_MIN: usize = 256;

/// End-of-chain sentinel in [`Waiting::Dense`] lists.
const NO_WAITER: u32 = u32::MAX;

/// Who is waiting on a blocker: target indices keyed by the blocker's
/// dense universe position or by the blocker id. The dense variant stores
/// the per-blocker lists as intrusive chains over two flat arrays — 4
/// bytes per universe slot plus 8 per filing, no per-slot allocations.
enum Waiting {
    Dense {
        /// Per universe slot, index of the most recent filing (chain
        /// head), or [`NO_WAITER`].
        head: Vec<u32>,
        /// Filing arena: `(previous filing on the same blocker, target)`.
        entries: Vec<(u32, u32)>,
    },
    Hash(HashMap<BlockId, Vec<u32>>),
}

impl Waiting {
    /// Dense keying pays 4 bytes per universe slot up front, so it is
    /// only worth it when the target set is a sizable share of the
    /// universe (dense disasters); scattered repairs in a huge deployment
    /// keep the map.
    fn for_repair<S: RedundancyScheme + ?Sized>(
        scheme: &S,
        targets: usize,
        data_blocks: u64,
    ) -> Self {
        let len = scheme.universe_len(data_blocks);
        if len <= (targets as u64).saturating_mul(8).max(1 << 16) {
            Waiting::Dense {
                head: vec![NO_WAITER; len as usize],
                entries: Vec::new(),
            }
        } else {
            Waiting::Hash(HashMap::new())
        }
    }

    fn file<S: RedundancyScheme + ?Sized>(
        &mut self,
        scheme: &S,
        blocker: BlockId,
        target: u32,
        data_blocks: u64,
    ) {
        match self {
            Waiting::Dense { head, entries } => {
                // A blocker outside the universe can never commit, so
                // there is nothing to subscribe to.
                if let Some(k) = scheme.dense_index(&blocker, data_blocks) {
                    entries.push((head[k as usize], target));
                    head[k as usize] = entries.len() as u32 - 1;
                }
            }
            Waiting::Hash(map) => map.entry(blocker).or_default().push(target),
        }
    }

    /// Invokes `wake` with every target waiting on `committed` and clears
    /// the blocker's list.
    fn wake_each<S: RedundancyScheme + ?Sized>(
        &mut self,
        scheme: &S,
        committed: BlockId,
        data_blocks: u64,
        mut wake: impl FnMut(u32),
    ) {
        match self {
            Waiting::Dense { head, entries } => {
                if let Some(k) = scheme.dense_index(&committed, data_blocks) {
                    let mut cursor = std::mem::replace(&mut head[k as usize], NO_WAITER);
                    while cursor != NO_WAITER {
                        let (next, target) = entries[cursor as usize];
                        wake(target);
                        cursor = next;
                    }
                }
            }
            Waiting::Hash(map) => {
                for target in map.remove(&committed).unwrap_or_default() {
                    wake(target);
                }
            }
        }
    }
}

/// The worklist round loop behind the default
/// [`RedundancyScheme::repair_missing`]: plan each round in parallel
/// against the round-start snapshot, commit sequentially, and re-attempt
/// a failed target only after a block its last error named gets repaired.
fn repair_missing_worklist<S: RedundancyScheme + ?Sized>(
    scheme: &S,
    repo: &dyn BlockRepo,
    targets: &[BlockId],
    data_blocks: u64,
) -> RepairSummary {
    // Targets in stable order; all worklist state is indexed by position
    // in this vector so the per-round bookkeeping is flat array traffic.
    let missing: Vec<BlockId> = targets
        .iter()
        .copied()
        .filter(|&id| !repo.has(id))
        .collect();
    if missing.is_empty() {
        // Nothing to plan: no worklist, whose dense form is a slot per
        // universe position.
        return RepairSummary {
            rounds: Vec::new(),
            unrecovered: Vec::new(),
            blocks_read: 0,
        };
    }
    let mut repaired = vec![false; missing.len()];
    // Whether target `i` is worth attempting next round. Every target
    // starts eligible; afterwards only commits of named-missing blockers
    // re-arm a target.
    let mut eligible = vec![true; missing.len()];
    let mut waiting = Waiting::for_repair(scheme, missing.len(), data_blocks);
    let mut rounds = Vec::new();
    let mut blocks_read = 0;
    loop {
        // Attempt set in target order, so planning (and with it commit
        // order and round statistics) matches the serial path.
        let attempts: Vec<u32> = (0..missing.len() as u32)
            .filter(|&i| !repaired[i as usize] && eligible[i as usize])
            .collect();
        if attempts.is_empty() {
            break; // fixpoint: nothing can have become repairable
        }
        let threads = crate::repair_threads().min(attempts.len());
        let mut planned: Vec<(u32, Block)> = Vec::new();
        if threads <= 1 || attempts.len() < PARALLEL_PLAN_MIN {
            // Single planner: attempt inline, filing blockers as they
            // surface — no intermediate result buffer.
            for &i in &attempts {
                match scheme.repair_block(repo, missing[i as usize], data_blocks) {
                    Ok(block) => planned.push((i, block)),
                    Err(err) => {
                        for &blocker in err.missing_blocks() {
                            waiting.file(scheme, blocker, i, data_blocks);
                        }
                    }
                }
            }
        } else {
            // Fan the repair_block attempts out in contiguous chunks;
            // chunk-order merging keeps the result order (and everything
            // derived from it) identical to a serial plan.
            let source: &dyn BlockRepo = repo;
            let missing = &missing;
            let results = crate::par::par_chunks(&attempts, threads, PARALLEL_PLAN_MIN, |chunk| {
                chunk
                    .iter()
                    .map(|&i| {
                        (
                            i,
                            scheme.repair_block(source, missing[i as usize], data_blocks),
                        )
                    })
                    .collect::<Vec<_>>()
            });
            for (i, res) in results {
                match res {
                    Ok(block) => planned.push((i, block)),
                    Err(err) => {
                        for &blocker in err.missing_blocks() {
                            waiting.file(scheme, blocker, i, data_blocks);
                        }
                    }
                }
            }
        }
        for &i in &attempts {
            eligible[i as usize] = false;
        }
        if planned.is_empty() {
            break; // fixpoint: a dead pattern remains
        }
        let planned_ids: Vec<BlockId> = planned.iter().map(|&(i, _)| missing[i as usize]).collect();
        let round_reads = scheme.repair_traffic(&planned_ids);
        blocks_read += round_reads;
        let stats = RoundStats {
            repaired: planned.len(),
            data_repaired: planned_ids.iter().filter(|id| id.is_data()).count(),
            blocks_read: round_reads,
        };
        // Commit together in plan order, making the repairs visible next
        // round and re-arming their waiters.
        for ((i, block), id) in planned.into_iter().zip(planned_ids) {
            repo.store(id, block);
            repaired[i as usize] = true;
            waiting.wake_each(scheme, id, data_blocks, |w| eligible[w as usize] = true);
        }
        rounds.push(stats);
    }
    RepairSummary {
        rounds,
        unrecovered: missing
            .into_iter()
            .zip(&repaired)
            .filter(|(_, &done)| !done)
            .map(|(id, _)| id)
            .collect(),
        blocks_read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::BlockMap;
    use ae_blocks::NodeId;

    /// A toy mirror scheme (1 extra copy) exercising the default
    /// `repair_missing` round loop.
    struct Mirror {
        written: parking_lot::Mutex<u64>,
    }

    impl Mirror {
        fn new() -> Self {
            Mirror {
                written: parking_lot::Mutex::new(0),
            }
        }
    }

    fn data(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn copy(i: u64) -> BlockId {
        BlockId::Replica(ae_blocks::ReplicaId {
            node: NodeId(i),
            copy: 1,
        })
    }

    impl RedundancyScheme for Mirror {
        fn scheme_name(&self) -> String {
            "2-way replic.".into()
        }

        fn data_written(&self) -> u64 {
            *self.written.lock()
        }

        fn repair_cost(&self) -> RepairCost {
            RepairCost::new(1, 100.0)
        }

        fn encode_batch(
            &self,
            blocks: &[Block],
            sink: &dyn BlockSink,
        ) -> Result<EncodeReport, AeError> {
            let mut written = self.written.lock();
            let first_node = *written + 1;
            let mut ids = Vec::new();
            for b in blocks {
                *written += 1;
                sink.store(data(*written), b.clone());
                sink.store(copy(*written), b.clone());
                ids.push(data(*written));
                ids.push(copy(*written));
            }
            Ok(EncodeReport { first_node, ids })
        }

        fn repair_block(
            &self,
            source: &dyn BlockSource,
            id: BlockId,
            _data_blocks: u64,
        ) -> Result<Block, RepairError> {
            let other = match id {
                BlockId::Data(NodeId(i)) => copy(i),
                BlockId::Replica(r) => data(r.node.0),
                _ => return Err(RepairError::ForeignBlock { id }),
            };
            source.fetch(other).ok_or(RepairError::NoCompleteTuple {
                target: id,
                missing: vec![other],
            })
        }

        fn is_repairable(
            &self,
            id: BlockId,
            _data_blocks: u64,
            avail: &dyn Fn(BlockId) -> bool,
        ) -> bool {
            match id {
                BlockId::Data(NodeId(i)) => avail(copy(i)),
                BlockId::Replica(r) => avail(data(r.node.0)),
                _ => false,
            }
        }

        fn universe_len(&self, data_blocks: u64) -> u64 {
            2 * data_blocks
        }

        fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
            let (i, r) = match *id {
                BlockId::Data(NodeId(i)) => (i, 0),
                BlockId::Replica(r) if r.copy == 1 => (r.node.0, 1),
                _ => return None,
            };
            let k = (1..=data_blocks).contains(&i).then(|| 2 * (i - 1) + r)?;
            u32::try_from(k).ok()
        }

        fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
            let i = u64::from(k) / 2 + 1;
            (i <= data_blocks).then(|| [data(i), copy(i)][k as usize % 2])
        }
    }

    #[test]
    fn default_repair_missing_round_trips() {
        let scheme = Mirror::new();
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..10u8).map(|k| Block::from_vec(vec![k; 8])).collect();
        let report = scheme.encode_batch(&blocks, &store).unwrap();
        assert_eq!(report.first_node, 1);
        assert_eq!(report.data_written(), 10);
        assert_eq!(report.redundancy_written(), 10);

        // Lose a data block and an unrelated copy.
        let original = store.remove(&data(4)).unwrap();
        store.remove(&copy(7));
        let summary = scheme.repair_missing(&store, &[data(4), copy(7)], 10);
        assert!(summary.fully_recovered());
        assert_eq!(summary.round_count(), 1);
        assert_eq!(summary.total_repaired(), 2);
        assert_eq!(summary.blocks_read, 2);
        assert_eq!(store.get(&data(4)).unwrap(), original);
        assert!(summary.into_result().is_ok());
    }

    #[test]
    fn default_repair_missing_reports_dead_blocks() {
        let scheme = Mirror::new();
        let store = BlockMap::new();
        scheme
            .encode_batch(&[Block::zero(4), Block::from_vec(vec![1; 4])], &store)
            .unwrap();
        // Both copies of block 2 gone: unrecoverable.
        store.remove(&data(2));
        store.remove(&copy(2));
        let summary = scheme.repair_missing(&store, &[data(2), copy(2)], 2);
        assert!(!summary.fully_recovered());
        assert_eq!(summary.unrecovered.len(), 2);
        assert!(matches!(
            summary.into_result(),
            Err(RepairError::Unrecoverable { targets }) if targets.len() == 2
        ));
    }

    #[test]
    fn nothing_absent_is_an_empty_summary_without_a_store() {
        /// Counts the stores that reach a `BlockMap`.
        #[derive(Default)]
        struct Stores {
            map: BlockMap,
            stores: std::sync::atomic::AtomicUsize,
        }
        impl BlockSource for Stores {
            fn fetch(&self, id: BlockId) -> Option<Block> {
                self.map.fetch(id)
            }
        }
        impl BlockSink for Stores {
            fn store(&self, id: BlockId, block: Block) {
                self.stores
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.map.store(id, block)
            }
            fn remove(&self, id: BlockId) -> bool {
                self.map.remove(&id).is_some()
            }
        }
        let scheme = Mirror::new();
        let repo = Stores::default();
        let blocks: Vec<Block> = (0..4u8).map(|k| Block::from_vec(vec![k; 8])).collect();
        scheme.encode_batch(&blocks, &repo.map).unwrap();
        let empty = RepairSummary {
            rounds: Vec::new(),
            unrecovered: Vec::new(),
            blocks_read: 0,
        };
        let present = [data(1), copy(2), data(4)];
        for targets in [&[][..], &present[..]] {
            assert_eq!(scheme.repair_missing(&repo, targets, 4), empty);
        }
        assert_eq!(repo.stores.into_inner(), 0);
    }

    #[test]
    fn parallel_planner_matches_serial_reference() {
        // Same disaster, both planners: summaries must be bit-identical.
        let build = || {
            let scheme = Mirror::new();
            let store = BlockMap::new();
            let blocks: Vec<Block> = (0..40u8).map(|k| Block::from_vec(vec![k; 8])).collect();
            scheme.encode_batch(&blocks, &store).unwrap();
            // Mixed pattern: repairable singles, two dead pairs, and an
            // already-present target.
            for i in [3u64, 9, 17, 25] {
                store.remove(&data(i));
            }
            store.remove(&copy(9));
            store.remove(&data(33));
            store.remove(&copy(33));
            // i = 9 and i = 33 lose both copies: unrecoverable.
            (scheme, store)
        };
        let targets: Vec<BlockId> = [3u64, 9, 17, 25, 33]
            .into_iter()
            .flat_map(|i| [data(i), copy(i)])
            .collect();
        let (scheme_a, store_a) = build();
        let (scheme_b, store_b) = build();
        let parallel = scheme_a.repair_missing(&store_a, &targets, 40);
        let serial = scheme_b.repair_missing_serial(&store_b, &targets, 40);
        assert_eq!(parallel, serial);
        assert_eq!(
            parallel.unrecovered,
            vec![data(9), copy(9), data(33), copy(33)]
        );
        assert_eq!(store_a, store_b);
    }

    #[test]
    fn chunked_plan_matches_inline_plan() {
        // The scoped-thread fan-out must return results in attempt order,
        // whatever the thread count — including counts that do not divide
        // the attempt set evenly.
        let scheme = Mirror::new();
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..50u8).map(|k| Block::from_vec(vec![k; 8])).collect();
        scheme.encode_batch(&blocks, &store).unwrap();
        for i in 1..=50u64 {
            store.remove(&data(i));
            if i % 5 == 0 {
                store.remove(&copy(i)); // every fifth block is dead
            }
        }
        let missing: Vec<BlockId> = (1..=50).map(data).collect();
        let attempts: Vec<u32> = (0..50).collect();
        let repo: &dyn crate::BlockRepo = &store;
        let plan = |chunk: &[u32]| -> Vec<(u32, bool)> {
            chunk
                .iter()
                .map(|&i| {
                    (
                        i,
                        scheme.repair_block(repo, missing[i as usize], 50).is_ok(),
                    )
                })
                .collect()
        };
        let inline = plan(&attempts);
        assert_eq!(inline.iter().filter(|(_, ok)| !ok).count(), 10);
        for threads in [2usize, 3, 7, 64] {
            let chunked = crate::par::par_chunks(&attempts, threads, 1, plan);
            assert_eq!(chunked, inline, "{threads} threads");
        }
    }

    #[test]
    fn default_frontier_surface_is_counter_only_and_restore_opt_in() {
        let scheme = Mirror::new();
        let store = BlockMap::new();
        scheme
            .encode_batch(&[Block::zero(4), Block::zero(4)], &store)
            .unwrap();
        // The default snapshot is the LE write counter…
        assert_eq!(scheme.frontier_snapshot(), 2u64.to_le_bytes().to_vec());
        // …and restoring is opt-in: the default refuses, naming the scheme.
        let err = scheme
            .restore_frontier(&scheme.frontier_snapshot(), &store)
            .unwrap_err();
        assert!(
            matches!(err, AeError::FrontierUnsupported { ref scheme } if scheme == "2-way replic.")
        );
    }

    #[test]
    fn scheme_is_object_safe_and_shareable() {
        use std::sync::Arc;
        let shared: Arc<dyn RedundancyScheme> = Arc::new(Mirror::new());
        let store = BlockMap::new();
        // Encoding through a shared handle: no &mut anywhere.
        shared.encode_batch(&[Block::zero(4)], &store).unwrap();
        assert_eq!(shared.scheme_name(), "2-way replic.");
        assert_eq!(shared.data_written(), 1);
        assert_eq!(shared.block_ids(1).len(), 2);
        // No extremity exposure by default.
        assert_eq!(shared.repair_cost().extremity_exposed, 0);
    }
}
