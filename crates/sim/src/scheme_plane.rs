//! The availability-plane simulation, driven by any
//! [`RedundancyScheme`].
//!
//! One engine for every scheme, as the paper evaluates them in one
//! environment (one block table — Table V — one disaster, one round-based
//! decoder): the scheme describes its structure through the trait's
//! availability hooks ([`RedundancyScheme::is_repairable`],
//! [`RedundancyScheme::is_single_failure`],
//! [`RedundancyScheme::maintenance_targets`]) and the plane does
//! everything else — placement, disaster injection, round-based repair to
//! fixpoint (§V.C.4), minimal maintenance (§V.C.2) and the Fig 11–13 /
//! Table VI metrics. Blocks are availability flags, not bytes, exactly as
//! in the paper's evaluation: every §V.C metric depends only on which
//! blocks are reachable. There are no per-scheme planes: the figure
//! drivers in [`crate::experiments`] build one plane per
//! [`crate::Scheme`].
//!
//! # Zero materialization
//!
//! At the paper's scale (1M data blocks, up to 4M stored blocks) the plane
//! state is the hot data structure, and the plane holds **no per-block id
//! state at all**: the scheme's `dense_index` ⇄ `block_at` bijection is
//! the only id ⇄ position path, availability and the punctured-block
//! mask live in flat [`BitSet`]s keyed by dense position, placement is the
//! arithmetic [`SimPlacement::place_dense`] of the position, and ids are
//! recomputed from positions only at the edges (repair planning callbacks,
//! summaries). No `Vec<BlockId>` universe, no id → position hash index, no
//! per-position location table — the availability oracle is pure
//! arithmetic. Every scheme has the bijection (the trait requires it), so
//! every scheme can be placed on a plane.
//!
//! # Parallel repair rounds
//!
//! Each repair round is planned against the immutable round-start
//! snapshot and committed in one deterministic sweep, so the planning —
//! the `is_repairable` scan over still-missing blocks — fans out across
//! [`ae_api::repair_threads`] scoped threads in contiguous chunks.
//! Chunk-order merging keeps the planned set (and every metric derived
//! from it) bit-identical to a sequential scan; `AE_REPAIR_THREADS=1`
//! is that sequential scan.
//!
//! A round that plans nothing is a fixpoint, and the blocks it leaves
//! missing are *settled*: no later round or failure event asks about them
//! again until [`SchemePlane::heal_all`], though every outcome still
//! counts them as lost. This rests on [`RedundancyScheme::is_repairable`]
//! being monotone in its oracle (see the trait method).

use crate::bitset::BitSet;
use ae_api::{RedundancyScheme, RoundStats, SplitMix64};
use ae_blocks::BlockId;

/// How blocks are mapped to locations in the availability simulation: the
/// canonical [`ae_api::Placement`] keyed by dense universe position, so
/// neighbouring universe entries (a data block and its redundancy) get
/// distinct keys. Shared with the store layer, which keys the same policy
/// by block id instead.
pub use ae_api::Placement as SimPlacement;

/// Outcome of a full round-based repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullRepairOutcome {
    /// Per-round repair counts.
    pub rounds: Vec<RoundStats>,
    /// Data blocks that could not be repaired (the paper's Fig 11 metric).
    pub data_lost: u64,
    /// Redundancy blocks that could not be repaired.
    pub parity_lost: u64,
    /// Blocks read to complete all repairs (scheme-specific accounting:
    /// 2 per AE repair, one k-shard decode per RS stripe, 1 per copy).
    pub traffic: u64,
    /// Repaired data blocks that were single failures in the scheme's
    /// Fig 13 sense, judged against the pre-repair state.
    pub single_failure_data: u64,
}

impl FullRepairOutcome {
    /// Rounds until fixpoint (Table VI).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total blocks read during the repair.
    pub fn blocks_read(&self) -> u64 {
        self.traffic
    }

    /// Total blocks written during the repair (data + redundancy
    /// repaired — every successful repair writes one block back).
    pub fn blocks_written(&self) -> u64 {
        self.rounds.iter().map(|r| r.writes()).sum()
    }

    /// Total data blocks repaired.
    pub fn data_repaired(&self) -> u64 {
        self.rounds.iter().map(|r| r.data_repaired as u64).sum()
    }

    /// Share of repaired data blocks that were single failures (Fig 13).
    /// `None` when nothing needed repair.
    pub fn single_failure_share(&self) -> Option<f64> {
        let total = self.data_repaired();
        (total > 0).then(|| self.single_failure_data as f64 / total as f64)
    }
}

/// Outcome of a minimal-maintenance repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimalRepairOutcome {
    /// Data blocks repaired.
    pub data_repaired: u64,
    /// Redundancy blocks repaired because a missing data block needed them.
    pub parity_repaired: u64,
    /// Data blocks lost (no repair possible).
    pub data_lost: u64,
    /// Data blocks left without any working redundancy (Fig 12): present,
    /// but unrepairable if they failed now.
    pub vulnerable_data: u64,
}

/// How many candidates a round scan must reach before it fans out across
/// threads — below this, scoped-thread spawn overhead beats the win.
const PARALLEL_ROUND_MIN: usize = 4096;

/// Availability-plane state for one scheme deployment: every block the
/// scheme stores, its (arithmetic) location, and whether it is currently
/// reachable.
pub struct SchemePlane {
    scheme: Box<dyn RedundancyScheme>,
    data_blocks: u64,
    locations: u32,
    placement: SimPlacement,
    /// Number of blocks in the placement universe.
    universe_len: u32,
    /// Availability of universe block `k`.
    avail: BitSet,
    /// Blocks that start out missing (punctured parities): they are never
    /// "available" until repaired, even after [`SchemePlane::heal_all`].
    initially_missing: BitSet,
    /// Missing blocks known to be unrepairable, which round planning
    /// skips: the blocks still missing when a round planned nothing. They
    /// stay unrepairable until [`SchemePlane::heal_all`] clears the set,
    /// because until then availability never grows past what it was at
    /// that fixpoint — failures remove blocks, repairs restore only
    /// repairable ones (never a settled one), and every
    /// [`RedundancyScheme::is_repairable`] is monotone in its oracle.
    settled: BitSet,
    /// `(data, redundancy)` counts of `settled`, which every
    /// [`FullRepairOutcome`] still reports as lost.
    settled_lost: (u64, u64),
}

impl SchemePlane {
    /// Builds the plane: asks the scheme for its universe size and places
    /// every block on one of `locations` failure domains.
    pub fn new(
        scheme: Box<dyn RedundancyScheme>,
        data_blocks: u64,
        locations: u32,
        placement: SimPlacement,
    ) -> Self {
        Self::with_missing(scheme, data_blocks, locations, placement, |_| false)
    }

    /// Like [`SchemePlane::new`], but `never_stored` marks blocks that are
    /// not stored at all (e.g. punctured parities). The decoder may still
    /// reconstruct them transiently as stepping stones during repairs.
    pub fn with_missing(
        scheme: Box<dyn RedundancyScheme>,
        data_blocks: u64,
        locations: u32,
        placement: SimPlacement,
        never_stored: impl Fn(BlockId) -> bool,
    ) -> Self {
        assert!(data_blocks > 0 && locations > 0);
        let universe_len = u32::try_from(scheme.universe_len(data_blocks))
            .expect("plane universe exceeds u32 positions");
        let mut plane = SchemePlane {
            scheme,
            data_blocks,
            locations,
            placement,
            universe_len,
            avail: BitSet::zeros(universe_len as usize),
            initially_missing: BitSet::zeros(universe_len as usize),
            settled: BitSet::zeros(universe_len as usize),
            settled_lost: (0, 0),
        };
        for k in 0..universe_len {
            if never_stored(plane.id_at(k)) {
                plane.initially_missing.set(k as usize, true);
            }
        }
        plane.avail.assign_not(&plane.initially_missing);
        plane
    }

    /// The scheme driving this plane.
    pub fn scheme(&self) -> &dyn RedundancyScheme {
        self.scheme.as_ref()
    }

    /// The id at dense position `k`: the scheme's `block_at` arithmetic.
    #[inline]
    fn id_at(&self, k: u32) -> BlockId {
        self.scheme
            .block_at(k, self.data_blocks)
            .expect("position within universe")
    }

    /// Dense position of `id`, or `None` outside the universe.
    #[inline]
    fn index_of(&self, id: &BlockId) -> Option<u32> {
        self.scheme.dense_index(id, self.data_blocks)
    }

    /// The location of dense position `k`: pure placement arithmetic, no
    /// per-block table.
    #[inline]
    fn loc_at(&self, k: u32) -> u32 {
        self.placement.place_dense(u64::from(k), self.locations)
    }

    /// Whether `id` is currently available (false for blocks outside the
    /// universe).
    #[inline]
    pub fn is_available(&self, id: BlockId) -> bool {
        self.available(&id)
    }

    /// [`SchemePlane::is_available`] by reference: the oracle handed to the
    /// scheme's structural hooks, which take `&` of their own parameter.
    /// Handing the 24-byte id on by value instead copies it through the
    /// stack in front of every `dense_index` call — a store-forwarding
    /// stall measured at ~20 % of the benchmark's `sim_sweep`.
    #[inline]
    fn available(&self, id: &BlockId) -> bool {
        self.index_of(id)
            .is_some_and(|k| self.avail.get(k as usize))
    }

    /// Data blocks in the deployment.
    pub fn data_blocks(&self) -> u64 {
        self.data_blocks
    }

    /// Failure-domain locations blocks are placed on.
    pub fn locations(&self) -> u32 {
        self.locations
    }

    /// Currently missing blocks as `(data, redundancy)` counts — the
    /// irrecoverable remainder after repairs have run to fixpoint. Sweep
    /// harnesses use this to close the conservation law
    /// `failed = repaired + still missing` across multi-event scenarios.
    pub fn missing_counts(&self) -> (u64, u64) {
        let mut data = 0;
        let mut parity = 0;
        for k in self.avail.iter_zeros() {
            if self.id_at(k as u32).is_data() {
                data += 1;
            } else {
                parity += 1;
            }
        }
        (data, parity)
    }

    /// Total stored blocks (the placement universe).
    pub fn total_blocks(&self) -> u64 {
        u64::from(self.universe_len)
    }

    /// The location a block was placed on, or `None` for ids outside the
    /// universe.
    pub fn location_of(&self, id: BlockId) -> Option<u32> {
        self.index_of(&id).map(|k| self.loc_at(k))
    }

    /// Resets every stored block to available (punctured blocks stay out).
    pub fn heal_all(&mut self) {
        self.avail.assign_not(&self.initially_missing);
        self.settled = BitSet::zeros(self.universe_len as usize);
        self.settled_lost = (0, 0);
    }

    /// Fails `fraction` of the locations (chosen uniformly by
    /// `disaster_seed`) and marks every block stored there unavailable.
    /// Returns `(missing data, missing redundancy)` counts.
    pub fn inject_disaster(&mut self, fraction: f64, disaster_seed: u64) -> (u64, u64) {
        let failed = failed_locations(self.locations, fraction, disaster_seed);
        self.fail_locations(&failed)
    }

    /// Fails exactly the locations marked in `failed` (one flag per
    /// location), marking every *currently available* block stored there
    /// unavailable — the generic hook behind every location-grained
    /// failure model (i.i.d. disasters, correlated rack/region knockouts,
    /// rolling-upgrade waves). Returns `(newly missing data, newly missing
    /// redundancy)` counts; blocks already missing are not re-counted.
    ///
    /// # Panics
    ///
    /// Panics when `failed.len()` differs from the plane's location count.
    pub fn fail_locations(&mut self, failed: &[bool]) -> (u64, u64) {
        assert_eq!(
            failed.len(),
            self.locations as usize,
            "one failure flag per location"
        );
        let mut missing_data = 0;
        let mut missing_redundancy = 0;
        for k in 0..self.universe_len {
            if self.avail.get(k as usize) && failed[self.loc_at(k) as usize] {
                self.avail.set(k as usize, false);
                if self.id_at(k).is_data() {
                    missing_data += 1;
                } else {
                    missing_redundancy += 1;
                }
            }
        }
        (missing_data, missing_redundancy)
    }

    /// Correlated rack/region knockout: partitions the locations into
    /// `groups` contiguous placement groups and fails `floor(fraction ·
    /// groups)` whole groups, chosen uniformly by `seed` (SplitMix64
    /// shuffle). Every block on a failed group's locations goes missing
    /// together — the correlated failure mode a per-location i.i.d. model
    /// cannot express. Returns `(newly missing data, newly missing
    /// redundancy)`.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is zero, exceeds the location count, or
    /// `fraction` is outside `[0, 1]`.
    pub fn inject_group_disaster(&mut self, groups: u32, fraction: f64, seed: u64) -> (u64, u64) {
        let failed = failed_location_groups(self.locations, groups, fraction, seed);
        self.fail_locations(&failed)
    }

    /// Silent bit rot through the tamper plane: each *currently available*
    /// block independently rots with probability `fraction`, keyed by
    /// `mix64(position, seed)` — per-block corruption that no
    /// location-grained disaster can model (a rotten block's neighbours on
    /// the same drive are fine). A rotten block is unusable for repairs
    /// exactly like a lost one: scrubbing detects the bad checksum and
    /// discards it. Returns `(newly rotten data, newly rotten
    /// redundancy)`.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `[0, 1]`.
    pub fn inject_bit_rot(&mut self, fraction: f64, seed: u64) -> (u64, u64) {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        // P(rot) = fraction via a 64-bit threshold test on the per-position
        // SplitMix64 stream: deterministic, order-independent, O(1) state.
        let threshold = (fraction * u64::MAX as f64) as u64;
        let mut rotten_data = 0;
        let mut rotten_redundancy = 0;
        for k in 0..self.universe_len {
            if self.avail.get(k as usize) && ae_api::mix64(u64::from(k), seed) < threshold {
                self.avail.set(k as usize, false);
                if self.id_at(k).is_data() {
                    rotten_data += 1;
                } else {
                    rotten_redundancy += 1;
                }
            }
        }
        (rotten_data, rotten_redundancy)
    }

    /// Indices of currently missing blocks, optionally data only.
    fn missing_indices(&self, data_only: bool) -> Vec<u32> {
        self.avail
            .iter_zeros()
            .filter(|&k| !data_only || self.id_at(k as u32).is_data())
            .map(|k| k as u32)
            .collect()
    }

    /// Filters `items` by `pred`, preserving order. Fans out across
    /// [`ae_api::repair_threads`] scoped threads in contiguous chunks
    /// ([`ae_api::par::par_chunks`]); chunk-order merging makes the
    /// result identical to a serial filter.
    fn par_filter<P>(&self, items: &[u32], pred: P) -> Vec<u32>
    where
        P: Fn(u32) -> bool + Send + Sync + Copy,
    {
        ae_api::par::par_chunks(
            items,
            ae_api::repair_threads(),
            PARALLEL_ROUND_MIN,
            move |chunk| chunk.iter().copied().filter(|&k| pred(k)).collect(),
        )
    }

    /// The still-missing blocks of `candidates` that are repairable
    /// against the current snapshot.
    fn plan_repairable(&self, candidates: &[u32]) -> Vec<u32> {
        self.par_filter(candidates, |k| {
            let avail = |id: BlockId| self.available(&id);
            self.scheme
                .is_repairable(self.id_at(k), self.data_blocks, &avail)
        })
    }

    /// Round-based repair of everything until fixpoint (§V.C.4). Each
    /// round plans against the round-start snapshot — in parallel — so it
    /// models one wave of distributed repairs; commits are sequential and
    /// deterministic. Equivalent to
    /// [`SchemePlane::repair_rounds`]`(None, None)`.
    pub fn repair_full(&mut self) -> FullRepairOutcome {
        self.repair_rounds(None, None)
    }

    /// [`SchemePlane::repair_full`] with operational limits, for churn
    /// and rolling-upgrade models:
    ///
    /// * `bandwidth_cap` — at most this many repairs commit per round
    ///   (cluster repair bandwidth). The planned set is truncated in
    ///   deterministic plan order, so capped runs stay bit-identical
    ///   across thread counts. Must be positive when given.
    /// * `max_rounds` — stop after this many rounds even short of
    ///   fixpoint (the time budget between failure events).
    ///
    /// With both `None` this runs to fixpoint and is exactly
    /// [`SchemePlane::repair_full`].
    ///
    /// Blocks an earlier fixpoint left missing (settled, see the module
    /// docs) are not planned again, but `data_lost`/`parity_lost` count
    /// them: they are every block missing when the call returns.
    ///
    /// # Panics
    ///
    /// Panics when `bandwidth_cap` is `Some(0)` — a zero-bandwidth round
    /// can never make progress.
    pub fn repair_rounds(
        &mut self,
        bandwidth_cap: Option<u64>,
        max_rounds: Option<usize>,
    ) -> FullRepairOutcome {
        if let Some(cap) = bandwidth_cap {
            assert!(cap > 0, "bandwidth cap must be positive");
        }
        let mut missing: Vec<u32> = self
            .avail
            .iter_zeros()
            .filter(|&k| !self.settled.get(k))
            .map(|k| k as u32)
            .collect();
        let mut rounds = Vec::new();
        let mut traffic = 0;
        let mut repaired_singles = 0;
        let mut fixpoint = false;
        while max_rounds.is_none_or(|m| rounds.len() < m) {
            let mut fix = self.plan_repairable(&missing);
            if fix.is_empty() {
                fixpoint = true;
                break;
            }
            if let Some(cap) = bandwidth_cap {
                // Deterministic plan order, so the capped prefix is the
                // same regardless of how planning was chunked.
                fix.truncate(cap.min(fix.len() as u64) as usize);
            }
            if rounds.is_empty() {
                // Fig 13 counts the first round's repairs of data blocks
                // that were single failures in the disaster state, so
                // judge them on the snapshot the round was planned on,
                // before any repair lands.
                repaired_singles = self
                    .par_filter(&fix, |k| {
                        let id = self.id_at(k);
                        let avail = |id: BlockId| self.available(&id);
                        id.is_data() && self.scheme.is_single_failure(id, self.data_blocks, &avail)
                    })
                    .len() as u64;
            }
            let fixed_ids: Vec<BlockId> = fix.iter().map(|&k| self.id_at(k)).collect();
            let round_reads = self.scheme.repair_traffic(&fixed_ids);
            traffic += round_reads;
            let data_repaired = fixed_ids.iter().filter(|id| id.is_data()).count();
            for &k in &fix {
                self.avail.set(k as usize, true);
            }
            rounds.push(RoundStats {
                repaired: fixed_ids.len(),
                data_repaired,
                blocks_read: round_reads,
            });
            missing.retain(|&k| !self.avail.get(k as usize));
        }
        let data_left = missing.iter().filter(|&&k| self.id_at(k).is_data()).count() as u64;
        let parity_left = missing.len() as u64 - data_left;
        let outcome = FullRepairOutcome {
            data_lost: self.settled_lost.0 + data_left,
            parity_lost: self.settled_lost.1 + parity_left,
            rounds,
            traffic,
            single_failure_data: repaired_singles,
        };
        if fixpoint {
            for &k in &missing {
                self.settled.set(k as usize, true);
            }
            self.settled_lost.0 += data_left;
            self.settled_lost.1 += parity_left;
        }
        outcome
    }

    /// Minimal-maintenance repair (§V.C.2): rounds repair missing data
    /// blocks, plus the redundancy blocks the scheme says those repairs
    /// need ([`RedundancyScheme::maintenance_targets`] — tuple parities
    /// for AE, nothing for RS and replication).
    pub fn repair_minimal(&mut self) -> MinimalRepairOutcome {
        let mut data_repaired = 0;
        let mut parity_repaired = 0;
        loop {
            let missing_data = self.missing_indices(true);
            let missing_data_ids: Vec<BlockId> =
                missing_data.iter().map(|&k| self.id_at(k)).collect();
            let wanted: Vec<u32> = self
                .scheme
                .maintenance_targets(&missing_data_ids, self.data_blocks)
                .into_iter()
                .filter_map(|id| self.index_of(&id))
                .filter(|&k| !self.avail.get(k as usize))
                .collect();
            let fix_data = self.plan_repairable(&missing_data);
            let fix_extra = self.plan_repairable(&wanted);
            if fix_data.is_empty() && fix_extra.is_empty() {
                break;
            }
            for &k in &fix_data {
                self.avail.set(k as usize, true);
            }
            data_repaired += fix_data.len() as u64;
            for &k in &fix_extra {
                if !self.avail.get(k as usize) {
                    self.avail.set(k as usize, true);
                    parity_repaired += 1;
                }
            }
        }
        let data_lost = self.missing_indices(true).len() as u64;
        // Fig 12: available data blocks with no working redundancy left —
        // if they failed now, they would be unrepairable.
        let vulnerable_data = {
            let candidates: Vec<u32> = (0..self.universe_len)
                .filter(|&k| self.avail.get(k as usize) && self.id_at(k).is_data())
                .collect();
            self.par_filter(&candidates, |k| {
                let avail = |id: BlockId| self.available(&id);
                !self
                    .scheme
                    .is_repairable(self.id_at(k), self.data_blocks, &avail)
            })
            .len() as u64
        };
        MinimalRepairOutcome {
            data_repaired,
            parity_repaired,
            data_lost,
            vulnerable_data,
        }
    }
}

/// Chooses `floor(fraction · locations)` failed locations deterministically
/// from the seed; shared by all schemes so a disaster hits the same
/// location set everywhere.
pub fn failed_locations(locations: u32, fraction: f64, seed: u64) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
    let mut rng = SplitMix64::new(seed);
    let count = (locations as f64 * fraction).floor() as usize;
    let mut ids: Vec<u32> = (0..locations).collect();
    // Fisher-Yates prefix shuffle.
    for k in 0..count.min(locations as usize) {
        let pick = k + rng.below((locations as usize - k) as u64) as usize;
        ids.swap(k, pick);
    }
    let mut failed = vec![false; locations as usize];
    for &l in ids.iter().take(count) {
        failed[l as usize] = true;
    }
    failed
}

/// Chooses `floor(fraction · groups)` failed *placement groups*
/// deterministically from the seed: the locations are partitioned into
/// `groups` contiguous ranges (racks / regions), whole groups fail
/// together. Pure SplitMix64 ([`ae_api::mix64`]) partial Fisher–Yates, so
/// the same `(locations, groups, fraction, seed)` names the same mask on
/// every platform. Shared by all schemes so a correlated disaster hits the
/// same groups everywhere.
///
/// # Panics
///
/// Panics when `groups` is zero or exceeds `locations`, or when `fraction`
/// is outside `[0, 1]`.
pub fn failed_location_groups(locations: u32, groups: u32, fraction: f64, seed: u64) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
    assert!(
        groups > 0 && groups <= locations,
        "need 1..=locations placement groups"
    );
    let count = (groups as f64 * fraction).floor() as usize;
    let mut ids: Vec<u32> = (0..groups).collect();
    // Partial Fisher–Yates over the group ids, one mix64 draw per slot.
    for k in 0..count.min(groups as usize) {
        let span = groups as usize - k;
        let pick = k + (ae_api::mix64(k as u64, seed) % span as u64) as usize;
        ids.swap(k, pick);
    }
    let mut failed = vec![false; locations as usize];
    for &g in ids.iter().take(count) {
        // Contiguous group g covers locations [g·L/G, (g+1)·L/G).
        let lo = (g as u64 * locations as u64 / groups as u64) as usize;
        let hi = ((g as u64 + 1) * locations as u64 / groups as u64) as usize;
        for flag in &mut failed[lo..hi] {
            *flag = true;
        }
    }
    failed
}

/// The location mask for wave `wave` of a rolling upgrade split into
/// `waves` contiguous waves: wave `w` covers locations
/// `[w·L/waves, (w+1)·L/waves)`. The sweep harness reimages one wave at a
/// time (fail the wave's locations, repair, move on), modeling an
/// operator-driven fleet upgrade rather than a random disaster.
///
/// # Panics
///
/// Panics when `waves` is zero or exceeds `locations`, or `wave` is not
/// below `waves`.
pub fn upgrade_wave(locations: u32, waves: u32, wave: u32) -> Vec<bool> {
    assert!(
        waves > 0 && waves <= locations,
        "need 1..=locations upgrade waves"
    );
    assert!(wave < waves, "wave index out of range");
    let lo = (wave as u64 * locations as u64 / waves as u64) as usize;
    let hi = ((wave as u64 + 1) * locations as u64 / waves as u64) as usize;
    let mut failed = vec![false; locations as usize];
    for flag in &mut failed[lo..hi] {
        *flag = true;
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Scheme;
    use ae_baselines::{ReedSolomon, Replication};
    use ae_core::Code;
    use ae_lattice::Config;

    fn ae(cfg: Config) -> Code {
        Code::new(cfg, 0)
    }

    #[test]
    fn one_plane_drives_all_roster_schemes() {
        for scheme in Scheme::extended_lineup() {
            let name = scheme.name();
            let mut plane = SchemePlane::new(
                scheme.build(0),
                20_000,
                100,
                SimPlacement::Random { seed: 42 },
            );
            let (md, mp) = plane.inject_disaster(0.1, 7);
            assert!(md > 0 && mp > 0, "{name}");
            let out = plane.repair_full();
            // A 10% disaster costs every roster scheme at most a few
            // percent (the weak settings — RS(8,2), 2-way anything — bleed
            // a little; the strong ones lose nothing, asserted elsewhere).
            assert!(
                out.data_lost < 1_000,
                "{name} at 10%: lost {}",
                out.data_lost
            );
            assert!(out.data_repaired() > 0, "{name}");
            assert!(out.blocks_read() > 0);
        }
    }

    #[test]
    fn repairs_are_deterministic_per_seed() {
        let run = || {
            let code = ae(Config::new(2, 2, 5).unwrap());
            let mut p = SchemePlane::new(
                Box::new(code),
                20_000,
                100,
                SimPlacement::Random { seed: 5 },
            );
            p.inject_disaster(0.3, 9);
            let o = p.repair_full();
            (o.data_lost, o.round_count(), o.data_repaired())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn heal_all_respects_punctured_blocks() {
        let code = ae(Config::new(3, 2, 5).unwrap());
        let plan = ae_core::puncture::PuncturePlan::every(2);
        let mut plane = SchemePlane::with_missing(
            Box::new(code),
            1_000,
            10,
            SimPlacement::Random { seed: 1 },
            |id| matches!(id, BlockId::Parity(e) if !plan.is_stored(e)),
        );
        let missing_at_start = plane.missing_indices(false).len();
        assert!(missing_at_start > 0, "punctured parities start missing");
        plane.inject_disaster(0.5, 3);
        plane.heal_all();
        assert_eq!(plane.missing_indices(false).len(), missing_at_start);
    }

    #[test]
    fn failed_locations_deterministic_and_sized() {
        let a = failed_locations(100, 0.3, 77);
        let b = failed_locations(100, 0.3, 77);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&x| x).count(), 30);
        let none = failed_locations(100, 0.0, 1);
        assert!(none.iter().all(|&x| !x));
    }

    #[test]
    fn rs_stripe_rule_via_generic_plane() {
        // RS(4,12) survives heavy disasters; RS(8,2) bleeds — the stripe
        // threshold logic comes from the scheme, the rounds from the plane.
        let strong = ReedSolomon::new(4, 12).unwrap();
        let weak = ReedSolomon::new(8, 2).unwrap();
        let run = |rs: ReedSolomon| {
            let mut p =
                SchemePlane::new(Box::new(rs), 40_000, 100, SimPlacement::Random { seed: 42 });
            p.inject_disaster(0.3, 3);
            p.repair_full().data_lost
        };
        assert!(run(strong) < 20);
        assert!(run(weak) > 1_000);
    }

    #[test]
    fn replication_plane_still_works() {
        let mut p = SchemePlane::new(
            Box::new(Replication::new(3)),
            20_000,
            100,
            SimPlacement::Random { seed: 42 },
        );
        p.inject_disaster(0.1, 7);
        let out = p.repair_full();
        // P(all three copies on failed locations) ≈ 0.1³.
        assert!(out.data_lost < 100, "lost {}", out.data_lost);
    }

    #[test]
    fn chain_extremity_visible_through_the_plane() {
        // Drive-failure scenario through the generic plane: the closed
        // ring never loses more than the open chain under the same
        // disaster, and the open chain's cost model announces the
        // extremity exposure.
        let run = |mode| {
            let mut p = SchemePlane::new(
                Scheme::Chain { mode }.build(0),
                10_000,
                100,
                SimPlacement::Random { seed: 11 },
            );
            p.inject_disaster(0.3, 5);
            p.repair_full().data_lost
        };
        let open = run(ae_store::ChainMode::Open);
        let closed = run(ae_store::ChainMode::Closed);
        assert!(closed <= open, "closed {closed} vs open {open}");
        let open_scheme = Scheme::Chain {
            mode: ae_store::ChainMode::Open,
        }
        .build(0);
        assert_eq!(open_scheme.repair_cost().extremity_exposed, 2);
    }

    #[test]
    fn capped_rounds_converge_to_the_same_fixpoint() {
        let run = |cap| {
            let code = ae(Config::new(3, 2, 5).unwrap());
            let mut p = SchemePlane::new(
                Box::new(code),
                10_000,
                100,
                SimPlacement::Random { seed: 5 },
            );
            p.inject_disaster(0.3, 9);
            p.repair_rounds(cap, None)
        };
        let free = run(None);
        let capped = run(Some(500));
        // Same repairs land, just spread over more, smaller rounds.
        assert_eq!(capped.data_lost, free.data_lost);
        assert_eq!(capped.data_repaired(), free.data_repaired());
        assert_eq!(capped.blocks_written(), free.blocks_written());
        assert!(capped.round_count() > free.round_count());
        assert!(capped.rounds.iter().all(|r| r.writes() <= 500));
        // Uncapped equals the plain entry point exactly.
        assert_eq!(free, {
            let code = ae(Config::new(3, 2, 5).unwrap());
            let mut p = SchemePlane::new(
                Box::new(code),
                10_000,
                100,
                SimPlacement::Random { seed: 5 },
            );
            p.inject_disaster(0.3, 9);
            p.repair_full()
        });
    }

    #[test]
    fn max_rounds_truncates_and_missing_counts_close_the_books() {
        let code = ae(Config::new(3, 2, 5).unwrap());
        let mut p = SchemePlane::new(
            Box::new(code),
            10_000,
            100,
            SimPlacement::Random { seed: 5 },
        );
        let (fd, fp) = p.inject_disaster(0.3, 9);
        let out = p.repair_rounds(Some(200), Some(3));
        assert_eq!(out.round_count(), 3);
        // Conservation: failed = repaired + still missing, even mid-flight.
        let (md, mp) = p.missing_counts();
        let repaired: u64 = out.rounds.iter().map(|r| r.writes()).sum();
        assert_eq!(fd + fp, repaired + md + mp);
        // Per-round reads sum to the outcome's traffic total.
        let reads = out.rounds.iter().map(|r| r.blocks_read).sum::<u64>();
        assert_eq!(out.traffic, reads);
        assert!(out.rounds.iter().all(|r| r.blocks_read >= r.writes()));
    }

    #[test]
    #[should_panic(expected = "bandwidth cap")]
    fn zero_bandwidth_cap_rejected() {
        let code = ae(Config::new(2, 2, 5).unwrap());
        let mut p = SchemePlane::new(Box::new(code), 100, 10, SimPlacement::RoundRobin);
        p.repair_rounds(Some(0), None);
    }

    #[test]
    fn group_disaster_fails_whole_contiguous_groups() {
        let mask = failed_location_groups(100, 10, 0.3, 7);
        assert_eq!(mask.iter().filter(|&&x| x).count(), 30, "3 groups of 10");
        assert_eq!(mask, failed_location_groups(100, 10, 0.3, 7));
        // Each failed group is a contiguous run of 10.
        for g in 0..10 {
            let group = &mask[g * 10..(g + 1) * 10];
            assert!(
                group.iter().all(|&x| x) || group.iter().all(|&x| !x),
                "group {g} split"
            );
        }
        assert_ne!(
            failed_location_groups(100, 10, 0.3, 7),
            failed_location_groups(100, 10, 0.3, 8),
            "seed matters"
        );
        // Correlated knockout through the plane: a group hit fails every
        // block on its locations, and fail_locations only counts each
        // block once across overlapping events.
        let code = ae(Config::new(2, 2, 5).unwrap());
        let mut p = SchemePlane::new(Box::new(code), 5_000, 100, SimPlacement::Random { seed: 1 });
        let (d1, p1) = p.inject_group_disaster(10, 0.3, 7);
        assert!(d1 > 0 && p1 > 0);
        let again = p.inject_group_disaster(10, 0.3, 7);
        assert_eq!(again, (0, 0), "same groups already failed");
    }

    #[test]
    fn upgrade_waves_tile_the_locations_exactly_once() {
        let mut seen = vec![0u32; 103];
        for w in 0..7 {
            for (l, &hit) in upgrade_wave(103, 7, w).iter().enumerate() {
                seen[l] += hit as u32;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "waves partition locations");
    }

    #[test]
    fn bit_rot_is_per_block_and_deterministic() {
        let run = || {
            let code = ae(Config::new(3, 2, 5).unwrap());
            let mut p = SchemePlane::new(
                Box::new(code),
                20_000,
                100,
                SimPlacement::Random { seed: 2 },
            );
            let rotten = p.inject_bit_rot(0.05, 11);
            let out = p.repair_full();
            (rotten, out.data_lost, out.data_repaired())
        };
        let (rotten, lost, repaired) = run();
        assert_eq!(run(), (rotten, lost, repaired));
        let total = rotten.0 + rotten.1;
        // ~5% of 80k stored blocks, binomial-concentrated.
        assert!((3_500..4_500).contains(&total), "rotted {total}");
        // Scattered single-block rot is the easy case: everything repairs.
        assert_eq!(lost, 0);
        assert_eq!(repaired, rotten.0);
    }

    #[test]
    fn geo_plane_matches_untagged_lattice() {
        // A user's namespaced lattice behaves identically to the untagged
        // code on the availability plane — the tag shifts ids, not
        // structure.
        let run = |scheme: Box<dyn RedundancyScheme>| {
            let mut p = SchemePlane::new(scheme, 10_000, 100, SimPlacement::Random { seed: 3 });
            p.inject_disaster(0.35, 9);
            p.repair_full()
        };
        let cfg = Config::new(3, 2, 5).unwrap();
        let plain = run(Box::new(ae(cfg)));
        let tagged = run(Scheme::Geo { cfg, user: 5 }.build(0));
        assert_eq!(plain, tagged);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Over random event sequences on every roster scheme, a settled
        /// position is always missing and not repairable, the settled
        /// counts match the set, a repair outcome's losses are every
        /// missing block (settled ones included), and `heal_all` empties
        /// the set.
        #[test]
        fn settled_positions_stay_missing_and_unrepairable(
            pick in 0usize..13,
            events in proptest::collection::vec((0u8..5, proptest::any::<u64>(), 0u64..8), 1..16),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let locations = 12;
            let mut p = SchemePlane::new(
                Scheme::extended_lineup()[pick].build(0),
                240,
                locations,
                SimPlacement::Random { seed: 3 },
            );
            for (kind, seed, x) in events {
                match kind {
                    0 => {
                        let mask: Vec<bool> = (0..u64::from(locations))
                            .map(|l| ae_api::mix64(l, seed).is_multiple_of(4))
                            .collect();
                        p.fail_locations(&mask);
                    }
                    1 => {
                        p.inject_bit_rot(x as f64 / 16.0, seed);
                    }
                    2 => {
                        let cap = (x > 0).then_some(x * 8);
                        let max_rounds = (seed % 3 == 0).then_some(seed as usize % 4);
                        let out = p.repair_rounds(cap, max_rounds);
                        prop_assert_eq!((out.data_lost, out.parity_lost), p.missing_counts());
                    }
                    3 => {
                        p.repair_minimal();
                    }
                    _ => {
                        p.heal_all();
                        prop_assert_eq!(p.settled.count_ones(), 0);
                    }
                }
                let mut settled = (0, 0);
                for k in 0..p.universe_len {
                    if !p.settled.get(k as usize) {
                        continue;
                    }
                    let id = p.id_at(k);
                    let avail = |id: BlockId| p.available(&id);
                    prop_assert!(!p.avail.get(k as usize), "settled {id} is available");
                    prop_assert!(
                        !p.scheme.is_repairable(id, p.data_blocks, &avail),
                        "settled {id} is repairable"
                    );
                    if id.is_data() {
                        settled.0 += 1;
                    } else {
                        settled.1 += 1;
                    }
                }
                prop_assert_eq!(settled, p.settled_lost);
            }
        }
    }
}
