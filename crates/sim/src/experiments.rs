//! Sweep drivers: one function per figure/table of the paper's evaluation.
//!
//! Each driver returns a [`Sweep`] that the corresponding binary prints as
//! a table and CSV. All drivers take an [`Env`] describing the simulation
//! environment; [`Env::paper`] is the paper's (1M data blocks, 100
//! locations), and smaller environments are used by tests and quick runs.
//!
//! Every availability figure goes through one driver: a [`Scheme`] becomes
//! one [`SchemePlane`], which is healed and hit again for each disaster
//! size (`per_disaster`); what differs between figures is only which
//! schemes are swept and which number is read off the repaired plane.

use crate::report::{Series, Sweep};
use crate::scheme_plane::{FullRepairOutcome, SchemePlane, SimPlacement};
use crate::schemes::Scheme;
use ae_blocks::{BlockId, NodeId, ReplicaId};
use ae_core::puncture::PuncturePlan;
use ae_core::WriteScheduler;
use ae_lattice::{Config, MeSearch};

/// Simulation environment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Env {
    /// Data blocks (the paper uses one million).
    pub data_blocks: u64,
    /// Storage locations (the paper uses 100).
    pub locations: u32,
    /// Placement seed.
    pub placement_seed: u64,
    /// Disaster seed.
    pub disaster_seed: u64,
    /// Disaster sizes as fractions of failed locations.
    pub disaster_sizes: [f64; 5],
}

impl Env {
    /// The paper's environment: 1M data blocks, 100 locations, disasters of
    /// 10–50%.
    pub fn paper() -> Self {
        Env {
            data_blocks: 1_000_000,
            locations: 100,
            placement_seed: 20180625, // DSN 2018's opening day
            disaster_seed: 42,
            disaster_sizes: [0.1, 0.2, 0.3, 0.4, 0.5],
        }
    }

    /// A scaled-down environment for tests and smoke runs.
    pub fn small() -> Self {
        Env {
            data_blocks: 40_000,
            ..Self::paper()
        }
    }

    /// The paper's placement: every block on a uniform random location.
    fn random_placement(&self) -> SimPlacement {
        SimPlacement::Random {
            seed: self.placement_seed,
        }
    }

    /// Overrides the block count, keeping it stripe-aligned for every
    /// RS(k, m) in the paper lineup (multiples of 40 cover k ∈ {4, 5, 8, 10}).
    pub fn with_blocks(mut self, blocks: u64) -> Self {
        self.data_blocks = blocks - blocks % 40;
        self
    }
}

/// The plane of `scheme` in `env` under `placement`, every block stored:
/// built without visiting a position.
fn plane_at(scheme: Scheme, env: &Env, placement: SimPlacement) -> SchemePlane {
    SchemePlane::new(scheme.build(0), env.data_blocks, env.locations, placement)
}

/// The plane of `scheme` in `env` under `placement`, with the parities
/// `puncture` drops never stored: the one build that asks about each
/// position.
pub(crate) fn plane_with(
    scheme: Scheme,
    env: &Env,
    placement: SimPlacement,
    puncture: PuncturePlan,
) -> SchemePlane {
    SchemePlane::with_missing(
        scheme.build(0),
        env.data_blocks,
        env.locations,
        placement,
        |id| matches!(id, BlockId::Parity(e) if !puncture.is_stored(e)),
    )
}

/// The plane of `scheme` in `env` as the paper sets it up: random
/// placement, every block stored.
pub(crate) fn plane(scheme: Scheme, env: &Env) -> SchemePlane {
    plane_at(scheme, env, env.random_placement())
}

/// Heals `plane`, injects each of the env's disasters in turn and reads
/// `measure` off it: one point per disaster size.
fn per_disaster(
    env: &Env,
    plane: &mut SchemePlane,
    measure: impl Fn(&mut SchemePlane) -> Option<f64>,
) -> Vec<(f64, Option<f64>)> {
    let point = |&size: &f64| {
        plane.heal_all();
        plane.inject_disaster(size, env.disaster_seed);
        (size * 100.0, measure(plane))
    };
    env.disaster_sizes.iter().map(point).collect()
}

/// One series per scheme, labelled with the scheme's paper name.
fn scheme_series(
    env: &Env,
    schemes: &[Scheme],
    measure: impl Fn(&Scheme, &mut SchemePlane) -> Option<f64>,
) -> Vec<Series> {
    let series = |scheme: &Scheme| Series {
        label: scheme.name(),
        points: per_disaster(env, &mut plane(*scheme, env), |p| measure(scheme, p)),
    };
    schemes.iter().map(series).collect()
}

/// Data blocks still missing after the round-based decoder ran to
/// fixpoint (the Fig 11 metric).
fn data_lost(plane: &mut SchemePlane) -> Option<f64> {
    Some(plane.repair_full().data_lost as f64)
}

/// The AE schemes of the paper lineup.
fn ae_lineup() -> Vec<Scheme> {
    let mut lineup = Scheme::paper_lineup();
    lineup.retain(|s| matches!(s, Scheme::Ae(_)));
    lineup
}

/// Replication as the paper counts it, *before* any repair: of the blocks
/// in a disaster-struck `copies`-way plane, how many are down to "exactly
/// one copy" (§V.C.2 — the Fig 12 metric) and how many lost some but not
/// all copies (each is re-copied from a survivor: one read). The plane's
/// own metrics are taken after repair and cannot see either.
pub(crate) fn replica_census(plane: &SchemePlane, copies: u32) -> (u64, u64) {
    let (mut one_survivor, mut recopied) = (0, 0);
    for i in 1..=plane.data_blocks() {
        let node = NodeId(i);
        let replicas = (1..copies as u16).map(|copy| BlockId::Replica(ReplicaId { node, copy }));
        let alive = std::iter::once(BlockId::Data(node))
            .chain(replicas)
            .filter(|&id| plane.is_available(id))
            .count() as u32;
        one_survivor += u64::from(alive == 1);
        recopied += u64::from(alive > 0 && alive < copies);
    }
    (one_survivor, recopied)
}

/// Fig 11: data blocks the decoder failed to repair, per scheme and
/// disaster size.
pub fn fig11_data_loss(env: &Env) -> Sweep {
    Sweep {
        title: "Fig 11: data blocks that the decoder failed to repair".into(),
        x_label: "disaster %".into(),
        y_label: "data loss AFTER repairs (# of data blocks)".into(),
        series: scheme_series(env, &Scheme::paper_lineup(), |_, p| data_lost(p)),
    }
}

/// Fig 12: data blocks left without redundancy under minimal maintenance.
pub fn fig12_vulnerable(env: &Env) -> Sweep {
    let vulnerable = |scheme: &Scheme, p: &mut SchemePlane| match *scheme {
        Scheme::Replication { n } => replica_census(p, n).0,
        _ => p.repair_minimal().vulnerable_data,
    };
    Sweep {
        title: "Fig 12: data blocks without redundancy (minimal maintenance)".into(),
        x_label: "disaster %".into(),
        y_label: "blocks without redundancy (% of data blocks)".into(),
        series: scheme_series(env, &Scheme::paper_lineup(), |s, p| {
            Some(vulnerable(s, p) as f64 / env.data_blocks as f64 * 100.0)
        }),
    }
}

/// Fig 13: share of repairs that are single failures (one tuple, round 1),
/// for RS(4,12) and the AE schemes. The singles are counted on the
/// disaster state, the repairs by the round-based decoder run after.
pub fn fig13_single_failures(env: &Env) -> Sweep {
    let mut schemes = vec![Scheme::Rs { k: 4, m: 12 }];
    schemes.extend(ae_lineup());
    Sweep {
        title: "Fig 13: what part of repairs are single-failure repairs?".into(),
        x_label: "disaster %".into(),
        y_label: "single failures (% single/total repaired)".into(),
        series: scheme_series(env, &schemes, |_, p| {
            let singles = p.single_failures();
            fig13_share(singles, &p.repair_full()).map(|s| s * 100.0)
        }),
    }
}

/// Fig 13's share: `singles` single failures, counted on the disaster
/// state, over the data blocks the repair `out` rebuilt. `None` when
/// nothing needed repair.
pub(crate) fn fig13_share(singles: u64, out: &FullRepairOutcome) -> Option<f64> {
    let repaired = out.data_repaired();
    (repaired > 0).then(|| singles as f64 / repaired as f64)
}

/// Table VI: repair rounds to fixpoint for the AE schemes.
pub fn table6_rounds(env: &Env) -> Sweep {
    Sweep {
        title: "Table VI: number of repair rounds".into(),
        x_label: "disaster %".into(),
        y_label: "rounds to fixpoint".into(),
        series: scheme_series(env, &ae_lineup(), |_, p| {
            Some(p.repair_full().round_count() as f64)
        }),
    }
}

/// Table IV: storage and single-failure costs per scheme.
pub fn table4_costs() -> Sweep {
    let schemes = Scheme::paper_lineup();
    let as_pts: Vec<(f64, f64)> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| (i as f64, s.additional_storage_pct()))
        .collect();
    let sf_pts: Vec<(f64, f64)> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| (i as f64, s.single_failure_reads() as f64))
        .collect();
    Sweep {
        title: format!(
            "Table IV: redundancy scheme costs ({})",
            schemes
                .iter()
                .map(Scheme::name)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        x_label: "scheme #".into(),
        y_label: "AS: additional storage %; SF: blocks read per single-failure repair".into(),
        series: vec![Series::new("AS %", as_pts), Series::new("SF reads", sf_pts)],
    }
}

/// Fig 8: |ME(2)| as a function of p for α ∈ {2, 3}, s ∈ {2, 3}.
pub fn fig8_me2(p_range: std::ops::RangeInclusive<u16>) -> Sweep {
    me_sweep(2, p_range, "Fig 8: |ME(2)| increases with larger s and p")
}

/// Fig 9: |ME(4)| as a function of p for the same settings.
pub fn fig9_me4(p_range: std::ops::RangeInclusive<u16>) -> Sweep {
    me_sweep(
        4,
        p_range,
        "Fig 9: |ME(4)| remains constant for alpha=2 and increases with s for alpha=3",
    )
}

fn me_sweep(x: usize, p_range: std::ops::RangeInclusive<u16>, title: &str) -> Sweep {
    let mut series = Vec::new();
    for (alpha, s) in [(2u8, 2u16), (2, 3), (3, 2), (3, 3)] {
        let mut pts = Vec::new();
        for p in p_range.clone() {
            if p < s {
                continue; // deformed lattice
            }
            let cfg = Config::new(alpha, s, p).expect("p >= s checked");
            let pat = MeSearch::new(cfg).min_erasure(x);
            pts.push((p as f64, pat.map(|m| m.size() as f64)));
        }
        series.push(Series {
            label: format!("AE({alpha},{s},p)"),
            points: pts,
        });
    }
    Sweep {
        title: title.into(),
        x_label: "p".into(),
        y_label: format!("|ME({x})| (pattern size in blocks)"),
        series,
    }
}

/// Fig 10: full-write behaviour for p = s versus p > s.
pub fn fig10_writes() -> Sweep {
    let settings = [(3u8, 10u16, 10u16), (3, 5, 10), (3, 5, 5), (2, 5, 10)];
    let mut full = Vec::new();
    let mut horizon = Vec::new();
    let mut labels = Vec::new();
    for (idx, (a, s, p)) in settings.iter().enumerate() {
        let cfg = Config::new(*a, *s, *p).expect("valid settings");
        let r = WriteScheduler::new(cfg, 1).simulate(2 * *p as u64, 50);
        full.push((idx as f64, r.full_write_ratio() * 100.0));
        horizon.push((idx as f64, r.required_horizon as f64));
        labels.push(cfg.name());
    }
    Sweep {
        title: format!("Fig 10: write performance ({})", labels.join(", ")),
        x_label: "setting #".into(),
        y_label: "full writes % with 1-column memory; required horizon in columns".into(),
        series: vec![
            Series::new("full writes %", full),
            Series::new("required horizon", horizon),
        ],
    }
}

/// A 20k-block environment: small enough for debug-build tests.
#[cfg(test)]
fn tiny() -> Env {
    Env {
        data_blocks: 20_000,
        ..Env::paper()
    }
}

/// The y values of the series labelled `label`.
#[cfg(test)]
fn ys(sweep: &Sweep, label: &str) -> Vec<f64> {
    let series = sweep.series.iter().find(|s| s.label == label);
    let points = &series.unwrap_or_else(|| panic!("{label} missing")).points;
    points.iter().map(|p| p.1.expect("a value")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_has_all_ten_series() {
        let sweep = fig11_data_loss(&tiny());
        assert_eq!(sweep.series.len(), 10);
        let labels: Vec<&str> = sweep.series.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"RS(10,4)"));
        assert!(labels.contains(&"AE(3,2,5)"));
        assert!(labels.contains(&"4-way replic."));
        for s in &sweep.series {
            assert_eq!(s.points.len(), 5, "{}", s.label);
        }
    }

    #[test]
    fn fig11_headline_result_ae325_beats_rs412() {
        // The paper's headline: AE(3,2,5) outperforms RS(4,12) at equal
        // storage overhead in large disasters.
        let sweep = fig11_data_loss(&tiny());
        let ae = ys(&sweep, "AE(3,2,5)");
        let rs = ys(&sweep, "RS(4,12)");
        // At 40% and 50% disasters AE(3,2,5) must lose no more than RS(4,12).
        for i in [3, 4] {
            assert!(ae[i] <= rs[i], "size {i}: AE {} vs RS {}", ae[i], rs[i]);
        }
    }

    #[test]
    fn fig12_percentages_bounded() {
        let sweep = fig12_vulnerable(&tiny());
        for s in &sweep.series {
            for (x, y) in &s.points {
                let y = y.expect("fig12 always has values");
                assert!((0.0..=100.0).contains(&y), "{} at {x}: {y}", s.label);
            }
        }
    }

    #[test]
    fn fig13_ae_mostly_single_failures() {
        let sweep = fig13_single_failures(&tiny());
        let ae = ys(&sweep, "AE(3,2,5)");
        for y in &ae {
            assert!(*y > 50.0, "AE(3,2,5): {y}% single failures");
        }
        // Small disasters are almost entirely single failures (Fig 13).
        assert!(ae[0] > 80.0);
    }

    #[test]
    fn table6_rounds_grow_with_disaster() {
        let sweep = table6_rounds(&tiny());
        for s in &sweep.series {
            let first = s.points.first().unwrap().1.unwrap();
            let last = s.points.last().unwrap().1.unwrap();
            assert!(last >= first, "{}: {first} -> {last}", s.label);
            assert!(
                last >= 2.0,
                "{}: heavy disasters need multiple rounds",
                s.label
            );
        }
    }

    #[test]
    fn table4_matches_scheme_costs() {
        let sweep = table4_costs();
        assert_eq!(sweep.series[0].points[0].1, Some(40.0), "RS(10,4) AS");
        assert_eq!(sweep.series[1].points[6].1, Some(2.0), "AE(3,2,5) SF");
    }

    #[test]
    fn fig8_curves_have_paper_shape() {
        // Small p range keeps test time low; release binaries sweep 2..=8.
        let sweep = fig8_me2(2..=4);
        for s in &sweep.series {
            // Sizes never decrease with p (minimum at p = s).
            let ys: Vec<f64> = s.points.iter().filter_map(|p| p.1).collect();
            for w in ys.windows(2) {
                assert!(w[1] >= w[0], "{}: {ys:?}", s.label);
            }
        }
    }

    #[test]
    fn fig10_s_equals_p_wins() {
        let sweep = fig10_writes();
        let full = &sweep.series[0].points;
        // Setting 0 is AE(3,10,10): 100% full writes; setting 1 is
        // AE(3,5,10): strictly fewer.
        assert_eq!(full[0].1, Some(100.0));
        assert!(full[1].1.unwrap() < 100.0);
    }
}

/// Placement ablation (§V.C "Block Placements"): data loss for random vs
/// round-robin placement. Round-robin guarantees lattice neighbours sit in
/// different failure domains; the paper asks whether random placement hurts
/// recovery.
pub fn ablation_placement(env: &Env) -> Sweep {
    let policies = [
        ("random", env.random_placement()),
        ("round-robin", SimPlacement::RoundRobin),
    ];
    let mut series = Vec::new();
    for scheme in ae_lineup() {
        for (policy, placement) in policies {
            let mut plane = plane_at(scheme, env, placement);
            series.push(Series {
                label: format!("{scheme} {policy}"),
                points: per_disaster(env, &mut plane, data_lost),
            });
        }
    }
    Sweep {
        title: "Ablation: random vs round-robin placement (data loss after repairs)".into(),
        x_label: "disaster %".into(),
        y_label: "data loss (# of data blocks)".into(),
        series,
    }
}

/// Puncturing ablation (§III "Reducing Storage Overhead"): data loss when a
/// fraction of parities is never stored.
pub fn ablation_puncture(env: &Env) -> Sweep {
    let scheme = Scheme::Ae(Config::new(3, 2, 5).expect("paper setting"));
    let plans = [
        ("no puncturing (300%)", PuncturePlan::none()),
        ("drop 1/8 (262%)", PuncturePlan::every(8)),
        ("drop 1/4 (225%)", PuncturePlan::every(4)),
        ("drop 1/2 (150%)", PuncturePlan::every(2)),
    ];
    let series = plans.map(|(label, plan)| {
        let mut plane = plane_with(scheme, env, env.random_placement(), plan);
        Series {
            label: label.into(),
            points: per_disaster(env, &mut plane, data_lost),
        }
    });
    Sweep {
        title: "Ablation: puncturing AE(3,2,5) (data loss after repairs)".into(),
        x_label: "disaster %".into(),
        y_label: "data loss (# of data blocks)".into(),
        series: series.into(),
    }
}

/// Repair traffic (§V.C.3 context): blocks read to complete all repairs.
/// AE reads exactly 2 blocks per repaired block; RS reads k per decoded
/// stripe; replication reads 1 per re-copied block.
pub fn ablation_repair_traffic(env: &Env) -> Sweep {
    let blocks_read = |scheme: &Scheme, p: &mut SchemePlane| match *scheme {
        Scheme::Replication { n } => replica_census(p, n).1,
        _ => p.repair_full().blocks_read(),
    };
    Sweep {
        title: "Ablation: repair traffic (blocks read to finish all repairs)".into(),
        x_label: "disaster %".into(),
        y_label: "blocks read".into(),
        series: scheme_series(env, &Scheme::paper_lineup(), |s, p| {
            Some(blocks_read(s, p) as f64)
        }),
    }
}

/// Entangled-mirror reliability (§IV.B.1): mirroring vs open/closed chains.
pub fn ablation_chains(drives: usize, trials: u64, seed: u64) -> Sweep {
    use crate::mirror::{monte_carlo, ArrayKind};
    let qs = [0.01, 0.02, 0.03, 0.05, 0.08];
    let series = [
        ArrayKind::Mirroring,
        ArrayKind::EntangledOpen,
        ArrayKind::EntangledClosed,
    ]
    .into_iter()
    .map(|kind| Series {
        label: kind.name().to_string(),
        points: qs
            .iter()
            .map(|&q| {
                let out = monte_carlo(kind, drives, q, trials, seed);
                (q * 100.0, Some(out.loss_probability() * 100.0))
            })
            .collect(),
    })
    .collect();
    Sweep {
        title: format!(
            "Ablation: mirroring vs entangled chains ({drives}+{drives} drives, {trials} trials)"
        ),
        x_label: "drive death probability %".into(),
        y_label: "P(data loss) %".into(),
        series,
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn placement_ablation_has_paired_series() {
        let sweep = ablation_placement(&tiny());
        assert_eq!(sweep.series.len(), 6, "3 schemes x 2 policies");
        // Round-robin keeps lattice neighbours in distinct failure
        // domains, so across the sweep it loses (much) less than random.
        // Pointwise it can tie or wobble by a few boundary blocks when
        // random gets a lucky draw, so compare aggregates.
        for pair in sweep.series.chunks(2) {
            let total = |s: &Series| s.points.iter().filter_map(|p| p.1).sum::<f64>();
            let (random, rr) = (total(&pair[0]), total(&pair[1]));
            assert!(
                rr <= random,
                "{}: {rr} vs {}: {random}",
                pair[1].label,
                pair[0].label
            );
            // At a 10% disaster round-robin loses nothing at all.
            assert_eq!(pair[1].points[0].1, Some(0.0), "{}", pair[1].label);
        }
    }

    #[test]
    fn puncture_ablation_orders_by_rate() {
        let sweep = ablation_puncture(&tiny());
        assert_eq!(sweep.series.len(), 4);
        // At the heaviest disaster, more puncturing means no less loss.
        let last: Vec<f64> = sweep
            .series
            .iter()
            .map(|s| s.points.last().unwrap().1.unwrap())
            .collect();
        for w in last.windows(2) {
            assert!(w[1] >= w[0], "{last:?}");
        }
    }

    #[test]
    fn repair_traffic_rs_pays_k_per_stripe() {
        let sweep = ablation_repair_traffic(&tiny());
        let at_20_pct = |label: &str| ys(&sweep, label)[1];
        // Replication reads least, AE twice its repairs, RS the most per
        // repaired block; at 20% RS(10,4) reads far more than AE(3,2,5)
        // repairs the same environment.
        assert!(at_20_pct("2-way replic.") < at_20_pct("AE(1,-,-)"));
        assert!(at_20_pct("RS(10,4)") > 0.0);
    }

    #[test]
    fn chains_ablation_matches_paper_reductions() {
        let sweep = ablation_chains(16, 60_000, 5);
        let at = |idx: usize, q: usize| sweep.series[idx].points[q].1.unwrap();
        // Series order: mirroring, open, closed; q index 2 = 3%.
        let (m, o, c) = (at(0, 2), at(1, 2), at(2, 2));
        assert!(o < m * 0.3, "open {o} vs mirroring {m}");
        assert!(c < o, "closed {c} vs open {o}");
    }
}
