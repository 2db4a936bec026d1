//! The sweep harness's CI contract: byte-stable CSV, typed rejection of
//! invalid grids, the conservation law, and the checked-in golden file.

use aecodes::lattice::Config;
use aecodes::sweep::{run_sweep, FailureSpec, Scheme, SweepConfig, SweepError, CSV_HEADER};
use proptest::prelude::*;

/// A small deterministic grid used by the non-golden tests: two schemes,
/// three failure-model families, one seed — fast even in debug builds.
fn small() -> SweepConfig {
    SweepConfig {
        data_blocks: 800,
        locations: 40,
        placement_seed: 3,
        schemes: vec![
            Scheme::Ae(Config::new(3, 2, 5).unwrap()),
            Scheme::Rs { k: 8, m: 2 },
        ],
        failures: vec![
            FailureSpec::Iid { fraction: 0.2 },
            FailureSpec::BitRot { fraction: 0.03 },
            FailureSpec::ChurnCapped {
                epochs: 2,
                fraction: 0.1,
                bandwidth_cap: 200,
            },
        ],
        seeds: vec![11],
    }
}

/// The same `(seed, config)` produces the same CSV bytes, run to run in
/// the same process — the in-process half of the cross-leg golden
/// comparison CI performs.
#[test]
fn same_seed_and_config_means_identical_csv_bytes() {
    let cfg = small();
    let a = run_sweep(&cfg).unwrap().to_csv();
    let b = run_sweep(&cfg).unwrap().to_csv();
    assert_eq!(a, b);
    assert!(a.starts_with(CSV_HEADER));
    assert_eq!(a.lines().count(), cfg.cell_count() + 1);
}

/// Invalid grids are refused with typed errors before any simulation.
#[test]
fn invalid_grids_rejected_with_typed_errors() {
    let mut cfg = small();
    cfg.failures.clear();
    assert_eq!(
        run_sweep(&cfg),
        Err(SweepError::EmptyAxis { axis: "failures" })
    );

    let mut cfg = small();
    cfg.schemes.clear();
    assert_eq!(
        run_sweep(&cfg),
        Err(SweepError::EmptyAxis { axis: "schemes" })
    );

    let mut cfg = small();
    cfg.failures.push(FailureSpec::ChurnCapped {
        epochs: 1,
        fraction: 0.1,
        bandwidth_cap: 0,
    });
    match run_sweep(&cfg) {
        Err(SweepError::ZeroBandwidthCap { failure }) => {
            assert_eq!(failure, "churn(1,0.10,cap0)")
        }
        other => panic!("expected ZeroBandwidthCap, got {other:?}"),
    }
}

/// The pinned smoke grid reproduces the checked-in golden CSV byte for
/// byte (the same comparison the CI `sweeps` job makes against the
/// example's file output, planned in parallel and with one thread).
#[test]
fn smoke_grid_matches_the_golden_csv() {
    let golden = include_str!("golden/frontier_smoke.csv");
    let csv = run_sweep(&SweepConfig::smoke()).unwrap().to_csv();
    assert!(
        csv == golden,
        "smoke sweep diverged from tests/golden/frontier_smoke.csv — if the \
         change is intentional, regenerate with `cargo run --release \
         --example frontier_sweep -- --smoke` and copy frontier.csv over"
    );
}

/// The grid the benchmark's `sim_sweep` times — the smoke grid at 40 000
/// blocks — reproduces its golden CSV too: only the smoke grid's 4 000
/// blocks were pinned before, so a change the timed scale alone shows
/// would have gone unseen.
#[test]
fn scaled_grid_matches_the_golden_csv() {
    let golden = include_str!("golden/frontier_scaled.csv");
    let csv = run_sweep(&SweepConfig::scaled()).unwrap().to_csv();
    assert!(
        csv == golden,
        "scaled sweep diverged from tests/golden/frontier_scaled.csv — if the \
         change is intentional, regenerate with `cargo run --release \
         --example frontier_sweep -- --scaled` and copy frontier.csv over"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation law over random small grids: every cell's failed
    /// blocks are exactly repaired + still lost, with the lost split
    /// summing to the irrecoverable count.
    #[test]
    fn conservation_law_holds_over_random_grids(
        data_blocks in (1u64..=20).prop_map(|n| n * 40),
        locations in 10u32..=50,
        placement_seed: u64,
        seed: u64,
        scheme_pick in 0usize..4,
        fraction_pct in 0u32..=40,
        epochs in 1u32..=3,
        cap in 1u64..=500,
    ) {
        let scheme = [
            Scheme::Ae(Config::new(3, 2, 5).unwrap()),
            Scheme::Rs { k: 10, m: 4 },
            Scheme::Replication { n: 3 },
            Scheme::Ae(Config::new(2, 2, 5).unwrap()),
        ][scheme_pick];
        let fraction = fraction_pct as f64 / 100.0;
        let cfg = SweepConfig {
            data_blocks,
            locations,
            placement_seed,
            schemes: vec![scheme],
            failures: vec![
                FailureSpec::Iid { fraction },
                FailureSpec::CorrelatedGroups { groups: locations / 2, fraction },
                FailureSpec::RollingUpgrade { waves: 4.min(locations) },
                FailureSpec::BitRot { fraction },
                FailureSpec::ChurnCapped { epochs, fraction, bandwidth_cap: cap },
            ],
            seeds: vec![seed],
        };
        for cell in &run_sweep(&cfg).unwrap().cells {
            prop_assert_eq!(
                cell.failed_data + cell.failed_redundancy,
                cell.repaired + cell.lost_data + cell.lost_redundancy,
                "{} under {}", cell.scheme, cell.failure
            );
            prop_assert_eq!(cell.irrecoverable, cell.lost_data + cell.lost_redundancy);
            prop_assert_eq!(cell.repaired, cell.blocks_written);
            // Reading is never cheaper than one block per repair.
            prop_assert!(cell.blocks_read >= cell.repaired);
            prop_assert!(cell.read_cost_p99 >= cell.read_cost_p50);
        }
    }
}
