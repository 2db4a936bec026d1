//! `sim_sweep`: the reliability-frontier sweep on the availability plane
//! — no byte path at all.
//!
//! One cycle is one pass over the smoke grid scaled to 40 000 data
//! blocks: 13 schemes × 5 failure models, each cell run through
//! [`ae_sweep::run_sweep`] on its own so every cell has its own time.

use crate::workload::{Classes, Tally};
use ae_sweep::{run_sweep, FailureSpec, SweepConfig, CSV_HEADER};
use std::time::Instant;

/// Data blocks per simulated deployment.
pub const DATA_BLOCKS: u64 = 40_000;
/// Failure-domain locations.
pub const LOCATIONS: u32 = 100;
/// Per-round repair-bandwidth cap of the churn model at this scale.
pub const CHURN_CAP: u64 = 4_000;

/// The checked-in CSV of the unscaled smoke grid (13 schemes × 5 models,
/// seed 42) that CI diffs on every push.
const GOLDEN_SMOKE: &str = include_str!("../../tests/golden/frontier_smoke.csv");

/// Short labels of the five failure models, in grid order.
pub const MODELS: [&str; 5] = ["iid", "groups", "upgrade", "bitrot", "churn"];

/// The scaled grid under scenario seed `seed`.
pub fn scaled_grid(seed: u64) -> SweepConfig {
    let mut grid = SweepConfig::smoke();
    grid.data_blocks = DATA_BLOCKS;
    grid.locations = LOCATIONS;
    grid.seeds = vec![seed];
    for failure in &mut grid.failures {
        if let FailureSpec::ChurnCapped { bandwidth_cap, .. } = failure {
            *bandwidth_cap = CHURN_CAP;
        }
    }
    grid
}

/// The grid's cells as one-cell grids, in `schemes × failures` order.
pub fn cells(grid: &SweepConfig) -> Vec<SweepConfig> {
    let mut out = Vec::with_capacity(grid.cell_count());
    for scheme in &grid.schemes {
        for failure in &grid.failures {
            out.push(SweepConfig {
                schemes: vec![*scheme],
                failures: vec![*failure],
                ..grid.clone()
            });
        }
    }
    out
}

/// Whether the unscaled smoke grid still reproduces the golden CSV.
pub fn smoke_matches_golden() -> bool {
    run_sweep(&SweepConfig::smoke()).is_ok_and(|result| result.to_csv() == GOLDEN_SMOKE)
}

/// One pass: every cell timed on its own; returns the per-cell times
/// (class `cell`) and the pass's CSV, assembled as `run_sweep` on the
/// whole grid would print it.
pub fn run_cycle(cells: &[SweepConfig], tally: &mut Tally) -> (Classes, String) {
    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut times = Vec::with_capacity(cells.len());
    for cell in cells {
        let start = Instant::now();
        let result = run_sweep(cell);
        times.push(start.elapsed().as_nanos() as f64);
        match result {
            Ok(result) => {
                let rows = result.to_csv();
                // Conservation law of every cell: failed = repaired + lost.
                let conserved = result
                    .cells
                    .iter()
                    .all(|c| c.failed_data + c.failed_redundancy == c.repaired + c.irrecoverable);
                tally.check(conserved, || format!("cell breaks conservation: {rows}"));
                csv.push_str(rows.split_once('\n').map_or("", |(_, body)| body));
            }
            Err(err) => tally.check(false, || format!("cell refused: {err}")),
        }
    }
    let mut classes = Classes::default();
    classes.push("cell", times);
    (classes, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_smoke_grid_reproduces_the_golden_csv() {
        assert!(smoke_matches_golden());
    }

    #[test]
    fn per_cell_passes_print_the_whole_grid_csv() {
        // Scaled down so the test is quick; the assembly is what matters.
        let mut grid = scaled_grid(7);
        grid.data_blocks = 4_000;
        grid.locations = 60;
        let cells = cells(&grid);
        assert_eq!(cells.len(), 65);
        let mut tally = Tally::default();
        let (classes, csv) = run_cycle(&cells, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        assert_eq!(classes.0[0].1.len(), 65);
        assert_eq!(csv, run_sweep(&grid).unwrap().to_csv());
        let (_, again) = run_cycle(&cells, &mut tally);
        assert_eq!(csv, again);
    }
}
