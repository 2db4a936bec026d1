//! Grid expansion: every cell simulated, every row serialized.

use crate::config::{SweepConfig, SweepError};
use crate::failure::FailureSpec;
use ae_api::LogHistogram;
use ae_sim::{Scheme, SchemePlane, SimPlacement};
use std::fmt::Write as _;

/// One grid cell's outcome: a `(scheme, failure model, seed)` triple
/// simulated over the configured deployment. Serializes to one CSV row.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Roster label ([`Scheme::name`]), e.g. `RS(10,4)`.
    pub scheme: String,
    /// Failure-model label ([`FailureSpec::label`]), e.g. `iid(0.15)`.
    pub failure: String,
    /// Scenario seed this cell ran under.
    pub seed: u64,
    /// Data blocks in the deployment.
    pub data_blocks: u64,
    /// Failure-domain locations.
    pub locations: u32,
    /// The scheme's additional storage as a percent of the data (Table IV).
    pub storage_overhead_pct: f64,
    /// Data blocks the scenario failed.
    pub failed_data: u64,
    /// Redundancy blocks the scenario failed.
    pub failed_redundancy: u64,
    /// Blocks repaired across all rounds (data + redundancy).
    pub repaired: u64,
    /// Data blocks still missing at scenario end (the paper's Fig 11
    /// loss metric).
    pub lost_data: u64,
    /// Redundancy blocks still missing at scenario end.
    pub lost_redundancy: u64,
    /// Total irrecoverable blocks: `lost_data + lost_redundancy`.
    pub irrecoverable: u64,
    /// Blocks read by all repairs (the scheme's traffic accounting).
    pub blocks_read: u64,
    /// Blocks written by all repairs (one per repaired block).
    pub blocks_written: u64,
    /// Repair rounds across all scenario events.
    pub rounds: u64,
    /// Median per-repaired-block read cost (log-bucket floor).
    pub read_cost_p50: u64,
    /// 99th-percentile per-repaired-block read cost (log-bucket floor).
    pub read_cost_p99: u64,
}

/// All cells of one sweep, in `schemes × failures × seeds` order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The config that produced this result.
    pub config: SweepConfig,
    /// One entry per grid cell.
    pub cells: Vec<CellResult>,
}

/// The CSV header line (no trailing newline).
pub const CSV_HEADER: &str = "scheme,failure,seed,data_blocks,locations,\
storage_overhead_pct,failed_data,failed_redundancy,repaired,lost_data,\
lost_redundancy,irrecoverable,blocks_read,blocks_written,rounds,\
read_cost_p50,read_cost_p99";

impl SweepResult {
    /// Serializes every cell to CSV: [`CSV_HEADER`], then one row per
    /// cell. `scheme` and `failure` are double-quoted (their labels
    /// contain commas); all other columns are integers except the
    /// one-decimal `storage_overhead_pct`. Byte-stable: the same
    /// `(seed, config)` produces the same string on every run, thread
    /// count and platform.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(128 * (self.cells.len() + 1));
        out.push_str(CSV_HEADER);
        out.push('\n');
        for c in &self.cells {
            writeln!(
                out,
                "\"{}\",\"{}\",{},{},{},{:.1},{},{},{},{},{},{},{},{},{},{},{}",
                c.scheme,
                c.failure,
                c.seed,
                c.data_blocks,
                c.locations,
                c.storage_overhead_pct,
                c.failed_data,
                c.failed_redundancy,
                c.repaired,
                c.lost_data,
                c.lost_redundancy,
                c.irrecoverable,
                c.blocks_read,
                c.blocks_written,
                c.rounds,
                c.read_cost_p50,
                c.read_cost_p99,
            )
            .expect("write to String");
        }
        out
    }
}

/// Expands the grid: one [`SchemePlane`] simulation per
/// `(scheme, failure, seed)` cell, in deterministic axis order.
pub fn run_sweep(config: &SweepConfig) -> Result<SweepResult, SweepError> {
    config.validate()?;
    let mut cells = Vec::with_capacity(config.cell_count());
    for scheme in &config.schemes {
        for failure in &config.failures {
            for &seed in &config.seeds {
                cells.push(run_cell(config, *scheme, failure, seed));
            }
        }
    }
    Ok(SweepResult {
        config: config.clone(),
        cells,
    })
}

/// Simulates one cell: fresh plane, scenario, tallies.
fn run_cell(config: &SweepConfig, scheme: Scheme, failure: &FailureSpec, seed: u64) -> CellResult {
    let mut plane = SchemePlane::new(
        scheme.build(0),
        config.data_blocks,
        config.locations,
        SimPlacement::Random {
            seed: config.placement_seed,
        },
    );
    let tally = failure.execute(&mut plane, seed);
    let (lost_data, lost_redundancy) = plane.missing_counts();
    // Per-repaired-block read cost, weighted by how many blocks each
    // round repaired: p50 is the median repair's cost, p99 the expensive
    // tail (multi-read decodes, cascaded rounds).
    let mut read_cost = LogHistogram::new();
    let mut blocks_read = 0;
    let mut blocks_written = 0;
    for round in &tally.rounds {
        blocks_read += round.blocks_read;
        let written = round.writes();
        blocks_written += written;
        if let Some(cost) = round.blocks_read.checked_div(written) {
            read_cost.record_n(cost, written);
        }
    }
    CellResult {
        scheme: scheme.name(),
        failure: failure.label(),
        seed,
        data_blocks: config.data_blocks,
        locations: config.locations,
        storage_overhead_pct: scheme.additional_storage_pct(),
        failed_data: tally.failed_data,
        failed_redundancy: tally.failed_redundancy,
        repaired: blocks_written,
        lost_data,
        lost_redundancy,
        irrecoverable: lost_data + lost_redundancy,
        blocks_read,
        blocks_written,
        rounds: tally.rounds.len() as u64,
        read_cost_p50: read_cost.quantile(0.5).unwrap_or(0),
        read_cost_p99: read_cost.quantile(0.99).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;

    #[test]
    fn grid_order_and_shape() {
        let cfg = tiny();
        let result = run_sweep(&cfg).unwrap();
        assert_eq!(result.cells.len(), cfg.cell_count());
        // schemes × failures × seeds, schemes outermost.
        assert_eq!(result.cells[0].scheme, cfg.schemes[0].name());
        assert_eq!(result.cells[0].failure, cfg.failures[0].label());
        assert_eq!(result.cells[1].failure, cfg.failures[1].label());
        assert_eq!(
            result.cells[cfg.failures.len()].scheme,
            cfg.schemes[1].name()
        );
    }

    #[test]
    fn csv_is_quoted_and_rectangular() {
        let csv = run_sweep(&tiny()).unwrap().to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, CSV_HEADER);
        let columns = header.split(',').count();
        for line in lines {
            assert!(line.starts_with('"'), "{line}");
            // Quoted labels hide their commas from a naive split; strip
            // the two quoted fields first.
            let bare = line.rsplit('"').next().unwrap();
            assert_eq!(bare.split(',').count() - 1 + 2, columns, "{line}");
        }
    }

    #[test]
    fn identical_runs_produce_identical_bytes() {
        let cfg = tiny();
        let a = run_sweep(&cfg).unwrap();
        let b = run_sweep(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn conservation_holds_per_cell() {
        for cell in &run_sweep(&tiny()).unwrap().cells {
            assert_eq!(
                cell.failed_data + cell.failed_redundancy,
                cell.repaired + cell.lost_data + cell.lost_redundancy,
                "{} under {}",
                cell.scheme,
                cell.failure
            );
            assert_eq!(cell.irrecoverable, cell.lost_data + cell.lost_redundancy);
            assert_eq!(cell.repaired, cell.blocks_written);
            assert!(cell.read_cost_p99 >= cell.read_cost_p50);
        }
    }

    #[test]
    fn invalid_grids_refused_before_any_simulation() {
        let mut cfg = tiny();
        cfg.seeds.clear();
        assert_eq!(
            run_sweep(&cfg),
            Err(SweepError::EmptyAxis { axis: "seeds" })
        );
    }
}
