//! Reliability-frontier sweep: the scheme roster × failure-model grid,
//! one CSV row per cell plus a per-scheme frontier report.
//!
//! ```sh
//! cargo run --release --example frontier_sweep -- --smoke   # CI smoke grid, seconds
//! cargo run --release --example frontier_sweep -- --scaled  # the benchmark's grid
//! cargo run --release --example frontier_sweep              # full frontier grid
//! cargo run --release --example frontier_sweep -- --out target/sweep --seed 7
//! ```
//!
//! `--smoke` runs the pinned 13-scheme × 5-model × 1-seed grid CI diffs
//! against `tests/golden/frontier_smoke.csv`; `--scaled` runs that grid at
//! the scale the benchmark's `sim_sweep` times (40 000 blocks, seed 1),
//! diffed against `tests/golden/frontier_scaled.csv`; the default full
//! grid adds intensities and a second seed and also writes the
//! `BENCH_sweep.json` frontier summary. `--seed N` replaces the seed axis
//! with `[N]` (exploration only — golden comparisons need the preset
//! seeds).
//!
//! Outputs land in `--out` (default `target/sweep`): `frontier.csv`,
//! `frontier_report.txt`, and in full mode `BENCH_sweep.json`.

use aecodes::sweep::{bench_json, frontier_report, run_sweep, SweepConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut grid = "full";
    let mut out_dir = PathBuf::from("target/sweep");
    let mut seed_override = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => grid = "smoke",
            "--scaled" => grid = "scaled",
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage("--out needs a directory"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => seed_override = Some(seed),
                None => return usage("--seed needs an integer"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut config = match grid {
        "smoke" => SweepConfig::smoke(),
        "scaled" => SweepConfig::scaled(),
        _ => SweepConfig::full(),
    };
    if let Some(seed) = seed_override {
        config.seeds = vec![seed];
    }

    eprintln!("running {grid} grid: {} cells...", config.cell_count());
    let result = match run_sweep(&config) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("invalid sweep config: {err}");
            return ExitCode::FAILURE;
        }
    };

    let report = frontier_report(&result);
    print!("{report}");

    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let csv_path = out_dir.join("frontier.csv");
    let report_path = out_dir.join("frontier_report.txt");
    let mut written = vec![
        csv_path.display().to_string(),
        report_path.display().to_string(),
    ];
    let write = |path: &PathBuf, data: &str| std::fs::write(path, data);
    if let Err(err) = write(&csv_path, &result.to_csv()).and_then(|()| write(&report_path, &report))
    {
        eprintln!("cannot write outputs to {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if grid == "full" {
        let bench_path = out_dir.join("BENCH_sweep.json");
        if let Err(err) = write(&bench_path, &bench_json(&result)) {
            eprintln!("cannot write {}: {err}", bench_path.display());
            return ExitCode::FAILURE;
        }
        written.push(bench_path.display().to_string());
    }
    eprintln!("wrote {}", written.join(", "));
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!("usage: frontier_sweep [--smoke | --scaled] [--out DIR] [--seed N]");
    ExitCode::FAILURE
}
