//! Command line of the benchmark.
//!
//! ```text
//! ae-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! ae-benchmark --all [--seed n] [--seconds s] [--traced] [--quick]         every workload
//! ae-benchmark --selfcheck [--runs n] [--seed n] [--seconds s]             calibrate the bounds
//! ```

use ae_benchmark::host::Host;
use ae_benchmark::metrics::{MetricDef, END_TO_END};
use ae_benchmark::run::{self, RunArgs, Workload};
use ae_benchmark::stats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;
/// Measuring time of a run that names none; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  ae-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--quick]
  ae-benchmark --all [--seed n] [--seconds s] [--traced] [--quick]
  ae-benchmark --selfcheck [--runs n] [--seed n] [--seconds s]
workloads: ae_bulk rs_bulk ae_small ae_wan svc_mixed sim_sweep";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    traced: bool,
    quick: bool,
    trace: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    runs: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = Some(
                    value("an integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                let n: usize = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(2..=50).contains(&n) {
                    return Err(format!("--runs {n} is outside 2..=50"));
                }
                cli.runs = Some(n);
            }
            "--all" => cli.all = true,
            "--selfcheck" => cli.selfcheck = true,
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (&cli.workload, cli.all, cli.selfcheck) {
        (Some(_), false, false) | (None, true, false) | (None, false, true) => Ok(cli),
        _ => Err("give exactly one of --workload, --all and --selfcheck".into()),
    }
}

fn main() -> ExitCode {
    // One repair-planner thread, unless the caller says otherwise: this
    // VM's second vCPU is not a second core (two busy threads take about
    // twice as long as one), and how much of it the host grants varies by
    // the minute. With the default two planner threads `sim_sweep`'s
    // run-to-run spread was 9.9 % (range 29 %); with one, 1.3 % (8 %).
    if std::env::var_os("AE_REPAIR_THREADS").is_none() {
        std::env::set_var("AE_REPAIR_THREADS", "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    if let Some(name) = &cli.workload {
        let Some(workload) = Workload::from_name(name) else {
            eprintln!("no workload named `{name}`\n{USAGE}");
            return ExitCode::from(2);
        };
        return one_run(&RunArgs {
            workload,
            seed,
            seconds,
            trace: cli.trace,
            quick: cli.quick,
        });
    }
    if cli.all {
        return all(seed, seconds, cli.traced, cli.quick);
    }
    selfcheck(cli.runs.unwrap_or(5), seed, seconds)
}

/// One workload in this process; the result is the last line of stdout.
fn one_run(args: &RunArgs) -> ExitCode {
    let name = args.workload.name();
    let outcome = run::run(args);
    let host = Host::detect();
    println!(
        "host {}",
        host.to_json(name, args.seed, args.seconds, &outcome.cycles)
    );
    if args.quick {
        println!("{name}: --quick run, NOT comparable with full runs");
    }
    for note in &outcome.notes {
        println!("{name}: {note}");
    }
    for failure in &outcome.tally.notes {
        println!("{name}: FAILED {failure}");
    }
    println!("{name}/ok_share {} share", outcome.tally.ok_share());
    for (def, value) in outcome.metrics.iter() {
        println!("{name}/{} {value} {}", def.name, def.unit);
    }
    let correct = outcome.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of its own (so its peak resident
/// set is its own) and returns its stdout, or `None` if it failed.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so none outlives this process.
    let out = cmd.output().expect("the benchmark can start itself");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    out.status.success().then_some(text)
}

/// Every workload, one child process after another.
fn all(seed: u64, seconds: f64, traced: bool, quick: bool) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            match child(workload, seed, seconds, trace, quick) {
                Some(text) => {
                    // Everything but the machine-readable result line.
                    let lines: Vec<&str> = text.lines().collect();
                    for line in &lines[..lines.len().saturating_sub(1)] {
                        println!("{line}");
                    }
                }
                None => {
                    println!(
                        "{}: run FAILED (trace {})",
                        workload.name(),
                        u8::from(trace)
                    );
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `name value unit` lines of one run's stdout, by metric name.
fn metric_lines(text: &str, workload: &str) -> BTreeMap<String, f64> {
    let prefix = format!("{workload}/");
    text.lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix(&prefix)?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

/// Two alternating sets of `runs` full runs per workload, each run with
/// another seed: prints every end-to-end metric's spread within a set
/// (interquartile range over median, as the driver computes it) and the
/// two set medians' disagreement beside the metric's bound; fails when
/// either exceeds it. `setup_s` is held to the medians only.
fn selfcheck(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    println!(
        "selfcheck: 2 sets x {runs} runs x {} workloads, seeds {seed}..{}, {seconds} s each",
        Workload::ALL.len(),
        seed + runs as u64 - 1
    );
    println!(
        "workload/metric  set A median  set B median  disagreement  spread A  spread B  bound"
    );
    for workload in Workload::ALL {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..runs {
            for set in &mut sets {
                let Some(text) = child(workload, seed + run as u64, seconds, false, false) else {
                    println!("{}: run FAILED", workload.name());
                    return ExitCode::FAILURE;
                };
                let values = metric_lines(&text, workload.name());
                for def in END_TO_END {
                    set.entry(def.name).or_default().push(values[def.name]);
                }
            }
        }
        for def in END_TO_END {
            ok &= report_pair(workload.name(), def, &sets[0][def.name], &sets[1][def.name]);
        }
    }
    if ok {
        println!("selfcheck: every metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

fn report_pair(workload: &str, def: &MetricDef, a: &[f64], b: &[f64]) -> bool {
    let (ma, mb) = (
        stats::median(&mut a.to_vec()),
        stats::median(&mut b.to_vec()),
    );
    let worse = if def.higher_is_better {
        ma / mb - 1.0
    } else {
        mb / ma - 1.0
    };
    let (sa, sb) = (stats::iqr_share(a), stats::iqr_share(b));
    let spread_ok = def.name == "setup_s" || (sa <= def.bound && sb <= def.bound);
    let ok = worse.abs() <= def.bound && spread_ok;
    println!(
        "{workload}/{}  {ma:.4}  {mb:.4}  {:+.2}%  {:.2}%  {:.2}%  {:.0}%{}",
        def.name,
        worse * 100.0,
        sa * 100.0,
        sb * 100.0,
        def.bound * 100.0,
        if ok { "" } else { "  EXCEEDED" }
    );
    ok
}
