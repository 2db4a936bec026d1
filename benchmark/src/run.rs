//! One run of one workload: set-up, the time-boxed measured cycles, the
//! checks, and the metrics — end to end (`--trace 0`) or per layer
//! (`--trace 1`).

use crate::archive_wl::{self, ArchiveSpec, Bed, SchemeKind, WanStore};
use crate::host;
use crate::layers::{self, ArchiveFacts};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probe::Probes;
use crate::service_wl::{self, Drive, Req};
use crate::stats;
use crate::sweep_wl;
use crate::trace::{self, Fold, Span, TracedStore, Tracer};
use crate::workload::{Classes, Measured, Tally};
use ae_store::archive::Archive;
use ae_store::MemStore;
use std::time::{Duration, Instant};

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// AE(3,2,5), 256 files × 256 KiB over `MemStore`.
    AeBulk,
    /// RS(10,4), same cycle.
    RsBulk,
    /// AE(3,2,5), 4096 files × 4 KiB.
    AeSmall,
    /// AE(3,2,5), 8 files × 64 KiB behind a 1 ms link.
    AeWan,
    /// Six tenants behind one service shard, open loop.
    SvcMixed,
    /// The frontier sweep on the availability plane.
    SimSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::AeBulk,
        Workload::RsBulk,
        Workload::AeSmall,
        Workload::AeWan,
        Workload::SvcMixed,
        Workload::SimSweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AeBulk => "ae_bulk",
            Workload::RsBulk => "rs_bulk",
            Workload::AeSmall => "ae_small",
            Workload::AeWan => "ae_wan",
            Workload::SvcMixed => "svc_mixed",
            Workload::SimSweep => "sim_sweep",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The archive cycle behind the four archive workloads.
    pub fn archive_spec(self) -> Option<ArchiveSpec> {
        let spec = |scheme, files, file_len, damage, rtt| ArchiveSpec {
            scheme,
            files,
            file_len,
            damage,
            rtt,
        };
        match self {
            Workload::AeBulk => Some(spec(SchemeKind::Ae325, 256, 256 * 1024, true, None)),
            Workload::RsBulk => Some(spec(SchemeKind::Rs104, 256, 256 * 1024, true, None)),
            Workload::AeSmall => Some(spec(SchemeKind::Ae325, 4096, 4096, false, None)),
            Workload::AeWan => Some(spec(
                SchemeKind::Ae325,
                8,
                64 * 1024,
                true,
                Some(Duration::from_millis(1)),
            )),
            Workload::SvcMixed | Workload::SimSweep => None,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Drives payloads, victim offsets, the service schedule and the
    /// sweep's scenario seed.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of end to end.
    pub trace: bool,
    /// Three measured cycles and one set-up, whatever `seconds` says.
    /// Smoke use only: the numbers are not comparable with full runs.
    pub quick: bool,
}

/// Fewest measured cycles of a full run, however short `--seconds` is.
const MIN_CYCLES: usize = 4;
/// Measured cycles of a `--quick` run.
const QUICK_CYCLES: usize = 3;
/// Fewest set-ups timed per end-to-end run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Most set-ups: a cheap set-up is repeated until [`SETUP_BUDGET_S`] is
/// spent, because the median of three 70 ms samples is not steady.
const MAX_SETUPS: usize = 9;
/// Time after which no further set-up is started.
const SETUP_BUDGET_S: f64 = 1.5;
/// Spans of the first traced cycle kept for the trace file.
const TRACE_FILE_SPANS: usize = 50_000;

/// What one run produced.
pub struct Outcome {
    /// Ops attempted and failed across every cycle of the run.
    pub tally: Tally,
    /// The run's metrics: end to end or per layer.
    pub metrics: Metrics,
    /// Lines for the log: sample counts, probes, the trace file.
    pub notes: Vec<String>,
    /// Cycle counts, as a JSON object for the host stanza.
    pub cycles: String,
}

struct Clock {
    start: Instant,
    seconds: f64,
    quick: bool,
}

impl Clock {
    fn new(args: &RunArgs) -> Self {
        Clock {
            start: Instant::now(),
            seconds: args.seconds,
            quick: args.quick,
        }
    }

    /// Whether to run another cycle after `done` measured ones.
    fn more(&self, done: usize) -> bool {
        if self.quick {
            return done < QUICK_CYCLES;
        }
        done < MIN_CYCLES || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Builds the inputs and runs the warm-up cycle, three to nine times
/// (once for quick and traced runs), sampling the probes in between;
/// returns the last inputs, the median set-up time in seconds and how
/// many set-ups ran.
fn set_up<I>(
    once: bool,
    probes: &mut Probes,
    mut make: impl FnMut() -> I,
    mut warm: impl FnMut(&I),
) -> (I, f64, usize) {
    let begin = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        probes.sample();
        let start = Instant::now();
        let inputs = make();
        warm(&inputs);
        secs.push(start.elapsed().as_secs_f64());
        last = Some(inputs);
        let spent = begin.elapsed().as_secs_f64();
        if once || secs.len() >= MAX_SETUPS || (secs.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S)
        {
            break;
        }
    }
    let count = secs.len();
    (
        last.expect("at least one set-up"),
        stats::median(&mut secs),
        count,
    )
}

/// The five end-to-end metrics. `scaled` divides the times by the run's
/// speed factor (see [`crate::probe`]); the log keeps the wall times.
fn end_to_end(
    measured: &Measured,
    setup_s: f64,
    probes: &Probes,
    scaled: bool,
    notes: &mut Vec<String>,
) -> Metrics {
    let timing = measured.timing();
    let factor = if scaled { probes.speed_factor() } else { 1.0 };
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", setup_s / factor);
    m.set("cycle_ms", timing.cycle_ms / factor);
    m.set("op_geomean_us", timing.op_geomean_us / factor);
    m.set("op_tail_us", timing.op_tail_us / factor);
    m.set("peak_rss_mib", host::peak_rss_mib());
    notes.push(format!(
        "{} op indices, {} pooled samples",
        measured.ops_per_cycle(),
        timing.samples
    ));
    let (stream, alu, chase) = probes.fast_ms();
    notes.push(format!(
        "speed factor {factor} (probes: stream {stream} ms, alu {alu} ms, chase {chase} ms); \
         wall times: setup_s {setup_s} cycle_ms {} op_geomean_us {} op_tail_us {}",
        timing.cycle_ms, timing.op_geomean_us, timing.op_tail_us
    ));
    m
}

fn cycles_json(pairs: &[(&str, usize)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Runs one workload as `args` asks.
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload.archive_spec() {
        Some(spec) if spec.rtt.is_some() => archive::<WanStore>(&spec, args),
        Some(spec) => archive::<MemStore>(&spec, args),
        None if args.workload == Workload::SvcMixed => service(args),
        None => sweep(args),
    }
}

// --- archive workloads -------------------------------------------------------

fn archive<B: Bed>(spec: &ArchiveSpec, args: &RunArgs) -> Outcome {
    if args.trace {
        return archive_layers::<B>(spec, args);
    }
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut probes = Probes::new();
    let (inputs, setup_s, setups) = set_up(
        args.quick,
        &mut probes,
        || archive_wl::Inputs::generate(spec, args.seed),
        |inputs| {
            drop(archive_wl::run_cycle::<B>(
                spec, inputs, None, 0, &mut tally,
            ))
        },
    );
    let mut measured = Measured::default();
    let clock = Clock::new(args);
    while clock.more(measured.cycles()) {
        probes.sample();
        let cycle = measured.cycles() as u32 + 1;
        let out = archive_wl::run_cycle::<B>(spec, &inputs, None, cycle, &mut tally);
        measured.push_cycle(out.classes);
    }
    // A workload behind a link sleeps on round trips: the machine's
    // speed is not what its wall time measures.
    let scaled = spec.rtt.is_none();
    Outcome {
        metrics: end_to_end(&measured, setup_s, &probes, scaled, &mut notes),
        cycles: cycles_json(&[("setups", setups), ("measured", measured.cycles())]),
        tally,
        notes,
    }
}

fn archive_layers<B: Bed>(spec: &ArchiveSpec, args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let inputs = archive_wl::Inputs::generate(spec, args.seed);
    drop(archive_wl::run_cycle::<B>(
        spec, &inputs, None, 0, &mut tally,
    ));
    let tracer = Tracer::new();
    let mut plain = Measured::default();
    let mut traced = Measured::default();
    let mut fold = Fold::default();
    let mut facts = ArchiveFacts {
        rtt_ns: spec.rtt.map_or(0.0, |rtt| rtt.as_nanos() as f64),
        ..ArchiveFacts::default()
    };
    let mut first_spans: Vec<Span> = Vec::new();
    let (mut fallbacks, mut fallback_ns) = (0u64, 0.0f64);
    // Traced and untraced cycles alternate, so both see the same host.
    let clock = Clock::new(args);
    while clock.more(plain.cycles() + traced.cycles()) || traced.cycles() == 0 {
        let cycle = (plain.cycles() + traced.cycles()) as u32 + 1;
        let out = archive_wl::run_cycle::<B>(spec, &inputs, None, cycle, &mut tally);
        plain.push_cycle(out.classes);
        drop(out.store);
        let out = archive_wl::run_cycle::<TracedStore<B>>(
            spec,
            &inputs,
            Some(&tracer),
            cycle + 1,
            &mut tally,
        );
        traced.push_cycle(out.classes);
        let spans = tracer.take();
        fold.merge(&trace::fold(&spans));
        let (count, total_ns) = layers::fallback_gets(&spans);
        fallbacks += count;
        fallback_ns += total_ns;
        facts.victims = out.victims;
        facts.scheme_blocks = out.scheme_blocks;
        facts.meta_bytes = out.meta_bytes;
        facts.replayed_records = out.replayed_records;
        if let Some((hits, misses)) = out.rs_cache {
            facts.rs_cache.0 += hits;
            facts.rs_cache.1 += misses;
        }
        if first_spans.is_empty() {
            first_spans = spans;
        }
    }

    let mut m = Metrics::new(PER_LAYER);
    let kernels = layers::kernel_costs();
    layers::report_kernels(&mut m, kernels);
    layers::report_archive_ops(&mut m, spec, &plain, &facts);
    layers::report_archive_layers(&mut m, spec, &fold, traced.cycles() as u64, &facts);
    let data_blocks = (spec.files * spec.file_len.div_ceil(archive_wl::BLOCK)) as f64;
    let put_ns = plain.class_sum("put") + plain.class_sum("seal");
    m.set(
        "kernels.floor_share_put",
        data_blocks * layers::put_floor_ns(spec.scheme, kernels) / put_ns,
    );
    m.set(
        "archive.fallback_get_ms",
        fallback_ns / fallbacks as f64 / 1e6,
    );
    m.set(
        "trace.overhead_share_put",
        traced.class_sum("put") / plain.class_sum("put") - 1.0,
    );
    if spec.rtt.is_some() {
        m.set(
            "aio.zero_rtt_get_overhead_us",
            zero_rtt_get_overhead_us(spec, &inputs),
        );
    }
    m.set("op.ok_share", tally.ok_share());
    notes.push(format!(
        "{} degraded gets fell back to round-based repair over {} traced cycles",
        fallbacks,
        traced.cycles()
    ));
    notes.push(write_trace_file(args.workload.name(), &first_spans));
    Outcome {
        metrics: m,
        cycles: cycles_json(&[("untraced", plain.cycles()), ("traced", traced.cycles())]),
        tally,
        notes,
    }
}

/// Writes the first traced cycle's spans (capped) where the issue asks:
/// `benchmark/out/trace_<workload>.json`.
fn write_trace_file(workload: &str, spans: &[Span]) -> String {
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{workload}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::spans_json(kept)));
    match written {
        Ok(()) => format!(
            "trace: first {} of {} spans of the first traced cycle in {}",
            kept.len(),
            spans.len(),
            path.display()
        ),
        Err(err) => format!("trace: could not write {}: {err}", path.display()),
    }
}

/// What a get pays for going through the executor when the link adds
/// nothing: the same files read through a 0-RTT `LatencyStore` and
/// through a plain `MemStore`, per-file fast deciles, mean difference.
fn zero_rtt_get_overhead_us(spec: &ArchiveSpec, inputs: &archive_wl::Inputs) -> f64 {
    fn build<B: Bed>(
        spec: &ArchiveSpec,
        inputs: &archive_wl::Inputs,
        rtt: Option<Duration>,
    ) -> Archive<B> {
        let mut ar = Archive::with_scheme(
            spec.scheme.build().0,
            archive_wl::BLOCK,
            B::fresh(rtt, None),
        );
        for (name, payload) in inputs.names.iter().zip(&inputs.payloads) {
            ar.put(name, payload)
                .expect("fresh names on a fresh archive");
        }
        ar
    }
    fn get_ns<B: Bed>(ar: &Archive<B>, inputs: &archive_wl::Inputs) -> f64 {
        let mut times = stats::OpTimes::default();
        for _ in 0..30 {
            times.push_cycle(
                inputs
                    .names
                    .iter()
                    .map(|name| {
                        let start = Instant::now();
                        std::hint::black_box(ar.get(name).expect("undamaged read"));
                        start.elapsed().as_nanos() as f64
                    })
                    .collect(),
            );
        }
        times.fast_sum() / inputs.names.len() as f64
    }
    let wan = build::<WanStore>(spec, inputs, Some(Duration::ZERO));
    let mem = build::<MemStore>(spec, inputs, None);
    (get_ns(&wan, inputs) - get_ns(&mem, inputs)) / 1e3
}

// --- svc_mixed ---------------------------------------------------------------

fn service(args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut probes = Probes::new();
    let (inputs, setup_s, setups) = set_up(
        args.quick || args.trace,
        &mut probes,
        || service_wl::Inputs::generate(args.seed),
        |inputs| drop(service_wl::run_cycle(inputs, Drive::OpenLoop, &mut tally)),
    );
    let mut open = Measured::default();
    let mut late = stats::OpTimes::default();
    let mut inline_wall: Vec<f64> = Vec::new();
    let mut closed_wall: Vec<f64> = Vec::new();
    let (mut highwater, mut saturated) = (0usize, 0u64);
    let clock = Clock::new(args);
    while clock.more(open.cycles()) {
        probes.sample();
        let out = service_wl::run_cycle(&inputs, Drive::OpenLoop, &mut tally);
        open.push_cycle(out.classes);
        late.push_cycle(out.late_ns);
        highwater = highwater.max(
            out.report
                .queue_highwater
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
        );
        saturated += out.report.saturated;
        // The per-layer run prices the queue hop too: the same schedule
        // unpaced, on the submitting thread and through the shard.
        if args.trace {
            inline_wall.push(service_wl::run_cycle(&inputs, Drive::Inline, &mut tally).wall_ns);
            closed_wall.push(service_wl::run_cycle(&inputs, Drive::ClosedLoop, &mut tally).wall_ns);
        }
    }
    let cycles = cycles_json(&[
        ("setups", setups),
        ("open_loop", open.cycles()),
        ("inline", inline_wall.len()),
        ("closed_loop", closed_wall.len()),
    ]);
    if !args.trace {
        return Outcome {
            metrics: end_to_end(&open, setup_s, &probes, true, &mut notes),
            cycles,
            tally,
            notes,
        };
    }

    let mut m = Metrics::new(PER_LAYER);
    layers::report_kernels(&mut m, layers::kernel_costs());
    let t = open
        .class("request")
        .expect("svc_mixed times requests")
        .fast();
    let of_kind = |want: fn(&Req) -> bool| -> Vec<f64> {
        let mut picked: Vec<f64> = inputs
            .schedule
            .iter()
            .zip(&t)
            .filter(|(req, _)| want(req))
            .map(|(_, &ns)| ns)
            .collect();
        picked.sort_by(f64::total_cmp);
        picked
    };
    let gets = of_kind(|r| matches!(r, Req::Get { .. }));
    let puts = of_kind(|r| matches!(r, Req::Put { .. }));
    m.set("op.get_p50_us", stats::percentile(&gets, 0.50) / 1e3);
    m.set("op.get_p95_us", stats::percentile(&gets, 0.95) / 1e3);
    m.set("op.put_p50_us", stats::percentile(&puts, 0.50) / 1e3);
    m.set("service.get_p99_us", stats::percentile(&gets, 0.99) / 1e3);
    m.set("service.put_p99_us", stats::percentile(&puts, 0.99) / 1e3);
    let limit = service_wl::GOODPUT_LIMIT.as_nanos() as f64;
    let good = gets.iter().chain(&puts).filter(|&&ns| ns <= limit).count();
    m.set(
        "op.goodput_share",
        good as f64 / (gets.len() + puts.len()) as f64,
    );
    m.set("op.ok_share", tally.ok_share());
    let n = inputs.schedule.len() as f64;
    let inline_ns = stats::fast(&mut inline_wall);
    let closed_ns = stats::fast(&mut closed_wall);
    m.set("service.inline_ops_s", n / (inline_ns / 1e9));
    m.set("service.closed_loop_ops_s", n / (closed_ns / 1e9));
    m.set("service.queue_hop_us", (closed_ns - inline_ns) / n / 1e3);
    m.set("service.queue_highwater", highwater as f64);
    m.set("service.saturated", saturated as f64);
    let mut late = late.fast();
    m.set(
        "service.generator_late_p99_us",
        stats::quantile(&mut late, 0.99) / 1e3,
    );
    Outcome {
        metrics: m,
        cycles,
        tally,
        notes,
    }
}

// --- sim_sweep ---------------------------------------------------------------

fn sweep(args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut probes = Probes::new();
    // The warm-up pass is also the reference every later pass's CSV must
    // equal byte for byte.
    let mut reference = String::new();
    let (cells, setup_s, setups) = set_up(
        args.quick || args.trace,
        &mut probes,
        || {
            tally.check(sweep_wl::smoke_matches_golden(), || {
                "unscaled smoke grid no longer reproduces tests/golden/frontier_smoke.csv".into()
            });
            sweep_wl::cells(&sweep_wl::scaled_grid(args.seed))
        },
        |cells| reference = sweep_wl::run_cycle(cells, &mut Tally::default()).1,
    );
    let mut measured = Measured::default();
    let clock = Clock::new(args);
    while clock.more(measured.cycles()) {
        probes.sample();
        let (classes, csv): (Classes, String) = sweep_wl::run_cycle(&cells, &mut tally);
        tally.check(csv == reference, || {
            format!("pass {} printed a different CSV", measured.cycles() + 1)
        });
        measured.push_cycle(classes);
    }
    let cycles = cycles_json(&[("setups", setups), ("measured", measured.cycles())]);
    if !args.trace {
        return Outcome {
            metrics: end_to_end(&measured, setup_s, &probes, true, &mut notes),
            cycles,
            tally,
            notes,
        };
    }

    let mut m = Metrics::new(PER_LAYER);
    layers::report_kernels(&mut m, layers::kernel_costs());
    layers::report_sim(
        &mut m,
        sweep_wl::DATA_BLOCKS,
        sweep_wl::LOCATIONS,
        args.seed,
    );
    let t = measured
        .class("cell")
        .expect("sim_sweep times cells")
        .fast();
    m.set(
        "op.sweep_cells_s",
        t.len() as f64 / (t.iter().sum::<f64>() / 1e9),
    );
    m.set("op.ok_share", tally.ok_share());
    // Cells run scheme-major, so model `k` owns every fifth cell.
    let models = sweep_wl::MODELS.len();
    for (k, model) in sweep_wl::MODELS.iter().enumerate() {
        let cells: Vec<f64> = t.iter().skip(k).step_by(models).copied().collect();
        m.set(
            &format!("sweep.cell_ms.{model}"),
            cells.iter().sum::<f64>() / cells.len() as f64 / 1e6,
        );
    }
    Outcome {
        metrics: m,
        cycles,
        tally,
        notes,
    }
}
