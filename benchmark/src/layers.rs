//! Per-layer metrics: direct calls into each layer's public functions,
//! and the arithmetic that turns a trace [`Fold`] into named numbers.

use crate::archive_wl::{ArchiveSpec, SchemeKind, BLOCK};
use crate::metrics::Metrics;
use crate::stats;
use crate::trace::{Fold, Span, NO_PARENT};
use crate::workload::Measured;
use ae_lattice::Config;
use ae_sim::{Scheme, SchemePlane, SimPlacement};
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Fast-decile time of `f` in ns per call, over `batches` batches of
/// `calls` calls.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::fast(&mut samples)
}

/// Cost of the three data-path kernels on one 4 KiB block, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelNs {
    /// `ae_kernels::xor_into`.
    pub xor: f64,
    /// `ae_kernels::crc32_update`.
    pub crc32: f64,
    /// `ae_kernels::mul_slice_acc`.
    pub gf_mul_acc: f64,
}

/// Times the kernels by calling `ae_kernels` directly.
pub fn kernel_costs() -> KernelNs {
    let src: Vec<u8> = (0..BLOCK).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0x5Au8; BLOCK];
    let xor = per_call_ns(20, 2000, || {
        ae_kernels::xor_into(black_box(&mut dst), black_box(&src));
    });
    let crc32 = per_call_ns(20, 2000, || {
        black_box(ae_kernels::crc32_update(0, black_box(&src)));
    });
    let gf_mul_acc = per_call_ns(20, 2000, || {
        ae_kernels::mul_slice_acc(black_box(0x1D), black_box(&src), black_box(&mut dst));
    });
    KernelNs {
        xor,
        crc32,
        gf_mul_acc,
    }
}

/// Kernel time one data block's worth of a put cannot go below.
///
/// AE(3,2,5): three parity XORs, the data block's CRC and the block's
/// share of the file CRC (parity CRCs follow from CRC linearity).
/// RS(10,4): four GF multiply-accumulates, the same two CRCs, and 0.4
/// parity-shard CRCs. Replication: the two CRCs only.
pub fn put_floor_ns(scheme: SchemeKind, k: KernelNs) -> f64 {
    match scheme {
        SchemeKind::Ae325 => 3.0 * k.xor + 2.0 * k.crc32,
        SchemeKind::Rs104 => 4.0 * k.gf_mul_acc + 2.4 * k.crc32,
        SchemeKind::Repl3 => 2.0 * k.crc32,
    }
}

/// Writes the three kernel costs into `m`.
pub fn report_kernels(m: &mut Metrics, k: KernelNs) {
    m.set("kernels.xor_4k_ns", k.xor);
    m.set("kernels.crc32_4k_ns", k.crc32);
    m.set("kernels.gf_mul_acc_4k_ns", k.gf_mul_acc);
}

/// Direct availability-plane probes at the sweep's scale: plane build,
/// and one 15 % disaster repaired to fixpoint for AE(3,2,5) and RS(10,4).
pub fn report_sim(m: &mut Metrics, data_blocks: u64, locations: u32, seed: u64) {
    let ae = Scheme::Ae(Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration"));
    let rs = Scheme::Rs { k: 10, m: 4 };
    let build = |scheme: Scheme| {
        SchemePlane::new(
            scheme.build(0),
            data_blocks,
            locations,
            SimPlacement::Random { seed: 42 },
        )
    };
    let mut builds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(build(ae));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    m.set("sim.plane_build_ms", stats::fast(&mut builds) / 1e6);
    for (name, scheme) in [
        ("sim.disaster_repair_ms.ae", ae),
        ("sim.disaster_repair_ms.rs", rs),
    ] {
        let mut repairs: Vec<f64> = (0..5)
            .map(|_| {
                let mut plane = build(scheme);
                let start = Instant::now();
                plane.inject_disaster(0.15, seed);
                black_box(plane.repair_full());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        m.set(name, stats::fast(&mut repairs) / 1e6);
    }
}

/// Percentile of one class's `t_i` in µs; 0 when the class is absent.
fn class_pct_us(measured: &Measured, class: &str, q: f64) -> f64 {
    measured.class(class).map_or(0.0, |times| {
        let mut t = times.fast();
        stats::quantile(&mut t, q) / 1e3
    })
}

/// What the archive workloads know beyond their timings and spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArchiveFacts {
    /// Blocks the damage step removes per cycle.
    pub victims: u64,
    /// Scheme blocks on the backend at the end of a cycle.
    pub scheme_blocks: u64,
    /// `Meta` bytes on the backend at the end of a cycle.
    pub meta_bytes: u64,
    /// Journal records `Archive::open` replayed.
    pub replayed_records: u64,
    /// RS decode-matrix cache `(hits, misses)` over the traced cycles.
    pub rs_cache: (u64, u64),
    /// Round-trip time of the backend link in ns (0 without one).
    pub rtt_ns: f64,
}

/// The per-operation numbers of an archive workload, from its untraced
/// cycles.
pub fn report_archive_ops(
    m: &mut Metrics,
    spec: &ArchiveSpec,
    plain: &Measured,
    facts: &ArchiveFacts,
) {
    let user_mib = spec.user_bytes() as f64 / MIB;
    let put_ns = plain.class_sum("put") + plain.class_sum("seal");
    m.set("op.put_mib_s", user_mib / (put_ns / 1e9));
    m.set("op.put_p50_us", class_pct_us(plain, "put", 0.50));
    m.set("op.put_p99_us", class_pct_us(plain, "put", 0.99));
    m.set("op.get_mib_s", user_mib / (plain.class_sum("get") / 1e9));
    m.set("op.get_p50_us", class_pct_us(plain, "get", 0.50));
    m.set("op.get_p95_us", class_pct_us(plain, "get", 0.95));
    m.set("op.open_ms", plain.class_sum("open") / 1e6);
    m.set(
        "op.stored_per_user_byte",
        (facts.scheme_blocks * BLOCK as u64 + facts.meta_bytes) as f64 / spec.user_bytes() as f64,
    );
    if spec.damage {
        m.set(
            "op.degraded_get_mib_s",
            user_mib / (plain.class_sum("degraded_get") / 1e9),
        );
        m.set(
            "op.degraded_get_p50_us",
            class_pct_us(plain, "degraded_get", 0.50),
        );
        m.set(
            "op.scrub_blocks_s",
            facts.scheme_blocks as f64 / (plain.class_sum("scrub") / 1e9),
        );
    }
    if facts.rtt_ns > 0.0 {
        let files = spec.files as f64;
        let rtts = |class: &str| plain.class_sum(class) / facts.rtt_ns;
        m.set("aio.rtts_per_put", rtts("put") / files);
        m.set("aio.rtts_per_get", rtts("get") / files);
        m.set("aio.rtts_per_degraded_get", rtts("degraded_get") / files);
        m.set(
            "aio.rtts_per_repaired_block",
            rtts("scrub") / facts.victims as f64,
        );
        m.set("aio.rtts_per_open", rtts("open"));
    }
}

/// How many degraded gets fell back to round-based repair (they hold a
/// `scheme.repair_missing` span), and their summed duration in ns.
pub fn fallback_gets(spans: &[Span]) -> (u64, f64) {
    let mut count = 0;
    let mut total = 0.0;
    for span in spans {
        if span.name != "scheme.repair_missing" || span.parent == NO_PARENT {
            continue;
        }
        let root = &spans[span.parent as usize];
        if root.name == "op.degraded_get" {
            count += 1;
            total += (root.end_ns - root.start_ns) as f64;
        }
    }
    (count, total)
}

/// The layer budget of an archive workload, from the spans of its
/// traced cycles (`fold` summed over `cycles` of them).
pub fn report_archive_layers(
    m: &mut Metrics,
    spec: &ArchiveSpec,
    fold: &Fold,
    cycles: u64,
    facts: &ArchiveFacts,
) {
    let put = fold.op("op.put");
    let seal = fold.op("op.seal");
    let get = fold.op("op.get");
    let degraded = fold.op("op.degraded_get");
    let scrub = fold.op("op.scrub");
    let open = fold.op("op.open");
    let puts = put.ops as f64;

    m.set(
        "scheme.encode_self_share_put",
        put.self_ns("scheme.encode_batch") / put.span_ns,
    );
    m.set(
        "scheme.frontier_snapshot_us_per_put",
        put.dur_ns("scheme.frontier_snapshot") / puts / 1e3,
    );
    m.set(
        "scheme.repair_block_calls_per_degraded_get",
        degraded.count("scheme.repair_block") as f64 / degraded.ops as f64,
    );
    m.set(
        "scheme.repair_block_fail_share",
        degraded.failed("scheme.repair_block") as f64
            / degraded.count("scheme.repair_block") as f64,
    );
    m.set(
        "scheme.repair_missing_calls_per_scrub",
        scrub.count("scheme.repair_missing") as f64 / scrub.ops as f64,
    );
    m.set(
        "scheme.restore_frontier_ms",
        open.dur_ns("scheme.restore_frontier") / open.ops as f64 / 1e6,
    );
    let (hits, misses) = facts.rs_cache;
    m.set(
        "baselines.rs_decode_cache_hit_share",
        hits as f64 / (hits + misses) as f64,
    );

    m.set(
        "backend.stores_per_put",
        put.count("backend.store") as f64 / puts,
    );
    m.set(
        "backend.fetches_per_get",
        get.count("backend.fetch") as f64 / get.ops as f64,
    );
    m.set(
        "backend.fetches_per_degraded_get",
        degraded.count("backend.fetch") as f64 / degraded.ops as f64,
    );
    // A scrub first reads every stored block once (the integrity
    // sweep); what it fetches beyond that is repair traffic.
    let sweep_reads = facts.scheme_blocks * cycles;
    m.set(
        "backend.fetches_per_repaired_block",
        scrub.count("backend.fetch").saturating_sub(sweep_reads) as f64
            / (facts.victims * cycles) as f64,
    );
    m.set(
        "backend.time_share_put",
        put.self_ns("backend.") / put.span_ns,
    );
    m.set(
        "backend.time_share_get",
        get.self_ns("backend.") / get.span_ns,
    );
    m.set(
        "backend.time_share_scrub",
        scrub.self_ns("backend.") / scrub.span_ns,
    );
    m.set(
        "backend.store_ns_per_block",
        put.dur_ns("backend.store") / put.count("backend.store") as f64,
    );
    m.set(
        "backend.fetch_ns_per_block",
        get.dur_ns("backend.fetch") / get.count("backend.fetch") as f64,
    );

    let journal_bytes: u64 = fold.ops.values().map(|op| op.bytes("journal.store")).sum();
    m.set(
        "journal.stores_per_put",
        put.count("journal.store") as f64 / puts,
    );
    m.set(
        "journal.bytes_per_put",
        put.bytes("journal.store") as f64 / puts,
    );
    m.set(
        "journal.bytes_per_user_byte",
        journal_bytes as f64 / (spec.user_bytes() * cycles) as f64,
    );
    // Sealing folds the whole journal into one checkpoint and drops the
    // prefix, so what is left on the backend is that checkpoint.
    m.set(
        "journal.checkpoint_bytes_per_cycle",
        facts.meta_bytes as f64,
    );
    m.set(
        "journal.time_share_put",
        (put.self_ns("journal.") + seal.self_ns("journal.")) / (put.span_ns + seal.span_ns),
    );
    m.set(
        "journal.fetches_per_open",
        open.count("journal.fetch") as f64 / open.ops as f64,
    );
    m.set(
        "journal.replayed_records_per_open",
        facts.replayed_records as f64,
    );

    for (name, op) in [
        ("archive.self_share_put", &put),
        ("archive.self_share_get", &get),
        ("archive.self_share_degraded_get", &degraded),
        ("archive.self_share_scrub", &scrub),
        ("archive.self_share_open", &open),
    ] {
        m.set(name, op.self_ns("op.") / op.span_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn kernel_floor_counts_the_schemes_arithmetic() {
        let k = KernelNs {
            xor: 100.0,
            crc32: 200.0,
            gf_mul_acc: 150.0,
        };
        assert_eq!(put_floor_ns(SchemeKind::Ae325, k), 700.0);
        assert_eq!(put_floor_ns(SchemeKind::Rs104, k), 1080.0);
        assert_eq!(put_floor_ns(SchemeKind::Repl3, k), 400.0);
    }

    #[test]
    fn kernels_and_plane_probes_measure_something() {
        let mut m = Metrics::new(PER_LAYER);
        let k = kernel_costs();
        assert!(k.xor > 0.0 && k.crc32 > 0.0 && k.gf_mul_acc > 0.0);
        report_kernels(&mut m, k);
        report_sim(&mut m, 2_000, 40, 1);
        assert!(m.get("kernels.crc32_4k_ns") > 0.0);
        assert!(m.get("sim.plane_build_ms") > 0.0);
        assert!(m.get("sim.disaster_repair_ms.rs") > 0.0);
    }

    #[test]
    fn fallback_gets_are_the_ones_holding_a_round_based_repair() {
        let span = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cycle: 0,
            op: 0,
            bytes: 0,
            ok: true,
        };
        let spans = vec![
            span("op.degraded_get", 0, 100, NO_PARENT),
            span("scheme.repair_block", 10, 20, 0),
            span("op.degraded_get", 200, 1200, NO_PARENT),
            span("scheme.repair_block", 210, 220, 2),
            span("scheme.repair_missing", 230, 1100, 2),
            span("op.scrub", 2000, 3000, NO_PARENT),
            span("scheme.repair_missing", 2100, 2900, 5),
        ];
        assert_eq!(fallback_gets(&spans), (1, 1000.0));
        assert_eq!(fallback_gets(&spans[..2]), (0, 0.0));
    }
}
