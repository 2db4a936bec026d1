//! The metric registry: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a test holds the
//! two together).

use std::collections::BTreeMap;

/// One registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Reported name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics are not gated).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    gated(name, unit, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// The end-to-end metrics: every workload reports every one of them
/// (`--trace 0`), none is ever 0, and a later change is rejected when it
/// worsens one by more than its bound.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", 0.25),
    gated("cycle_ms", "ms", 0.15),
    gated("op_geomean_us", "us", 0.15),
    gated("op_tail_us", "us", 0.25),
    gated("peak_rss_mib", "MiB", 0.10),
];

/// The per-layer metrics (`--trace 1`). Every workload reports all of
/// them; one that does not apply to a workload (no such layer on its
/// path) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Per-operation numbers behind the universal end-to-end metrics,
    // from the untraced cycles of the trace run (wall times as measured,
    // not scaled to the reference speed).
    higher("op.put_mib_s", "MiB/s"),
    lower("op.put_p50_us", "us"),
    lower("op.put_p99_us", "us"),
    higher("op.get_mib_s", "MiB/s"),
    lower("op.get_p50_us", "us"),
    lower("op.get_p95_us", "us"),
    higher("op.degraded_get_mib_s", "MiB/s"),
    lower("op.degraded_get_p50_us", "us"),
    higher("op.scrub_blocks_s", "1/s"),
    lower("op.open_ms", "ms"),
    lower("op.stored_per_user_byte", "B/B"),
    higher("op.goodput_share", "share"),
    higher("op.sweep_cells_s", "1/s"),
    higher("op.ok_share", "share"),
    // ae_kernels, called directly.
    lower("kernels.xor_4k_ns", "ns"),
    lower("kernels.crc32_4k_ns", "ns"),
    lower("kernels.gf_mul_acc_4k_ns", "ns"),
    higher("kernels.floor_share_put", "share"),
    // The scheme, through TracedScheme.
    lower("scheme.encode_self_share_put", "share"),
    lower("scheme.frontier_snapshot_us_per_put", "us"),
    lower("scheme.repair_block_calls_per_degraded_get", "count"),
    lower("scheme.repair_block_fail_share", "share"),
    lower("scheme.repair_missing_calls_per_scrub", "count"),
    lower("scheme.restore_frontier_ms", "ms"),
    higher("baselines.rs_decode_cache_hit_share", "share"),
    // The backend, through TracedStore (scheme-block ids).
    lower("backend.stores_per_put", "count"),
    lower("backend.fetches_per_get", "count"),
    lower("backend.fetches_per_degraded_get", "count"),
    lower("backend.fetches_per_repaired_block", "count"),
    lower("backend.time_share_put", "share"),
    lower("backend.time_share_get", "share"),
    lower("backend.time_share_scrub", "share"),
    lower("backend.store_ns_per_block", "ns"),
    lower("backend.fetch_ns_per_block", "ns"),
    // The metadata journal, through TracedStore (Meta ids).
    lower("journal.stores_per_put", "count"),
    lower("journal.bytes_per_put", "B"),
    lower("journal.bytes_per_user_byte", "B/B"),
    lower("journal.checkpoint_bytes_per_cycle", "B"),
    lower("journal.time_share_put", "share"),
    lower("journal.fetches_per_open", "count"),
    lower("journal.replayed_records_per_open", "count"),
    // The archive itself: span minus scheme, backend and journal.
    lower("archive.self_share_put", "share"),
    lower("archive.self_share_get", "share"),
    lower("archive.self_share_degraded_get", "share"),
    lower("archive.self_share_scrub", "share"),
    lower("archive.self_share_open", "share"),
    lower("archive.fallback_get_ms", "ms"),
    // ae-aio: wall time in round trips.
    lower("aio.rtts_per_put", "count"),
    lower("aio.rtts_per_get", "count"),
    lower("aio.rtts_per_degraded_get", "count"),
    lower("aio.rtts_per_repaired_block", "count"),
    lower("aio.rtts_per_open", "count"),
    lower("aio.zero_rtt_get_overhead_us", "us"),
    // The service queue and thread hand-off.
    higher("service.inline_ops_s", "1/s"),
    higher("service.closed_loop_ops_s", "1/s"),
    lower("service.queue_hop_us", "us"),
    lower("service.queue_highwater", "count"),
    lower("service.saturated", "count"),
    lower("service.generator_late_p99_us", "us"),
    lower("service.get_p99_us", "us"),
    lower("service.put_p99_us", "us"),
    // The availability plane and the sweep's failure models.
    lower("sim.plane_build_ms", "ms"),
    lower("sim.disaster_repair_ms.ae", "ms"),
    lower("sim.disaster_repair_ms.rs", "ms"),
    lower("sweep.cell_ms.iid", "ms"),
    lower("sweep.cell_ms.groups", "ms"),
    lower("sweep.cell_ms.upgrade", "ms"),
    lower("sweep.cell_ms.bitrot", "ms"),
    lower("sweep.cell_ms.churn", "ms"),
    // What tracing itself costs.
    lower("trace.overhead_share_put", "share"),
];

/// The values of one run, keyed by registered name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `defs`, reading 0 until set.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: defs.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Sets a registered metric; a non-finite value (0 ÷ 0 on a
    /// workload the metric does not apply to) reads 0.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered name: a typo must not silently add a
    /// metric `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// The value of a registered metric.
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(definition, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.values[d.name]))
    }

    /// The `metrics` object of the result line:
    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} registered twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn values_default_to_zero_and_serialize_in_registry_order() {
        let mut m = Metrics::new(END_TO_END);
        m.set("cycle_ms", 12.5);
        m.set("setup_s", f64::NAN);
        assert_eq!(m.get("setup_s"), 0.0);
        let json = m.to_json();
        assert!(json.starts_with("{\"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \"cycle_ms\": {\"value\": 12.5, \"unit\": \"ms\"}"));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_names_are_refused() {
        Metrics::new(END_TO_END).set("cycle_s", 1.0);
    }

    /// `BENCHMARK.json` and the registry name the same metrics, units,
    /// directions and bounds, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, until: &str| {
            let from = json.find(&format!("\"{key}\"")).expect(key);
            let to = if until.is_empty() {
                json.len()
            } else {
                json[from..].find(&format!("\"{until}\"")).expect(until) + from
            };
            json[from..to].to_string()
        };
        let field = |line: &str, key: &str| -> String {
            let at = line.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
            line[at..]
                .trim_start_matches([':', ' '])
                .trim_start_matches('"')
                .split(['"', ',', '}'])
                .next()
                .unwrap()
                .trim()
                .to_string()
        };
        for (key, until, defs) in [
            ("end_to_end", "per_layer", END_TO_END),
            ("per_layer", "", PER_LAYER),
        ] {
            let text = section(key, until);
            let lines: Vec<&str> = text.lines().filter(|l| l.contains("\"name\"")).collect();
            assert_eq!(lines.len(), defs.len(), "{key}");
            for (line, def) in lines.iter().zip(defs) {
                assert_eq!(field(line, "name"), def.name);
                assert_eq!(field(line, "unit"), def.unit, "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field(line, "better"), better, "{}", def.name);
                if key == "end_to_end" {
                    let bound: f64 = field(line, "bound").parse().unwrap();
                    assert_eq!(bound, def.bound, "{}", def.name);
                }
            }
        }
    }
}
