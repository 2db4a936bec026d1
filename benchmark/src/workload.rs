//! What every workload has in common: per-class op timings, the
//! correctness tally, and the end-to-end metrics computed from them.

use crate::stats::OpTimes;

/// One cycle's wall times (ns), by op class, in the order the cycle ran
/// the classes.
#[derive(Debug, Default, Clone)]
pub struct Classes(pub Vec<(&'static str, Vec<f64>)>);

impl Classes {
    /// Appends a class.
    pub fn push(&mut self, class: &'static str, times: Vec<f64>) {
        self.0.push((class, times));
    }
}

/// Ops attempted and failed, with the first few failures spelled out.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations and structural checks attempted.
    pub attempted: u64,
    /// Of which failed, were refused, or returned wrong output.
    pub failed: u64,
    /// The first failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempt; a miss is a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Share of attempts that succeeded and verified.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The measured cycles of one run, accumulated class by class.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    classes: Vec<(&'static str, OpTimes)>,
}

impl Measured {
    /// Adds one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle's classes differ from the previous cycles'.
    pub fn push_cycle(&mut self, cycle: Classes) {
        if self.classes.is_empty() {
            self.classes = cycle
                .0
                .iter()
                .map(|(name, _)| (*name, OpTimes::default()))
                .collect();
        }
        assert_eq!(
            self.classes.len(),
            cycle.0.len(),
            "cycles replay one sequence"
        );
        for ((name, times), (class, cycle_times)) in self.classes.iter_mut().zip(cycle.0) {
            assert_eq!(*name, class, "cycles replay one sequence");
            times.push_cycle(cycle_times);
        }
    }

    /// Measured cycles so far.
    pub fn cycles(&self) -> usize {
        self.classes.first().map_or(0, |(_, t)| t.cycle_count())
    }

    /// The times of one class, if the workload has it.
    pub fn class(&self, name: &str) -> Option<&OpTimes> {
        self.classes
            .iter()
            .find(|(class, _)| *class == name)
            .map(|(_, times)| times)
    }

    /// `Σ t_i` of one class in ns; 0 for a class the workload lacks.
    pub fn class_sum(&self, name: &str) -> f64 {
        self.class(name).map_or(0.0, OpTimes::fast_sum)
    }

    /// Every op's fast-decile time `t_i`, all classes concatenated.
    pub fn all_fast(&self) -> Vec<f64> {
        self.classes.iter().flat_map(|(_, t)| t.fast()).collect()
    }

    /// Timed ops per cycle, all classes.
    pub fn ops_per_cycle(&self) -> usize {
        self.classes.iter().map(|(_, t)| t.ops_per_cycle()).sum()
    }

    /// The three timing metrics every workload reports.
    pub fn timing(&self) -> Timing {
        let mut all = self.all_fast();
        all.sort_by(f64::total_cmp);
        let n = all.len();
        let slowest = &all[n - n.div_ceil(100)..];
        Timing {
            cycle_ms: all.iter().sum::<f64>() / 1e6,
            op_geomean_us: (all.iter().map(|t| t.ln()).sum::<f64>() / n as f64).exp() / 1e3,
            op_tail_us: slowest.iter().sum::<f64>() / slowest.len() as f64 / 1e3,
            samples: n * self.cycles(),
        }
    }
}

/// The universal timing metrics of one run. A workload's ops come in a
/// few clusters (cheap gets, dearer puts, one scrub), and a percentile of
/// such a mix sits on the cliff between two clusters as often as inside
/// one; these three are smooth in every `t_i` instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// `Σ t_i` over every timed op of the cycle, in ms: what one cycle
    /// of the workload costs once interference is filtered out. The
    /// dear ops dominate it.
    pub cycle_ms: f64,
    /// Geometric mean of `{t_i}` in µs: the typical op, every op
    /// weighing the same however cheap.
    pub op_geomean_us: f64,
    /// Mean of the slowest 1 % of `{t_i}` (at least one op) in µs: the
    /// structural tail — checkpoint stalls, scrubs, requests queued
    /// behind a scrub, the dearest sweep cell.
    pub op_tail_us: f64,
    /// Pooled sample count behind them (`ops × cycles`).
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(scale: f64) -> Classes {
        let mut c = Classes::default();
        c.push("put", vec![100.0 * scale, 300.0 * scale]);
        c.push("get", vec![10.0 * scale]);
        c
    }

    #[test]
    fn timing_aggregates_the_fast_deciles() {
        let mut m = Measured::default();
        for scale in [1.0, 1.0, 1.0, 1.2, 1.0] {
            m.push_cycle(cycle(scale));
        }
        assert_eq!(m.cycles(), 5);
        assert_eq!(m.ops_per_cycle(), 3);
        assert_eq!(m.class_sum("put"), 400.0);
        assert_eq!(m.class_sum("scrub"), 0.0);
        let t = m.timing();
        assert!((t.cycle_ms - 410.0 / 1e6).abs() < 1e-12);
        let geomean = (100.0f64 * 300.0 * 10.0).powf(1.0 / 3.0);
        assert!((t.op_geomean_us - geomean / 1e3).abs() < 1e-9);
        // Three ops: the slowest 1 % is the one slowest op.
        assert!((t.op_tail_us - 0.3).abs() < 1e-12);
        assert_eq!(t.samples, 15);
    }

    #[test]
    fn tally_counts_and_keeps_the_first_notes() {
        let mut t = Tally::default();
        for i in 0..20 {
            t.check(i % 2 == 0, || format!("op {i}"));
        }
        assert_eq!((t.attempted, t.failed), (20, 10));
        assert_eq!(t.notes.len(), 8);
        assert_eq!(t.ok_share(), 0.5);
        assert_eq!(Tally::default().ok_share(), 0.0);
    }
}
