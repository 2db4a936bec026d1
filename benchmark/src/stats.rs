//! The estimator every timed metric goes through.
//!
//! A workload is a number of *cycles*; every cycle replays the identical
//! seed-determined op sequence against freshly built state, so op `i` is
//! the same work in every cycle. Host interference on a small shared VM
//! slows whole multi-second stretches by 10 % and more, which a pooled
//! median inherits in full. Taking each op's **fast decile across
//! cycles** instead keeps the part of the run that was least disturbed,
//! and unlike a minimum it does not keep improving as cycles are added.

/// The `q`-quantile (0..=1) of an ascending slice, linearly interpolated
/// between the two closest ranks (position `q * (n - 1)`).
///
/// # Panics
///
/// Panics on an empty slice: every caller owns at least one sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` in place and returns their `q`-quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of an op's times across cycles that stands for the op.
///
/// Measured on this 2-vCPU shared VM over 13 windows of 30 `ae_bulk`
/// cycles each, the window-to-window spread (interquartile range over
/// median) of `Σ t_i` was 5.8 % with the pooled median, 4.3 % with the
/// 25th percentile, 2.7 % with the 10th and 2.1 % with the minimum.
pub const FAST_QUANTILE: f64 = 0.10;

/// The fast decile of one op's times across cycles (or of a
/// one-op-per-cycle phase across cycles).
pub fn fast(values: &mut [f64]) -> f64 {
    quantile(values, FAST_QUANTILE)
}

/// Per-op wall times of one op class: `cycles[c][i]` is op `i`'s time in
/// measured cycle `c`, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct OpTimes {
    cycles: Vec<Vec<f64>>,
}

impl OpTimes {
    /// Appends one cycle's times.
    ///
    /// # Panics
    ///
    /// Panics if the cycle has a different op count than the ones
    /// before it: cycles replay one fixed sequence.
    pub fn push_cycle(&mut self, times: Vec<f64>) {
        if let Some(first) = self.cycles.first() {
            assert_eq!(first.len(), times.len(), "cycles replay one op sequence");
        }
        self.cycles.push(times);
    }

    /// Measured cycles so far.
    pub fn cycle_count(&self) -> usize {
        self.cycles.len()
    }

    /// Ops per cycle.
    pub fn ops_per_cycle(&self) -> usize {
        self.cycles.first().map_or(0, Vec::len)
    }

    /// Pooled sample count (`ops × cycles`), reported next to every
    /// percentile.
    pub fn samples(&self) -> usize {
        self.ops_per_cycle() * self.cycle_count()
    }

    /// `t_i`: each op index's fast decile across the cycles.
    pub fn fast(&self) -> Vec<f64> {
        let mut column = Vec::with_capacity(self.cycles.len());
        (0..self.ops_per_cycle())
            .map(|i| {
                column.clear();
                column.extend(self.cycles.iter().map(|c| c[i]));
                fast(&mut column)
            })
            .collect()
    }

    /// `Σ t_i` in nanoseconds — the denominator of every throughput
    /// metric.
    pub fn fast_sum(&self) -> f64 {
        self.fast().iter().sum()
    }
}

/// Interquartile range over median of `values`, with the quartiles as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) gives
/// them — the spread the driver holds every end-to-end metric to.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let exclusive = |p: f64| {
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let j = (pos.floor() as usize).min(n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    (exclusive(0.75) - exclusive(0.25)) / percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        // Position 0.9 * 4 = 3.6: six tenths of the way from 40 to 50.
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(percentile(&v, 1.5), 50.0);
    }

    #[test]
    fn quantile_sorts_first() {
        let mut v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(median(&mut v), 30.0);
        assert!((fast(&mut [4.0, 1.0, 3.0, 2.0, 5.0]) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn fast_decile_ignores_a_disturbed_stretch() {
        // Eight cycles of a two-op sequence; cycles 2..=4 ran 10 % slow
        // (interference hits a contiguous stretch, every op alike).
        let mut times = OpTimes::default();
        for c in 0..8 {
            let slow = if (2..=4).contains(&c) { 1.1 } else { 1.0 };
            times.push_cycle(vec![100.0 * slow, 1000.0 * slow]);
        }
        assert_eq!(times.cycle_count(), 8);
        assert_eq!(times.samples(), 16);
        assert_eq!(times.fast(), vec![100.0, 1000.0]);
        assert_eq!(times.fast_sum(), 1100.0);
        // The pooled median of op 0 would have been fine here, but with
        // five of eight cycles disturbed it is not, and the fast decile
        // still is.
        let mut worse = OpTimes::default();
        for c in 0..8 {
            let slow = if c < 5 { 1.1 } else { 1.0 };
            worse.push_cycle(vec![100.0 * slow]);
        }
        let mut pooled: Vec<f64> = (0..8).map(|c| if c < 5 { 110.0 } else { 100.0 }).collect();
        assert!((median(&mut pooled) - 110.0).abs() < 1e-9);
        assert_eq!(worse.fast(), vec![100.0]);
    }

    #[test]
    #[should_panic(expected = "cycles replay one op sequence")]
    fn cycles_must_agree_on_the_op_count() {
        let mut times = OpTimes::default();
        times.push_cycle(vec![1.0, 2.0]);
        times.push_cycle(vec![1.0]);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
