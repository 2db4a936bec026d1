//! Latency and saturation accounting for the serving layer.
//!
//! Workers record each operation's submit-to-complete latency into a
//! log-scaled [`LatencyHistogram`] (64 power-of-two decades × 4
//! sub-buckets — ~19% worst-case relative error on a percentile, constant
//! memory, lock-free to merge); [`ServiceReport`] aggregates the per-shard
//! histograms, completion counts, queue-depth highwaters and saturation
//! rejections for one [`crate::ArchiveService::run`]. The bucket engine
//! itself is [`ae_api::LogHistogram`] — shared with the sweep harness's
//! repair-cost distributions — and this module only adds the
//! nanosecond/`Duration` framing.

use ae_api::LogHistogram;
use std::fmt;
use std::time::Duration;

/// Operation kinds the service admits, as a dense index for stats tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`crate::ServiceClient::put`]
    Put,
    /// [`crate::ServiceClient::get`]
    Get,
    /// [`crate::ServiceClient::scrub`]
    Scrub,
    /// [`crate::ServiceClient::seal`]
    Seal,
}

impl OpKind {
    /// All kinds, in dense-index order.
    pub const ALL: [OpKind; 4] = [OpKind::Put, OpKind::Get, OpKind::Scrub, OpKind::Seal];

    /// Dense index into per-kind tables.
    pub fn index(self) -> usize {
        match self {
            OpKind::Put => 0,
            OpKind::Get => 1,
            OpKind::Scrub => 2,
            OpKind::Seal => 3,
        }
    }

    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Scrub => "scrub",
            OpKind::Seal => "seal",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A log-scaled latency histogram over nanoseconds: the shared
/// [`LogHistogram`] bucket engine with `Duration` framing.
///
/// Recording is O(1); percentile extraction returns the lower bound of the
/// bucket holding the requested rank, so reported percentiles are
/// conservative (never above the true value by more than one bucket
/// width).
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    inner: LogHistogram,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            inner: LogHistogram::new(),
        }
    }

    fn ns(latency: Duration) -> u64 {
        latency.as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records one latency.
    pub fn record(&mut self, latency: Duration) {
        self.inner.record(Self::ns(latency));
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.inner.merge(&other.inner);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean latency, `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.inner.count() == 0 {
            return None;
        }
        Some(Duration::from_nanos(
            (self.inner.sum() / self.inner.count() as u128) as u64,
        ))
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.inner.max())
    }

    /// Number of recorded samples at or below `limit` (bucket-granular:
    /// the bucket containing `limit` counts in full). The service bench
    /// computes SLO-bounded goodput from this.
    pub fn count_at_most(&self, limit: Duration) -> u64 {
        self.inner.count_at_most(Self::ns(limit))
    }

    /// The `q`-quantile (`0.0..=1.0`), `None` when empty. `0.5` is p50,
    /// `0.99` is p99.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.inner.quantile(q).map(Duration::from_nanos)
    }
}

/// Per-shard worker accounting, collected when the pool joins.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Operations this shard completed, by kind.
    pub completed: [u64; 4],
    /// Latency histograms by kind (submit to completion).
    pub latency: [LatencyHistogram; 4],
}

impl ShardStats {
    /// Empty per-shard stats.
    pub fn new() -> Self {
        ShardStats {
            completed: [0; 4],
            latency: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
        }
    }

    /// Records one completed operation.
    pub fn record(&mut self, kind: OpKind, latency: Duration) {
        self.completed[kind.index()] += 1;
        self.latency[kind.index()].record(latency);
    }

    /// Total operations completed across kinds.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }
}

/// What one [`crate::ArchiveService::run`] measured: merged latency
/// histograms, completion counts, per-shard queue pressure.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-kind latency histograms merged across shards.
    pub latency: [LatencyHistogram; 4],
    /// Operations completed per shard.
    pub shard_completed: Vec<u64>,
    /// Highest submission-queue depth each shard reached.
    pub queue_highwater: Vec<usize>,
    /// Submissions rejected with [`crate::ServiceError::Saturated`].
    pub saturated: u64,
}

impl ServiceReport {
    /// Latency histogram for one op kind.
    pub fn latency(&self, kind: OpKind) -> &LatencyHistogram {
        &self.latency[kind.index()]
    }

    /// Total operations completed across all shards.
    pub fn completed(&self) -> u64 {
        self.shard_completed.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_ordered_and_conservative() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
        assert!(p99 <= h.max());
        // Conservative: the p50 bucket floor sits within one bucket (≤25%)
        // of the true median of 500µs.
        assert!(p50 >= Duration::from_micros(375) && p50 <= Duration::from_micros(500));
        assert!(h.mean().unwrap() > Duration::from_micros(400));
    }

    #[test]
    fn histogram_merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..100u64 {
            let d = Duration::from_nanos(i * i + 1);
            if i % 2 == 0 { &mut a } else { &mut b }.record(d);
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn tiny_latencies_use_exact_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(0));
        h.record(Duration::from_nanos(3));
        assert_eq!(h.quantile(0.01).unwrap(), Duration::from_nanos(0));
        assert_eq!(h.quantile(1.0).unwrap(), Duration::from_nanos(3));
    }

    #[test]
    fn op_kind_table_is_dense() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(OpKind::Scrub.to_string(), "scrub");
    }

    #[test]
    fn shard_stats_record_by_kind() {
        let mut s = ShardStats::new();
        s.record(OpKind::Put, Duration::from_micros(5));
        s.record(OpKind::Put, Duration::from_micros(7));
        s.record(OpKind::Get, Duration::from_micros(1));
        assert_eq!(s.completed[OpKind::Put.index()], 2);
        assert_eq!(s.total_completed(), 3);
        assert_eq!(s.latency[OpKind::Get.index()].count(), 1);
    }
}
