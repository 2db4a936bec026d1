//! Write performance model (§V.B, Fig 10).
//!
//! "The values of parameters s and p impact on the number of data blocks
//! that need to wait to be entangled. When s = p, this number is maximized
//! and entanglements can be done in parallel operations." A *sealed bucket*
//! is a data block together with its α parities; a bucket can be sealed as
//! soon as all α input parities are at hand.
//!
//! The model: the writer appends one **column** (s data blocks) per wave
//! and keeps parities produced in the most recent `horizon` columns hot in
//! memory. A bucket is a **full-write** if every input parity it needs is
//! hot (was produced within the horizon); otherwise the bucket is written
//! *partially* and sealed `delay` waves later, where `delay` is how far
//! beyond the horizon its oldest input lies.
//!
//! With `s = p`, every input — including the helical wrap parities — is
//! produced exactly one column earlier, so a one-column horizon seals 100%
//! of buckets: Fig 10's left panel. With `p > s`, the wrap parities of top
//! (RH strand) and bottom (LH strand) nodes are `p − s + 1` columns old,
//! deferring 2 of every s·1 column's buckets: the right panel's partially
//! written buckets.

use ae_lattice::{rules, Config};

/// Result of simulating a batch of column writes.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteReport {
    /// Data blocks simulated.
    pub total: u64,
    /// Buckets sealed at write time (all inputs hot).
    pub full_writes: u64,
    /// Buckets deferred because some input had aged out of the horizon.
    pub deferred: u64,
    /// Largest deferral in waves (0 when everything sealed immediately).
    pub max_delay: u64,
    /// Sum of all deferrals, for averaging.
    pub total_delay: u64,
    /// Parities the writer must keep hot to avoid any deferral: the maximum
    /// input age over all blocks, in columns.
    pub required_horizon: u64,
}

impl WriteReport {
    /// Fraction of buckets sealed at write time.
    pub fn full_write_ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.full_writes as f64 / self.total as f64
    }

    /// Mean deferral in waves across all buckets.
    pub fn mean_delay(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.total_delay as f64 / self.total as f64
    }
}

/// Simulator of the column-batched writer.
#[derive(Debug, Clone)]
pub struct WriteScheduler {
    cfg: Config,
    horizon: u64,
}

impl WriteScheduler {
    /// Creates a scheduler with a memory horizon of `horizon` columns
    /// (1 = only the previous column's parities are hot, the pipelined
    /// full-write regime of Fig 10).
    pub fn new(cfg: Config, horizon: u64) -> Self {
        assert!(horizon >= 1, "the previous column is always hot");
        WriteScheduler { cfg, horizon }
    }

    /// Age in columns of the oldest input parity of node `i` (0 for strand
    /// heads with virtual inputs).
    pub fn oldest_input_age(&self, i: i64) -> u64 {
        let col_i = rules::column(&self.cfg, i);
        self.cfg
            .classes()
            .iter()
            .map(|&class| {
                let h = rules::input_source(&self.cfg, class, i);
                if h < 1 {
                    0
                } else {
                    (col_i - rules::column(&self.cfg, h)) as u64
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Simulates writing `columns` columns starting at `start_column`
    /// (choose a start past the bootstrap region — e.g. `2p` — to measure
    /// steady state).
    pub fn simulate(&self, start_column: u64, columns: u64) -> WriteReport {
        let s = self.cfg.s() as u64;
        let mut report = WriteReport {
            total: 0,
            full_writes: 0,
            deferred: 0,
            max_delay: 0,
            total_delay: 0,
            required_horizon: 0,
        };
        for col in start_column..start_column + columns {
            for row in 0..s {
                let i = (col * s + row + 1) as i64;
                let age = self.oldest_input_age(i);
                report.total += 1;
                report.required_horizon = report.required_horizon.max(age);
                let delay = age.saturating_sub(self.horizon);
                if delay == 0 {
                    report.full_writes += 1;
                } else {
                    report.deferred += 1;
                    report.total_delay += delay;
                    report.max_delay = report.max_delay.max(delay);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(a: u8, s: u16, p: u16) -> Config {
        Config::new(a, s, p).unwrap()
    }

    /// Fig 10 left panel: with s = p every bucket is a full-write under a
    /// one-column horizon.
    #[test]
    fn s_equals_p_seals_everything() {
        for (a, s, p) in [(3u8, 10u16, 10u16), (3, 5, 5), (2, 3, 3)] {
            let r = WriteScheduler::new(cfg(a, s, p), 1).simulate(2 * p as u64, 20);
            assert_eq!(r.deferred, 0, "AE({a},{s},{p}): {r:?}");
            assert_eq!(r.full_write_ratio(), 1.0);
            assert_eq!(r.required_horizon, 1, "all inputs one column back");
        }
    }

    /// Fig 10 right panel: with p > s the wrap parities of 2 rows per
    /// column age out of a one-column horizon.
    #[test]
    fn p_greater_than_s_defers_wrap_rows() {
        let c = cfg(3, 5, 10);
        let r = WriteScheduler::new(c, 1).simulate(20, 20);
        assert!(r.deferred > 0);
        // Exactly two deferred buckets per column: the RH wrap (top row)
        // and the LH wrap (bottom row).
        assert_eq!(r.deferred, 2 * 20);
        assert_eq!(r.full_writes + r.deferred, r.total);
        // Wrap inputs are p − s + 1 columns old.
        assert_eq!(r.required_horizon, (10 - 5 + 1) as u64);
        assert_eq!(r.max_delay, r.required_horizon - 1);
    }

    /// Increasing the horizon to the wrap distance restores full writes —
    /// the "keep more parities in memory" option of §V.B.
    #[test]
    fn larger_horizon_restores_full_writes() {
        let c = cfg(3, 5, 10);
        let needed = WriteScheduler::new(c, 1).simulate(20, 20).required_horizon;
        let r = WriteScheduler::new(c, needed).simulate(20, 20);
        assert_eq!(r.deferred, 0);
        assert_eq!(r.full_write_ratio(), 1.0);
    }

    /// α = 2 lacks the LH class, so only the top row defers.
    #[test]
    fn alpha2_defers_one_row_per_column() {
        let r = WriteScheduler::new(cfg(2, 4, 8), 1).simulate(16, 10);
        assert_eq!(r.deferred, 10);
    }

    /// Single entanglement never waits: the chain only ever needs the
    /// previous parity.
    #[test]
    fn single_chain_never_defers() {
        let r = WriteScheduler::new(Config::single(), 1).simulate(5, 50);
        assert_eq!(r.deferred, 0);
        assert!(r.mean_delay() == 0.0);
    }

    #[test]
    fn report_ratios() {
        let mut r = WriteReport {
            total: 10,
            full_writes: 8,
            deferred: 2,
            max_delay: 3,
            total_delay: 5,
            required_horizon: 4,
        };
        assert!((r.full_write_ratio() - 0.8).abs() < 1e-12);
        assert!((r.mean_delay() - 0.5).abs() < 1e-12);
        r.total = 0;
        assert_eq!(r.full_write_ratio(), 1.0);
        assert_eq!(r.mean_delay(), 0.0);
    }
}
