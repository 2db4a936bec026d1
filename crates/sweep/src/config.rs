//! The sweep grid: axes, validation, and the two canonical presets.

use crate::failure::FailureSpec;
use ae_sim::Scheme;
use std::fmt;

/// One sweep grid: every scheme × every failure model × every seed,
/// simulated over the same deployment shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Data blocks per deployment (the paper uses 1M; sweeps scale down).
    pub data_blocks: u64,
    /// Failure-domain locations blocks are placed on.
    pub locations: u32,
    /// Seed for the random placement map, shared by every cell so all
    /// schemes see the same location assignment.
    pub placement_seed: u64,
    /// Scheme roster axis.
    pub schemes: Vec<Scheme>,
    /// Failure-model axis.
    pub failures: Vec<FailureSpec>,
    /// Scenario-seed axis: each `(scheme, failure)` pair runs once per
    /// seed.
    pub seeds: Vec<u64>,
}

/// Why a [`SweepConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A grid axis is empty — the grid would have zero cells.
    EmptyAxis {
        /// Which axis: `"schemes"`, `"failures"` or `"seeds"`.
        axis: &'static str,
    },
    /// `data_blocks` is zero.
    ZeroDataBlocks,
    /// `locations` is zero.
    ZeroLocations,
    /// A churn model caps repair bandwidth at zero blocks per round — no
    /// round could ever make progress.
    ZeroBandwidthCap {
        /// Label of the offending failure spec.
        failure: String,
    },
    /// A multi-event model has zero events (churn epochs, upgrade waves).
    ZeroEvents {
        /// Label of the offending failure spec.
        failure: String,
    },
    /// A failure fraction is outside `[0, 1]`.
    InvalidFraction {
        /// Label of the offending failure spec.
        failure: String,
        /// The rejected fraction.
        fraction: f64,
    },
    /// A correlated model's placement groups or upgrade waves don't fit
    /// the location count (need `1..=locations`).
    GroupsOutOfRange {
        /// Label of the offending failure spec.
        failure: String,
        /// The rejected group/wave count.
        groups: u32,
        /// The configured location count.
        locations: u32,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyAxis { axis } => write!(f, "sweep axis `{axis}` is empty"),
            SweepError::ZeroDataBlocks => write!(f, "sweep needs at least one data block"),
            SweepError::ZeroLocations => write!(f, "sweep needs at least one location"),
            SweepError::ZeroBandwidthCap { failure } => {
                write!(f, "{failure}: bandwidth cap must be positive")
            }
            SweepError::ZeroEvents { failure } => {
                write!(f, "{failure}: needs at least one event")
            }
            SweepError::InvalidFraction { failure, fraction } => {
                write!(f, "{failure}: fraction {fraction} outside [0, 1]")
            }
            SweepError::GroupsOutOfRange {
                failure,
                groups,
                locations,
            } => write!(
                f,
                "{failure}: {groups} groups don't fit {locations} locations"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepConfig {
    /// Checks the grid is runnable: non-empty axes, a non-degenerate
    /// deployment, and every failure spec well-formed for `locations`.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.data_blocks == 0 {
            return Err(SweepError::ZeroDataBlocks);
        }
        if self.locations == 0 {
            return Err(SweepError::ZeroLocations);
        }
        if self.schemes.is_empty() {
            return Err(SweepError::EmptyAxis { axis: "schemes" });
        }
        if self.failures.is_empty() {
            return Err(SweepError::EmptyAxis { axis: "failures" });
        }
        if self.seeds.is_empty() {
            return Err(SweepError::EmptyAxis { axis: "seeds" });
        }
        for spec in &self.failures {
            spec.validate(self.locations)?;
        }
        Ok(())
    }

    /// Cells in the grid (`schemes × failures × seeds`).
    pub fn cell_count(&self) -> usize {
        self.schemes.len() * self.failures.len() * self.seeds.len()
    }

    /// The CI smoke grid: the full 13-scheme roster × five failure models
    /// × one pinned seed over a small deployment — seconds to run, and
    /// byte-compared against the checked-in golden CSV on every push.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            // Divisible by every roster stripe width (lcm of k ∈ {10, 8,
            // 5, 4} is 40).
            data_blocks: 4_000,
            locations: 60,
            placement_seed: 42,
            schemes: Scheme::extended_lineup(),
            failures: vec![
                FailureSpec::Iid { fraction: 0.15 },
                FailureSpec::CorrelatedGroups {
                    groups: 12,
                    fraction: 0.25,
                },
                FailureSpec::RollingUpgrade { waves: 6 },
                FailureSpec::BitRot { fraction: 0.02 },
                FailureSpec::ChurnCapped {
                    epochs: 3,
                    fraction: 0.05,
                    bandwidth_cap: 400,
                },
            ],
            seeds: vec![42],
        }
    }

    /// The smoke grid at the scale the benchmark's `sim_sweep` workload
    /// times (`benchmark/src/sweep_wl.rs`, seed 1): 40 000 data blocks
    /// over 100 locations, churn capped at 4 000 blocks a round. Pinned
    /// by `tests/golden/frontier_scaled.csv`, so a change that moves the
    /// timed grid fails a diff, not only the benchmark's reference check.
    pub fn scaled() -> SweepConfig {
        let mut grid = SweepConfig::smoke();
        grid.data_blocks = 40_000;
        grid.locations = 100;
        grid.seeds = vec![1];
        for failure in &mut grid.failures {
            if let FailureSpec::ChurnCapped { bandwidth_cap, .. } = failure {
                *bandwidth_cap = 4_000;
            }
        }
        grid
    }

    /// The full frontier grid: the 13-scheme roster × every failure model
    /// at multiple intensities × two seeds over a larger deployment.
    /// Minutes in release mode; produces the numbers quoted in the
    /// ROADMAP's frontier section.
    pub fn full() -> SweepConfig {
        SweepConfig {
            data_blocks: 120_000,
            locations: 100,
            placement_seed: 42,
            schemes: Scheme::extended_lineup(),
            failures: vec![
                FailureSpec::Iid { fraction: 0.10 },
                FailureSpec::Iid { fraction: 0.20 },
                FailureSpec::Iid { fraction: 0.30 },
                FailureSpec::CorrelatedGroups {
                    groups: 10,
                    fraction: 0.20,
                },
                FailureSpec::CorrelatedGroups {
                    groups: 10,
                    fraction: 0.30,
                },
                FailureSpec::RollingUpgrade { waves: 10 },
                FailureSpec::BitRot { fraction: 0.01 },
                FailureSpec::BitRot { fraction: 0.05 },
                FailureSpec::ChurnCapped {
                    epochs: 4,
                    fraction: 0.05,
                    bandwidth_cap: 2_000,
                },
            ],
            seeds: vec![42, 4242],
        }
    }
}

/// A tiny two-scheme grid for unit tests (not a preset users should run).
#[cfg(test)]
pub(crate) fn tiny() -> SweepConfig {
    SweepConfig {
        data_blocks: 400,
        locations: 20,
        placement_seed: 1,
        schemes: vec![
            Scheme::Ae(ae_lattice::Config::new(3, 2, 5).unwrap()),
            Scheme::Replication { n: 3 },
        ],
        failures: vec![
            FailureSpec::Iid { fraction: 0.2 },
            FailureSpec::ChurnCapped {
                epochs: 2,
                fraction: 0.1,
                bandwidth_cap: 50,
            },
        ],
        seeds: vec![7],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SweepConfig::smoke().validate().unwrap();
        SweepConfig::scaled().validate().unwrap();
        SweepConfig::full().validate().unwrap();
        tiny().validate().unwrap();
        assert_eq!(SweepConfig::smoke().cell_count(), 13 * 5);
    }

    #[test]
    fn empty_axes_rejected_with_the_axis_name() {
        let mut cfg = tiny();
        cfg.schemes.clear();
        assert_eq!(
            cfg.validate(),
            Err(SweepError::EmptyAxis { axis: "schemes" })
        );
        let mut cfg = tiny();
        cfg.failures.clear();
        assert_eq!(
            cfg.validate(),
            Err(SweepError::EmptyAxis { axis: "failures" })
        );
        let mut cfg = tiny();
        cfg.seeds.clear();
        assert_eq!(cfg.validate(), Err(SweepError::EmptyAxis { axis: "seeds" }));
    }

    #[test]
    fn degenerate_deployments_rejected() {
        let mut cfg = tiny();
        cfg.data_blocks = 0;
        assert_eq!(cfg.validate(), Err(SweepError::ZeroDataBlocks));
        let mut cfg = tiny();
        cfg.locations = 0;
        assert_eq!(cfg.validate(), Err(SweepError::ZeroLocations));
    }

    #[test]
    fn bad_failure_specs_rejected_typed() {
        let mut cfg = tiny();
        cfg.failures.push(FailureSpec::ChurnCapped {
            epochs: 2,
            fraction: 0.1,
            bandwidth_cap: 0,
        });
        assert!(matches!(
            cfg.validate(),
            Err(SweepError::ZeroBandwidthCap { .. })
        ));
        let mut cfg = tiny();
        cfg.failures.push(FailureSpec::Iid { fraction: 1.5 });
        assert_eq!(
            cfg.validate(),
            Err(SweepError::InvalidFraction {
                failure: "iid(1.50)".into(),
                fraction: 1.5
            })
        );
        let mut cfg = tiny();
        cfg.failures.push(FailureSpec::CorrelatedGroups {
            groups: 999,
            fraction: 0.5,
        });
        assert!(matches!(
            cfg.validate(),
            Err(SweepError::GroupsOutOfRange { groups: 999, .. })
        ));
        let mut cfg = tiny();
        cfg.failures.push(FailureSpec::RollingUpgrade { waves: 0 });
        assert!(matches!(cfg.validate(), Err(SweepError::ZeroEvents { .. })));
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("upgrade"), "{err}");
    }
}
