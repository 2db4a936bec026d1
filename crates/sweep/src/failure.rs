//! The failure-model axis: what breaks, in what pattern, under which
//! operational limits.
//!
//! Every model runs against the scheme-agnostic [`SchemePlane`] through
//! the same three hooks — location-mask failure injection, per-block bit
//! rot, and (bandwidth-capped, round-bounded) repair — so a model is a
//! *scenario*: a deterministic schedule of injections and repair windows.
//! All randomness derives from the cell's scenario seed (see the crate
//! docs' seeding contract).

use crate::config::SweepError;
use ae_api::{mix64, RoundStats};
use ae_sim::scheme_plane::upgrade_wave;
use ae_sim::{FullRepairOutcome, SchemePlane};
use std::fmt;

/// One failure model: a deterministic scenario of failure injections and
/// repair windows driven by a scenario seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureSpec {
    /// The paper's §V.C model: `fraction` of the locations fail at once,
    /// i.i.d. uniform, then repair runs to fixpoint.
    Iid {
        /// Fraction of locations failed.
        fraction: f64,
    },
    /// Correlated rack/region knockout: the locations form `groups`
    /// contiguous placement groups and `fraction` of the *groups* fail
    /// whole, then repair runs to fixpoint.
    CorrelatedGroups {
        /// Contiguous placement groups the locations partition into.
        groups: u32,
        /// Fraction of groups knocked out together.
        fraction: f64,
    },
    /// Rolling-upgrade wave: the fleet is reimaged one contiguous wave of
    /// locations at a time (destructive — blocks on a reimaged location
    /// are lost), with repair run to fixpoint between waves. Operator
    /// driven: wave order is fixed, the scenario seed is unused.
    RollingUpgrade {
        /// Contiguous waves the fleet is split into.
        waves: u32,
    },
    /// Silent bit rot: each stored block independently rots with
    /// probability `fraction` (detected by scrubbing, so a rotten block
    /// is a lost block), then repair runs to fixpoint.
    BitRot {
        /// Per-block rot probability.
        fraction: f64,
    },
    /// Churn under a repair-bandwidth cap: `epochs` successive disasters
    /// each failing `fraction` of the locations, with only **one** repair
    /// round of at most `bandwidth_cap` blocks between epochs, then
    /// capped rounds drain to fixpoint. Epoch `e` keys its disaster with
    /// `mix64(e, seed)`.
    ChurnCapped {
        /// Failure epochs before the final drain.
        epochs: u32,
        /// Fraction of locations failed per epoch.
        fraction: f64,
        /// Most blocks repairable per round (cluster repair bandwidth).
        bandwidth_cap: u64,
    },
}

impl FailureSpec {
    /// Stable CSV label, e.g. `iid(0.15)`, `groups(12,0.25)`,
    /// `upgrade(4)`, `bitrot(0.02)`, `churn(3,0.05,cap400)`. Contains
    /// commas — CSV writers must quote it.
    pub fn label(&self) -> String {
        match *self {
            FailureSpec::Iid { fraction } => format!("iid({fraction:.2})"),
            FailureSpec::CorrelatedGroups { groups, fraction } => {
                format!("groups({groups},{fraction:.2})")
            }
            FailureSpec::RollingUpgrade { waves } => format!("upgrade({waves})"),
            FailureSpec::BitRot { fraction } => format!("bitrot({fraction:.2})"),
            FailureSpec::ChurnCapped {
                epochs,
                fraction,
                bandwidth_cap,
            } => format!("churn({epochs},{fraction:.2},cap{bandwidth_cap})"),
        }
    }

    /// Validates the spec against a deployment of `locations` failure
    /// domains.
    pub fn validate(&self, locations: u32) -> Result<(), SweepError> {
        let fraction_ok = |fraction: f64| {
            if (0.0..=1.0).contains(&fraction) {
                Ok(())
            } else {
                Err(SweepError::InvalidFraction {
                    failure: self.label(),
                    fraction,
                })
            }
        };
        match *self {
            FailureSpec::Iid { fraction } | FailureSpec::BitRot { fraction } => {
                fraction_ok(fraction)
            }
            FailureSpec::CorrelatedGroups { groups, fraction } => {
                fraction_ok(fraction)?;
                if groups == 0 || groups > locations {
                    return Err(SweepError::GroupsOutOfRange {
                        failure: self.label(),
                        groups,
                        locations,
                    });
                }
                Ok(())
            }
            FailureSpec::RollingUpgrade { waves } => {
                if waves == 0 {
                    return Err(SweepError::ZeroEvents {
                        failure: self.label(),
                    });
                }
                if waves > locations {
                    return Err(SweepError::GroupsOutOfRange {
                        failure: self.label(),
                        groups: waves,
                        locations,
                    });
                }
                Ok(())
            }
            FailureSpec::ChurnCapped {
                epochs,
                fraction,
                bandwidth_cap,
            } => {
                fraction_ok(fraction)?;
                if epochs == 0 {
                    return Err(SweepError::ZeroEvents {
                        failure: self.label(),
                    });
                }
                if bandwidth_cap == 0 {
                    return Err(SweepError::ZeroBandwidthCap {
                        failure: self.label(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Runs the scenario on a freshly healed plane, returning the raw
    /// tallies (failed counts per kind, every repair round). The caller
    /// reads the irrecoverable remainder off the plane afterwards.
    pub(crate) fn execute(&self, plane: &mut SchemePlane, seed: u64) -> Tally {
        let mut tally = Tally::default();
        match *self {
            FailureSpec::Iid { fraction } => {
                tally.fail(plane.inject_disaster(fraction, seed));
                tally.extend(plane.repair_full());
            }
            FailureSpec::CorrelatedGroups { groups, fraction } => {
                tally.fail(plane.inject_group_disaster(groups, fraction, seed));
                tally.extend(plane.repair_full());
            }
            FailureSpec::RollingUpgrade { waves } => {
                for wave in 0..waves {
                    let mask = upgrade_wave(plane.locations(), waves, wave);
                    tally.fail(plane.fail_locations(&mask));
                    tally.extend(plane.repair_full());
                }
            }
            FailureSpec::BitRot { fraction } => {
                tally.fail(plane.inject_bit_rot(fraction, seed));
                tally.extend(plane.repair_full());
            }
            FailureSpec::ChurnCapped {
                epochs,
                fraction,
                bandwidth_cap,
            } => {
                for epoch in 0..epochs {
                    tally.fail(plane.inject_disaster(fraction, mix64(u64::from(epoch), seed)));
                    tally.extend(plane.repair_rounds(Some(bandwidth_cap), Some(1)));
                }
                // Quiet period: capped rounds drain to fixpoint.
                tally.extend(plane.repair_rounds(Some(bandwidth_cap), None));
            }
        }
        tally
    }
}

impl fmt::Display for FailureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Raw per-cell tallies a scenario accumulates: failed blocks by kind and
/// every repair round that ran.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub failed_data: u64,
    pub failed_redundancy: u64,
    pub rounds: Vec<RoundStats>,
}

impl Tally {
    fn fail(&mut self, (data, redundancy): (u64, u64)) {
        self.failed_data += data;
        self.failed_redundancy += redundancy;
    }

    fn extend(&mut self, outcome: FullRepairOutcome) {
        self.rounds.extend(outcome.rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_sim::{Scheme, SimPlacement};

    fn plane() -> SchemePlane {
        SchemePlane::new(
            Scheme::Replication { n: 3 }.build(0),
            1_000,
            20,
            SimPlacement::Random { seed: 1 },
        )
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FailureSpec::Iid { fraction: 0.15 }.label(), "iid(0.15)");
        assert_eq!(
            FailureSpec::CorrelatedGroups {
                groups: 12,
                fraction: 0.25
            }
            .label(),
            "groups(12,0.25)"
        );
        assert_eq!(
            FailureSpec::RollingUpgrade { waves: 4 }.label(),
            "upgrade(4)"
        );
        assert_eq!(
            FailureSpec::BitRot { fraction: 0.02 }.label(),
            "bitrot(0.02)"
        );
        assert_eq!(
            FailureSpec::ChurnCapped {
                epochs: 3,
                fraction: 0.05,
                bandwidth_cap: 400
            }
            .to_string(),
            "churn(3,0.05,cap400)"
        );
    }

    #[test]
    fn every_model_closes_its_books() {
        // failed = repaired + still missing, for every model on a plane
        // strong enough to usually repair everything.
        for spec in [
            FailureSpec::Iid { fraction: 0.2 },
            FailureSpec::CorrelatedGroups {
                groups: 10,
                fraction: 0.2,
            },
            FailureSpec::RollingUpgrade { waves: 5 },
            FailureSpec::BitRot { fraction: 0.05 },
            FailureSpec::ChurnCapped {
                epochs: 3,
                fraction: 0.1,
                bandwidth_cap: 100,
            },
        ] {
            let mut p = plane();
            let tally = spec.execute(&mut p, 7);
            let (lost_data, lost_redundancy) = p.missing_counts();
            let repaired: u64 = tally.rounds.iter().map(|r| r.writes()).sum();
            assert_eq!(
                tally.failed_data + tally.failed_redundancy,
                repaired + lost_data + lost_redundancy,
                "{spec}"
            );
            assert!(tally.failed_data > 0, "{spec} failed nothing");
        }
    }

    #[test]
    fn churn_respects_the_bandwidth_cap() {
        let spec = FailureSpec::ChurnCapped {
            epochs: 3,
            fraction: 0.1,
            bandwidth_cap: 100,
        };
        let mut p = plane();
        let tally = spec.execute(&mut p, 7);
        assert!(tally.rounds.iter().all(|r| r.writes() <= 100));
        assert!(tally.rounds.len() > 3, "drain takes extra rounds");
    }

    #[test]
    fn upgrade_is_seed_independent() {
        let run = |seed| {
            let mut p = plane();
            let t = FailureSpec::RollingUpgrade { waves: 4 }.execute(&mut p, seed);
            (t.failed_data, t.failed_redundancy, t.rounds)
        };
        assert_eq!(run(1), run(99));
    }
}
