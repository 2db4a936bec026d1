//! Failure domains: locations and their availability.
//!
//! A *location* models one failure domain — a disk, a machine, a rack or a
//! peer. The paper's disaster framework "simulates disasters by changing
//! the availability of a certain number of locations (10–50%) and trying to
//! repair the missing data blocks" (§V.C); this module provides exactly
//! that state and the injection helpers.

use ae_api::SplitMix64;
use std::fmt;

/// Identifier of a storage location (failure domain), dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocationId(pub u32);

impl fmt::Debug for LocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Debug>::fmt(self, f)
    }
}

/// A set of locations with availability state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    available: Vec<bool>,
}

impl Cluster {
    /// Creates a cluster of `n` locations, all available.
    ///
    /// # Panics
    ///
    /// Panics for `n = 0`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "a cluster needs at least one location");
        Cluster {
            available: vec![true; n as usize],
        }
    }

    /// Total number of locations.
    pub fn len(&self) -> u32 {
        self.available.len() as u32
    }

    /// Whether the cluster has no locations (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.available.is_empty()
    }

    /// Whether `loc` is currently available.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range location.
    pub fn is_available(&self, loc: LocationId) -> bool {
        self.available[loc.0 as usize]
    }

    /// Marks a location failed.
    pub fn fail(&mut self, loc: LocationId) {
        self.available[loc.0 as usize] = false;
    }

    /// Marks a location available again (recovered or replaced).
    pub fn restore(&mut self, loc: LocationId) {
        self.available[loc.0 as usize] = true;
    }

    /// Restores every location.
    pub fn restore_all(&mut self) {
        self.available.fill(true);
    }

    /// Currently unavailable locations.
    pub fn failed_locations(&self) -> Vec<LocationId> {
        self.available
            .iter()
            .enumerate()
            .filter(|(_, &ok)| !ok)
            .map(|(i, _)| LocationId(i as u32))
            .collect()
    }

    /// Number of available locations.
    pub fn available_count(&self) -> u32 {
        self.available.iter().filter(|&&ok| ok).count() as u32
    }

    /// Injects a disaster: fails `fraction` of all locations (rounded down),
    /// chosen uniformly at random. Returns the failed locations.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn inject_disaster(&mut self, fraction: f64, rng: &mut SplitMix64) -> Vec<LocationId> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "disaster fraction must be in [0, 1], got {fraction}"
        );
        let count = (self.available.len() as f64 * fraction).floor() as usize;
        let mut all: Vec<u32> = (0..self.len()).collect();
        // Fisher–Yates.
        for i in (1..all.len()).rev() {
            all.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut failed = Vec::with_capacity(count);
        for &loc in all.iter().take(count) {
            self.available[loc as usize] = false;
            failed.push(LocationId(loc));
        }
        failed
    }

    /// Fails each location independently with probability `prob` — the
    /// uncorrelated-failure model, for contrast with massed disasters.
    pub fn inject_independent(&mut self, prob: f64, rng: &mut SplitMix64) -> Vec<LocationId> {
        let mut failed = Vec::new();
        for i in 0..self.available.len() {
            if self.available[i] && rng.unit_f64() < prob {
                self.available[i] = false;
                failed.push(LocationId(i as u32));
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_and_restore() {
        let mut c = Cluster::new(10);
        assert_eq!(c.len(), 10);
        assert_eq!(c.available_count(), 10);
        c.fail(LocationId(3));
        assert!(!c.is_available(LocationId(3)));
        assert!(c.is_available(LocationId(4)));
        assert_eq!(c.failed_locations(), vec![LocationId(3)]);
        c.restore(LocationId(3));
        assert_eq!(c.available_count(), 10);
    }

    #[test]
    fn disaster_fails_exact_fraction() {
        let mut rng = SplitMix64::new(7);
        let mut c = Cluster::new(100);
        let failed = c.inject_disaster(0.3, &mut rng);
        assert_eq!(failed.len(), 30);
        assert_eq!(c.available_count(), 70);
        // No duplicates.
        let set: std::collections::HashSet<_> = failed.iter().collect();
        assert_eq!(set.len(), 30);
        c.restore_all();
        assert_eq!(c.available_count(), 100);
    }

    #[test]
    fn disaster_is_deterministic_per_seed() {
        let mut a = Cluster::new(50);
        let mut b = Cluster::new(50);
        let fa = a.inject_disaster(0.2, &mut SplitMix64::new(42));
        let fb = b.inject_disaster(0.2, &mut SplitMix64::new(42));
        assert_eq!(fa, fb);
    }

    #[test]
    fn independent_failures_roughly_match_probability() {
        let mut rng = SplitMix64::new(1);
        let mut c = Cluster::new(10_000);
        let failed = c.inject_independent(0.1, &mut rng);
        assert!((800..1200).contains(&failed.len()), "got {}", failed.len());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_bad_fraction() {
        Cluster::new(10).inject_disaster(1.5, &mut SplitMix64::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_cluster() {
        Cluster::new(0);
    }

    #[test]
    fn location_display() {
        assert_eq!(LocationId(5).to_string(), "n5");
    }
}
