//! Failure domains: locations and their availability.
//!
//! A *location* models one failure domain — a disk, a machine, a rack or a
//! peer. The paper's disaster framework "simulates disasters by changing
//! the availability of a certain number of locations (10–50%) and trying to
//! repair the missing data blocks" (§V.C); this module holds exactly that
//! state. Seeded disasters are injected on the availability plane
//! (`ae_sim::SchemePlane::inject_disaster`).

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
        c.fail(LocationId(0));
        c.fail(LocationId(9));
        assert_eq!(c.available_count(), 8);
        c.restore_all();
        assert_eq!(c.available_count(), 10);
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
