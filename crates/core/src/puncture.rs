//! Puncturing: trading fault tolerance for storage (§III "Reducing Storage
//! Overhead").
//!
//! "A second option is to puncture the code. Puncturing is a standard
//! technique used in coding theory in which, after encoding, some of the
//! parities are not stored in the system." The lattice is unchanged —
//! punctured parities are simply never written, and the decoder treats them
//! as missing blocks it may transiently reconstruct during repairs.

use ae_blocks::{EdgeId, StrandClass};
use ae_lattice::Config;

/// A deterministic puncturing plan: which parities are actually stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PuncturePlan {
    /// Restrict puncturing to one strand class (`None` punctures all
    /// classes uniformly).
    pub class: Option<StrandClass>,
    /// Drop one of every `period` parities of the selected class(es);
    /// `period = 0` disables puncturing.
    pub period: u64,
}

impl PuncturePlan {
    /// No puncturing: every parity is stored.
    pub fn none() -> Self {
        PuncturePlan {
            class: None,
            period: 0,
        }
    }

    /// Punctures one in `period` parities across all classes.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` (dropping every parity of a class would break
    /// the strand entirely).
    pub fn every(period: u64) -> Self {
        assert!(period >= 2, "puncture period must be at least 2");
        PuncturePlan {
            class: None,
            period,
        }
    }

    /// Punctures one in `period` parities of a single class.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2`.
    pub fn every_in_class(class: StrandClass, period: u64) -> Self {
        assert!(period >= 2, "puncture period must be at least 2");
        PuncturePlan {
            class: Some(class),
            period,
        }
    }

    /// Whether the parity `edge` is stored under this plan.
    pub fn is_stored(&self, edge: EdgeId) -> bool {
        if self.period == 0 {
            return true;
        }
        if let Some(c) = self.class {
            if edge.class != c {
                return true;
            }
        }
        !edge.left.0.is_multiple_of(self.period)
    }

    /// Fraction of parities dropped for a code with `cfg`'s α.
    pub fn drop_fraction(&self, cfg: &Config) -> f64 {
        if self.period == 0 {
            return 0.0;
        }
        let per_class = 1.0 / self.period as f64;
        match self.class {
            Some(c) if !cfg.classes().contains(&c) => 0.0,
            Some(_) => per_class / cfg.alpha() as f64,
            None => per_class,
        }
    }

    /// Effective additional storage after puncturing, as a percentage
    /// (the unpunctured value is `α · 100`, Table IV).
    pub fn effective_overhead_pct(&self, cfg: &Config) -> f64 {
        cfg.alpha() as f64 * 100.0 * (1.0 - self.drop_fraction(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{BlockMap, Code};
    use ae_api::RedundancyScheme;
    use ae_blocks::{Block, BlockId, NodeId};

    #[test]
    fn none_stores_everything() {
        let plan = PuncturePlan::none();
        for i in 1..100 {
            assert!(plan.is_stored(EdgeId::new(StrandClass::Horizontal, NodeId(i))));
        }
        assert_eq!(plan.drop_fraction(&Config::single()), 0.0);
        assert_eq!(plan.effective_overhead_pct(&Config::single()), 100.0);
    }

    #[test]
    fn every_drops_expected_fraction() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let plan = PuncturePlan::every(4);
        let stored = (1..=1000u64)
            .filter(|&i| plan.is_stored(EdgeId::new(StrandClass::Horizontal, NodeId(i))))
            .count();
        assert_eq!(stored, 750);
        assert!((plan.drop_fraction(&cfg) - 0.25).abs() < 1e-12);
        assert!((plan.effective_overhead_pct(&cfg) - 225.0).abs() < 1e-9);
    }

    #[test]
    fn class_restricted_puncturing() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let plan = PuncturePlan::every_in_class(StrandClass::LeftHanded, 2);
        assert!(plan.is_stored(EdgeId::new(StrandClass::Horizontal, NodeId(4))));
        assert!(!plan.is_stored(EdgeId::new(StrandClass::LeftHanded, NodeId(4))));
        assert!(plan.is_stored(EdgeId::new(StrandClass::LeftHanded, NodeId(5))));
        // One class of three, half punctured: 1/6 of all parities.
        assert!((plan.drop_fraction(&cfg) - 1.0 / 6.0).abs() < 1e-12);
        // Puncturing a class the code does not have drops nothing.
        let cfg2 = Config::new(2, 2, 5).unwrap();
        assert_eq!(plan.drop_fraction(&cfg2), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_period() {
        PuncturePlan::every(1);
    }

    /// A punctured lattice still repairs single data-block failures: the
    /// decoder reconstructs through strands whose parities survived.
    #[test]
    fn punctured_lattice_survives_single_failures() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let code = Code::new(cfg, 8);
        let plan = PuncturePlan::every_in_class(StrandClass::LeftHanded, 2);

        let store = BlockMap::new();
        let mut enc = code.entangler();
        for k in 0..200u64 {
            let out = enc.entangle(Block::from_vec(vec![k as u8; 8])).unwrap();
            store.insert(BlockId::Data(out.node), out.data.clone());
            for (e, b) in &out.parities {
                if plan.is_stored(*e) {
                    store.insert(BlockId::Parity(*e), b.clone());
                }
            }
        }

        // Every interior data block must still be repairable alone.
        for i in 20..180u64 {
            let id = BlockId::Data(NodeId(i));
            let original = store.remove(&id).unwrap();
            let repaired = code
                .repair_block(&store, id, 200)
                .unwrap_or_else(|e| panic!("d{i} must repair via a surviving strand: {e}"));
            assert_eq!(repaired, original);
            store.insert(id, original);
        }
    }
}
