//! Validated AE(α, s, p) code parameters.

use ae_blocks::StrandClass;
use std::fmt;

/// Errors from invalid code parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// α must be 1, 2 or 3 (the paper leaves α > 3 open).
    AlphaOutOfRange(u8),
    /// Single entanglements are defined only for s = 1, p = 0 (§III.B).
    SingleEntanglementShape {
        /// The rejected `s`.
        s: u16,
        /// The rejected `p`.
        p: u16,
    },
    /// For α ≥ 2 the lattice is valid only when p ≥ s ≥ 1; p < s causes a
    /// deformed lattice (§III.B "Code Parameters").
    DeformedLattice {
        /// The rejected `s`.
        s: u16,
        /// The rejected `p`.
        p: u16,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::AlphaOutOfRange(a) => {
                write!(f, "alpha must be in 1..=3, got {a}")
            }
            ConfigError::SingleEntanglementShape { s, p } => write!(
                f,
                "single entanglements (alpha = 1) require s = 1 and p = 0, got s = {s}, p = {p}"
            ),
            ConfigError::DeformedLattice { s, p } => write!(
                f,
                "alpha >= 2 requires p >= s >= 1 (p < s deforms the lattice), got s = {s}, p = {p}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated parameters of an AE(α, s, p) code.
///
/// * `alpha` — parities created per data block; also the number of strands
///   each data block participates in. Determines the code rate `1/(α+1)`.
/// * `s` — number of horizontal strands (lattice rows).
/// * `p` — number of helical strands per helical class (lattice
///   columns/diagonals per revolution).
///
/// Tuning `s` and `p` raises fault tolerance **without** extra storage;
/// tuning `alpha` trades storage for connectivity (§III.B).
///
/// # Examples
///
/// ```
/// use ae_lattice::Config;
///
/// let cfg = Config::new(3, 2, 5).unwrap();       // AE(3,2,5), the 5-HEC code
/// assert_eq!(cfg.storage_overhead_pct(), 300);
/// assert_eq!(cfg.strand_count(), 2 + 2 * 5);
/// assert!((cfg.code_rate() - 0.25).abs() < 1e-9);
///
/// assert!(Config::new(2, 5, 3).is_err());        // p < s: deformed lattice
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    alpha: u8,
    s: u16,
    p: u16,
}

impl Config {
    /// Validates and builds a configuration.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for the constraints.
    pub fn new(alpha: u8, s: u16, p: u16) -> Result<Self, ConfigError> {
        if !(1..=3).contains(&alpha) {
            return Err(ConfigError::AlphaOutOfRange(alpha));
        }
        if alpha == 1 {
            if s != 1 || p != 0 {
                return Err(ConfigError::SingleEntanglementShape { s, p });
            }
        } else if s < 1 || p < s {
            return Err(ConfigError::DeformedLattice { s, p });
        }
        Ok(Config { alpha, s, p })
    }

    /// The single-entanglement code AE(1,-,-): one horizontal chain.
    pub fn single() -> Self {
        Config {
            alpha: 1,
            s: 1,
            p: 0,
        }
    }

    /// Parities per data block.
    pub fn alpha(&self) -> u8 {
        self.alpha
    }

    /// Number of horizontal strands (rows).
    pub fn s(&self) -> u16 {
        self.s
    }

    /// Number of helical strands per helical class.
    pub fn p(&self) -> u16 {
        self.p
    }

    /// The strand classes present: `[H]`, `[H, RH]` or `[H, RH, LH]`.
    pub fn classes(&self) -> &'static [StrandClass] {
        StrandClass::for_alpha(self.alpha)
    }

    /// Total number of strands in the lattice: `s + (α − 1) · p` (§III.B).
    ///
    /// This is also the encoder's memory footprint in parities: it keeps the
    /// last parity of every strand.
    pub fn strand_count(&self) -> u32 {
        self.s as u32 + (self.alpha as u32 - 1) * self.p as u32
    }

    /// Code rate `1 / (α + 1)`: fraction of stored blocks that are data.
    pub fn code_rate(&self) -> f64 {
        1.0 / (self.alpha as f64 + 1.0)
    }

    /// Code rate for systems that only store the parities, `1 / α` (§III.B).
    pub fn parity_only_rate(&self) -> f64 {
        1.0 / self.alpha as f64
    }

    /// Additional storage as a percentage of the original data: `α · 100`
    /// (Table IV's "AS" row).
    pub fn storage_overhead_pct(&self) -> u32 {
        self.alpha as u32 * 100
    }

    /// Blocks read to repair one missing block: always 2, independent of
    /// every parameter (Table IV's "SF" row). The defining practical win of
    /// AE codes over RS(k, m), whose single-failure repair reads k blocks.
    pub const SINGLE_FAILURE_READS: u32 = 2;

    /// Whether this is the degenerate single-strand family (α = 1, and any
    /// α ≥ 2 with s = 1, whose helical strands span `p` positions along the
    /// single row).
    pub fn is_single_row(&self) -> bool {
        self.s == 1
    }

    /// Paper-style display name, e.g. `AE(3,2,5)` or `AE(1,-,-)`.
    pub fn name(&self) -> String {
        if self.alpha == 1 {
            "AE(1,-,-)".to_string()
        } else {
            format!("AE({},{},{})", self.alpha, self.s, self.p)
        }
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_settings() {
        // Every setting used in the paper's evaluation.
        for (a, s, p) in [
            (1, 1, 0),
            (2, 2, 5),
            (3, 2, 5), // 5-HEC
            (2, 1, 1),
            (3, 1, 1),
            (3, 1, 4),
            (3, 4, 4),
            (3, 5, 5),
            (3, 3, 3),
            (3, 10, 10),
        ] {
            assert!(Config::new(a, s, p).is_ok(), "AE({a},{s},{p})");
        }
    }

    #[test]
    fn rejects_invalid_settings() {
        assert_eq!(
            Config::new(0, 1, 0).unwrap_err(),
            ConfigError::AlphaOutOfRange(0)
        );
        assert_eq!(
            Config::new(4, 2, 2).unwrap_err(),
            ConfigError::AlphaOutOfRange(4)
        );
        assert!(matches!(
            Config::new(1, 2, 2).unwrap_err(),
            ConfigError::SingleEntanglementShape { .. }
        ));
        assert!(matches!(
            Config::new(2, 5, 3).unwrap_err(),
            ConfigError::DeformedLattice { s: 5, p: 3 }
        ));
        assert!(matches!(
            Config::new(2, 0, 0).unwrap_err(),
            ConfigError::DeformedLattice { .. }
        ));
    }

    #[test]
    fn derived_quantities() {
        let cfg = Config::new(3, 5, 5).unwrap();
        assert_eq!(cfg.strand_count(), 15, "AE(3,5,5) has 15 strands (§III.B)");
        assert_eq!(cfg.storage_overhead_pct(), 300);
        assert!((cfg.code_rate() - 0.25).abs() < 1e-12);
        assert!((cfg.parity_only_rate() - 1.0 / 3.0).abs() < 1e-12);

        let single = Config::single();
        assert_eq!(single.strand_count(), 1);
        assert_eq!(single.classes().len(), 1);
        assert!(single.is_single_row());
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(Config::single().name(), "AE(1,-,-)");
        assert_eq!(Config::new(2, 2, 5).unwrap().name(), "AE(2,2,5)");
        assert_eq!(format!("{}", Config::new(3, 2, 5).unwrap()), "AE(3,2,5)");
    }

    #[test]
    fn config_error_display() {
        assert!(Config::new(4, 2, 2)
            .unwrap_err()
            .to_string()
            .contains("alpha"));
        assert!(Config::new(2, 5, 3)
            .unwrap_err()
            .to_string()
            .contains("deform"));
        assert!(Config::new(1, 1, 3)
            .unwrap_err()
            .to_string()
            .contains("single"));
    }
}
