//! Dynamic fault tolerance: raising α without re-encoding.
//!
//! "Alpha entanglements permit changes in the parameters without the need to
//! encode the content again. This property opens the possibility of a
//! dynamic fault-tolerance, which is an interesting feature for long-term
//! storage systems" (§I); §III suggests "start with a low α and increase the
//! value later as required".
//!
//! This works because each strand class is computed independently from the
//! data stream: the horizontal parities of AE(2,s,p) are byte-identical to
//! those of AE(3,s,p), so adding the left-handed class only requires
//! streaming the data blocks once and storing the new parities. Existing
//! blocks are untouched.

use crate::encoder::Entangler;
use ae_blocks::{Block, BlockError, EdgeId};
use ae_lattice::Config;
use std::fmt;

/// Errors from an upgrade request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpgradeError {
    /// α may only increase; re-encoding would otherwise be required.
    AlphaNotIncreased {
        /// Current α.
        from: u8,
        /// Requested α.
        to: u8,
    },
    /// The strand geometry (s, and p when helical classes already exist)
    /// must be preserved, or existing parities become invalid.
    GeometryChanged {
        /// Current configuration.
        from: Config,
        /// Requested configuration.
        to: Config,
    },
    /// A data block failed to entangle (size mismatch).
    Block(BlockError),
}

impl fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpgradeError::AlphaNotIncreased { from, to } => {
                write!(f, "upgrade must increase alpha, got {from} -> {to}")
            }
            UpgradeError::GeometryChanged { from, to } => {
                write!(f, "upgrade may not change strand geometry: {from} -> {to}")
            }
            UpgradeError::Block(e) => write!(f, "upgrade failed on a block: {e}"),
        }
    }
}

impl std::error::Error for UpgradeError {}

impl From<BlockError> for UpgradeError {
    fn from(e: BlockError) -> Self {
        UpgradeError::Block(e)
    }
}

/// Validates that `to` is reachable from `from` without re-encoding:
/// α strictly increases, `s` is unchanged, and `p` is unchanged whenever
/// `from` already has helical strands.
pub fn validate(from: &Config, to: &Config) -> Result<(), UpgradeError> {
    if to.alpha() <= from.alpha() {
        return Err(UpgradeError::AlphaNotIncreased {
            from: from.alpha(),
            to: to.alpha(),
        });
    }
    let geometry_ok = from.s() == to.s() && (from.alpha() == 1 || from.p() == to.p());
    if !geometry_ok {
        return Err(UpgradeError::GeometryChanged {
            from: *from,
            to: *to,
        });
    }
    Ok(())
}

/// Streams the data blocks of an existing lattice (positions 1, 2, … in
/// order) and produces the parities of the strand classes present in `to`
/// but not in `from`. Existing data and parity blocks are untouched.
///
/// # Errors
///
/// Fails if the upgrade is invalid (see [`validate`]) or a block has the
/// wrong size.
pub fn upgrade_parities(
    from: &Config,
    to: &Config,
    block_size: usize,
    data: impl IntoIterator<Item = Block>,
) -> Result<Vec<(EdgeId, Block)>, UpgradeError> {
    validate(from, to)?;
    let old_classes = from.classes();
    // Run a full encoder for the new configuration and keep only the new
    // classes' parities. The XOR work for old classes is redundant but
    // correctness-critical paths stay identical to the primary encoder.
    let mut enc = Entangler::new(*to, block_size);
    let mut out = Vec::new();
    for block in data {
        let produced = enc.entangle(block)?;
        for (edge, parity) in produced.parities {
            if !old_classes.contains(&edge.class) {
                out.push((edge, parity));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_api::RedundancyScheme;
    use ae_blocks::{BlockId, NodeId};

    fn data(n: u64, len: usize) -> Vec<Block> {
        (0..n)
            .map(|k| {
                Block::from_vec(
                    (0..len)
                        .map(|b| (k as u8).wrapping_mul(7).wrapping_add(b as u8))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn validation_rules() {
        let ae1 = Config::single();
        let ae2 = Config::new(2, 1, 3).unwrap();
        let ae3 = Config::new(3, 1, 3).unwrap();
        let ae3_other_p = Config::new(3, 1, 4).unwrap();
        let ae2_s2 = Config::new(2, 2, 3).unwrap();

        assert!(validate(&ae1, &ae2).is_ok(), "AE(1) -> AE(2,1,p) adds RH");
        assert!(validate(&ae2, &ae3).is_ok(), "AE(2) -> AE(3) same geometry");
        assert!(matches!(
            validate(&ae2, &ae2),
            Err(UpgradeError::AlphaNotIncreased { .. })
        ));
        assert!(matches!(
            validate(&ae3, &ae2),
            Err(UpgradeError::AlphaNotIncreased { .. })
        ));
        assert!(matches!(
            validate(&ae2, &ae3_other_p),
            Err(UpgradeError::GeometryChanged { .. })
        ));
        assert!(matches!(
            validate(&ae1, &ae2_s2),
            Err(UpgradeError::GeometryChanged { .. })
        ));
    }

    /// Upgrading AE(2,2,5) to AE(3,2,5): existing H and RH parities stay
    /// byte-identical; the produced LH parities equal a from-scratch
    /// AE(3,2,5) encoding.
    #[test]
    fn upgrade_produces_exactly_the_missing_class() {
        let from = Config::new(2, 2, 5).unwrap();
        let to = Config::new(3, 2, 5).unwrap();
        let blocks = data(150, 16);

        // From-scratch AE(3,2,5) encoding as ground truth.
        let truth = ae_api::BlockMap::new();
        let mut enc3 = Entangler::new(to, 16);
        for b in &blocks {
            enc3.entangle(b.clone()).unwrap().insert_into(&truth);
        }

        let new_parities = upgrade_parities(&from, &to, 16, blocks.clone()).unwrap();
        assert_eq!(new_parities.len(), 150, "one LH parity per data block");
        for (edge, parity) in &new_parities {
            assert_eq!(edge.class, ae_blocks::StrandClass::LeftHanded);
            assert_eq!(
                truth.get(&BlockId::Parity(*edge)).as_ref(),
                Some(parity),
                "{edge:?}"
            );
        }

        // Old H/RH parities are already identical between AE(2) and AE(3).
        let mut enc2 = Entangler::new(from, 16);
        for (k, b) in blocks.iter().enumerate() {
            let out2 = enc2.entangle(b.clone()).unwrap();
            for (edge, parity) in &out2.parities {
                assert_eq!(
                    truth.get(&BlockId::Parity(*edge)).as_ref(),
                    Some(parity),
                    "block {k} class {}",
                    edge.class
                );
            }
        }
    }

    /// After an upgrade the store behaves as a native AE(3) lattice:
    /// a data block survives the loss of both its old-class tuples.
    #[test]
    fn upgraded_lattice_gains_fault_tolerance() {
        use crate::code::Code;
        use ae_blocks::{EdgeId, StrandClass};

        let from = Config::new(2, 1, 2).unwrap();
        let to = Config::new(3, 1, 2).unwrap();
        let blocks = data(60, 8);

        let store = ae_api::BlockMap::new();
        let mut enc = Entangler::new(from, 8);
        for b in &blocks {
            enc.entangle(b.clone()).unwrap().insert_into(&store);
        }
        for (e, p) in upgrade_parities(&from, &to, 8, blocks.clone()).unwrap() {
            store.insert(BlockId::Parity(e), p);
        }

        // Destroy d30 and its H and RH output parities: before the upgrade
        // this could be fatal; with LH present it repairs.
        let code = Code::new(to, 8);
        let original = store.remove(&BlockId::Data(NodeId(30))).unwrap();
        store.remove(&BlockId::Parity(EdgeId::new(
            StrandClass::Horizontal,
            NodeId(30),
        )));
        store.remove(&BlockId::Parity(EdgeId::new(
            StrandClass::RightHanded,
            NodeId(30),
        )));
        let repaired = code
            .repair_block(&store, BlockId::Data(NodeId(30)), 60)
            .unwrap();
        assert_eq!(repaired, original);
    }

    #[test]
    fn upgrade_propagates_block_errors() {
        let from = Config::single();
        let to = Config::new(2, 1, 1).unwrap();
        let result = upgrade_parities(&from, &to, 8, vec![Block::zero(9)]);
        assert!(matches!(result, Err(UpgradeError::Block(_))));
    }

    #[test]
    fn error_display() {
        let e = UpgradeError::AlphaNotIncreased { from: 3, to: 2 };
        assert!(e.to_string().contains("increase"));
        let e = UpgradeError::GeometryChanged {
            from: Config::single(),
            to: Config::new(2, 2, 2).unwrap(),
        };
        assert!(e.to_string().contains("geometry"));
    }
}
