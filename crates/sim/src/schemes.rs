//! The scheme roster: the redundancy schemes compared in the paper
//! (Table IV) plus the two §IV use-case schemes, each instantiable as a
//! boxed [`RedundancyScheme`] via [`Scheme::build`] so that planes, parity
//! harnesses and binaries drive every scenario through the same generic
//! machinery.

use ae_api::RedundancyScheme;
use ae_baselines::{ReedSolomon, Replication};
use ae_core::Code;
use ae_lattice::Config;
use ae_store::{ChainMode, EntangledChain, GeoLattice};
use std::fmt;

/// A redundancy scheme with the cost model of Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Alpha entanglement AE(α, s, p).
    Ae(Config),
    /// Reed-Solomon RS(k, m).
    Rs {
        /// Data shards per stripe.
        k: u32,
        /// Parity shards per stripe.
        m: u32,
    },
    /// n-way replication.
    Replication {
        /// Copies, original included.
        n: u32,
    },
    /// The α = 1 entangled mirror chain of §IV.B.1 (`ae_store`'s
    /// [`EntangledChain`]): mirroring's storage bill, open or closed.
    Chain {
        /// Chain shape; open chains expose the §IV.B.1 extremity pair.
        mode: ChainMode,
    },
    /// One user's namespaced lattice in the §IV.A cooperative backup
    /// (`ae_store`'s [`GeoLattice`]).
    Geo {
        /// The user's code.
        cfg: Config,
        /// Namespace owner (tags every block id).
        user: u64,
    },
}

impl Scheme {
    /// The seven non-trivial schemes of Table IV, in the paper's column
    /// order, followed by the replication baselines.
    pub fn paper_lineup() -> Vec<Scheme> {
        vec![
            Scheme::Rs { k: 10, m: 4 },
            Scheme::Rs { k: 8, m: 2 },
            Scheme::Rs { k: 5, m: 5 },
            Scheme::Rs { k: 4, m: 12 },
            Scheme::Ae(Config::single()),
            Scheme::Ae(Config::new(2, 2, 5).expect("valid paper setting")),
            Scheme::Ae(Config::new(3, 2, 5).expect("valid paper setting")),
            Scheme::Replication { n: 2 },
            Scheme::Replication { n: 3 },
            Scheme::Replication { n: 4 },
        ]
    }

    /// The paper lineup plus the §IV use-case schemes: the open and closed
    /// mirror chains (§IV.B.1) and a namespaced geo lattice (§IV.A).
    pub fn extended_lineup() -> Vec<Scheme> {
        let mut all = Self::paper_lineup();
        all.push(Scheme::Chain {
            mode: ChainMode::Open,
        });
        all.push(Scheme::Chain {
            mode: ChainMode::Closed,
        });
        all.push(Scheme::Geo {
            cfg: Config::new(3, 2, 5).expect("valid paper setting"),
            user: 3,
        });
        all
    }

    /// Instantiates the scheme as a boxed [`RedundancyScheme`] — the one
    /// constructor every plane, harness and binary goes through. Block
    /// size 0 is fine for availability-plane use.
    pub fn build(&self, block_size: usize) -> Box<dyn RedundancyScheme> {
        match *self {
            Scheme::Ae(cfg) => Box::new(Code::new(cfg, block_size)),
            Scheme::Rs { k, m } => {
                Box::new(ReedSolomon::new(k as usize, m as usize).expect("valid RS setting"))
            }
            Scheme::Replication { n } => Box::new(Replication::new(n as usize)),
            Scheme::Chain { mode } => Box::new(EntangledChain::new(mode, block_size)),
            Scheme::Geo { cfg, user } => {
                Box::new(GeoLattice::new(Code::new(cfg, block_size), user))
            }
        }
    }

    /// Additional storage as a percentage of the original data (Table IV's
    /// "AS" row): `m/k · 100` for RS, `α · 100` for AE (and the geo
    /// lattice), `(n−1) · 100` for replication, mirroring's 100% for the
    /// chains.
    pub fn additional_storage_pct(&self) -> f64 {
        match self {
            Scheme::Ae(cfg) | Scheme::Geo { cfg, .. } => cfg.storage_overhead_pct() as f64,
            Scheme::Rs { k, m } => *m as f64 / *k as f64 * 100.0,
            Scheme::Replication { n } => (*n as f64 - 1.0) * 100.0,
            Scheme::Chain { .. } => 100.0,
        }
    }

    /// Blocks read to repair one missing block (Table IV's "SF" row):
    /// `k` for RS, always 2 for entanglements (chains included), 1 for
    /// replication.
    pub fn single_failure_reads(&self) -> u32 {
        match self {
            Scheme::Ae(_) | Scheme::Geo { .. } | Scheme::Chain { .. } => {
                Config::SINGLE_FAILURE_READS
            }
            Scheme::Rs { k, .. } => *k,
            Scheme::Replication { .. } => 1,
        }
    }

    /// Blocks at a chain extremity left with a single repair tuple (the
    /// §IV.B.1 open-chain weakness); zero everywhere else. Matches
    /// [`ae_api::RepairCost::extremity_exposed`].
    pub fn extremity_exposed(&self) -> u32 {
        match self {
            Scheme::Chain {
                mode: ChainMode::Open,
            } => 2,
            _ => 0,
        }
    }

    /// Paper-style name: `RS(10,4)`, `AE(3,2,5)`, `3-way replic.`,
    /// `chain(open)`, `geo[u3] AE(3,2,5)` — identical to the built
    /// scheme's `scheme_name`.
    pub fn name(&self) -> String {
        match self {
            Scheme::Ae(cfg) => cfg.name(),
            Scheme::Rs { k, m } => format!("RS({k},{m})"),
            Scheme::Replication { n } => format!("{n}-way replic."),
            Scheme::Chain { mode } => format!("chain({mode})"),
            Scheme::Geo { cfg, user } => format!("geo[u{user}] {}", cfg.name()),
        }
    }

    /// Encoded (redundant) blocks generated for `data_blocks` data blocks,
    /// e.g. "RS(10,4) generates 400,000 encoded blocks" for one million
    /// (§V.C "Simulation Environment").
    pub fn encoded_blocks(&self, data_blocks: u64) -> u64 {
        match self {
            Scheme::Ae(cfg) | Scheme::Geo { cfg, .. } => data_blocks * cfg.alpha() as u64,
            Scheme::Rs { k, m } => data_blocks / *k as u64 * *m as u64,
            Scheme::Replication { n } => data_blocks * (*n as u64 - 1),
            Scheme::Chain { mode } => match mode {
                ChainMode::Open => data_blocks,
                ChainMode::Closed => data_blocks + 1, // the closing parity
            },
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every "AS" and "SF" entry of Table IV.
    #[test]
    fn table_iv_costs() {
        let expected: [(&str, f64, u32); 10] = [
            ("RS(10,4)", 40.0, 10),
            ("RS(8,2)", 25.0, 8),
            ("RS(5,5)", 100.0, 5),
            ("RS(4,12)", 300.0, 4),
            ("AE(1,-,-)", 100.0, 2),
            ("AE(2,2,5)", 200.0, 2),
            ("AE(3,2,5)", 300.0, 2),
            ("2-way replic.", 100.0, 1),
            ("3-way replic.", 200.0, 1),
            ("4-way replic.", 300.0, 1),
        ];
        for (scheme, (name, storage, sf)) in Scheme::paper_lineup().iter().zip(expected) {
            assert_eq!(scheme.name(), name);
            assert!(
                (scheme.additional_storage_pct() - storage).abs() < 1e-9,
                "{name} AS"
            );
            assert_eq!(scheme.single_failure_reads(), sf, "{name} SF");
        }
    }

    /// The encoded-block counts quoted in §V.C.
    #[test]
    fn encoded_block_counts_match_paper() {
        let m = 1_000_000;
        assert_eq!(Scheme::Rs { k: 10, m: 4 }.encoded_blocks(m), 400_000);
        assert_eq!(Scheme::Rs { k: 8, m: 2 }.encoded_blocks(m), 250_000);
        assert_eq!(Scheme::Rs { k: 5, m: 5 }.encoded_blocks(m), 1_000_000);
        assert_eq!(
            Scheme::Ae(Config::new(3, 2, 5).unwrap()).encoded_blocks(m),
            3_000_000
        );
        assert_eq!(Scheme::Replication { n: 4 }.encoded_blocks(m), 3_000_000);
    }

    #[test]
    fn display_matches_name() {
        let s = Scheme::Rs { k: 5, m: 5 };
        assert_eq!(format!("{s}"), s.name());
    }

    /// Every roster entry builds to a scheme whose self-description and
    /// cost model agree with the roster's — the roster is the one source
    /// of truth binaries print from.
    #[test]
    fn extended_lineup_builds_and_costs_agree() {
        let lineup = Scheme::extended_lineup();
        assert_eq!(lineup.len(), 13, "paper lineup + 2 chains + geo");
        for s in lineup {
            let built = s.build(0);
            assert_eq!(built.scheme_name(), s.name());
            let cost = built.repair_cost();
            assert_eq!(cost.single_failure_reads, s.single_failure_reads(), "{s}");
            assert!(
                (cost.additional_storage_pct - s.additional_storage_pct()).abs() < 1e-9,
                "{s}"
            );
            assert_eq!(cost.extremity_exposed, s.extremity_exposed(), "{s}");
        }
    }

    /// Only the open chain exposes an extremity; the roster distinguishes
    /// the chain modes in Table IV-style reports.
    #[test]
    fn open_and_closed_chains_are_distinguished() {
        let open = Scheme::Chain {
            mode: ChainMode::Open,
        };
        let closed = Scheme::Chain {
            mode: ChainMode::Closed,
        };
        assert_ne!(open.name(), closed.name());
        assert_eq!(open.extremity_exposed(), 2);
        assert_eq!(closed.extremity_exposed(), 0);
        assert_eq!(open.encoded_blocks(1000), 1000);
        assert_eq!(closed.encoded_blocks(1000), 1001);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Every roster scheme's `is_repairable` is monotone in its
        /// oracle: for random availability sets A ⊆ B, a block repairable
        /// under A is repairable under B. The plane's settled set rests on
        /// it (`RedundancyScheme::is_repairable`'s contract).
        #[test]
        fn is_repairable_is_monotone_in_the_oracle(
            pick in 0usize..13,
            data_blocks in 1u64..=120,
            seed: u64,
            a_pct in 0u64..=100,
            extra_pct in 0u64..=100,
        ) {
            use ae_api::mix64;
            use ae_blocks::BlockId;
            let scheme = Scheme::extended_lineup()[pick].build(0);
            let in_a = |k: u32| mix64(u64::from(k), seed) % 100 < a_pct;
            let in_b = |k: u32| in_a(k) || mix64(u64::from(k), !seed) % 100 < extra_pct;
            let oracle = |member: &dyn Fn(u32) -> bool, id: BlockId| {
                scheme.dense_index(&id, data_blocks).is_some_and(member)
            };
            for k in 0..scheme.universe_len(data_blocks) as u32 {
                let id = scheme.block_at(k, data_blocks).expect("inside the universe");
                let under_a = scheme.is_repairable(id, data_blocks, &|v| oracle(&in_a, v));
                let under_b = scheme.is_repairable(id, data_blocks, &|v| oracle(&in_b, v));
                proptest::prop_assert!(
                    !under_a || under_b,
                    "{}: {id} repairable under A, not under B ⊇ A",
                    scheme.scheme_name()
                );
            }
        }

        /// Every roster scheme's single failure (Fig 13) is repairable
        /// under the same random oracle, at every position: the plane
        /// counts singles on the disaster state and relies on the first
        /// repair round to rebuild them all
        /// (`RedundancyScheme::is_single_failure`'s contract).
        #[test]
        fn a_single_failure_is_repairable(
            pick in 0usize..13,
            data_blocks in 1u64..=120,
            seed: u64,
            present_pct in 0u64..=100,
        ) {
            use ae_api::mix64;
            let scheme = Scheme::extended_lineup()[pick].build(0);
            let avail = |id: ae_blocks::BlockId| {
                scheme
                    .dense_index(&id, data_blocks)
                    .is_some_and(|k| mix64(u64::from(k), seed) % 100 < present_pct)
            };
            for k in 0..scheme.universe_len(data_blocks) as u32 {
                let id = scheme.block_at(k, data_blocks).expect("inside the universe");
                proptest::prop_assert!(
                    !scheme.is_single_failure(id, data_blocks, &avail)
                        || scheme.is_repairable(id, data_blocks, &avail),
                    "{}: {id} is a single failure but not repairable",
                    scheme.scheme_name()
                );
            }
        }

        /// `RedundancyScheme::repair_group`'s contract on every roster
        /// scheme, with a partial final stripe (`data_blocks` is never a
        /// multiple of an RS `k`): under a random oracle, the missing
        /// members of one group get the same `is_repairable` and the same
        /// `is_single_failure` answer. Reed-Solomon groups exactly the ids
        /// it stores, each by its stripe; padding past the extent, shards
        /// past the last stripe and every other scheme's ids answer
        /// `None`. Every other roster scheme answers `None` throughout.
        #[test]
        fn missing_members_of_a_repair_group_answer_alike(
            pick in 0usize..13,
            full_stripes in 0u64..12,
            tail: u64,
            seed: u64,
            present_pct in 0u64..=100,
        ) {
            use ae_api::mix64;
            use ae_blocks::{BlockId, NodeId, ShardId};
            use proptest::{prop_assert, prop_assert_eq};
            let roster = Scheme::extended_lineup()[pick];
            let scheme = roster.build(0);
            let (k, m) = match roster {
                Scheme::Rs { k, m } => (u64::from(k), m as u16),
                _ => (10, 4),
            };
            let data_blocks = full_stripes * k + 1 + tail % (k - 1);
            let avail = |id: BlockId| {
                scheme
                    .dense_index(&id, data_blocks)
                    .is_some_and(|q| mix64(u64::from(q), seed) % 100 < present_pct)
            };
            let mut answers = std::collections::HashMap::new();
            for q in 0..scheme.universe_len(data_blocks) as u32 {
                let id = scheme.block_at(q, data_blocks).expect("inside the universe");
                let group = scheme.repair_group(&id, data_blocks);
                let Scheme::Rs { .. } = roster else {
                    prop_assert_eq!(group, None, "{}: {}", scheme.scheme_name(), id);
                    continue;
                };
                let stripe = match id {
                    BlockId::Data(NodeId(i)) => (i - 1) / k,
                    BlockId::Shard(s) => s.stripe,
                    _ => unreachable!("RS stores data and shards"),
                };
                prop_assert_eq!(group, Some(stripe), "{}: {}", scheme.scheme_name(), id);
                if avail(id) {
                    continue;
                }
                let answer = (
                    scheme.is_repairable(id, data_blocks, &avail),
                    scheme.is_single_failure(id, data_blocks, &avail),
                );
                let first = *answers.entry(stripe).or_insert(answer);
                prop_assert_eq!(
                    first,
                    answer,
                    "{}: {} in stripe {}",
                    scheme.scheme_name(),
                    id,
                    stripe
                );
            }
            // Ids the scheme does not store: the padding of the partial
            // stripe, data position 0, shards past the last stripe or past
            // `m`, and the universes of every roster scheme.
            let stripes = data_blocks.div_ceil(k);
            let mut unstored: Vec<BlockId> = (data_blocks + 1..=stripes * k)
                .chain([0])
                .map(|i| BlockId::Data(NodeId(i)))
                .collect();
            unstored.push(BlockId::Shard(ShardId { stripe: stripes, index: 0 }));
            unstored.push(BlockId::Shard(ShardId { stripe: 0, index: m }));
            for other in Scheme::extended_lineup() {
                unstored.extend(other.build(0).block_ids(data_blocks));
            }
            for id in unstored {
                if scheme.dense_index(&id, data_blocks).is_none() {
                    prop_assert_eq!(
                        scheme.repair_group(&id, data_blocks),
                        None,
                        "{}: {} is not stored",
                        scheme.scheme_name(),
                        id
                    );
                }
            }
            prop_assert!(!data_blocks.is_multiple_of(k));
        }
    }
}
