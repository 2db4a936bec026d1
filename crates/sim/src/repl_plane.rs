//! n-way replication (`Scheme::Replication`) on the availability plane:
//! a block is lost when all copies sit on failed locations, vulnerable
//! when exactly one survives ("not protected by any other redundant
//! block").

mod tests {
    use crate::experiments::{plane, replica_census, Env};
    use crate::scheme_plane::SchemePlane;
    use crate::Scheme;

    /// An `n`-way plane of `blocks` blocks, already hit by the disaster.
    fn struck(n: u32, blocks: u64, placement_seed: u64, fraction: f64, seed: u64) -> SchemePlane {
        let env = Env {
            data_blocks: blocks,
            placement_seed,
            ..Env::paper()
        };
        let mut plane = plane(Scheme::Replication { n }, &env);
        plane.inject_disaster(fraction, seed);
        plane
    }

    #[test]
    fn loss_scales_with_copy_count() {
        let blocks = 200_000;
        let losses: Vec<u64> = [2, 3, 4]
            .into_iter()
            .map(|n| struck(n, blocks, 5, 0.3, 9).repair_full().data_lost)
            .collect();
        assert!(losses[0] > losses[1] && losses[1] > losses[2], "{losses:?}");
        // 2-way at 30%: expect ≈ 0.3² = 9% of blocks.
        let frac = losses[0] as f64 / blocks as f64;
        assert!((0.07..0.11).contains(&frac), "2-way loss fraction {frac}");
    }

    #[test]
    fn vulnerable_matches_binomial_expectation() {
        let blocks = 200_000u64;
        let (one_survivor, _) = replica_census(&struck(2, blocks, 7, 0.3, 3), 2);
        // Exactly one of two copies failed: 2·0.3·0.7 = 42%.
        let frac = one_survivor as f64 / blocks as f64;
        assert!((0.38..0.46).contains(&frac), "vulnerable fraction {frac}");
    }

    #[test]
    fn no_disaster_all_healthy() {
        let mut plane = struck(3, 10_000, 1, 0.0, 1);
        assert_eq!(replica_census(&plane, 3), (0, 0));
        let out = plane.repair_full();
        assert_eq!((out.data_lost, out.round_count()), (0, 0));
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut plane = struck(4, 50_000, 2, 0.2, 8);
            (replica_census(&plane, 4), plane.repair_full())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_copy() {
        Scheme::Replication { n: 1 }.build(0);
    }
}
