//! Reed-Solomon stripes (`Scheme::Rs`) on the availability plane: 100k
//! data blocks in `100k / k` stripes of `k + m`. A stripe with more than
//! `m` unavailable blocks is *damaged* and its unavailable data blocks are
//! lost ("other available data blocks that belong to damaged stripes are
//! not counted as lost", §V.C.1).

mod tests {
    use crate::experiments::{fig13_share, plane, Env};
    use crate::scheme_plane::{FullRepairOutcome, SchemePlane};
    use crate::Scheme;

    fn sim_at(k: u32, m: u32, locations: u32) -> SchemePlane {
        let env = Env {
            data_blocks: 100_000,
            locations,
            placement_seed: 42,
            ..Env::paper()
        };
        plane(Scheme::Rs { k, m }, &env)
    }

    fn sim(k: u32, m: u32) -> SchemePlane {
        sim_at(k, m, 100)
    }

    /// A fresh disaster on `plane`, repaired to fixpoint.
    fn run_disaster(plane: &mut SchemePlane, fraction: f64, seed: u64) -> FullRepairOutcome {
        plane.heal_all();
        plane.inject_disaster(fraction, seed);
        plane.repair_full()
    }

    /// The same disaster under minimal maintenance: the Fig 12 metric.
    fn vulnerable_after(plane: &mut SchemePlane, fraction: f64, seed: u64) -> u64 {
        plane.heal_all();
        plane.inject_disaster(fraction, seed);
        plane.repair_minimal().vulnerable_data
    }

    /// Distribution quality diagnostic: the share of stripes with all
    /// `width` blocks on distinct locations (the paper reports 38,429 of
    /// 100,000 for RS(10,4) at n = 100, §V.C "Block Placements").
    fn fully_spread_share(plane: &SchemePlane, width: usize) -> f64 {
        // Members of a stripe occupy a contiguous run of the universe.
        let members = plane.scheme().block_ids(plane.data_blocks());
        let spread = |stripe: &&[ae_blocks::BlockId]| {
            let mut seen = std::collections::HashSet::new();
            stripe
                .iter()
                .all(|&id| seen.insert(plane.location_of(id).expect("universe block")))
        };
        let stripes = members.chunks(width);
        let total = stripes.len();
        stripes.filter(spread).count() as f64 / total as f64
    }

    #[test]
    fn no_disaster_no_loss() {
        let mut s = sim(10, 4);
        let out = run_disaster(&mut s, 0.0, 1);
        assert_eq!(out.data_lost, 0);
        assert_eq!(out.data_repaired(), 0);
        assert_eq!(s.missing_counts(), (0, 0));
        assert_eq!(vulnerable_after(&mut s, 0.0, 1), 0);
    }

    #[test]
    fn stripe_counts_match_paper_shapes() {
        let stripes = |k, m| sim(k, m).total_blocks() / u64::from(k + m);
        assert_eq!(stripes(10, 4), 10_000);
        assert_eq!(stripes(8, 2), 12_500);
        assert_eq!(stripes(5, 5), 20_000);
        assert_eq!(stripes(4, 12), 25_000);
    }

    #[test]
    fn fully_spread_fraction_is_partial_at_n100() {
        // The paper: at n = 100 only ~38% of RS(10,4) stripes have all 14
        // blocks on distinct locations.
        let frac = fully_spread_share(&sim(10, 4), 14);
        assert!((0.3..0.5).contains(&frac), "fraction {frac}");
    }

    /// §V.C: "91,167 stripes had their 14 blocks in different locations
    /// with n = 1,000" — i.e. ~91% (the binomial expectation
    /// Π(1 − i/1000) ≈ 0.913), versus ~38% at n = 100.
    #[test]
    fn spread_fraction_improves_with_more_locations() {
        let frac = fully_spread_share(&sim_at(10, 4, 1_000), 14);
        assert!((0.89..0.94).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn bigger_disasters_lose_more() {
        let mut s = sim(8, 2);
        let small = run_disaster(&mut s, 0.1, 7).data_lost;
        let large = run_disaster(&mut s, 0.4, 7).data_lost;
        assert!(large > small);
    }

    #[test]
    fn single_failure_share_drops_with_disaster_size() {
        let mut s = sim(4, 12);
        // Singles are counted on the disaster state, before the repair.
        let mut share = |fraction| {
            s.heal_all();
            s.inject_disaster(fraction, 5);
            let singles = s.single_failures();
            fig13_share(singles, &s.repair_full())
        };
        let small = share(0.1);
        let large = share(0.5);
        assert!(
            small > large,
            "single-failure share decreases for larger disasters (Fig 13)"
        );
    }

    #[test]
    fn vulnerable_data_grows_with_disaster() {
        let mut s = sim(10, 4);
        let v10 = vulnerable_after(&mut s, 0.1, 9);
        let v40 = vulnerable_after(&mut s, 0.4, 9);
        assert!(v40 > v10);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut s = sim(5, 5);
        assert_eq!(run_disaster(&mut s, 0.3, 11), run_disaster(&mut s, 0.3, 11));
    }
}
