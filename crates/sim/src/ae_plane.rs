//! The AE family (`Scheme::Ae`) on the availability plane: the paper
//! shapes of Fig 11–13 and Table VI under the round-based global decoder
//! (`repair_full`, §V.C.4) and minimal maintenance (`repair_minimal`,
//! §V.C.2).

mod tests {
    use crate::experiments::{fig13_share, plane, plane_with, Env};
    use crate::scheme_plane::{SchemePlane, SimPlacement};
    use crate::Scheme;
    use ae_core::puncture::PuncturePlan;
    use ae_lattice::Config;

    fn env(n: u64) -> Env {
        Env {
            data_blocks: n,
            placement_seed: 42,
            ..Env::paper()
        }
    }

    fn sim(cfg: Config, n: u64) -> SchemePlane {
        plane(Scheme::Ae(cfg), &env(n))
    }

    fn ae325() -> Config {
        Config::new(3, 2, 5).unwrap()
    }

    #[test]
    fn disaster_marks_expected_fraction() {
        let mut s = sim(ae325(), 50_000);
        let (md, mp) = s.inject_disaster(0.2, 7);
        // ~20% of 50k data and of 150k parities.
        assert!((8_000..12_000).contains(&md), "missing data {md}");
        assert!((25_000..35_000).contains(&mp), "missing parity {mp}");
    }

    #[test]
    fn no_disaster_nothing_to_repair() {
        let mut s = sim(Config::new(2, 2, 5).unwrap(), 10_000);
        let singles = s.single_failures();
        let out = s.repair_full();
        assert_eq!(out.round_count(), 0);
        assert_eq!(out.data_lost, 0);
        assert_eq!(fig13_share(singles, &out), None);
    }

    #[test]
    fn small_disaster_fully_repairs_triple_entanglement() {
        let mut s = sim(ae325(), 50_000);
        s.inject_disaster(0.10, 3);
        let singles = s.single_failures();
        let out = s.repair_full();
        assert_eq!(out.data_lost, 0, "AE(3,2,5) shrugs off a 10% disaster");
        assert!(out.round_count() >= 1);
        // Most repairs happen in the first round (Fig 13).
        assert!(fig13_share(singles, &out).unwrap() > 0.8);
    }

    #[test]
    fn fault_tolerance_ordering_alpha() {
        // At a heavy disaster, data loss must decrease with alpha.
        let mut losses = Vec::new();
        for cfg in [Config::single(), Config::new(2, 2, 5).unwrap(), ae325()] {
            let mut s = sim(cfg, 50_000);
            s.inject_disaster(0.4, 11);
            losses.push(s.repair_full().data_lost);
        }
        assert!(
            losses[0] > losses[1],
            "AE(1) loses more than AE(2,2,5): {losses:?}"
        );
        assert!(losses[1] >= losses[2], "AE(2,2,5) >= AE(3,2,5): {losses:?}");
        assert!(
            losses[2] < losses[0] / 10,
            "AE(3,2,5) far better than AE(1)"
        );
    }

    #[test]
    fn minimal_maintenance_leaves_vulnerable_data() {
        let mut s = sim(Config::single(), 50_000);
        s.inject_disaster(0.3, 9);
        let out = s.repair_minimal();
        // With α = 1 and a 30% disaster a sizable fraction of data has an
        // incomplete tuple even after data repairs.
        let frac = out.vulnerable_data as f64 / 50_000.0;
        assert!(frac > 0.10, "vulnerable fraction {frac}");
        assert!(out.parity_repaired > 0, "tuple parities do get repaired");
    }

    #[test]
    fn minimal_repairs_fewer_parities_than_full() {
        let mut s = sim(ae325(), 30_000);
        s.inject_disaster(0.3, 13);
        let full = s.repair_full();
        s.heal_all();
        s.inject_disaster(0.3, 13);
        let minimal = s.repair_minimal();
        let full_parity = full.blocks_written() - full.data_repaired();
        assert!(
            minimal.parity_repaired < full_parity,
            "minimal {} < full {full_parity}",
            minimal.parity_repaired
        );
        // Minimal maintenance may recover slightly less data: parity-repair
        // chains stop at parities no missing data block needs directly.
        assert!(
            minimal.data_lost >= full.data_lost,
            "minimal {} >= full {}",
            minimal.data_lost,
            full.data_lost
        );
    }

    #[test]
    fn higher_alpha_reduces_vulnerability() {
        let mut v = Vec::new();
        for cfg in [Config::single(), ae325()] {
            let mut s = sim(cfg, 30_000);
            s.inject_disaster(0.3, 21);
            v.push(s.repair_minimal().vulnerable_data);
        }
        assert!(v[1] < v[0] / 5, "AE(3,2,5) {} vs AE(1) {}", v[1], v[0]);
    }

    #[test]
    fn heal_all_resets() {
        let mut s = sim(Config::new(2, 2, 5).unwrap(), 5_000);
        s.inject_disaster(0.5, 2);
        s.heal_all();
        let out = s.repair_full();
        assert_eq!(out.round_count(), 0);
    }

    /// Data lost by `cfg` at a 40% disaster under `placement` / `puncture`.
    fn loss_at_40(cfg: Config, placement: SimPlacement, puncture: PuncturePlan) -> u64 {
        let mut s = plane_with(Scheme::Ae(cfg), &env(40_000), placement, puncture);
        s.inject_disaster(0.4, 3);
        s.repair_full().data_lost
    }

    #[test]
    fn round_robin_placement_beats_random() {
        // §V.C: round-robin keeps lattice neighbours in distinct failure
        // domains, so recovery can only improve.
        let run = |placement| {
            loss_at_40(
                Config::new(2, 2, 5).unwrap(),
                placement,
                PuncturePlan::none(),
            )
        };
        let random = run(SimPlacement::Random { seed: 42 });
        let rr = run(SimPlacement::RoundRobin);
        assert!(rr <= random, "round-robin {rr} vs random {random}");
    }

    #[test]
    fn punctured_lattice_loses_more() {
        let run = |plan| loss_at_40(ae325(), SimPlacement::Random { seed: 42 }, plan);
        let full = run(PuncturePlan::none());
        let half = run(PuncturePlan::every(2));
        assert!(
            half >= full,
            "puncturing cannot reduce loss: {half} vs {full}"
        );
        assert!(
            half > 0,
            "half the parities gone must cost something at 40%"
        );
    }

    #[test]
    fn puncture_marks_parities_missing_without_disaster() {
        let small = Env {
            data_blocks: 1_000,
            locations: 10,
            ..Env::paper()
        };
        let mut s = plane_with(
            Scheme::Ae(Config::new(2, 2, 2).unwrap()),
            &small,
            SimPlacement::Random { seed: 1 },
            PuncturePlan::every(2),
        );
        // No disaster: every data block is present; the decoder can rebuild
        // the punctured parities themselves (they are ordinary repairs).
        let out = s.repair_full();
        assert_eq!(out.data_lost, 0);
        let first = out.rounds[0];
        assert!(
            first.repaired > first.data_repaired,
            "punctured parities get rebuilt"
        );
    }

    #[test]
    fn blocks_read_is_twice_repairs() {
        let mut s = sim(ae325(), 30_000);
        s.inject_disaster(0.2, 5);
        let out = s.repair_full();
        assert_eq!(out.blocks_read(), 2 * out.blocks_written());
        assert!(out.blocks_read() > 0);
    }
}
