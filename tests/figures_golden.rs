//! Pins the figure and table drivers of `sim::experiments` byte for byte:
//! every series of Fig 11, Fig 12, Fig 13, Table VI, Table IV and the three
//! availability ablations at `Env::small()` against the checked-in
//! `tests/golden/figures_small.csv`.

use aecodes::sim::experiments::{
    ablation_placement, ablation_puncture, ablation_repair_traffic, fig11_data_loss,
    fig12_vulnerable, fig13_single_failures, table4_costs, table6_rounds, Env,
};

#[test]
fn figure_drivers_match_the_golden_csv() {
    let env = Env::small();
    let sweeps = [
        ("fig11_data_loss", fig11_data_loss(&env)),
        ("fig12_vulnerable", fig12_vulnerable(&env)),
        ("fig13_single_failures", fig13_single_failures(&env)),
        ("table6_rounds", table6_rounds(&env)),
        ("ablation_placement", ablation_placement(&env)),
        ("ablation_puncture", ablation_puncture(&env)),
        ("ablation_repair_traffic", ablation_repair_traffic(&env)),
        ("table4_costs", table4_costs()),
    ];
    let mut table = String::new();
    for (name, sweep) in &sweeps {
        table.push_str(&format!("# {name}\n{}", sweep.to_csv()));
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_small.csv");
    std::fs::write(&out, &table).expect("the test's own tmp dir is writable");
    let golden = include_str!("golden/figures_small.csv");
    assert!(table == golden, "re-record from {}", out.display());
}
