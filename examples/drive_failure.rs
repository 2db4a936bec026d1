//! Drive-failure and geo-node-failure scenarios through the one generic
//! availability plane.
//!
//! Since the §IV use-case stores became first-class schemes
//! (`EntangledChain`, `GeoLattice`), "any scenario = a scheme + a
//! placement": the same `SchemePlane` that drives the paper's §V.C
//! evaluation runs an entangled mirror array losing drives and a
//! cooperative backup losing storage nodes — zero per-block id state,
//! pure arithmetic, identical repair machinery. The mirror array losing
//! drives with real bytes is the `disk_array` example.
//!
//! ```sh
//! cargo run --release --example drive_failure
//! ```

use aecodes::lattice::Config;
use aecodes::sim::{Scheme, SchemePlane, SimPlacement};
use aecodes::store::{Archive, ChainMode, DistributedStore, LocationId, Placement, TieredStore};
use std::sync::Arc;

fn main() {
    // --- 1. Drive failures on the availability plane -------------------
    // An entangled mirror deployment: 100k blocks over 16 failure domains
    // (8 data drives + 8 parity drives worth), round-robin so chain
    // neighbours sit on distinct drives. A quarter of the drives die.
    println!("== entangled mirror chains through the generic plane ==");
    for mode in [ChainMode::Open, ChainMode::Closed] {
        let scheme = Scheme::Chain { mode };
        let mut plane = SchemePlane::new(scheme.build(0), 100_000, 16, SimPlacement::RoundRobin);
        let (md, mp) = plane.inject_disaster(0.25, 7);
        let out = plane.repair_full();
        println!(
            "{:<14} lost 4/16 drives: {md} data + {mp} parity missing -> \
             {} rounds, {} data lost, extremity-exposed blocks: {}",
            scheme.name(),
            out.round_count(),
            out.data_lost,
            scheme.build(0).repair_cost().extremity_exposed,
        );
    }

    // --- 2. Geo node failures ------------------------------------------
    // A user's namespaced lattice on the plane: storage nodes are the
    // failure domains, a third of them die.
    println!("\n== geo cooperative backup through the generic plane ==");
    let geo_scheme = Scheme::Geo {
        cfg: Config::new(3, 2, 5).expect("paper setting"),
        user: 3,
    };
    let mut plane = SchemePlane::new(
        geo_scheme.build(0),
        100_000,
        100,
        SimPlacement::Random { seed: 42 },
    );
    plane.inject_disaster(0.3, 11);
    let out = plane.repair_full();
    println!(
        "{} after a 30% node disaster: {} rounds, {} data lost",
        geo_scheme.name(),
        out.round_count(),
        out.data_lost
    );

    // And with real bytes: one user's archive, data on the laptop and
    // redundancy on 20 storage nodes, loses nodes AND the laptop, then
    // reads and repairs everything through the scheme.
    let nodes = Arc::new(DistributedStore::new(20, Placement::Random { seed: 3 }));
    let tiers = Arc::new(TieredStore::new(Arc::clone(&nodes)));
    let mut ar = Archive::new(Config::new(3, 2, 5).expect("paper setting"), 64, tiers);
    let file: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    ar.put("file", &file).expect("fresh name");
    nodes.with_cluster(|c| {
        for l in [2, 8, 14] {
            c.fail(LocationId(l));
        }
    });
    ar.store().drop_fast();
    assert_eq!(ar.get("file").unwrap(), file);
    let restored = ar.scrub();
    assert_eq!(ar.scrub(), 0, "repairs landed on live nodes");
    assert!(ar.verify_all().is_empty());
    println!(
        "byte plane: 3/20 storage nodes + all local data lost, file restored intact; \
         scrub put {restored} blocks back"
    );
}
