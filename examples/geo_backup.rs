//! Use case A (§IV.A): a geo-replicated cooperative backup.
//!
//! Users keep files on their own machines and upload only redundancy to a
//! community of storage nodes. Each user is one `Archive` over a
//! `TieredStore`: data blocks on the user's machine, parities and the
//! archive's journal on the shared nodes (a `DistributedStore`), seen
//! through the user's `TenantStore` view so that lattices with different
//! settings never collide. When a laptop dies AND part of the community
//! is offline, the archive reads everything back from the surviving
//! parities, and a scrub restores the laptop and puts the offline nodes'
//! share on live ones.
//!
//! ```sh
//! cargo run --example geo_backup
//! ```

use aecodes::lattice::Config;
use aecodes::service::{SharedBackend, TenantId, TenantStore};
use aecodes::store::{Archive, DistributedStore, LocationId, Placement, TieredStore};
use std::sync::Arc;

fn main() {
    let nodes = Arc::new(DistributedStore::new(40, Placement::Random { seed: 2024 }));
    let user = |cfg: Config, tenant: u16| {
        let view = TenantStore::new(Arc::clone(&nodes) as SharedBackend, TenantId(tenant));
        Archive::new(cfg, 256, Arc::new(TieredStore::new(Arc::new(view))))
    };
    let (alice_cfg, bob_cfg) = (
        Config::new(3, 2, 5).expect("valid code parameters"),
        Config::new(2, 2, 5).expect("valid code parameters"),
    );
    let mut alice = user(alice_cfg, 1);
    let mut bob = user(bob_cfg, 2);
    println!("community: 40 storage nodes, 256-byte blocks; alice {alice_cfg}, bob {bob_cfg}");

    // Back up a few "files".
    let photos: Vec<u8> = (0..10_000u32)
        .map(|i| (i.wrapping_mul(2654435761) % 251) as u8)
        .collect();
    let mail: Vec<u8> = (0..4_000u32)
        .map(|i| (i.wrapping_mul(40503) % 241) as u8)
        .collect();
    let notes: Vec<u8> = (0..3_000u32).map(|i| (i % 239) as u8).collect();
    alice.put("photos", &photos).expect("fresh name");
    alice.put("mail", &mail).expect("fresh name");
    bob.put("notes", &notes).expect("fresh name");
    println!(
        "alice backed up photos and mail, bob notes: {} blocks on the nodes",
        nodes.total_blocks()
    );

    // Catastrophe: alice's laptop dies (all local blocks gone) while five
    // storage nodes are offline.
    let lost = alice.store().drop_fast();
    nodes.with_cluster(|c| {
        for l in [3, 11, 19, 27, 35] {
            c.fail(LocationId(l));
        }
    });
    println!("\ndisaster: alice's laptop lost ({lost} blocks), 5/40 storage nodes offline");

    // Degraded reads rebuild every block from the surviving parities, in
    // rounds where one tuple is not enough (the Table III flow per block:
    // tuple ids -> choose p-block -> locate -> fetch -> XOR).
    assert_eq!(alice.get("photos").expect("photos recovered"), photos);
    assert_eq!(alice.get("mail").expect("mail recovered"), mail);
    assert_eq!(bob.get("notes").expect("notes readable"), notes);
    println!("all files read back byte-identical during the outage");

    // Maintenance, each user on their own archive: the repairs of the
    // offline nodes' share land on live nodes, so a second pass finds
    // nothing to do while the nodes are still down.
    for (name, ar) in [("alice", &mut alice), ("bob", &mut bob)] {
        let restored = ar.scrub();
        let again = ar.scrub();
        println!("{name}: scrub restored {restored} blocks, a second scrub {again}");
        assert_eq!(again, 0, "{name}: repairs landed on live nodes");
        assert!(ar.verify_all().is_empty(), "{name}: every file verifies");
    }
    assert_eq!(
        alice.store().fast().len(),
        lost,
        "the laptop is whole again"
    );
    println!("\nfull redundancy restored with 5 nodes still offline");
}
