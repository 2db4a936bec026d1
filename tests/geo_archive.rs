//! Use case A (§IV.A) on the one archive: a community of users whose
//! lattices, possibly with different settings, share one tier of storage
//! nodes. Each user is an `Archive` over a `TieredStore`: data blocks on
//! the user's own machine, redundancy and the archive's journal on the
//! shared `DistributedStore`, seen through the user's `TenantStore` view
//! so that no two users' ids meet. Repairing "on their behalf" is calling
//! that user's `scrub`, and the distributed store puts every repair on a
//! live node.

use aecodes::api::BlockRepo;
use aecodes::core::Code;
use aecodes::lattice::Config;
use aecodes::service::{SharedBackend, TenantId, TenantStore};
use aecodes::store::{Archive, DistributedStore, LocationId, Placement, TieredStore};
use std::sync::Arc;

const BLOCK: usize = 64;

type User = Archive<TieredStore<TenantStore>>;

fn sample_file(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + 7) % 256) as u8 ^ salt)
        .collect()
}

/// User `tenant`'s archive over its own machine and its view of `remote`.
fn user(cfg: Config, remote: &Arc<DistributedStore>, tenant: u16) -> User {
    let view = TenantStore::new(Arc::clone(remote) as SharedBackend, TenantId(tenant));
    Archive::new(cfg, BLOCK, Arc::new(TieredStore::new(Arc::new(view))))
}

/// Two users with different codes on one 25-node remote tier.
fn community() -> (Arc<DistributedStore>, Vec<(User, Vec<u8>)>) {
    let remote = Arc::new(DistributedStore::new(25, Placement::Random { seed: 11 }));
    let configs = [Config::new(2, 2, 5).unwrap(), Config::new(3, 2, 5).unwrap()];
    let users = configs
        .into_iter()
        .zip(1u16..)
        .map(|(cfg, tenant)| {
            let mut ar = user(cfg, &remote, tenant);
            let file = sample_file(800 + 64 * tenant as usize, tenant as u8 * 0x55);
            ar.put("file", &file).expect("fresh name");
            (ar, file)
        })
        .collect();
    (remote, users)
}

/// Both users' lattices start at the same position under the same file
/// name, yet with every local copy gone each rebuilds its own bytes from
/// the shared tier: no parity and no journal record of one user
/// overwrote the other's.
#[test]
fn two_users_share_one_remote_tier_without_collisions() {
    let (remote, users) = community();
    let firsts: Vec<u64> = users
        .iter()
        .map(|(ar, _)| ar.entry("file").unwrap().first_block)
        .collect();
    assert_eq!(firsts, [0, 0], "same lattice positions, different users");
    assert_ne!(users[0].1, users[1].1);
    for (ar, file) in &users {
        assert!(ar.store().drop_fast() > 0);
        assert_eq!(&ar.get("file").unwrap(), file);
    }
    // Every block either user sent to the shared tier is still there.
    let remote_blocks: usize = users
        .iter()
        .map(|(ar, _)| {
            let parities = ar.stored_ids().iter().filter(|id| !id.is_data()).count();
            parities + ar.live_meta_ids().len()
        })
        .sum();
    assert_eq!(remote.total_blocks(), remote_blocks);
}

/// Storage nodes stay down while both users lose local data: every file
/// still reads, each user's scrub restores its lattice onto live nodes,
/// and a second scrub finds nothing left to restore.
#[test]
fn each_user_heals_the_shared_tier_while_nodes_are_down() {
    let (remote, mut users) = community();
    remote.with_cluster(|c| {
        for l in [0, 5, 10, 15] {
            c.fail(LocationId(l));
        }
    });
    for (ar, _) in &users {
        for k in [2, 5] {
            let id = ar.data_ids().nth(k).unwrap();
            assert!(ar.store().fast().remove(id));
        }
    }
    for (ar, file) in &mut users {
        assert_eq!(&ar.get("file").unwrap(), file, "degraded read");
        assert!(ar.scrub() > 2, "the local losses and the dead nodes' share");
    }
    for (ar, file) in &mut users {
        assert_eq!(ar.scrub(), 0, "repairs landed on live nodes");
        assert_eq!(&ar.get("file").unwrap(), file);
        assert!(ar.verify_all().is_empty());
    }
}

/// The `geo_backup` example's alice: AE(3,2,5) with 256-byte blocks, her
/// photos and mail (56 data blocks), on 40 storage nodes placed by seed
/// 2024.
fn alice_files() -> [(&'static str, Vec<u8>); 2] {
    let photos = (0..10_000u32)
        .map(|i| (i.wrapping_mul(2654435761) % 251) as u8)
        .collect();
    let mail = (0..4_000u32)
        .map(|i| (i.wrapping_mul(40503) % 241) as u8)
        .collect();
    [("photos", photos), ("mail", mail)]
}

/// Writes alice's files over `shared` (the nodes, or a view of them),
/// drops the archive, takes nodes 3, 11, 19, 27 and 35 down — and the
/// laptop too if `laptop_lost` — then reopens. The encoder frontier's
/// parities sit on the nodes; where a lost one's only repair tuple is
/// itself missing a member, `open` must rebuild it in rounds, as a
/// degraded read does. The reopened archive reads every file, and its
/// scrub heals onto live nodes.
fn reopen_alice<S: BlockRepo + Send + ?Sized>(
    nodes: &DistributedStore,
    shared: Arc<S>,
    laptop_lost: bool,
) {
    const GEO_BLOCK: usize = 256;
    let cfg = Config::new(3, 2, 5).unwrap();
    let store = Arc::new(TieredStore::new(shared));
    let mut ar = Archive::new(cfg, GEO_BLOCK, Arc::clone(&store));
    for (name, bytes) in alice_files() {
        ar.put(name, &bytes).expect("fresh name");
    }
    drop(ar);
    if laptop_lost {
        assert!(store.drop_fast() > 0);
    }
    nodes.with_cluster(|c| {
        for l in [3, 11, 19, 27, 35] {
            c.fail(LocationId(l));
        }
    });
    let scheme = Arc::new(Code::new(cfg, GEO_BLOCK));
    let mut ar = Archive::open(scheme, store).unwrap_or_else(|e| panic!("open: {e}"));
    for (name, bytes) in alice_files() {
        assert_eq!(ar.get(name).unwrap(), bytes, "{name}");
    }
    assert!(ar.scrub() > 0, "the dead nodes' share comes back");
    assert_eq!(ar.scrub(), 0, "repairs landed on live nodes");
    assert!(ar.verify_all().is_empty());
}

#[test]
fn open_survives_a_lost_laptop_and_nodes_down() {
    let nodes = Arc::new(DistributedStore::new(40, Placement::Random { seed: 2024 }));
    let view = TenantStore::new(Arc::clone(&nodes) as SharedBackend, TenantId(1));
    reopen_alice(&nodes, Arc::new(view), true);
}

#[test]
fn open_survives_nodes_down_behind_a_tenant_view() {
    let nodes = Arc::new(DistributedStore::new(40, Placement::Random { seed: 2024 }));
    let view = TenantStore::new(Arc::clone(&nodes) as SharedBackend, TenantId(1));
    reopen_alice(&nodes, Arc::new(view), false);
}

#[test]
fn open_survives_nodes_down_without_a_tenant_view() {
    let nodes = Arc::new(DistributedStore::new(40, Placement::Random { seed: 2024 }));
    reopen_alice(&nodes, Arc::clone(&nodes), false);
}
