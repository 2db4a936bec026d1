//! Use case A (§IV.A): a geo-replicated cooperative backup.
//!
//! A community shares storage: "Users keep their own data in their local
//! computers (nodes) and upload redundant information to geographically
//! distributed nodes." That deployment needs no type of its own. Each
//! user is one [`crate::Archive`] over a [`crate::TieredStore`]: data
//! blocks stay on the user's machine (the fast tier), redundancy goes to
//! a remote tier of storage nodes, one [`crate::DistributedStore`] that
//! every user shares. Repairing lost blocks (the Table III steps: obtain
//! tuple ids → choose p-block → locate → get → repair) is that archive's
//! degraded `get` and its `scrub`, and a repair written while a storage
//! node is down lands on a live one, because the distributed store
//! re-homes it. Users sharing the remote tier each see it through a
//! namespaced view (`ae_service::TenantStore`, which tags every id kind,
//! the archive's journal included), so "other nodes can do repairs on
//! their behalf" is calling that user's `scrub`.
//!
//! [`GeoLattice`] is one user's lattice as a roster scheme: it wraps an
//! [`ae_core::Code`] and tags every block id with the user's namespace
//! ("block keys are derived from the node id and the block position in
//! the lattice", §IV.A), implementing the full [`RedundancyScheme`]
//! surface including the O(1) `dense_index`/`block_at` bijection, so
//! geo-node-failure scenarios run through the same generic `SchemePlane`
//! and repair planners as every other scheme.

use ae_api::{
    AeError, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost, RepairError,
};
use ae_blocks::{Block, BlockId, EdgeId, NodeId};
use ae_core::Code;

/// High bits used to namespace one user's lattice within a shared remote
/// tier: multiple lattices coexist in the system (§IV.A), so block keys are
/// "derived from the node id and the block position in the lattice".
const NS_SHIFT: u32 = 48;

/// Low bits holding the lattice-local position.
const NS_MASK: u64 = (1 << NS_SHIFT) - 1;

/// Applies a namespace tag to a lattice-local block id.
fn ns_apply(tag: u64, id: BlockId) -> BlockId {
    match id {
        BlockId::Data(NodeId(i)) => BlockId::Data(NodeId(i | tag)),
        BlockId::Parity(EdgeId { class, left }) => {
            BlockId::Parity(EdgeId::new(class, NodeId(left.0 | tag)))
        }
        other => other,
    }
}

/// Strips the namespace tag, answering `None` for ids of other users (or
/// other schemes).
fn ns_strip(tag: u64, id: BlockId) -> Option<BlockId> {
    match id {
        BlockId::Data(NodeId(i)) if i & !NS_MASK == tag => Some(BlockId::Data(NodeId(i & NS_MASK))),
        BlockId::Parity(EdgeId { class, left }) if left.0 & !NS_MASK == tag => Some(
            BlockId::Parity(EdgeId::new(class, NodeId(left.0 & NS_MASK))),
        ),
        _ => None,
    }
}

/// Maps every id inside a repair error into the namespaced key space, so
/// round-based planners subscribe to blockers that actually exist in the
/// namespaced universe.
fn ns_apply_err(tag: u64, err: RepairError) -> RepairError {
    match err {
        RepairError::NoCompleteTuple { target, missing } => RepairError::NoCompleteTuple {
            target: ns_apply(tag, target),
            missing: missing.into_iter().map(|m| ns_apply(tag, m)).collect(),
        },
        RepairError::Unrecoverable { targets } => RepairError::Unrecoverable {
            targets: targets.into_iter().map(|t| ns_apply(tag, t)).collect(),
        },
        RepairError::ForeignBlock { id } => RepairError::ForeignBlock {
            id: ns_apply(tag, id),
        },
        RepairError::OutOfExtent { id, written } => RepairError::OutOfExtent {
            id: ns_apply(tag, id),
            written,
        },
        other => other,
    }
}

/// A [`BlockSource`] view that translates lattice-local reads into the
/// namespaced key space.
struct NsSource<'a> {
    inner: &'a dyn BlockSource,
    tag: u64,
}

impl BlockSource for NsSource<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.inner.fetch(ns_apply(self.tag, id))
    }

    fn has(&self, id: BlockId) -> bool {
        self.inner.has(ns_apply(self.tag, id))
    }
}

/// A [`BlockSink`] that translates lattice-local writes into the
/// namespaced key space.
struct NsSink<'a> {
    inner: &'a dyn BlockSink,
    tag: u64,
}

impl BlockSink for NsSink<'_> {
    fn store(&self, id: BlockId, block: Block) {
        self.inner.store(ns_apply(self.tag, id), block);
    }
}

/// One user's namespaced entanglement lattice as a first-class scheme:
/// an [`ae_core::Code`] whose every block id carries the user's namespace
/// tag in the high 16 bits (lattice positions must stay below
/// 2^48).
///
/// Everything — encoding, repair, the availability hooks, the dense
/// bijection — delegates to the wrapped code with ids translated at the
/// boundary, so the generic plane and planners drive a user's lattice
/// exactly like any other scheme while several users share one id space.
pub struct GeoLattice {
    code: Code,
    user: u64,
    tag: u64,
}

impl GeoLattice {
    /// Wraps `code` for `user` (user 0 is the untagged namespace).
    pub fn new(code: Code, user: u64) -> Self {
        GeoLattice {
            code,
            user,
            tag: user << NS_SHIFT,
        }
    }

    /// Maps a lattice-local id into this user's key space.
    pub fn ns(&self, id: BlockId) -> BlockId {
        ns_apply(self.tag, id)
    }

    /// The inverse: strips this user's tag, `None` for foreign ids.
    pub fn ns_strip(&self, id: BlockId) -> Option<BlockId> {
        ns_strip(self.tag, id)
    }
}

impl RedundancyScheme for GeoLattice {
    fn scheme_name(&self) -> String {
        format!("geo[u{}] {}", self.user, self.code.scheme_name())
    }

    fn data_written(&self) -> u64 {
        self.code.data_written()
    }

    fn repair_cost(&self) -> RepairCost {
        self.code.repair_cost()
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        let ns_sink = NsSink {
            inner: sink,
            tag: self.tag,
        };
        let report = self.code.encode_batch(blocks, &ns_sink)?;
        Ok(EncodeReport {
            first_node: report.first_node,
            ids: report.ids.into_iter().map(|id| self.ns(id)).collect(),
        })
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        let ns_sink = NsSink {
            inner: sink,
            tag: self.tag,
        };
        let ids = self.code.seal(&ns_sink)?;
        Ok(ids.into_iter().map(|id| self.ns(id)).collect())
    }

    /// Delegates to the wrapped code's snapshot (the lattice write
    /// counter); the namespace tag is structural, not state.
    fn frontier_snapshot(&self) -> Vec<u8> {
        self.code.frontier_snapshot()
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        let ns_source = NsSource {
            inner: source,
            tag: self.tag,
        };
        self.code
            .restore_frontier(snapshot, &ns_source)
            .map_err(|e| match e {
                // Surface the id that is actually missing in the shared
                // (namespaced) key space, not the lattice-local one.
                AeError::FrontierBlockMissing { id } => AeError::FrontierBlockMissing {
                    id: ns_apply(self.tag, id),
                },
                other => other,
            })
    }

    fn frontier_reads(&self, snapshot: &[u8]) -> Vec<BlockId> {
        let local = self.code.frontier_reads(snapshot);
        local.into_iter().map(|id| self.ns(id)).collect()
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let Some(local) = self.ns_strip(id) else {
            return Err(RepairError::ForeignBlock { id });
        };
        let ns_source = NsSource {
            inner: source,
            tag: self.tag,
        };
        self.code
            .repair_block(&ns_source, local, data_blocks)
            .map_err(|e| ns_apply_err(self.tag, e))
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        let Some(local) = self.ns_strip(id) else {
            return false;
        };
        self.code
            .is_repairable(local, data_blocks, &|q| avail(ns_apply(self.tag, q)))
    }

    fn is_single_failure(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        let Some(local) = self.ns_strip(id) else {
            return false;
        };
        self.code
            .is_single_failure(local, data_blocks, &|q| avail(ns_apply(self.tag, q)))
    }

    fn maintenance_targets(&self, missing_data: &[BlockId], data_blocks: u64) -> Vec<BlockId> {
        let local: Vec<BlockId> = missing_data
            .iter()
            .filter_map(|&id| self.ns_strip(id))
            .collect();
        self.code
            .maintenance_targets(&local, data_blocks)
            .into_iter()
            .map(|id| self.ns(id))
            .collect()
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        self.code.universe_len(data_blocks)
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        self.ns_strip(*id)
            .and_then(|local| self.code.dense_index(&local, data_blocks))
    }

    fn block_at(&self, k: u32, data_blocks: u64) -> Option<BlockId> {
        self.code.block_at(k, data_blocks).map(|id| self.ns(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Archive, ArchiveError, DistributedStore, LocationId, Placement, TieredStore};
    use ae_lattice::Config;
    use std::sync::Arc;

    /// One user's backup: data on the user's machine, redundancy on the
    /// remote storage nodes.
    type Backup = Archive<TieredStore<DistributedStore>>;

    fn sample_file(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
    }

    fn backup(cfg: Config, block_size: usize, nodes: u32, seed: u64) -> Backup {
        let remote = Arc::new(DistributedStore::new(nodes, Placement::Random { seed }));
        Archive::new(cfg, block_size, Arc::new(TieredStore::new(remote)))
    }

    fn backup_one(cfg: Config, file_len: usize) -> (Backup, Vec<u8>) {
        let mut ar = backup(cfg, 64, 20, 3);
        let file = sample_file(file_len);
        ar.put("file", &file).expect("fresh name");
        (ar, file)
    }

    fn fail_nodes(ar: &Backup, nodes: impl IntoIterator<Item = u32>) {
        ar.store().shared().with_cluster(|c| {
            for l in nodes {
                c.fail(LocationId(l));
            }
        });
    }

    #[test]
    fn geo_frontier_restores_through_the_namespace() {
        use ae_api::BlockMap;

        let cfg = Config::new(3, 2, 5).unwrap();
        let geo = GeoLattice::new(ae_core::Code::new(cfg, 16), 3);
        let store = BlockMap::new();
        let blocks: Vec<Block> = (0..30u8).map(|k| Block::from_vec(vec![k; 16])).collect();
        geo.encode_batch(&blocks, &store).unwrap();
        let snap = geo.frontier_snapshot();

        let resumed = GeoLattice::new(ae_core::Code::new(cfg, 16), 3);
        resumed.restore_frontier(&snap, &store).unwrap();
        assert_eq!(resumed.data_written(), 30);
        let (a, b) = (BlockMap::new(), BlockMap::new());
        let more: Vec<Block> = (30..40u8).map(|k| Block::from_vec(vec![k; 16])).collect();
        geo.encode_batch(&more, &a).unwrap();
        resumed.encode_batch(&more, &b).unwrap();
        assert_eq!(a, b, "namespaced continuation is bit-identical");

        // A missing frontier parity is named in the *namespaced* id space.
        let frontier = geo.ns(BlockId::Parity(EdgeId::new(
            ae_blocks::StrandClass::Horizontal,
            NodeId(30),
        )));
        store.remove(&frontier);
        let broken = GeoLattice::new(ae_core::Code::new(cfg, 16), 3);
        let err = broken.restore_frontier(&snap, &store).unwrap_err();
        assert!(
            matches!(err, AeError::FrontierBlockMissing { id } if id == frontier),
            "{err}"
        );
    }

    #[test]
    fn backup_and_read_roundtrip() {
        let (ar, file) = backup_one(Config::new(3, 2, 5).unwrap(), 1000);
        assert_eq!(
            ar.entry("file").unwrap().block_count,
            16,
            "1000 bytes / 64-byte blocks, padded"
        );
        assert_eq!(ar.get("file").unwrap(), file);
    }

    #[test]
    fn degraded_read_after_local_loss() {
        let (mut ar, file) = backup_one(Config::new(3, 2, 5).unwrap(), 640);
        // The laptop's disk dies: every data block is gone.
        assert_eq!(ar.store().drop_fast(), 10);
        assert_eq!(ar.get("file").unwrap(), file, "read decodes remotely");
        // Reads leave the local copies missing until a scrub.
        assert!(ar.store().fast().is_empty());
        assert_eq!(ar.scrub(), 10);
        assert_eq!(ar.store().fast().len(), 10);
        assert_eq!(ar.scrub(), 0, "idempotent");
    }

    #[test]
    fn repairs_survive_storage_node_failures() {
        let (mut ar, file) = backup_one(Config::new(3, 2, 5).unwrap(), 2000);
        // Fail some remote nodes and lose ALL local data: the degraded
        // read repairs in rounds, and scrub writes every repair to a
        // live node, so a second scrub has nothing left to do.
        fail_nodes(&ar, [1, 5, 9]);
        assert_eq!(ar.store().drop_fast(), 32);
        assert_eq!(ar.get("file").unwrap(), file);
        assert!(
            ar.scrub() > 32,
            "every data block and the dead nodes' share"
        );
        assert_eq!(ar.store().fast().len(), 32, "the local disk is whole again");
        assert_eq!(ar.scrub(), 0, "repairs landed on live nodes");
        assert!(ar.verify_all().is_empty());
    }

    #[test]
    fn remote_parity_regeneration() {
        let (mut ar, file) = backup_one(Config::new(2, 2, 2).unwrap(), 1280);
        // Knock out one storage node's contents for good.
        let remote = ar.store().shared();
        let lost = remote.blocks_at(LocationId(4));
        assert!(!lost.is_empty(), "test requires some blocks at n4");
        for id in &lost {
            remote.remove(*id);
        }
        assert_eq!(ar.scrub() as usize, lost.len());
        let remote = ar.store().shared();
        for id in &lost {
            assert!(remote.contains(*id), "{id} regenerated");
        }
        assert_eq!(ar.get("file").unwrap(), file);
    }

    #[test]
    fn multiple_files_share_one_lattice() {
        let mut ar = backup(Config::new(2, 1, 2).unwrap(), 32, 10, 1);
        let f1 = sample_file(100);
        let f2 = sample_file(300);
        let e1 = ar.put("f1", &f1).unwrap();
        let e2 = ar.put("f2", &f2).unwrap();
        assert_eq!(e2.first_block, e1.first_block + e1.block_count);
        assert_eq!(ar.get("f1").unwrap(), f1);
        assert_eq!(ar.get("f2").unwrap(), f2);
    }

    #[test]
    fn unrecoverable_loss_is_reported() {
        let (ar, _) = backup_one(Config::new(2, 1, 1).unwrap(), 320);
        // Lose a local block AND all remote nodes.
        let victim = ar.data_ids().nth(2).unwrap();
        assert!(ar.store().fast().remove(victim));
        fail_nodes(&ar, 0..20);
        assert!(matches!(
            ar.get("file"),
            Err(ArchiveError::BlockUnavailable { id, .. }) if id == victim
        ));
    }

    /// The scheme-driven repair path must agree, block for block, with
    /// the direct decoder call a broker would make
    /// (`decoder::repair_block` against the two tiers).
    #[test]
    fn scheme_repairs_match_legacy_decoder_path() {
        use ae_core::decoder;
        let cfg = Config::new(2, 2, 5).unwrap();
        for damage_seed in 0u64..8 {
            let scheme = GeoLattice::new(Code::new(cfg, 32), 4);
            let tiers = TieredStore::new(Arc::new(DistributedStore::new(
                20,
                Placement::Random { seed: 3 },
            )));
            let blocks: Vec<Block> = sample_file(1200)
                .chunks(32)
                .map(|chunk| {
                    let mut bytes = chunk.to_vec();
                    bytes.resize(32, 0);
                    Block::from_vec(bytes)
                })
                .collect();
            let first_node = scheme.encode_batch(&blocks, &tiers).unwrap().first_node;
            let nodes = first_node..first_node + blocks.len() as u64;
            // Correlated damage: fail a couple of storage nodes and lose a
            // pseudo-random subset of the local tier.
            tiers.shared().with_cluster(|c| {
                c.fail(LocationId((damage_seed % 20) as u32));
                c.fail(LocationId(((damage_seed + 7) % 20) as u32));
            });
            let mut state = damage_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for i in nodes.clone() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33) % 100 < 40 {
                    tiers.fast().remove(scheme.ns(BlockId::Data(NodeId(i))));
                }
            }
            let written = scheme.data_written();
            let zero = Block::zero(32);
            // Every data block and parity: the generic scheme path and
            // the legacy direct decoder must agree on repairability and
            // bytes.
            let tag = |id| scheme.ns(id);
            let mut legacy_lookup = |q: BlockId| match q {
                BlockId::Data(_) => tiers.fast().get(tag(q)).ok(),
                BlockId::Parity(_) => tiers.shared().get(tag(q)).ok(),
                _ => None,
            };
            for i in nodes {
                let legacy = decoder::repair_block(
                    &cfg,
                    BlockId::Data(NodeId(i)),
                    written,
                    &zero,
                    &mut legacy_lookup,
                )
                .ok();
                let via_scheme = scheme
                    .repair_block(&tiers, scheme.ns(BlockId::Data(NodeId(i))), written)
                    .ok();
                assert_eq!(via_scheme, legacy, "seed {damage_seed}: d{i}");
            }
            for i in 1..=written {
                for &class in cfg.classes() {
                    let edge = EdgeId::new(class, NodeId(i));
                    let legacy = decoder::repair_block(
                        &cfg,
                        BlockId::Parity(edge),
                        written,
                        &zero,
                        &mut legacy_lookup,
                    )
                    .ok();
                    let via_scheme = scheme
                        .repair_block(&tiers, scheme.ns(BlockId::Parity(edge)), written)
                        .ok();
                    assert_eq!(via_scheme, legacy, "seed {damage_seed}: {edge:?}");
                }
            }
        }
    }

    #[test]
    fn geo_lattice_namespaces_the_whole_universe() {
        let cfg = Config::new(2, 2, 5).unwrap();
        let a = GeoLattice::new(Code::new(cfg, 0), 1);
        let b = GeoLattice::new(Code::new(cfg, 0), 2);
        let ids_a: std::collections::HashSet<BlockId> = a.block_ids(50).into_iter().collect();
        let ids_b: std::collections::HashSet<BlockId> = b.block_ids(50).into_iter().collect();
        assert!(ids_a.is_disjoint(&ids_b), "namespaces must not collide");
        // Each scheme only answers for its own namespace.
        for id in ids_a.iter().take(5) {
            assert!(a.dense_index(id, 50).is_some());
            assert_eq!(b.dense_index(id, 50), None);
        }
    }

    /// The bijection is the write order: what `encode_batch` reports
    /// over batches of 1, 14 and 25 blocks, then what `seal` returns, is
    /// `block_at` over the whole universe, each namespaced id at the
    /// position `dense_index` gives it.
    #[test]
    fn geo_lattice_bijection_matches_enumeration() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let scheme = GeoLattice::new(Code::new(cfg, 8), 7);
        let store = ae_api::BlockMap::new();
        let mut ids = Vec::new();
        for size in [1, 14, 25] {
            let batch = vec![Block::zero(8); size];
            ids.extend(scheme.encode_batch(&batch, &store).unwrap().ids);
        }
        ids.extend(scheme.seal(&store).unwrap());
        let n = 40;
        assert_eq!(ids, scheme.block_ids(n));
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(scheme.dense_index(id, n), Some(k as u32), "{id}");
        }
        assert_eq!(scheme.block_at(ids.len() as u32, n), None);
        // Un-namespaced ids are foreign to a tagged lattice.
        assert_eq!(scheme.dense_index(&BlockId::Data(NodeId(1)), n), None);
        assert!(!scheme.is_repairable(BlockId::Data(NodeId(1)), n, &|_| true));
    }

    #[test]
    fn geo_lattice_repair_errors_stay_namespaced() {
        let cfg = Config::new(2, 2, 5).unwrap();
        let scheme = GeoLattice::new(Code::new(cfg, 16), 3);
        let store = ae_api::BlockMap::new();
        let blocks: Vec<Block> = (0..30u8).map(|k| Block::from_vec(vec![k; 16])).collect();
        let report = scheme.encode_batch(&blocks, &store).unwrap();
        // Every stored id carries the namespace.
        for id in &report.ids {
            assert!(scheme.ns_strip(*id).is_some(), "{id}");
        }
        let victim = report.ids[0];
        let original = store.remove(&victim).unwrap();
        assert_eq!(scheme.repair_block(&store, victim, 30).unwrap(), original);
        // On an empty store the error names namespaced blockers only.
        let err = scheme
            .repair_block(&ae_api::BlockMap::new(), victim, 30)
            .unwrap_err();
        assert!(!err.missing_blocks().is_empty());
        for m in err.missing_blocks() {
            assert!(scheme.ns_strip(*m).is_some(), "{m} must stay namespaced");
        }
        // Past the written extent the refusal is typed and names the
        // namespaced id.
        let past = scheme.ns(BlockId::Parity(EdgeId::new(
            ae_blocks::StrandClass::Horizontal,
            NodeId(31),
        )));
        assert_eq!(
            scheme.repair_block(&store, past, 30),
            Err(RepairError::OutOfExtent {
                id: past,
                written: 30
            })
        );
    }
}
