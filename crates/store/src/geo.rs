//! Use case A: a geo-replicated cooperative backup (§IV.A).
//!
//! A community shares storage: "Users keep their own data in their local
//! computers (nodes) and upload redundant information to geographically
//! distributed nodes." The lower tier is storage nodes holding p-blocks for
//! others; the upper tier is broker nodes that encode and decode. Here one
//! [`GeoBackup`] is a user's broker: it entangles local files, pushes the
//! parities to a [`DistributedStore`] of remote nodes, and repairs local
//! data loss from complete pp-tuples fetched remotely — following the
//! Table III steps (obtain tuple ids → choose p-block → locate → get →
//! repair).
//!
//! The namespaced lattice itself is a first-class scheme: [`GeoLattice`]
//! wraps an [`ae_core::Code`] and tags every block id with the user's
//! namespace ("block keys are derived from the node id and the block
//! position in the lattice", §IV.A), implementing the full
//! [`RedundancyScheme`] surface including the O(1)
//! `dense_index`/`block_at` bijection. Multiple users' lattices therefore
//! coexist in one id space, and geo-node-failure scenarios run through
//! the same generic `SchemePlane` and repair planners as every other
//! scheme; [`GeoBackup`] is a thin wrapper holding a
//! [`TieredStore`] (local data tier over the shared remote tier) — the
//! two-tier routing is a first-class backend now, not broker-private
//! adapters.

use crate::distributed::DistributedStore;
use crate::placement::Placement;
use crate::store::StoreError;
use crate::tiered::TieredStore;
use ae_api::{
    AeError, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost, RepairError,
};
use ae_blocks::{Block, BlockId, EdgeId, NodeId};
use ae_core::Code;
use ae_lattice::Config;
use std::fmt;
use std::sync::Arc;

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

    /// The wrapped code.
    pub fn code(&self) -> &Code {
        &self.code
    }

    /// The namespace owner.
    pub fn user(&self) -> u64 {
        self.user
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

    fn block_ids(&self, data_blocks: u64) -> Vec<BlockId> {
        self.code
            .block_ids(data_blocks)
            .into_iter()
            .map(|id| self.ns(id))
            .collect()
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

    fn supports_dense_index(&self) -> bool {
        true
    }
}

/// Handle to a backed-up file: which lattice positions hold its blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle {
    /// First lattice position of the file's data blocks.
    pub first_node: u64,
    /// Number of data blocks.
    pub block_count: u64,
    /// Original byte length (the last block is zero-padded).
    pub byte_len: usize,
}

/// Errors from backup operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeoError {
    /// A data block was lost locally and no complete pp-tuple was available
    /// remotely to rebuild it.
    Unrecoverable(BlockId),
    /// Underlying store failure.
    Store(StoreError),
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::Unrecoverable(id) => write!(f, "no complete repair tuple for {id}"),
            GeoError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for GeoError {}

/// One user's broker plus their view of the cooperative network: the
/// [`GeoLattice`] scheme over a [`TieredStore`] — d-blocks on the user's
/// own machine (the fast tier), p-blocks on the shared remote nodes — with
/// every repair flowing through the scheme's generic
/// [`RedundancyScheme::repair_block`]. All methods take `&self`: both the
/// scheme and the backend are interior-mutable, so brokers can be shared
/// and maintained from worker threads.
pub struct GeoBackup {
    scheme: GeoLattice,
    /// The two-tier backend: tier 1 is the user's own machine holding
    /// d-blocks, tier 2 the remote storage nodes holding p-blocks —
    /// possibly shared with other users' lattices (namespaced keys).
    tiers: TieredStore<DistributedStore>,
}

impl GeoBackup {
    /// Creates a broker entangling `block_size`-byte blocks over
    /// `storage_nodes` remote nodes.
    pub fn new(cfg: Config, block_size: usize, storage_nodes: u32, seed: u64) -> Self {
        Self::with_shared_remote(
            cfg,
            block_size,
            Arc::new(DistributedStore::new(
                storage_nodes,
                Placement::Random { seed },
            )),
            0,
        )
    }

    /// Creates a broker whose parities live on a remote tier shared with
    /// other users; `user` namespaces this lattice's block keys (lattice
    /// positions must stay below 2^48).
    pub fn with_shared_remote(
        cfg: Config,
        block_size: usize,
        remote: Arc<DistributedStore>,
        user: u64,
    ) -> Self {
        GeoBackup {
            scheme: GeoLattice::new(Code::new(cfg, block_size), user),
            tiers: TieredStore::new(remote),
        }
    }

    /// Maps a lattice-local block id into the shared key space.
    fn ns(&self, id: BlockId) -> BlockId {
        self.scheme.ns(id)
    }

    /// The code in use.
    pub fn code(&self) -> &Code {
        self.scheme.code()
    }

    /// The namespaced lattice scheme (geo-node-failure scenarios can run
    /// it through the generic `SchemePlane` and repair planners directly).
    pub fn scheme(&self) -> &GeoLattice {
        &self.scheme
    }

    /// The two-tier backend itself (an [`ae_api::BlockRepo`]; archives can
    /// run directly over it).
    pub fn tiers(&self) -> &TieredStore<DistributedStore> {
        &self.tiers
    }

    /// Remote tier (exposed so tests and examples can fail storage nodes).
    pub fn remote(&self) -> &DistributedStore {
        self.tiers.shared()
    }

    /// Backs up a file: splits it into d-blocks (zero-padding the tail),
    /// entangles the whole file as one batch through the scheme, keeps
    /// d-blocks locally and uploads p-blocks to the remote nodes — the
    /// routing is the [`TieredStore`] itself.
    pub fn backup(&self, file: &[u8]) -> FileHandle {
        let bs = self.scheme.code().block_size();
        let blocks: Vec<Block> = file
            .chunks(bs)
            .map(|chunk| {
                let mut bytes = chunk.to_vec();
                bytes.resize(bs, 0);
                Block::from_vec(bytes)
            })
            .collect();
        let report = self
            .scheme
            .encode_batch(&blocks, &self.tiers)
            .expect("broker blocks are always block_size bytes");
        FileHandle {
            first_node: report.first_node,
            block_count: blocks.len() as u64,
            byte_len: file.len(),
        }
    }

    /// Reads a file back. Missing local blocks are decoded from remote
    /// parities on the fly (a degraded read); the local copy is *not*
    /// modified — use [`Self::repair_local`] to restore it.
    ///
    /// # Errors
    ///
    /// Fails if a block is missing locally and unrecoverable remotely.
    pub fn read(&self, handle: FileHandle) -> Result<Vec<u8>, GeoError> {
        let mut out = Vec::with_capacity(handle.byte_len);
        for i in handle.first_node..handle.first_node + handle.block_count {
            let id = self.ns(BlockId::Data(NodeId(i)));
            let block = match self.tiers.fast().get(id) {
                Ok(b) => b,
                Err(_) => self
                    .decode_remote(i)
                    .ok_or(GeoError::Unrecoverable(BlockId::Data(NodeId(i))))?,
            };
            out.extend_from_slice(block.as_slice());
        }
        out.truncate(handle.byte_len);
        Ok(out)
    }

    /// Simulates local data loss (disk crash, accidental deletion).
    pub fn lose_local(&self, node: u64) {
        self.tiers
            .fast()
            .remove(self.ns(BlockId::Data(NodeId(node))));
    }

    /// Repairs every missing local d-block of a file from remote pp-tuples,
    /// skipping blocks without a complete tuple (they may become repairable
    /// after a [`Self::repair_remote`] round, mirroring the paper's
    /// round-based decoder). Returns the repaired count and the ids still
    /// missing.
    pub fn repair_local(&self, handle: FileHandle) -> (u64, Vec<BlockId>) {
        let mut repaired = 0;
        let mut unrecovered = Vec::new();
        for i in handle.first_node..handle.first_node + handle.block_count {
            let id = self.ns(BlockId::Data(NodeId(i)));
            if self.tiers.fast().contains(id) {
                continue;
            }
            match self.decode_remote(i) {
                Some(block) => {
                    self.tiers.fast().put(id, block);
                    repaired += 1;
                }
                None => unrecovered.push(BlockId::Data(NodeId(i))),
            }
        }
        (repaired, unrecovered)
    }

    /// Regenerates p-blocks lost to failed storage nodes (the Table III
    /// flow) and re-homes them on available nodes. Blocks whose tuples are
    /// incomplete are skipped; returns how many parities were regenerated.
    pub fn repair_remote(&self) -> u64 {
        let max_node = self.scheme.data_written();
        let mut repaired = 0;
        // Walk every parity the lattice should hold; regenerate missing
        // ones from the dp-tuples that survive, through the scheme.
        for i in 1..=max_node {
            for &class in self.scheme.code().config().classes() {
                let id = self.ns(BlockId::Parity(EdgeId::new(class, NodeId(i))));
                if self.remote().contains(id) {
                    continue;
                }
                if let Ok(block) = self.scheme.repair_block(&self.tiers, id, max_node) {
                    if self.remote().put_rehomed(id, block).is_some() {
                        repaired += 1;
                    }
                }
            }
        }
        repaired
    }

    /// Decodes data block `i` through the scheme (the broker lost its
    /// local copy): one XOR of two fetched p-blocks when a pp-tuple is
    /// complete.
    fn decode_remote(&self, i: u64) -> Option<Block> {
        let id = self.ns(BlockId::Data(NodeId(i)));
        self.scheme
            .repair_block(&self.tiers, id, self.scheme.data_written())
            .ok()
    }
}

/// A cooperative community: several users' entanglement lattices coexisting
/// on one shared tier of storage nodes (§IV.A: "multiple lattices coexist
/// in the system … the system could keep lattices with different
/// settings").
///
/// Each user gets a namespaced key range, so lattices never collide, and
/// any member can run maintenance for the whole community ("If a node is
/// not able to repair the lattice, other nodes can do repairs on their
/// behalf as well").
pub struct Community {
    remote: Arc<DistributedStore>,
    users: Vec<GeoBackup>,
}

impl Community {
    /// Creates a community of brokers over `storage_nodes` shared nodes;
    /// `configs[i]` is user i's code (lattices may differ per user).
    pub fn new(configs: &[Config], block_size: usize, storage_nodes: u32, seed: u64) -> Self {
        let remote = Arc::new(DistributedStore::new(
            storage_nodes,
            Placement::Random { seed },
        ));
        let users = configs
            .iter()
            .enumerate()
            .map(|(u, &cfg)| {
                GeoBackup::with_shared_remote(cfg, block_size, Arc::clone(&remote), u as u64 + 1)
            })
            .collect();
        Community { remote, users }
    }

    /// Number of member users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the community has no members.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The shared remote tier.
    pub fn remote(&self) -> &Arc<DistributedStore> {
        &self.remote
    }

    /// Borrows user `u`'s broker.
    pub fn user(&self, u: usize) -> &GeoBackup {
        &self.users[u]
    }

    /// Community-wide maintenance: every member regenerates the parities of
    /// every lattice it can (its own and, altruistically, the others').
    /// Returns total parities regenerated.
    ///
    /// Maintenance fans out per user across [`ae_api::repair_threads`]
    /// scoped threads with the same contiguous-chunk /
    /// deterministic-chunk-order-merge pattern as the repair planners —
    /// sound because each user's lattice occupies a disjoint namespaced id
    /// range of the shared tier, and re-homing probes depend only on
    /// cluster availability, never on the other users' writes.
    /// `AE_REPAIR_THREADS` overrides the width; 1 is the sequential walk.
    pub fn maintain_all(&self) -> u64 {
        let threads = ae_api::repair_threads().min(self.users.len());
        ae_api::par::par_chunks(&self.users, threads, 2, |chunk| {
            chunk.iter().map(GeoBackup::repair_remote).collect()
        })
        .into_iter()
        .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
    }

    fn backup_one(cfg: Config, file_len: usize) -> (GeoBackup, FileHandle, Vec<u8>) {
        let geo = GeoBackup::new(cfg, 64, 20, 3);
        let file = sample_file(file_len);
        let handle = geo.backup(&file);
        (geo, handle, file)
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
        let (geo, handle, file) = backup_one(Config::new(3, 2, 5).unwrap(), 1000);
        assert_eq!(
            handle.block_count, 16,
            "1000 bytes / 64-byte blocks, padded"
        );
        assert_eq!(geo.read(handle).unwrap(), file);
    }

    #[test]
    fn degraded_read_after_local_loss() {
        let (geo, handle, file) = backup_one(Config::new(3, 2, 5).unwrap(), 640);
        geo.lose_local(handle.first_node + 3);
        geo.lose_local(handle.first_node + 7);
        assert_eq!(geo.read(handle).unwrap(), file, "read decodes remotely");
        // Local copies are still missing until an explicit repair.
        let (repaired, unrecovered) = geo.repair_local(handle);
        assert_eq!((repaired, unrecovered.len()), (2, 0));
        assert_eq!(geo.repair_local(handle).0, 0, "idempotent");
    }

    #[test]
    fn repairs_survive_storage_node_failures() {
        let (geo, handle, file) = backup_one(Config::new(3, 2, 5).unwrap(), 2000);
        // Fail some remote nodes and lose ALL local data; repair in rounds,
        // regenerating reachable parities between data passes (the paper's
        // round-based decoding).
        geo.remote().with_cluster(|c| {
            for l in [1, 5, 9] {
                c.fail(crate::cluster::LocationId(l));
            }
        });
        for k in 0..handle.block_count {
            geo.lose_local(handle.first_node + k);
        }
        for round in 0..10 {
            let (_, unrecovered) = geo.repair_local(handle);
            if unrecovered.is_empty() {
                break;
            }
            let regenerated = geo.repair_remote();
            assert!(regenerated > 0 || round > 0, "no progress: {unrecovered:?}");
        }
        assert_eq!(geo.read(handle).unwrap(), file);
    }

    #[test]
    fn remote_parity_regeneration() {
        let (geo, _, _) = backup_one(Config::new(2, 2, 2).unwrap(), 1280);
        // Knock out one storage node for good: its parities are lost.
        let lost_loc = crate::cluster::LocationId(4);
        let lost: Vec<_> = geo.remote().blocks_at(lost_loc);
        for id in &lost {
            geo.remote().remove(*id);
        }
        assert!(!lost.is_empty(), "test requires some parities at n4");
        let regenerated = geo.repair_remote();
        assert_eq!(regenerated as usize, lost.len());
        for id in &lost {
            assert!(geo.remote().contains(*id), "{id} regenerated");
        }
    }

    #[test]
    fn multiple_files_share_one_lattice() {
        let geo = GeoBackup::new(Config::new(2, 1, 2).unwrap(), 32, 10, 1);
        let f1 = sample_file(100);
        let f2 = sample_file(300);
        let h1 = geo.backup(&f1);
        let h2 = geo.backup(&f2);
        assert_eq!(h2.first_node, h1.first_node + h1.block_count);
        assert_eq!(geo.read(h1).unwrap(), f1);
        assert_eq!(geo.read(h2).unwrap(), f2);
    }

    #[test]
    fn unrecoverable_loss_is_reported() {
        let (geo, handle, _) = backup_one(Config::new(2, 1, 1).unwrap(), 320);
        // Lose a local block AND all remote nodes.
        geo.lose_local(handle.first_node + 2);
        geo.remote().with_cluster(|c| {
            for l in 0..20 {
                c.fail(crate::cluster::LocationId(l));
            }
        });
        assert!(matches!(geo.read(handle), Err(GeoError::Unrecoverable(_))));
    }

    #[test]
    fn community_lattices_do_not_collide() {
        let configs = [Config::new(3, 2, 5).unwrap(), Config::new(2, 1, 2).unwrap()];
        let com = Community::new(&configs, 64, 25, 11);
        assert_eq!(com.len(), 2);
        assert!(!com.is_empty());
        let f0 = sample_file(500);
        let f1: Vec<u8> = sample_file(500).iter().map(|b| b ^ 0xFF).collect();
        let h0 = com.user(0).backup(&f0);
        let h1 = com.user(1).backup(&f1);
        // Same lattice positions, different users: contents must not mix.
        assert_eq!(h0.first_node, h1.first_node);
        assert_eq!(com.user(0).read(h0).unwrap(), f0);
        assert_eq!(com.user(1).read(h1).unwrap(), f1);
    }

    #[test]
    fn community_survives_shared_tier_failures() {
        let configs = [Config::new(3, 2, 5).unwrap(), Config::new(3, 2, 5).unwrap()];
        let com = Community::new(&configs, 64, 25, 13);
        let files: Vec<Vec<u8>> = (0..2).map(|k| sample_file(800 + k * 64)).collect();
        let handles: Vec<FileHandle> = files
            .iter()
            .enumerate()
            .map(|(u, f)| com.user(u).backup(f))
            .collect();
        // Fail a slice of the shared tier; both users lose some local data.
        com.remote().with_cluster(|c| {
            for l in [0, 5, 10, 15] {
                c.fail(crate::cluster::LocationId(l));
            }
        });
        for (u, h) in handles.iter().enumerate() {
            com.user(u).lose_local(h.first_node + 2);
            com.user(u).lose_local(h.first_node + 5);
        }
        // Community-wide maintenance re-homes what it can, then each user
        // repairs locally.
        com.maintain_all();
        for (u, h) in handles.iter().enumerate() {
            let (_, missing) = com.user(u).repair_local(*h);
            assert!(missing.is_empty(), "user {u}: {missing:?}");
            assert_eq!(com.user(u).read(*h).unwrap(), files[u]);
        }
    }

    /// The fanned-out community maintenance must regenerate exactly the
    /// same parities onto exactly the same re-homed locations as the
    /// reference serial walk — the deterministic-merge guarantee.
    #[test]
    fn parallel_maintenance_matches_serial_walk() {
        let build = || {
            let configs = [
                Config::new(3, 2, 5).unwrap(),
                Config::new(2, 2, 5).unwrap(),
                Config::new(2, 1, 2).unwrap(),
                Config::new(3, 2, 5).unwrap(),
            ];
            let com = Community::new(&configs, 32, 15, 41);
            for u in 0..com.len() {
                com.user(u).backup(&sample_file(700 + u * 96));
            }
            // Fail a third of the shared tier: many parities to regenerate.
            com.remote().with_cluster(|c| {
                for l in [0, 3, 6, 9, 12] {
                    c.fail(crate::cluster::LocationId(l));
                }
            });
            for l in [0u32, 3, 6, 9, 12] {
                for id in com.remote().blocks_at(crate::cluster::LocationId(l)) {
                    com.remote().remove(id);
                }
            }
            com
        };
        let parallel = build();
        let serial = build();
        let total_parallel = parallel.maintain_all();
        // Reference: the strictly sequential per-user walk.
        let total_serial: u64 = serial.users.iter().map(GeoBackup::repair_remote).sum();
        assert_eq!(total_parallel, total_serial);
        assert!(total_parallel > 0, "the disaster must cost something");
        // Block-for-block identical shared tier afterwards, including
        // re-homed locations.
        for l in 0..15u32 {
            let loc = crate::cluster::LocationId(l);
            let mut a = parallel.remote().blocks_at(loc);
            let mut b = serial.remote().blocks_at(loc);
            a.sort();
            b.sort();
            assert_eq!(a, b, "location {l}");
        }
    }

    /// The scheme-driven repair path must agree, block for block, with
    /// the direct decoder call the broker used to make
    /// (`decoder::repair_block` against the two tiers).
    #[test]
    fn scheme_repairs_match_legacy_decoder_path() {
        use ae_core::decoder;
        for damage_seed in 0u64..8 {
            let geo = GeoBackup::with_shared_remote(
                Config::new(2, 2, 5).unwrap(),
                32,
                Arc::new(DistributedStore::new(20, Placement::Random { seed: 3 })),
                4,
            );
            let file = sample_file(1200);
            let handle = geo.backup(&file);
            // Correlated damage: fail a couple of storage nodes and lose a
            // pseudo-random subset of the local tier.
            geo.remote().with_cluster(|c| {
                c.fail(crate::cluster::LocationId((damage_seed % 20) as u32));
                c.fail(crate::cluster::LocationId(((damage_seed + 7) % 20) as u32));
            });
            let mut state = damage_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for k in 0..handle.block_count {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (state >> 33) % 100 < 40 {
                    geo.lose_local(handle.first_node + k);
                }
            }
            let written = geo.scheme().data_written();
            let cfg = *geo.code().config();
            let zero = geo.code().zero_block().clone();
            // Every data block and parity: the generic scheme path and
            // the legacy direct decoder must agree on repairability and
            // bytes.
            let tag = |id| geo.ns(id);
            let mut legacy_lookup = |q: BlockId| match q {
                BlockId::Data(_) => geo.tiers().fast().get(tag(q)).ok(),
                BlockId::Parity(_) => geo.remote().get(tag(q)).ok(),
                _ => None,
            };
            for i in handle.first_node..handle.first_node + handle.block_count {
                let legacy = decoder::repair_block(
                    &cfg,
                    BlockId::Data(NodeId(i)),
                    written,
                    &zero,
                    &mut legacy_lookup,
                )
                .ok();
                let via_scheme = geo
                    .scheme()
                    .repair_block(geo.tiers(), geo.ns(BlockId::Data(NodeId(i))), written)
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
                    let via_scheme = geo
                        .scheme()
                        .repair_block(geo.tiers(), geo.ns(BlockId::Parity(edge)), written)
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

    #[test]
    fn geo_lattice_bijection_matches_enumeration() {
        let cfg = Config::new(3, 2, 5).unwrap();
        let scheme = GeoLattice::new(Code::new(cfg, 0), 7);
        assert!(scheme.supports_dense_index());
        let n = 40;
        let ids = scheme.block_ids(n);
        assert_eq!(scheme.universe_len(n), ids.len() as u64);
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(scheme.dense_index(id, n), Some(k as u32), "{id}");
            assert_eq!(scheme.block_at(k as u32, n), Some(*id), "{k}");
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
