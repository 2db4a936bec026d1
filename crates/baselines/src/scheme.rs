//! [`RedundancyScheme`] implementations for the baseline codes.
//!
//! Both baselines share the data id space with alpha entanglement
//! (`BlockId::Data(NodeId(i))` in write order) and emit their own
//! redundancy ids:
//!
//! * Reed-Solomon groups each run of `k` consecutive data blocks into a
//!   stripe and emits `m` [`BlockId::Shard`] parity shards per stripe. A
//!   final partial stripe is completed with *virtual* all-zero data blocks
//!   at [`RedundancyScheme::seal`] time — they are never stored, and the
//!   decoder treats them as always available.
//! * Replication emits `n − 1` [`BlockId::Replica`] copies per data block.

use crate::replication::Replication;
use crate::rs::ReedSolomon;
use ae_api::{
    AeError, BlockRepo, BlockSink, BlockSource, EncodeReport, RedundancyScheme, RepairCost,
    RepairError, RepairSummary, RoundStats, SnapshotReader, SnapshotWriter,
};
use ae_blocks::{Block, BlockId, NodeId, ReplicaId, ShardId};

impl ReedSolomon {
    /// Stripe number of data position `i` (1-based).
    fn stripe_of(&self, i: u64) -> u64 {
        (i - 1) / self.k() as u64
    }

    /// All member ids of stripe `t`, in stripe order — the `k` data
    /// blocks, then the `m` parity shards, a member's position its
    /// generator row. An iterator, so the structural checks the
    /// availability plane runs per candidate allocate nothing.
    pub(crate) fn stripe_members(&self, t: u64) -> impl Iterator<Item = BlockId> {
        let k = self.k() as u64;
        (t * k + 1..t * k + k + 1)
            .map(|i| BlockId::Data(NodeId(i)))
            .chain(
                (0..self.m() as u16).map(move |index| BlockId::Shard(ShardId { stripe: t, index })),
            )
    }

    /// The stripe a block belongs to, or `None` for foreign ids.
    fn stripe_of_id(&self, id: BlockId) -> Option<u64> {
        match id {
            BlockId::Data(NodeId(i)) if i >= 1 => Some(self.stripe_of(i)),
            BlockId::Shard(s) if usize::from(s.index) < self.m() => Some(s.stripe),
            _ => None,
        }
    }

    /// The generator row of a member of its stripe (`stripe_of_id` is
    /// `Some`): a data block's position in the stripe, or `k` + a parity
    /// shard's index.
    fn row_of(&self, id: BlockId) -> usize {
        match id {
            BlockId::Data(NodeId(i)) => ((i - 1) % self.k() as u64) as usize,
            BlockId::Shard(s) => self.k() + usize::from(s.index),
            _ => unreachable!("{id} is not a Reed-Solomon member"),
        }
    }

    /// Whether `id` is a virtual member: a data position past the written
    /// extent inside the final (padded) stripe. Virtual members are
    /// all-zero and always available.
    fn is_virtual(&self, id: BlockId, data_blocks: u64) -> bool {
        matches!(id, BlockId::Data(NodeId(i)) if i > data_blocks)
    }

    /// Encodes one stripe's data blocks into its parity shards; a final
    /// stripe's missing data blocks are virtual zeros.
    fn emit_stripe(&self, t: u64, data: &[Block], sink: &dyn BlockSink, ids: &mut Vec<BlockId>) {
        let survivors: Vec<Option<&Block>> = data.iter().map(Some).collect();
        let parity_rows: Vec<usize> = (self.k()..self.k() + self.m()).collect();
        let shards = self.members(&parity_rows, None, &survivors, data[0].len());
        for (index, shard) in shards.into_iter().enumerate() {
            let id = BlockId::Shard(ShardId {
                stripe: t,
                index: index as u16,
            });
            sink.store(id, shard);
            ids.push(id);
        }
    }

    /// Decodes the members of stripe `t` at the generator rows `wanted`.
    /// Every stored member is fetched, in stripe order; a wanted one that
    /// is missing is computed from the first `k` present (virtual members
    /// are present zeros). Fails with the unavailable members when fewer
    /// than `k` are present or the present ones disagree on length.
    fn decode_stripe(
        &self,
        source: &dyn BlockSource,
        t: u64,
        data_blocks: u64,
        wanted: &[usize],
    ) -> Result<Vec<Block>, Vec<BlockId>> {
        let mut missing = Vec::new();
        // Present members by generator row; `None` is a virtual one.
        let mut present: Vec<(usize, Option<Block>)> = Vec::new();
        for (row, id) in self.stripe_members(t).enumerate() {
            if self.is_virtual(id, data_blocks) {
                present.push((row, None));
            } else if let Some(block) = source.fetch(id) {
                present.push((row, Some(block)));
            } else {
                missing.push(id);
            }
        }
        let mut lens = present
            .iter()
            .filter_map(|(_, b)| b.as_ref().map(Block::len));
        let len = lens.next().filter(|&len| lens.all(|other| other == len));
        let Some(len) = len.filter(|_| present.len() >= self.k()) else {
            return Err(missing);
        };
        let find = |j: usize| present.iter().find(|&&(row, _)| row == j);
        // The wanted members that are missing, rebuilt in one call; the
        // decode matrix is looked up only when there is one.
        let lost: Vec<usize> = wanted
            .iter()
            .copied()
            .filter(|&j| find(j).is_none())
            .collect();
        let mut rebuilt = if lost.is_empty() {
            Vec::new()
        } else {
            let survivors = &present[..self.k()];
            let rows: Vec<usize> = survivors.iter().map(|&(row, _)| row).collect();
            let survivors: Vec<Option<&Block>> =
                survivors.iter().map(|(_, b)| b.as_ref()).collect();
            let inv = self.cached_decode_matrix(&rows);
            self.members(&lost, Some(&inv), &survivors, len)
        }
        .into_iter();
        let decode = |j: usize| match find(j) {
            Some((_, block)) => block.clone().unwrap_or_else(|| Block::zero(len)),
            None => rebuilt.next().expect("one rebuilt block per lost row"),
        };
        Ok(wanted.iter().copied().map(decode).collect())
    }
}

impl RedundancyScheme for ReedSolomon {
    fn scheme_name(&self) -> String {
        format!("RS({},{})", self.k(), self.m())
    }

    fn data_written(&self) -> u64 {
        self.enc.lock().written
    }

    fn repair_cost(&self) -> RepairCost {
        RepairCost::new(self.k() as u32, self.storage_overhead_pct())
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        let mut enc = self.enc.lock();
        // The buffered partial stripe fixes the size; a batch may not
        // change it mid-stripe.
        if let Some(first) = enc.pending.first().or(blocks.first()) {
            let expected = first.len();
            for b in blocks {
                if b.len() != expected {
                    return Err(AeError::SizeMismatch {
                        expected,
                        actual: b.len(),
                    });
                }
            }
        }
        let first_node = enc.written + 1;
        let mut ids = Vec::new();
        for b in blocks {
            enc.written += 1;
            let id = BlockId::Data(NodeId(enc.written));
            sink.store(id, b.clone());
            ids.push(id);
            enc.pending.push(b.clone());
            if enc.pending.len() == self.k() {
                let t = self.stripe_of(enc.written);
                let stripe = std::mem::take(&mut enc.pending);
                self.emit_stripe(t, &stripe, sink, &mut ids);
            }
        }
        Ok(EncodeReport { first_node, ids })
    }

    fn seal(&self, sink: &dyn BlockSink) -> Result<Vec<BlockId>, AeError> {
        let mut enc = self.enc.lock();
        if enc.pending.is_empty() {
            return Ok(Vec::new());
        }
        // The final stripe's missing data blocks are virtual zeros; only
        // its parity shards are stored.
        let stripe = std::mem::take(&mut enc.pending);
        let t = self.stripe_of(enc.written);
        let mut ids = Vec::new();
        self.emit_stripe(t, &stripe, sink, &mut ids);
        Ok(ids)
    }

    /// Version 1: `[written u64, pending u32]`. The buffered
    /// partial-stripe *data* blocks already live on the backend (data is
    /// stored immediately; only their parity is buffered), so restore
    /// refetches the last `pending` data blocks instead of embedding them.
    fn frontier_snapshot(&self) -> Vec<u8> {
        let enc = self.enc.lock();
        SnapshotWriter::new(1)
            .u64(enc.written)
            .u32(enc.pending.len() as u32)
            .finish()
    }

    fn restore_frontier(&self, snapshot: &[u8], source: &dyn BlockSource) -> Result<(), AeError> {
        let name = self.scheme_name();
        let mut r = SnapshotReader::new(snapshot, 1, &name)?;
        let written = r.u64()?;
        let pending = u64::from(r.u32()?);
        r.finish()?;
        if pending >= self.k() as u64 || pending > written {
            return Err(AeError::CorruptFrontier {
                detail: format!(
                    "{name}: {pending} buffered blocks against {written} written (stripe is {})",
                    self.k()
                ),
            });
        }
        let mut blocks: Vec<Block> = Vec::with_capacity(pending as usize);
        // (`i + 1 <= written`: no counter a snapshot holds overflows it.)
        for i in written - pending..written {
            let id = BlockId::Data(NodeId(i + 1));
            let block = source
                .fetch(id)
                .ok_or(AeError::FrontierBlockMissing { id })?;
            if let Some(first) = blocks.first() {
                if block.len() != first.len() {
                    return Err(AeError::CorruptFrontier {
                        detail: format!(
                            "{name}: buffered stripe mixes {}- and {}-byte blocks",
                            first.len(),
                            block.len()
                        ),
                    });
                }
            }
            blocks.push(block);
        }
        let mut enc = self.enc.lock();
        enc.written = written;
        enc.pending = blocks;
        Ok(())
    }

    fn frontier_reads(&self, snapshot: &[u8]) -> Vec<BlockId> {
        let parsed = SnapshotReader::new(snapshot, 1, "").and_then(|mut r| {
            let written = r.u64()?;
            Ok((written, u64::from(r.u32()?)))
        });
        match parsed {
            Ok((written, pending)) if pending < self.k() as u64 && pending <= written => {
                (written - pending..written)
                    .map(|i| BlockId::Data(NodeId(i + 1)))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let Some(t) = self.stripe_of_id(id) else {
            return Err(RepairError::ForeignBlock { id });
        };
        // A data position past the written extent is a virtual padding
        // block, not a repairable target.
        if self.is_virtual(id, data_blocks) {
            return Err(RepairError::OutOfExtent {
                id,
                written: data_blocks,
            });
        }
        match self.decode_stripe(source, t, data_blocks, &[self.row_of(id)]) {
            Ok(mut blocks) => Ok(blocks.remove(0)),
            Err(missing) => Err(RepairError::NoCompleteTuple {
                target: id,
                missing: missing.into_iter().filter(|&v| v != id).collect(),
            }),
        }
    }

    fn repair_missing(
        &self,
        repo: &dyn BlockRepo,
        targets: &[BlockId],
        data_blocks: u64,
    ) -> RepairSummary {
        // One decode per damaged stripe restores its missing members at
        // once; nothing a second round could add (MDS codes have no repair
        // chains).
        let mut missing: Vec<BlockId> = targets
            .iter()
            .copied()
            .filter(|&id| !repo.has(id))
            .collect();
        // (stripe, generator row) of every absent target, grouped by stripe
        // in ascending order, each stripe's rows ascending and distinct.
        let mut lost: Vec<(u64, usize)> = missing
            .iter()
            .filter_map(|&id| Some((self.stripe_of_id(id)?, self.row_of(id))))
            .collect();
        lost.sort_unstable();
        lost.dedup();
        let mut repaired = 0;
        let mut data_repaired = 0;
        let mut blocks_read = 0;
        for stripe in lost.chunk_by(|a, b| a.0 == b.0) {
            let t = stripe[0].0;
            let members: Vec<BlockId> = self.stripe_members(t).collect();
            let wanted: Vec<usize> = stripe.iter().map(|&(_, row)| row).collect();
            let Ok(blocks) = self.decode_stripe(repo, t, data_blocks, &wanted) else {
                continue; // stripe damaged beyond recovery
            };
            blocks_read += self.k() as u64;
            for (row, block) in wanted.into_iter().zip(blocks) {
                repo.store(members[row], block);
                repaired += 1;
                if members[row].is_data() {
                    data_repaired += 1;
                }
            }
        }
        missing.retain(|&id| !repo.has(id));
        let rounds = if repaired > 0 {
            vec![RoundStats {
                repaired,
                data_repaired,
                blocks_read,
            }]
        } else {
            Vec::new()
        };
        RepairSummary {
            rounds,
            unrecovered: missing,
            blocks_read,
        }
    }

    fn repair_traffic(&self, repaired: &[BlockId]) -> u64 {
        // One k-shard decode per touched stripe.
        let mut stripes: Vec<u64> = repaired
            .iter()
            .filter_map(|&id| self.stripe_of_id(id))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        stripes.len() as u64 * self.k() as u64
    }

    fn is_repairable(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        let Some(t) = self.stripe_of_id(id) else {
            return false;
        };
        if self.is_virtual(id, data_blocks) {
            return false; // padding blocks are not stored, never repaired
        }
        // Every other non-virtual member is asked, even once k have
        // answered present: they are the read set of the stripe decode
        // `repair_block` runs (the trait's contract).
        let available = self
            .stripe_members(t)
            .filter(|&v| v != id)
            .filter(|&v| self.is_virtual(v, data_blocks) || avail(v))
            .count();
        available >= self.k()
    }

    fn is_single_failure(
        &self,
        id: BlockId,
        data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        // Fig 13's RS definition: the target is the *only* missing member
        // of its stripe.
        let Some(t) = self.stripe_of_id(id) else {
            return false;
        };
        self.stripe_members(t)
            .filter(|&v| v != id)
            .all(|v| self.is_virtual(v, data_blocks) || avail(v))
    }

    fn repair_group(&self, id: &BlockId, data_blocks: u64) -> Option<u64> {
        // A missing member sees every other member of its stripe, and so
        // the same count of available ones as any other missing member:
        // k or more rebuild it, and it is a single failure only when it
        // is the stripe's one missing member. The bounds are
        // `dense_index`'s: stored members only.
        match *id {
            BlockId::Data(NodeId(i)) if (1..=data_blocks).contains(&i) => Some(self.stripe_of(i)),
            BlockId::Shard(s)
                if usize::from(s.index) < self.m()
                    && s.stripe
                        .checked_mul(self.k() as u64)
                        .is_some_and(|first| first < data_blocks) =>
            {
                Some(s.stripe)
            }
            _ => None,
        }
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        data_blocks + data_blocks.div_ceil(self.k() as u64) * self.m() as u64
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        // Write order: per stripe, its stored data blocks then its m
        // parity shards. Only the final stripe can be partial, so every
        // stripe before `t` contributes exactly k + m blocks.
        let (k, m) = (self.k() as u64, self.m() as u64);
        let idx = match *id {
            BlockId::Data(NodeId(i)) if (1..=data_blocks).contains(&i) => {
                let t = (i - 1) / k;
                t * (k + m) + (i - 1) % k
            }
            BlockId::Shard(ShardId { stripe, index }) => {
                // Past the last stripe when its first data position is
                // past the extent: `stripe >= ⌈data_blocks / k⌉` without
                // the division.
                if u64::from(index) >= m
                    || stripe
                        .checked_mul(k)
                        .is_none_or(|first| first >= data_blocks)
                {
                    return None;
                }
                let stored_data = (data_blocks - stripe * k).min(k);
                stripe * (k + m) + stored_data + u64::from(index)
            }
            _ => return None,
        };
        u32::try_from(idx).ok()
    }

    fn block_at(&self, q: u32, data_blocks: u64) -> Option<BlockId> {
        // Inverse of dense_index. Every stripe before the last contributes
        // exactly k + m positions; the final stripe may store fewer data
        // blocks (virtual padding is never stored) but always m shards.
        let (k, m) = (self.k() as u64, self.m() as u64);
        let q = u64::from(q);
        let full_stripes = data_blocks / k;
        let regular = full_stripes * (k + m);
        if q < regular {
            let (t, r) = (q / (k + m), q % (k + m));
            return Some(if r < k {
                BlockId::Data(NodeId(t * k + r + 1))
            } else {
                BlockId::Shard(ShardId {
                    stripe: t,
                    index: (r - k) as u16,
                })
            });
        }
        // Inside the partial final stripe (if any): its stored data blocks
        // first, then its m shards.
        let rem_data = data_blocks - full_stripes * k;
        if rem_data == 0 {
            return None; // no partial stripe: q is past the universe
        }
        let r = q - regular;
        if r < rem_data {
            Some(BlockId::Data(NodeId(full_stripes * k + r + 1)))
        } else if r < rem_data + m {
            Some(BlockId::Shard(ShardId {
                stripe: full_stripes,
                index: (r - rem_data) as u16,
            }))
        } else {
            None
        }
    }
}

impl Replication {
    /// All ids of `id`'s replica group except `id` itself, in copy order
    /// (the original first). An iterator, so the structural check the
    /// availability plane runs per candidate allocates nothing.
    fn other_copies(&self, id: BlockId) -> Option<impl Iterator<Item = BlockId>> {
        let n = self.copies() as u16;
        let (node, skip) = match id {
            BlockId::Data(node) => (node, 0),
            BlockId::Replica(r) if (1..n).contains(&r.copy) => (r.node, r.copy),
            _ => return None,
        };
        let original = (skip != 0).then_some(BlockId::Data(node));
        let copies = (1..n)
            .filter(move |&copy| copy != skip)
            .map(move |copy| BlockId::Replica(ReplicaId { node, copy }));
        Some(original.into_iter().chain(copies))
    }
}

impl RedundancyScheme for Replication {
    fn scheme_name(&self) -> String {
        format!("{}-way replic.", self.copies())
    }

    fn data_written(&self) -> u64 {
        *self.written.lock()
    }

    fn repair_cost(&self) -> RepairCost {
        RepairCost::new(1, self.storage_overhead_pct())
    }

    fn encode_batch(
        &self,
        blocks: &[Block],
        sink: &dyn BlockSink,
    ) -> Result<EncodeReport, AeError> {
        let mut written = self.written.lock();
        let first_node = *written + 1;
        let mut ids = Vec::with_capacity(blocks.len() * self.copies());
        for b in blocks {
            *written += 1;
            let node = NodeId(*written);
            sink.store(BlockId::Data(node), b.clone());
            ids.push(BlockId::Data(node));
            for copy in 1..self.copies() as u16 {
                let id = BlockId::Replica(ReplicaId { node, copy });
                sink.store(id, b.clone());
                ids.push(id);
            }
        }
        Ok(EncodeReport { first_node, ids })
    }

    /// Version 1: `[written u64]` — the write counter is replication's
    /// entire encoder state.
    fn frontier_snapshot(&self) -> Vec<u8> {
        SnapshotWriter::new(1).u64(*self.written.lock()).finish()
    }

    fn restore_frontier(&self, snapshot: &[u8], _source: &dyn BlockSource) -> Result<(), AeError> {
        let name = self.scheme_name();
        let mut r = SnapshotReader::new(snapshot, 1, &name)?;
        let written = r.u64()?;
        r.finish()?;
        *self.written.lock() = written;
        Ok(())
    }

    fn repair_block(
        &self,
        source: &dyn BlockSource,
        id: BlockId,
        _data_blocks: u64,
    ) -> Result<Block, RepairError> {
        let Some(others) = self.other_copies(id) else {
            return Err(RepairError::ForeignBlock { id });
        };
        let others: Vec<BlockId> = others.collect();
        // Any surviving verified copy will do.
        for &other in &others {
            if let Some(b) = source.fetch(other) {
                if b.verify().is_ok() {
                    return Ok(b);
                }
            }
        }
        Err(RepairError::NoCompleteTuple {
            target: id,
            missing: others,
        })
    }

    fn is_repairable(
        &self,
        id: BlockId,
        _data_blocks: u64,
        avail: &dyn Fn(BlockId) -> bool,
    ) -> bool {
        // Stops at the first copy present: the one `repair_block` reads.
        self.other_copies(id)
            .is_some_and(|mut others| others.any(avail))
    }

    fn universe_len(&self, data_blocks: u64) -> u64 {
        data_blocks * self.copies() as u64
    }

    fn dense_index(&self, id: &BlockId, data_blocks: u64) -> Option<u32> {
        // Write order: per data block, the original then its copies in
        // copy order — a fixed stride of n per node.
        let n = self.copies() as u64;
        let idx = match *id {
            BlockId::Data(NodeId(i)) if (1..=data_blocks).contains(&i) => (i - 1) * n,
            BlockId::Replica(ReplicaId {
                node: NodeId(i),
                copy,
            }) if (1..=data_blocks).contains(&i) && (1..self.copies() as u16).contains(&copy) => {
                (i - 1) * n + u64::from(copy)
            }
            _ => return None,
        };
        u32::try_from(idx).ok()
    }

    fn block_at(&self, q: u32, data_blocks: u64) -> Option<BlockId> {
        // Inverse of dense_index: a fixed stride of n per data block.
        let n = self.copies() as u64;
        let (i, copy) = (u64::from(q) / n + 1, u64::from(q) % n);
        if i > data_blocks {
            return None;
        }
        Some(if copy == 0 {
            BlockId::Data(NodeId(i))
        } else {
            BlockId::Replica(ReplicaId {
                node: NodeId(i),
                copy: copy as u16,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_api::BlockMap;
    use std::collections::BTreeSet;

    fn payload(n: usize, len: usize) -> Vec<Block> {
        (0..n)
            .map(|i| Block::from_vec((0..len).map(|b| ((i * 37 + b * 11) % 251) as u8).collect()))
            .collect()
    }

    #[test]
    fn rs_rejects_size_change_against_buffered_stripe() {
        // The buffered partial stripe fixes the block size: a later batch
        // with a different size must fail without writing anything.
        let rs = ReedSolomon::new(4, 2).unwrap();
        let store = BlockMap::new();
        rs.encode_batch(&payload(2, 32), &store).unwrap();
        let before = store.len();
        let err = rs.encode_batch(&payload(2, 16), &store).unwrap_err();
        assert!(matches!(
            err,
            ae_api::AeError::SizeMismatch {
                expected: 32,
                actual: 16
            }
        ));
        assert_eq!(store.len(), before, "failed batch must not write");
        assert_eq!(rs.data_written(), 2);
    }

    #[test]
    fn rs_out_of_extent_targets_error_not_fabricate() {
        // Virtual padding positions of the sealed final stripe are not
        // repairable targets: no Ok(zero block), no oracle "true".
        let rs = ReedSolomon::new(4, 2).unwrap();
        let store = BlockMap::new();
        rs.encode_batch(&payload(10, 16), &store).unwrap();
        rs.seal(&store).unwrap();
        let ghost = BlockId::Data(NodeId(11));
        assert!(matches!(
            rs.repair_block(&store, ghost, 10),
            Err(RepairError::OutOfExtent { written: 10, .. })
        ));
        assert!(!rs.is_repairable(ghost, 10, &|_| true));
    }

    #[test]
    fn rs_repair_missing_decodes_each_damaged_stripe_once() {
        // RS(10,4) over 1 001 stripes of 32-byte blocks, the last one
        // padded (5 data blocks): every stripe loses 1–4 members, every
        // 50th loses 5 or 6 (more than m), the padded one loses 2 of its
        // 9 stored members, and the targets come in a scrambled order
        // with every 7th stripe's survivors asked too.
        let (k, m) = (10u64, 4u64);
        let n = 1_000 * k + 5;
        let stripes = n.div_ceil(k);
        let rs = ReedSolomon::new(k as usize, m as usize).unwrap();
        let store = BlockMap::new();
        rs.encode_batch(&payload(n as usize, 32), &store).unwrap();
        rs.seal(&store).unwrap();
        let mut mix = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            mix = mix
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            mix >> 33
        };
        let mut lost: Vec<BlockId> = Vec::new();
        let mut asked: Vec<BlockId> = Vec::new();
        let mut over_m: BTreeSet<u64> = BTreeSet::new();
        for t in 0..stripes {
            let mut members: Vec<BlockId> = rs
                .stripe_members(t)
                .filter(|&id| !rs.is_virtual(id, n))
                .collect();
            let count = if t == stripes - 1 {
                2
            } else if t % 50 == 25 {
                over_m.insert(t);
                5 + (t / 50 % 2) as usize
            } else {
                1 + (next() % m) as usize
            };
            for i in 0..count {
                let j = i + (next() as usize) % (members.len() - i);
                members.swap(i, j);
            }
            lost.extend(&members[..count]);
            if t % 7 == 0 {
                asked.extend(&members[count..]);
            }
        }
        assert_eq!(over_m.len(), 20);
        let mut targets: Vec<BlockId> = lost.iter().chain(&asked).copied().collect();
        for i in (1..targets.len()).rev() {
            targets.swap(i, (next() as usize) % (i + 1));
        }
        let originals: Vec<(BlockId, Block)> = lost
            .iter()
            .map(|&id| (id, store.remove(&id).unwrap()))
            .collect();
        let twin = store.clone();

        let summary = rs.repair_missing(&store, &targets, n);
        let decoded = stripes - over_m.len() as u64;
        assert_eq!(
            summary.blocks_read,
            decoded * k,
            "k reads per decoded stripe"
        );
        let expected: Vec<BlockId> = targets
            .iter()
            .copied()
            .filter(|&id| over_m.contains(&rs.stripe_of_id(id).unwrap()) && lost.contains(&id))
            .collect();
        assert_eq!(
            summary.unrecovered, expected,
            "the over-m stripes' targets, in target order"
        );
        for (id, original) in &originals {
            let stripe = rs.stripe_of_id(*id).unwrap();
            let want = (!over_m.contains(&stripe)).then_some(original);
            assert_eq!(store.get(id).as_ref(), want, "{id}");
        }

        let serial = rs.repair_missing_serial(&twin, &targets, n);
        assert_eq!(summary, serial);
        assert_eq!(store, twin);
    }

    #[test]
    fn rs_scheme_roundtrip_with_seal() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let store = BlockMap::new();
        let blocks = payload(10, 32); // 2 full stripes + 2 pending
        let report = rs.encode_batch(&blocks, &store).unwrap();
        assert_eq!(report.data_written(), 10);
        assert_eq!(report.redundancy_written(), 4, "2 stripes x 2 shards");
        let sealed = rs.seal(&store).unwrap();
        assert_eq!(sealed.len(), 2, "final padded stripe's shards");
        assert_eq!(rs.data_written(), 10);
        assert_eq!(rs.scheme_name(), "RS(4,2)");

        // Lose two members of the padded stripe (its max erasures).
        let victims = [BlockId::Data(NodeId(9)), BlockId::Data(NodeId(10))];
        let originals: Vec<Block> = victims.iter().map(|v| store.remove(v).unwrap()).collect();
        let summary = rs.repair_missing(&store, &victims, 10);
        assert!(summary.fully_recovered());
        assert_eq!(summary.blocks_read, 4, "one k-shard decode");
        for (v, o) in victims.iter().zip(&originals) {
            assert_eq!(store.get(v).as_ref(), Some(o));
        }
    }

    #[test]
    fn rs_repair_block_and_errors() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let store = BlockMap::new();
        rs.encode_batch(&payload(6, 16), &store).unwrap();

        let victim = BlockId::Shard(ShardId {
            stripe: 0,
            index: 1,
        });
        let original = store.remove(&victim).unwrap();
        assert_eq!(rs.repair_block(&store, victim, 6).unwrap(), original);

        // Erase beyond m: the error names the unavailable members.
        store.remove(&BlockId::Data(NodeId(1)));
        store.remove(&BlockId::Data(NodeId(2)));
        let err = rs.repair_block(&store, victim, 6).unwrap_err();
        match err {
            RepairError::NoCompleteTuple { target, missing } => {
                assert_eq!(target, victim);
                assert!(missing.contains(&BlockId::Data(NodeId(1))));
                assert!(missing.contains(&BlockId::Data(NodeId(2))));
                assert!(!missing.contains(&victim));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A shard index past m is no member of any stripe.
        let ghost = BlockId::Shard(ShardId {
            stripe: 0,
            index: 2,
        });
        assert_eq!(
            rs.repair_block(&store, ghost, 6),
            Err(RepairError::ForeignBlock { id: ghost })
        );
        assert!(!rs.is_repairable(ghost, 6, &|_| true));
        assert!(matches!(
            rs.repair_block(
                &store,
                BlockId::Parity(ae_blocks::EdgeId::new(
                    ae_blocks::StrandClass::Horizontal,
                    NodeId(1)
                )),
                6
            ),
            Err(RepairError::ForeignBlock { .. })
        ));
    }

    #[test]
    fn rs_structure_and_costs() {
        let rs = ReedSolomon::new(10, 4).unwrap();
        assert_eq!(rs.repair_cost().single_failure_reads, 10);
        assert!((rs.repair_cost().additional_storage_pct - 40.0).abs() < 1e-9);
        let ids = rs.block_ids(100);
        assert_eq!(ids.len(), 100 + 10 * 4);

        // A stripe missing exactly m members: repairable; m+1: not.
        let t0: Vec<BlockId> = rs.stripe_members(0).collect();
        let down: Vec<BlockId> = t0[..4].to_vec();
        let avail = |id: BlockId| !down.contains(&id);
        assert!(rs.is_repairable(t0[0], 100, &avail));
        assert!(!rs.is_single_failure(t0[0], 100, &avail));
        let down5: Vec<BlockId> = t0[..5].to_vec();
        let avail5 = |id: BlockId| !down5.contains(&id);
        assert!(!rs.is_repairable(t0[0], 100, &avail5));

        // Only missing member of its stripe: a single failure.
        let only = |id: BlockId| id != t0[0];
        assert!(rs.is_single_failure(t0[0], 100, &only));
    }

    #[test]
    fn repair_traffic_charges_one_decode_per_touched_stripe_in_any_order() {
        // RS(4,2) over 10 data blocks: stripes 0 and 1 are full, stripe 2
        // holds data 9 and 10 (two virtual members) and its two shards.
        let rs = ReedSolomon::new(4, 2).unwrap();
        let shard = |stripe, index| BlockId::Shard(ShardId { stripe, index });
        let data = |i| BlockId::Data(NodeId(i));
        let mut repaired = vec![
            shard(2, 1),
            data(5),
            data(10),
            data(1),
            shard(0, 0),
            data(5),
            data(9),
            shard(2, 1),
            data(2),
            BlockId::Replica(ReplicaId {
                node: NodeId(3),
                copy: 1,
            }),
        ];
        // Stripes 0, 1 and 2: three 4-shard decodes; the replica is foreign.
        assert_eq!(rs.repair_traffic(&repaired), 3 * 4);
        for _ in 0..repaired.len() {
            repaired.rotate_left(1);
            assert_eq!(rs.repair_traffic(&repaired), 3 * 4);
        }
        repaired.reverse();
        assert_eq!(rs.repair_traffic(&repaired), 3 * 4);
        assert_eq!(rs.repair_traffic(&[data(9), shard(2, 0), data(10)]), 4);
        assert_eq!(rs.repair_traffic(&[]), 0);
    }

    /// The ids `is_repairable` asks about, in order, when `present`
    /// answers for the oracle.
    fn asked(
        scheme: &dyn RedundancyScheme,
        id: BlockId,
        data_blocks: u64,
        present: impl Fn(BlockId) -> bool,
    ) -> Vec<BlockId> {
        let log = std::cell::RefCell::new(Vec::new());
        scheme.is_repairable(id, data_blocks, &|v| {
            log.borrow_mut().push(v);
            present(v)
        });
        log.into_inner()
    }

    /// `is_repairable` asks about exactly the read set of a single-block
    /// repair, in order — the archive's degraded-read prefetch fetches
    /// what it asks (`RedundancyScheme::is_repairable`'s contract), so an
    /// early exit fails here rather than in `wan_rtts.csv`.
    #[test]
    fn is_repairable_asks_the_repair_read_set_in_order() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = |i| BlockId::Data(NodeId(i));
        let shard = |stripe, index| BlockId::Shard(ShardId { stripe, index });
        // RS asks all k + m − 1 other members in stripe order, even when
        // the first k already answered present.
        let others = vec![data(1), data(3), data(4), shard(0, 0), shard(0, 1)];
        assert_eq!(asked(&rs, data(2), 100, |_| true), others);
        assert_eq!(asked(&rs, data(2), 100, |_| false), others);
        // ... and never a virtual member of the padded final stripe.
        assert_eq!(
            asked(&rs, data(5), 6, |_| true),
            vec![data(6), shard(1, 0), shard(1, 1)]
        );
        // Replication asks the other copies in copy order, the original
        // first, and stops at the first one present: the copy
        // `repair_block` reads.
        let repl = Replication::new(4);
        let copy = |copy| {
            BlockId::Replica(ReplicaId {
                node: NodeId(5),
                copy,
            })
        };
        assert_eq!(
            asked(&repl, copy(2), 9, |_| false),
            vec![data(5), copy(1), copy(3)]
        );
        assert_eq!(
            asked(&repl, copy(2), 9, |v| v == copy(1)),
            vec![data(5), copy(1)]
        );
        assert_eq!(asked(&repl, data(5), 9, |_| true), vec![copy(1)]);
    }

    /// Encodes `n` blocks through `scheme` in batches of 3, 1, 5, 2, 3,
    /// … (the last one cut short), then seals: the ids the scheme
    /// reported writing, in order.
    fn written(scheme: &dyn RedundancyScheme, n: usize) -> Vec<BlockId> {
        let store = BlockMap::new();
        let mut ids = Vec::new();
        let mut left = n;
        for size in [3, 1, 5, 2].into_iter().cycle() {
            if left == 0 {
                break;
            }
            let batch = vec![Block::zero(8); size.min(left)];
            left -= batch.len();
            ids.extend(scheme.encode_batch(&batch, &store).unwrap().ids);
        }
        ids.extend(scheme.seal(&store).unwrap());
        ids
    }

    /// The bijection is the write order: what `encode_batch` reports and
    /// `seal` returns is `block_at` over the whole universe, each id at
    /// the position `dense_index` gives it.
    #[test]
    fn dense_index_matches_block_ids_enumeration() {
        // Partial final stripes included: 23 data blocks over RS(4,2) and
        // RS(10,4) leave 3 data blocks in the last stripe, which only the
        // seal flushes.
        let schemes = || -> Vec<Box<dyn RedundancyScheme>> {
            vec![
                Box::new(ReedSolomon::new(4, 2).unwrap()),
                Box::new(ReedSolomon::new(10, 4).unwrap()),
                Box::new(Replication::new(2)),
                Box::new(Replication::new(3)),
            ]
        };
        for n in [1u64, 4, 23] {
            for scheme in schemes() {
                let name = scheme.scheme_name();
                let ids = written(&*scheme, n as usize);
                assert_eq!(ids, scheme.block_ids(n), "{name} n={n}");
                for (k, id) in ids.iter().enumerate() {
                    assert_eq!(
                        scheme.dense_index(id, n),
                        Some(k as u32),
                        "{name} n={n}: {id}"
                    );
                }
                assert_eq!(scheme.block_at(ids.len() as u32, n), None, "{name} n={n}");
                // Outside the universe.
                assert_eq!(scheme.dense_index(&BlockId::Data(NodeId(0)), n), None);
                assert_eq!(scheme.dense_index(&BlockId::Data(NodeId(n + 1)), n), None);
                let foreign = BlockId::Parity(ae_blocks::EdgeId::new(
                    ae_blocks::StrandClass::Horizontal,
                    NodeId(1),
                ));
                assert_eq!(scheme.dense_index(&foreign, n), None, "{name}");
            }
        }
        // Shard ids past the stripe count or parity width are rejected.
        let rs = ReedSolomon::new(4, 2).unwrap();
        let ghost_stripe = BlockId::Shard(ShardId {
            stripe: 6,
            index: 0,
        });
        let ghost_index = BlockId::Shard(ShardId {
            stripe: 0,
            index: 2,
        });
        assert_eq!(rs.dense_index(&ghost_stripe, 23), None);
        assert_eq!(rs.dense_index(&ghost_index, 23), None);
        // Replication rejects copy 0 (that's the data block itself) and
        // copies at or past n.
        let repl = Replication::new(3);
        for copy in [0u16, 3, 9] {
            let ghost = BlockId::Replica(ReplicaId {
                node: NodeId(1),
                copy,
            });
            assert_eq!(repl.dense_index(&ghost, 23), None, "copy {copy}");
        }
    }

    #[test]
    fn rs_frontier_restores_partial_stripe_from_backend() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let store = BlockMap::new();
        rs.encode_batch(&payload(10, 32), &store).unwrap(); // 2 buffered
        let snap = rs.frontier_snapshot();

        let resumed = ReedSolomon::new(4, 2).unwrap();
        resumed.restore_frontier(&snap, &store).unwrap();
        assert_eq!(resumed.data_written(), 10);
        // Both instances must emit identical blocks (and the identical
        // final-stripe parity) from here on.
        let (a, b) = (BlockMap::new(), BlockMap::new());
        let more = payload(3, 32);
        rs.encode_batch(&more, &a).unwrap();
        resumed.encode_batch(&more, &b).unwrap();
        rs.seal(&a).unwrap();
        resumed.seal(&b).unwrap();
        assert_eq!(a, b, "post-restore stripes are bit-identical");

        // Losing a buffered data block makes the restore name it.
        store.remove(&BlockId::Data(NodeId(10)));
        let broken = ReedSolomon::new(4, 2).unwrap();
        assert!(matches!(
            broken.restore_frontier(&snap, &store),
            Err(ae_api::AeError::FrontierBlockMissing { id }) if id == BlockId::Data(NodeId(10))
        ));
        // Inconsistent counters are typed.
        let bogus = ae_api::SnapshotWriter::new(1).u64(2).u32(3).finish();
        assert!(matches!(
            broken.restore_frontier(&bogus, &store),
            Err(ae_api::AeError::CorruptFrontier { .. })
        ));
    }

    #[test]
    fn replication_frontier_is_the_write_counter() {
        let r = Replication::new(3);
        let store = BlockMap::new();
        r.encode_batch(&payload(5, 8), &store).unwrap();
        let resumed = Replication::new(3);
        resumed
            .restore_frontier(&r.frontier_snapshot(), &store)
            .unwrap();
        assert_eq!(resumed.data_written(), 5);
        let (a, b) = (BlockMap::new(), BlockMap::new());
        let more = payload(2, 8);
        r.encode_batch(&more, &a).unwrap();
        resumed.encode_batch(&more, &b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replication_scheme_roundtrip() {
        let r = Replication::new(3);
        let store = BlockMap::new();
        let blocks = payload(5, 8);
        let report = r.encode_batch(&blocks, &store).unwrap();
        assert_eq!(report.ids.len(), 15);
        assert_eq!(r.scheme_name(), "3-way replic.");
        assert_eq!(r.repair_cost().single_failure_reads, 1);

        // Lose the original and one copy; the third still repairs both.
        let d = BlockId::Data(NodeId(3));
        let c1 = BlockId::Replica(ReplicaId {
            node: NodeId(3),
            copy: 1,
        });
        let original = store.remove(&d).unwrap();
        store.remove(&c1);
        let summary = r.repair_missing(&store, &[d, c1], 5);
        assert!(summary.fully_recovered());
        assert_eq!(store.get(&d).unwrap(), original);

        // All copies gone: unrecoverable, error lists the copies tried.
        let d5 = BlockId::Data(NodeId(5));
        store.remove(&d5);
        for copy in 1..3u16 {
            store.remove(&BlockId::Replica(ReplicaId {
                node: NodeId(5),
                copy,
            }));
        }
        let err = r.repair_block(&store, d5, 5).unwrap_err();
        assert_eq!(err.missing_blocks().len(), 2);
    }

    #[test]
    fn replication_structure() {
        let r = Replication::new(2);
        let ids = r.block_ids(4);
        assert_eq!(ids.len(), 8);
        let d1 = BlockId::Data(NodeId(1));
        let r1 = BlockId::Replica(ReplicaId {
            node: NodeId(1),
            copy: 1,
        });
        assert!(r.is_repairable(d1, 4, &|id| id == r1));
        assert!(!r.is_repairable(d1, 4, &|_| false));
        assert!(r.is_repairable(r1, 4, &|id| id == d1));
        // Foreign ids are not repairable and error out.
        assert!(!r.is_repairable(
            BlockId::Shard(ShardId {
                stripe: 0,
                index: 0
            }),
            4,
            &|_| true
        ));
    }
}
