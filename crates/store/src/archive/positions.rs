//! Which blocks an archive has stored, by position.
//!
//! # Position-first
//!
//! The archive holds **no per-block state**. Every scheme answers
//! [`RedundancyScheme::block_at`] in O(1), so "which blocks did this
//! archive store" is two counters — data blocks and stored blocks — and
//! the `k`-th stored block *is* `block_at(k, data)`: `put` verifies each
//! id the scheme reports against that arithmetic as it goes (and that
//! data block `j` is `Data(base + j)`, the shared data-id space of the
//! trait), the journal records counts, `get` computes its extent's ids,
//! `open` rebuilds nothing per block, and a checkpoint is the manifest
//! streamed once from where it lives. The only materialised id list is
//! the one [`super::Archive::stored_ids`] hands out by reference, built
//! on first call — drills, `scrub` and the chained-repair slow path use
//! it; `put`, `get` and `open` never do. This is the archive's one
//! id ⇄ position path, as it is the availability plane's: the trait
//! requires the bijection of every scheme, and a report that disagrees
//! with `block_at` is the scheme's bug — a panic in `put`/`seal`.
//! Positions are `u32` ([`RedundancyScheme::block_at`]), so a `put` or
//! `seal` that could take the stored count past `u32::MAX` is refused
//! with [`super::ArchiveError::TooLarge`] before anything is encoded.

use crate::meta::RecordError;
use ae_api::RedundancyScheme;
use ae_blocks::{BlockId, NodeId};
use std::sync::OnceLock;

/// The position-first block log: stored block `k` is
/// `scheme.block_at(k, data)` and data block `j` is `Data(base + j)`,
/// every id verified as it was stored — two counters, whatever the
/// archive's size. Exactly what the backend should hold, honouring
/// buffered redundancy: the scrub/repair target universe, and what the
/// manifest extents count into.
#[derive(Default)]
pub(super) struct Positions {
    /// Data blocks written.
    pub(super) data: u64,
    /// Blocks stored (data + redundancy + sealed).
    pub(super) stored: u64,
    /// Node number of the first data block (meaningless while
    /// `data == 0`).
    base: u64,
    /// What [`super::Archive::stored_ids`] hands out by reference: built
    /// on first call, kept current afterwards.
    listed: OnceLock<Vec<BlockId>>,
}

/// Positions are `u32` ([`RedundancyScheme::block_at`]): the most blocks
/// a position-first archive can hold.
pub(super) const POSITION_CEILING: u64 = u32::MAX as u64;

impl Positions {
    /// The node number of data block 0 in an archive grown to
    /// `data_after` data blocks: known already, or read off position 0 —
    /// `None` if that is not a data block.
    fn base_at(&self, scheme: &dyn RedundancyScheme, data_after: u64) -> Option<u64> {
        if self.data > 0 || data_after == 0 {
            return Some(self.base);
        }
        match scheme.block_at(0, data_after)? {
            BlockId::Data(NodeId(first)) => Some(first),
            _ => None,
        }
    }

    /// Replays a positional record: `count` more stored blocks, taking
    /// the archive to `data_after` data blocks. Nothing is resolved per
    /// block; the counters are checked against the position space and the
    /// scheme's universe instead.
    pub(super) fn advance(
        &mut self,
        scheme: &dyn RedundancyScheme,
        data_after: u64,
        count: u32,
    ) -> Result<(), RecordError> {
        let added = data_after.checked_sub(self.data);
        if added.is_none_or(|added| added > u64::from(count)) {
            return Err(format!(
                "{count} stored blocks cannot take {} data blocks to {data_after}",
                self.data
            ));
        }
        // `data <= stored` held before, so now `data_after <= end`: the
        // universe is asked about a count the ceiling already bounds.
        let end = self.stored + u64::from(count);
        if end > POSITION_CEILING || end > scheme.universe_len(data_after) {
            return Err(format!(
                "{end} stored blocks exceed the universe of {data_after} data blocks"
            ));
        }
        let Some(base) = self.base_at(scheme, data_after) else {
            return Err("position 0 is not a data block".into());
        };
        *self = Positions {
            data: data_after,
            stored: end,
            base,
            listed: OnceLock::new(),
        };
        Ok(())
    }

    /// Logs the `ids` one mutation stored, taking the archive to
    /// `data_after` data blocks, and answers the count its record
    /// carries — every id checked, here, to be where the scheme's
    /// arithmetic says: id `i` is `block_at(stored + i, data_after)`, and
    /// the data blocks among them `Data(base + data)`, `Data(base + data +
    /// 1)`, … up to `data_after`.
    ///
    /// # Panics
    ///
    /// Panics, naming the scheme, the position and both ids, if the
    /// report disagrees with `block_at`: the scheme's bijection is not
    /// the one it writes by, and nothing journaled from here on could be
    /// found again.
    pub(super) fn push(
        &mut self,
        scheme: &dyn RedundancyScheme,
        data_after: u64,
        ids: &[BlockId],
    ) -> u32 {
        let broke =
            |why: String| -> ! { panic!("{} broke its bijection: {why}", scheme.scheme_name()) };
        let end = self.stored + ids.len() as u64;
        if end > POSITION_CEILING {
            broke(format!("{end} stored blocks exceed the position space"));
        }
        let Some(base) = self.base_at(scheme, data_after) else {
            broke("position 0 is not a data block".into())
        };
        let mut next_data = self.data;
        for (k, &id) in (self.stored..).zip(ids) {
            let at = scheme.block_at(k as u32, data_after);
            if at != Some(id) {
                let at = at.map_or("nothing".to_string(), |at| at.to_string());
                broke(format!(
                    "position {k} of {data_after} data blocks holds {at} by block_at, \
                     {id} by the scheme's report"
                ));
            }
            if id.is_data() {
                let in_order = BlockId::Data(NodeId(base + next_data));
                if id != in_order {
                    broke(format!(
                        "data block {next_data} is {in_order} by write order, \
                         {id} by the scheme's report"
                    ));
                }
                next_data += 1;
            }
        }
        if next_data != data_after {
            broke(format!(
                "the ids take {} data blocks to {next_data}, not {data_after}",
                self.data
            ));
        }
        (self.data, self.base, self.stored) = (data_after, base, end);
        if let Some(list) = self.listed.get_mut() {
            list.extend_from_slice(ids);
        }
        ids.len() as u32
    }

    /// Every stored id in write order, materialised on first use.
    pub(super) fn list(&self, scheme: &dyn RedundancyScheme) -> &[BlockId] {
        self.listed.get_or_init(|| {
            let at = |k| scheme.block_at(k, self.data);
            (0..self.stored as u32)
                .map(|k| at(k).expect("stored positions lie inside the universe"))
                .collect()
        })
    }

    /// The ids of data blocks `range` (0-based, write order).
    pub(super) fn data_ids(
        &self,
        range: std::ops::Range<u64>,
    ) -> impl Iterator<Item = BlockId> + Clone + '_ {
        range.map(move |j| BlockId::Data(NodeId(self.base + j)))
    }
}
