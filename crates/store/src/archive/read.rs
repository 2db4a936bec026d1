//! The read side of an archive: `get` with its degraded-read repair
//! paths, end-to-end verification, and `scrub` — whose scheme-block half
//! lives here and whose metadata half is the journal's `heal`.

use super::io::{remove_all, store_all, Asked, MaskOne, Prefetched, Window};
use super::{Archive, ArchiveError};
use ae_api::{BlockRepo, BlockSource, Overlay, RepairError, StoreError};
use ae_blocks::{crc32_zeros, Block, BlockId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};

impl<B: BlockRepo + ?Sized> Archive<B> {
    /// Reads a file back, repairing missing blocks on the fly (a degraded
    /// read; repaired blocks are **not** written back — use
    /// [`Self::scrub`]), and verifying the manifest checksum.
    ///
    /// The file's blocks are read in runs. If any read fails, the
    /// survivors the single-block repairs will consult are planned and
    /// fetched as batches too, and the repairs then run against those
    /// answers (see "Dependent reads" in the module docs) — reading only
    /// the file's blocks and the tuple members of the missing ones,
    /// however large the archive. A chained reconstruction, which no
    /// single repair option serves, goes to the closure rounds: it reads
    /// the neighbourhood of the loss, a round at a time.
    ///
    /// Each byte is checksummed once. The manifest checksum is composed
    /// from the checksums of the whole blocks, as `put` composed it, and
    /// only a partial last block's bytes are summed again. That is as
    /// strong as a pass over the file: a block read `Ok` carries the
    /// checksum of its bytes (the read contract of
    /// [`BlockSource::read`]), and a repaired block's checksum is summed
    /// from its bytes or follows from its operands' by CRC32's XOR
    /// linearity — exactly, as no public `Block` constructor takes a
    /// checksum — so garbled operands show as a mismatch.
    pub fn get(&self, name: &str) -> Result<Vec<u8>, ArchiveError> {
        let unknown = || ArchiveError::UnknownFile(name.to_string());
        let entry = self.manifest.get(name).ok_or_else(unknown)?;
        let extent = entry.first_block..entry.first_block + entry.block_count;
        let (store, bs): (&B, usize) = (&self.store, self.block_size);
        // Each block is appended as its read is consumed, with its
        // checksum; a failed one leaves a hole of zeros for its repair
        // to fill.
        let mut known = Prefetched::new(store, bs);
        let mut out = Vec::with_capacity(entry.byte_len);
        let mut crcs = Vec::with_capacity(entry.block_count as usize);
        let mut holes = Vec::new();
        // (A hole takes only the bytes the file can use, so the journaled
        // block size alone never sizes an allocation.)
        let ids: Vec<BlockId> = self.positions.data_ids(extent).collect();
        known.sweep(&ids, |id, read| match read {
            Ok(block) => {
                out.extend_from_slice(block.as_slice());
                crcs.push(block.crc());
            }
            Err(_) => {
                let end = out.len().saturating_add(bs);
                let hole = out.len()..end.min(entry.byte_len.max(out.len()));
                out.resize(hole.end, 0);
                holes.push((id, crcs.len(), hole));
                crcs.push(crc32_zeros(bs));
            }
        });
        if known.remote {
            let failed: Vec<BlockId> = holes.iter().map(|&(id, ..)| id).collect();
            self.prefetch_repairs(&mut known, &failed);
        }
        for (id, k, hole) in holes {
            let block = self
                .repair_fast(&known, id)
                .or_else(|err| self.repair_slow(&mut known, id, err))?;
            // (A block of any other size cannot be this file's: the hole
            // stays zero and the checksum below says so.)
            if block.len() == bs {
                let bytes = &block.as_slice()[..hole.len()];
                out[hole].copy_from_slice(bytes);
                crcs[k] = block.crc();
            }
        }
        // Truncate the padded tail block and verify the manifest checksum.
        out.truncate(entry.byte_len);
        let whole = entry.byte_len / bs;
        let actual = self.file_crc(crcs[..whole].iter().copied(), &out[whole * bs..]);
        if actual != entry.crc {
            return Err(ArchiveError::ChecksumMismatch {
                name: name.to_string(),
                expected: entry.crc,
                actual,
            });
        }
        Ok(out)
    }

    /// Plan → fetch(window) for a degraded read: fetches into `known` the
    /// survivors the fast-path repairs of the `failed` blocks will read.
    /// `is_repairable` asks about exactly the blocks a single-block
    /// repair consults, so answering "present" for everything not yet
    /// known names the next read set: one batch per round, in sorted id
    /// order, until a round consults nothing unknown. Only a prefetch —
    /// what it misses, `known` reads through to the backend.
    fn prefetch_repairs(&self, known: &mut Prefetched<'_, B>, failed: &[BlockId]) {
        let written = self.scheme.data_written();
        loop {
            let unknown = RefCell::new(BTreeSet::new());
            for &target in failed {
                self.scheme.is_repairable(target, written, &|id| {
                    let answer = known.answered(id);
                    if id != target && answer.is_none() {
                        unknown.borrow_mut().insert(id);
                    }
                    id != target && answer.unwrap_or(true)
                });
            }
            let unknown = unknown.into_inner();
            if unknown.is_empty() {
                break;
            }
            known.fill(unknown);
        }
    }

    /// Verifies every archived file end to end; returns the names that
    /// fail (unrepairable blocks or checksum mismatches).
    pub fn verify_all(&self) -> Vec<String> {
        self.manifest
            .keys()
            .filter(|name| self.get(name).is_err())
            .cloned()
            .collect()
    }

    /// Scrubs the archive: repair of every missing block the backend
    /// should hold, written back to the backend — **including the
    /// metadata journal**: every copy of every live record and pointer
    /// cell the backend lost *or corrupted* is re-stored from the
    /// archive's in-memory log, so a live archive heals its own
    /// persistence layer and stays reopenable at full copy-set strength.
    /// Scheme blocks the backend reports as corrupted
    /// ([`StoreError::Corrupted`]) are quarantined (removed) before their
    /// repair is stored, so it is rebuilt from surviving redundancy.
    /// Returns how many blocks were restored (data, redundancy and
    /// metadata copies); clears the [`Archive::meta_damage`] report.
    ///
    /// One loop over the stored positions, whatever the backend: a read
    /// sweep in runs that keeps the blocks it verified in a window of its
    /// last few runs, and one run past a failed block rebuilds it with
    /// the single-block repair, reading the window only — never a backend
    /// fetch. The rebuilt block joins the window. After the sweep the
    /// corrupt blocks leave as one batch of removes; what the window
    /// cannot serve (a tuple member lost too, or one out of its reach,
    /// such as a closed chain's closing parity) goes to the closure
    /// rounds, which fetch only the blocks those repairs name (see
    /// "Dependent reads" in the module docs); the repairs leave as one
    /// batch of stores, in position order; last, the journal heals its
    /// own copies and pointer cells.
    pub fn scrub(&mut self) -> u64 {
        let store: &B = &self.store;
        let mut window = Window::new(&*self.scheme, self.scheme.data_written(), self.block_size);
        // Every failed read in position order, with the window's repair.
        let (mut failed, mut quarantine) = (Vec::new(), Vec::new());
        window.sweep(store, self.positions.stored, |window, position, id, err| {
            // A block whose read fails its integrity check is worse than
            // a missing one (a repair would trust its bytes): quarantined.
            if matches!(err, StoreError::Corrupted(_)) {
                quarantine.push(id);
            }
            let rebuilt = self.repair_fast(window, id).ok();
            if let Some(block) = &rebuilt {
                window.keep(position, block.clone());
            }
            failed.push((id, rebuilt));
        });
        remove_all(store, quarantine);
        let lost = failed.iter().filter(|(_, rebuilt)| rebuilt.is_none());
        let mut leftover: Vec<BlockId> = lost.map(|&(id, _)| id).collect();
        if !leftover.is_empty() {
            // The rounds start from what the sweep learned.
            let mut known = Prefetched::new(store, self.block_size);
            known.answers.extend(failed.iter().cloned());
            self.closure_rounds(&mut known, &mut leftover, None, |rebuilt| {
                for (id, block) in &mut failed {
                    *block = block.take().or_else(|| rebuilt.patch.remove(id));
                }
            });
        }
        let repairs = failed.into_iter().filter_map(|(id, b)| Some((id, b?)));
        let repairs: Vec<_> = repairs.collect();
        let restored = repairs.len() as u64;
        store_all(store, repairs);
        restored + self.journal.heal(store)
    }

    /// The degraded-read fast path: rebuild `id` from a single repair
    /// option among the blocks reachable through `base` (one XOR for
    /// entanglements, one stripe decode for RS). The id is masked from
    /// the repair source so the garbled bytes of a corrupted block cannot
    /// leak back in.
    fn repair_fast(&self, base: &dyn BlockSource, id: BlockId) -> Result<Block, RepairError> {
        let masked = MaskOne { base, masked: id };
        self.scheme
            .repair_block(&masked, id, self.scheme.data_written())
    }

    /// The degraded-read slow path: the closure rounds for `id`, masked
    /// so a corrupted block's garbled bytes cannot leak back in, into a
    /// read-side overlay — degraded reads stay read-only. `fast_err` is
    /// what the fast path's failure reported.
    fn repair_slow(
        &self,
        known: &mut Prefetched<'_, B>,
        id: BlockId,
        fast_err: RepairError,
    ) -> Result<Block, ArchiveError> {
        let rebuilt = self.closure_rounds(known, &mut vec![id], Some(id), |rebuilt| {
            rebuilt.patch.remove(&id)
        });
        rebuilt.ok_or(ArchiveError::BlockUnavailable {
            id,
            source: fast_err,
        })
    }

    /// The closure rounds (see "Dependent reads" in the module docs):
    /// round-based repair of `targets` into a read-side overlay over an
    /// `Asked` view of `known`. After a run, the asked ids not answered
    /// yet are fetched as one batch, in sorted id order, and those the
    /// answers hold as absent and the archive stored join `targets`. A
    /// run that asks nothing unanswered and adds no target ran on backend
    /// answers only, as it would have over the backend: `finish` reads
    /// its overlay. Nothing is written back.
    pub(super) fn closure_rounds<R>(
        &self,
        known: &mut Prefetched<'_, B>,
        targets: &mut Vec<BlockId>,
        masked: Option<BlockId>,
        finish: impl FnOnce(&Overlay<'_>) -> R,
    ) -> R {
        let (written, stored) = (self.positions.data, self.positions.stored);
        loop {
            let asked = Mutex::default();
            let view = Asked {
                known,
                masked,
                asked,
            };
            let overlay = Overlay::new(&view);
            self.scheme.repair_missing(&overlay, targets, written);
            let asked: BTreeSet<BlockId> = std::mem::take(&mut *view.asked.lock());
            let unknown = |id: &&BlockId| known.answered(**id).is_none();
            let unanswered: Vec<BlockId> = asked.iter().filter(unknown).copied().collect();
            let aimed: HashSet<BlockId> = targets.iter().copied().collect();
            let aim = |known: &Prefetched<'_, B>, id: &BlockId| {
                let at = self.scheme.dense_index(id, written);
                let ours = at.is_some_and(|k| u64::from(k) < stored);
                known.answered(*id) == Some(false) && ours && !aimed.contains(id)
            };
            if unanswered.is_empty() && !asked.iter().any(|id| aim(known, id)) {
                return finish(&overlay);
            }
            drop(overlay);
            drop(view);
            known.fill(unanswered);
            targets.extend(asked.into_iter().filter(|id| aim(known, id)));
        }
    }
}
