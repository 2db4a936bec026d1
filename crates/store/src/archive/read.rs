//! The read side of an archive: `get` with its degraded-read repair
//! paths, end-to-end verification, and `scrub` — whose scheme-block half
//! lives here and whose metadata half is the journal's `heal`.

use super::io::{remove_all, store_all, MaskOne, Prefetched, Window};
use super::{Archive, ArchiveError};
use ae_api::{BlockRepo, BlockSource, Overlay, RepairError, StoreError};
use ae_blocks::{crc32_zeros, Block, BlockId};
use std::cell::RefCell;
use std::collections::BTreeSet;

impl<B: BlockRepo + ?Sized> Archive<B> {
    /// Reads a file back, repairing missing blocks on the fly (a degraded
    /// read; repaired blocks are **not** written back — use
    /// [`Self::scrub`]), and verifying the manifest checksum.
    ///
    /// The file's blocks are read as one batch. If any read fails, the
    /// survivors the single-block repairs will consult are planned and
    /// fetched as batches too, and the repairs then run against those
    /// answers (see "Dependent reads" in the module docs) — reading only
    /// the file's blocks and the tuple members of the missing ones,
    /// however large the archive. Only a chained reconstruction, which no
    /// single repair option serves, consults the whole archive.
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
        let mut known = Prefetched::new(store, bs, false);
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

    /// Scrubs the archive: round-based repair of every missing block the
    /// backend should hold, written back to the backend — **including the
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
    /// Four stages: (1) a read sweep of everything the backend should
    /// hold; (2) round-based repair of the blocks whose read failed;
    /// (3) metadata compare-and-heal; (4) stale pointer-cell clearing.
    /// Over a plain backend stages 1 and 2 are one pass: the sweep keeps
    /// the blocks it verified in a window of its last few runs, and one
    /// run past a failed block rebuilds it with the single-block repair,
    /// reading the window only — the blocks the sweep just verified,
    /// still in cache, never a backend fetch. The rebuilt block is stored
    /// and joins the window. Only what the window cannot serve (a tuple
    /// member lost too, or one out of its reach, such as a closed chain's
    /// closing parity) goes to the round-based repair over the backend,
    /// once, after the sweep. A network away the sweep is one batch, and
    /// stage 2 plans on its closed snapshot (see "Dependent reads" in the
    /// module docs).
    pub fn scrub(&mut self) -> u64 {
        let store: &B = &self.store;
        let written = self.scheme.data_written();
        let known = Prefetched::new(store, self.block_size, true);
        let restored = if known.remote {
            self.scrub_snapshot(known, written)
        } else {
            self.scrub_in_sweep(written)
        };
        // Stages 3 and 4: the journal heals its own copies and cells.
        restored + self.journal.heal(store)
    }

    /// Stages 1 and 2 over a plain backend, as one pass: every failed
    /// read repaired from the sweep's `Window`, one run later, and what
    /// that cannot serve in rounds over the backend afterwards. The final
    /// state is the rounds' fixpoint all the same: a repair from verified
    /// blocks rebuilds the original bytes, and one more block present
    /// never makes another unrepairable.
    fn scrub_in_sweep(&self, written: u64) -> u64 {
        let store: &B = &self.store;
        let mut window = Window::new(&*self.scheme, written, self.block_size);
        let (mut restored, mut leftover) = (0, Vec::new());
        window.sweep(store, self.stored_ids(), |window, position, id, err| {
            let rebuilt = self.repair_fast(window, id);
            // A block whose read fails its integrity check is worse than
            // a missing one (a repair would trust its bytes): quarantined.
            if matches!(err, StoreError::Corrupted(_)) {
                store.remove(id);
            }
            match rebuilt {
                Ok(block) => {
                    store.store(id, block.clone());
                    window.keep(position, block);
                    restored += 1;
                }
                Err(_) => leftover.push(id),
            }
        });
        let summary = self.scheme.repair_missing(&store, &leftover, written);
        restored + summary.total_repaired() as u64
    }

    /// Stages 1 and 2 a network away: one windowed sweep, kept as a
    /// closed snapshot — an archive owns its id namespace, so what the
    /// sweep did not return is absent — with corrupt blocks quarantined
    /// as a batch; then round-based repair of what the sweep did not
    /// find, in stored order, planned on the snapshot into an overlay
    /// committed as one batch.
    fn scrub_snapshot(&self, mut known: Prefetched<'_, B>, written: u64) -> u64 {
        let store: &B = &self.store;
        let (mut failed, mut quarantine) = (Vec::new(), Vec::new());
        // (A torn block is swept as corrupted: quarantined too.)
        known.sweep(self.stored_ids(), |id, read| {
            if read.is_err() {
                failed.push(id);
            }
            if matches!(read, Err(StoreError::Corrupted(_))) {
                quarantine.push(id);
            }
        });
        for id in &quarantine {
            known.answers.remove(id);
        }
        remove_all(store, quarantine);
        let overlay = Overlay::new(&known);
        let summary = self.scheme.repair_missing(&overlay, &failed, written);
        let patch = failed
            .iter()
            .filter_map(|&id| Some((id, overlay.patch.remove(&id)?)));
        store_all(store, patch);
        summary.total_repaired() as u64
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

    /// The degraded-read slow path: round-based repair into a read-side
    /// overlay, so chained reconstructions work without mutating the
    /// backend (degraded reads stay read-only). It consults the whole
    /// archive, so `get` reaches for it only once the fast path has
    /// failed; `fast_err` is what that failure reported.
    fn repair_slow(
        &self,
        known: &mut Prefetched<'_, B>,
        id: BlockId,
        fast_err: RepairError,
    ) -> Result<Block, ArchiveError> {
        known.close(self.stored_ids().iter().copied());
        let base: &dyn BlockSource = known;
        let masked = MaskOne { base, masked: id };
        self.rebuild_all(&masked, self.scheme.data_written())
            .patch
            .remove(&id)
            .ok_or(ArchiveError::BlockUnavailable {
                id,
                source: fast_err,
            })
    }

    /// Round-based repair of every stored block `base` lacks into a
    /// read-side overlay over it: the whole-archive planner behind a
    /// chained reconstruction in `get` and in `open`'s frontier restore.
    /// Nothing is written back. Over a remote backend `base` must be a
    /// closed view (`Prefetched::close`), so planner threads see memory.
    pub(super) fn rebuild_all<'a>(&self, base: &'a dyn BlockSource, written: u64) -> Overlay<'a> {
        let overlay = Overlay::new(base);
        self.scheme
            .repair_missing(&overlay, self.stored_ids(), written);
        overlay
    }
}
