//! The archive's replicated write-ahead journal: **where** metadata lives
//! on the backend and **in what order** it is written.
//!
//! [`crate::meta`] owns the bytes of a record; this module owns
//! everything else about them — copy sets, the two pointer cells,
//! the commit barriers, torn-tail truncation, the probe window, the
//! damage report and the heal. [`crate::Archive`] owns what the records
//! *mean*: it hands [`Journal::append`] a record to make durable, folds
//! its state into a snapshot for [`Journal::commit_checkpoint`], and
//! after a crash applies what [`Journal::open`] and
//! [`Journal::next_record`] hand back. Every method borrows the backend
//! for the call; the journal holds none.
//!
//! # Crash recovery
//!
//! Every mutation of an archive appends a versioned, checksummed record
//! under the reserved [`BlockId::Meta`] namespace of the backend that
//! holds its blocks. After a crash, [`Journal::open`] finds the genesis
//! record and the newest loadable checkpoint, and [`Journal::next_record`]
//! walks the suffix past it — a torn final record (or a torn trailing
//! checkpoint group) is detected, physically truncated and reported
//! ([`Journal::torn_tail`]), while a record that is lost beyond its
//! redundancy with survivors after it is a typed [`RecoveryError`]
//! naming it: stale or rewound state is never served silently.
//!
//! The journal is **self-protecting**: every record is written as an
//! n-way copy set across placement-distinct `Meta` ids
//! ([`MetaConfig::copies`]), reads fall through the copies with per-copy
//! CRC validation (a surviving copy degrades a read instead of failing
//! it, reported via [`Journal::damage`]), and [`Journal::heal`] rewrites
//! every lost or garbled copy from the canonical blocks the live journal
//! keeps in memory. Past a configurable cadence the owner hands over
//! what it added since the last time and the journal commits it as a
//! **checkpoint**, so `open` reads checkpoint + suffix — the checkpoint
//! being ≤ log₂ segments — however old the archive is, and what a
//! checkpoint supersedes is garbage-collected only once it is durably
//! committed.
//!
//! # The checkpoint is a chain of segments
//!
//! A commit writes one **segment**: the rows its owner added since the
//! previous commit, plus the owner's counters, flags and frontier. It
//! starts at level 0, and while the newest live segment is of its own
//! level it **absorbs** it — that segment's row bytes, spliced from the
//! canonical blocks kept for [`Journal::heal`], go ahead of its own and
//! its level rises by one — the carry of a binary counter: commit `c`
//! rewrites `2^tz(c)` commits' worth of rows, the live chain is the set
//! bits of `c` (levels strictly falling towards the newest), and over
//! `n` commits O(n log n) rows are written where a full snapshot per
//! commit wrote O(n²). The segment names the one below it (its *base*);
//! the pointer cell names only the newest, and [`Journal::open`] walks
//! newest → oldest, one batched fetch per hop, handing its owner one
//! payload: every row, oldest first, and the newest segment's tail.
//! Garbage collection takes what lies after the base's last part and
//! before the new part 0 — the absorbed segments and the folded records
//! — and never touches a live older segment.
//!
//! # Barriers
//!
//! Crash ordering is kept by **barriers**, not by serial issue: a batch
//! (see [`crate::archive::io`]) returns only once every call in it is
//! acknowledged, whatever order the completions arrived in, and
//!
//! 1. no journal record is issued before every block of its `put` (or
//!    `seal`) is acknowledged — the archive's half: it appends only
//!    after its write phase returned;
//! 2. no pointer cell is issued before every checkpoint part — and
//!    journal records, parts included, go one copy set at a time,
//!    because the walk reads a missing record with survivors beyond it
//!    as mid-journal damage, not as a torn tail;
//! 3. the two pointer cells are written one after the other — a cut
//!    tears at most one, and the other names a checkpoint that is whole —
//!    and no GC remove is issued before every copy of **both**: a level-0
//!    commit leaves the chain under it whole, so a cell still naming that
//!    chain once the records past it are collected would, the newer cell
//!    lost, open as an archive silently rewound. (An archive's first
//!    commit has no older cell to overwrite and writes one.) Cells that
//!    differ are therefore a commit cut between them, nothing of it
//!    collected: [`Journal::open`] may fall back across them at the cost
//!    of replay length only, and finishes the commit — the second cell —
//!    when the newer one loads;
//! 4. record 1 leaves ahead of the rest of a GC (how `open` tells a
//!    rotted pointer from a torn one), and the rest go ascending, one
//!    aligned block of 16 seqs a batch. A cut inside the GC leaves records
//!    below the checkpoint the next `open` loads — the top of the range,
//!    down to the block the cut fell in. The range is arithmetic on the
//!    loaded segment's header, so the reopened journal looks for them
//!    ahead of its next commit's parts: it probes down from the top,
//!    stops at the first block that holds nothing, and removes from there
//!    up — one batch of `has` when the GC had finished.
//!
//! Final backend state and error typing are byte-identical at every
//! in-flight window and to the plain-backend run
//! (`tests/aio_parity.rs`), a power cut at any backend write under
//! out-of-order completion still reopens to a prefix of the
//! uninterrupted run (`tests/archive_recovery.rs`), and
//! `tests/golden/archive_io_trace.csv` pins which call is made, in which
//! order.

use crate::archive::io::{fetch_all, has_all, remove_all, store_all};
use crate::archive::{MetaDamage, RecoveryError};
use crate::meta::{
    encode_checkpoint_part, meta_copy_id, pointer_id, splice_segment, CheckpointPayload,
    MetaConfig, MetaRecord, RecordError, Rows,
};
use ae_api::BlockRepo;
use ae_blocks::{Block, BlockId, MetaId};
use std::collections::BTreeMap;
use std::ops::Range;

/// One record's fetched copy set, validated: the first copy that decodes
/// (and, for a pointer cell, is a pointer record) wins; every copy's
/// state is kept for the damage report.
struct CopySet {
    valid: Option<(MetaRecord, Block)>,
    /// Per copy, in copy order: `None` = validates, otherwise `"missing"`
    /// or the first check that failed.
    states: Vec<Option<RecordError>>,
}

impl CopySet {
    fn validate(seq: u64, pointer: bool, copies: Vec<Option<Block>>) -> Self {
        let mut valid = None;
        let states = copies
            .into_iter()
            .map(|copy| {
                let Some(block) = copy else {
                    return Some("missing".to_string());
                };
                match MetaRecord::decode(seq, block.as_slice()) {
                    Ok(record) if pointer && !matches!(record, MetaRecord::Pointer { .. }) => {
                        Some("not a pointer record".to_string())
                    }
                    Ok(record) => {
                        valid.get_or_insert((record, block));
                        None
                    }
                    Err(detail) => Some(detail),
                }
            })
            .collect();
        CopySet { valid, states }
    }

    /// The first failed check of a copy that holds bytes, if any.
    fn first_damage(&self) -> Option<RecordError> {
        self.states
            .iter()
            .flatten()
            .find(|d| d.as_str() != "missing")
            .cloned()
    }
}

/// What reading one record's copy set comes to: the decoded record and
/// its canonical bytes, or — no copy validating — the first failed check
/// of a copy that holds bytes (torn or corrupt), or `None` when no copy
/// exists at all.
type CopyRead = Result<(MetaRecord, Block), Option<RecordError>>;

/// One live checkpoint segment: where its parts sit in the journal and
/// how many times its rows were folded.
#[derive(Clone, Copy)]
struct Segment {
    /// Journal seq of part 0.
    seq: u64,
    parts: u32,
    level: u8,
}

impl Segment {
    /// The seq after the last part.
    fn end(&self) -> u64 {
        self.seq + u64::from(self.parts)
    }
}

/// The metadata journal of one archive, as the process that owns it
/// knows it. See the module docs.
pub(crate) struct Journal {
    /// Sequence number of the next journal record.
    next_meta: u64,
    /// Durability policy; `copies` is pinned by the genesis record,
    /// checkpoint cadence is this open's live policy.
    meta: MetaConfig,
    /// The **live** journal records (genesis, committed checkpoint parts
    /// and the suffix) by sequence number — [`Journal::heal`]
    /// re-materializes any copy the backend lost, so a live archive's
    /// journal is self-healing. GC'd prefix records leave the map.
    journal: BTreeMap<u64, Block>,
    /// Live checkpoint-pointer cells by slot.
    pointers: BTreeMap<u64, Block>,
    /// The committed checkpoint: its live segments, oldest first, levels
    /// strictly falling. Empty before the first commit.
    chain: Vec<Segment>,
    /// The garbage range of the commit [`Journal::open`] loaded. A cut
    /// between that commit's pointers and the end of its GC leaves records
    /// there this journal never read and so cannot name; the next commit
    /// looks for them, once ([`Journal::recollect`]).
    stale: Option<Range<u64>>,
    /// The cell the next checkpoint's pointer is written to first.
    next_pointer_slot: u64,
    /// Put/seal records since the committed checkpoint — the
    /// auto-checkpoint trigger counter.
    records_since_checkpoint: u64,
    /// Set by the walk when a torn final journal record was detected and
    /// truncated.
    torn_tail: Option<u64>,
    /// Copies skipped during `open`'s degraded reads.
    meta_damage: Vec<MetaDamage>,
    /// Journal records the walk actually read (suffix past the
    /// checkpoint; the whole journal when none was usable).
    replayed: u64,
}

/// What [`Journal::open`] found on a backend.
pub(crate) struct Opened {
    /// The journal, positioned at the first record the walk will read.
    pub journal: Journal,
    /// Block size the genesis record pins.
    pub block_size: u64,
    /// Part-0 seq and snapshot of the committed checkpoint, if one
    /// loaded; the owner validates and installs it before walking.
    pub checkpoint: Option<(u64, CheckpointPayload)>,
    /// A pointer cell that holds bytes but no valid copy, for
    /// [`Journal::judge_poisoned_cell`] once the walk is over.
    pub poisoned_cell: Option<u64>,
}

impl Journal {
    /// How far past an invalid or missing record the walk looks for
    /// survivors before concluding the journal ended there. A gap longer
    /// than this with valid records beyond it is indistinguishable from
    /// end-of-journal (see the torn-write rules in [`crate::meta`]).
    const REPLAY_PROBE_WINDOW: u64 = 16;

    /// How many consecutive seqs — aligned: one value of `seq / GC_BLOCK`
    /// — a GC removes per batch.
    const GC_BLOCK: u64 = 16;

    /// An empty journal whose next record is `next_meta`, its copy-set
    /// width clamped into the nameable range.
    fn new(meta: MetaConfig, next_meta: u64) -> Self {
        Journal {
            next_meta,
            meta: MetaConfig {
                copies: meta.clamped_copies(),
                ..meta
            },
            journal: BTreeMap::new(),
            pointers: BTreeMap::new(),
            chain: Vec::new(),
            stale: None,
            next_pointer_slot: 0,
            records_since_checkpoint: 0,
            torn_tail: None,
            meta_damage: Vec::new(),
            replayed: 0,
        }
    }

    /// Starts a journal on a backend that holds none: the genesis record
    /// pins the scheme's name, the block size and the copy-set width.
    ///
    /// # Panics
    ///
    /// Panics if any genesis copy already exists.
    pub(crate) fn create<B: BlockRepo + ?Sized>(
        store: &B,
        meta: MetaConfig,
        scheme: String,
        block_size: u64,
    ) -> Self {
        let genesis_ids = (0..MetaId::MAX_COPIES).map(|c| meta_copy_id(0, c));
        assert!(
            fetch_all(store, genesis_ids).iter().all(Option::is_none),
            "backend already holds an archive; reopen it with Archive::open"
        );
        let mut journal = Journal::new(meta, 0);
        let copies = journal.meta.copies;
        journal.append(
            store,
            &MetaRecord::Genesis {
                scheme,
                block_size,
                copies,
            },
        );
        journal
    }

    /// Reads the genesis record, the pointer cells and the newest
    /// loadable checkpoint of the journal a scheme named `given` left on
    /// `store`, and finishes a commit that was cut between its two
    /// pointer writes. The copy-set width is adopted from the genesis
    /// record; `meta` contributes the live checkpoint cadence and segment
    /// size.
    pub(crate) fn open<B: BlockRepo + ?Sized>(
        store: &B,
        meta: MetaConfig,
        given: String,
    ) -> Result<Opened, RecoveryError> {
        // Genesis: probe the widest possible copy set (the true width is
        // *inside* the record); first copy that validates wins.
        let genesis_ids = (0..MetaId::MAX_COPIES).map(|c| meta_copy_id(0, c));
        let genesis = CopySet::validate(0, false, fetch_all(store, genesis_ids));
        let Some((record, genesis_block)) = genesis.valid else {
            // No valid genesis copy: corrupt if any bytes exist at all,
            // otherwise there is simply no archive here.
            return Err(match genesis.first_damage() {
                Some(detail) => RecoveryError::CorruptRecord { seq: 0, detail },
                None => RecoveryError::NoArchive,
            });
        };
        let MetaRecord::Genesis {
            scheme: archived,
            block_size,
            copies,
        } = record
        else {
            return Err(RecoveryError::CorruptRecord {
                seq: 0,
                detail: "record 0 is not a genesis record".into(),
            });
        };
        if archived != given {
            return Err(RecoveryError::SchemeMismatch { archived, given });
        }
        let mut journal = Journal::new(MetaConfig { copies, ..meta }, 1);
        let mut states = genesis.states;
        states.truncate(journal.meta.copies as usize);
        journal.report_damage(0, false, states);
        journal.journal.insert(0, genesis_block);

        // Checkpoint discovery: read the pointer cells, try candidates
        // newest-first, fall back across them — a torn newer checkpoint
        // must never cost data, only replay length.
        let mut checkpoint = None;
        let (candidates, poisoned_cell) = journal.read_pointers(store);
        if candidates.is_empty() {
            // No valid pointer: walk from genesis. A *poisoned* cell
            // (bytes present, zero valid copies) is either a crash torn
            // mid-pointer-write — the checkpoint never committed, nothing
            // was GC'd, the full walk is correct — or a committed pointer
            // that rotted, where GC makes a walk from genesis a silent
            // rewind. `judge_poisoned_cell` tells the two apart: GC always
            // removes record 1 first, so a rotted pointer leaves a walk
            // that cannot get past genesis.
        } else {
            // The newest candidate's refusal is the one to report.
            let mut refused = None;
            let mut loaded = None;
            for &(slot, cseq, parts) in &candidates {
                match journal.load_chain(store, cseq, parts) {
                    Ok(payload) => {
                        loaded = Some((slot, cseq, parts, payload));
                        break;
                    }
                    Err((seq, detail)) => {
                        let detail =
                            format!("checkpoint named by pointer is not loadable: {detail}");
                        refused.get_or_insert(RecoveryError::CorruptRecord { seq, detail });
                    }
                }
            }
            let Some((slot, cseq, parts, payload)) = loaded else {
                return Err(refused.expect("a candidate was tried and refused"));
            };
            // Two cells naming different checkpoints are a commit cut
            // between its pointer writes: nothing of it was collected, so
            // having fallen back across them costs replay length only.
            // (A journal from before both cells were written leaves the
            // older one naming a checkpoint its successor's GC destroyed
            // whole: that fallback fails typed.) If the newer one loaded,
            // finish its commit — before anything of its garbage is
            // collected, no valid cell may name an older chain.
            if refused.is_none() && candidates.len() > 1 {
                journal.store_pointer(store, 1 - slot, cseq, parts);
            }
            let newest = journal.chain.last().expect("a loaded chain is not empty");
            journal.next_pointer_slot = 1 - slot;
            journal.next_meta = newest.end();
            journal.stale = Some(journal.garbage_floor()..cseq);
            checkpoint = Some((cseq, payload));
        }
        Ok(Opened {
            journal,
            block_size,
            checkpoint,
            poisoned_cell,
        })
    }

    /// The verdict on a pointer cell [`Journal::open`] found poisoned,
    /// now that the walk is over.
    pub(crate) fn judge_poisoned_cell<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        slot: u64,
    ) -> Result<(), RecoveryError> {
        if self.chain.is_empty() && self.next_meta == 1 {
            // A poisoned pointer cell and a walk that never got past
            // genesis: a committed checkpoint's pointer rotted after GC —
            // opening would silently rewind the archive to empty.
            return Err(RecoveryError::CorruptRecord {
                seq: slot,
                detail: "checkpoint pointer cell has no valid copy".into(),
            });
        }
        // The survivable flavour (torn mid-commit): report it so `heal`
        // can clean the cell up.
        let present = has_all(store, self.pointer_ids(slot));
        let states = present
            .into_iter()
            .map(|has| has.then(|| "no valid copy (uncommitted pointer write)".to_string()));
        self.report_damage(slot, true, states);
        Ok(())
    }

    /// Every copy id of journal record `seq`, in copy order.
    fn record_ids(&self, seq: u64) -> impl Iterator<Item = BlockId> {
        (0..self.meta.copies).map(move |copy| meta_copy_id(seq, copy))
    }

    /// Every copy id of pointer cell `slot`, in copy order.
    fn pointer_ids(&self, slot: u64) -> impl Iterator<Item = BlockId> {
        (0..self.meta.copies).map(move |copy| pointer_id(slot, copy))
    }

    /// Files one [`MetaDamage`] per damaged copy of record (or pointer
    /// cell) `seq`; `states` is in copy order, `None` = healthy.
    fn report_damage(
        &mut self,
        seq: u64,
        pointer: bool,
        states: impl IntoIterator<Item = Option<RecordError>>,
    ) {
        for (copy, state) in (0u16..).zip(states) {
            if let Some(detail) = state {
                let id = if pointer {
                    pointer_id(seq, copy)
                } else {
                    meta_copy_id(seq, copy)
                };
                self.meta_damage.push(MetaDamage {
                    id,
                    seq,
                    pointer,
                    copy,
                    detail,
                });
            }
        }
    }

    /// Reads record `seq`'s copy set as one batch, falling through to the
    /// first copy that validates.
    fn fetch_record<B: BlockRepo + ?Sized>(&mut self, store: &B, seq: u64) -> CopyRead {
        let copies = fetch_all(store, self.record_ids(seq));
        self.classify(seq, copies)
    }

    /// Judges record `seq`'s fetched copy set. Copies skipped on the way
    /// to a valid one are recorded in [`Journal::damage`].
    fn classify(&mut self, seq: u64, copies: Vec<Option<Block>>) -> CopyRead {
        let set = CopySet::validate(seq, false, copies);
        let damage = set.first_damage();
        let found = set.valid.ok_or(damage)?;
        self.report_damage(seq, false, set.states);
        Ok(found)
    }

    /// Reads both checkpoint-pointer cells as one batch. Returns the
    /// distinct valid `(slot, checkpoint seq, parts)` candidates sorted
    /// newest-first, and the slot of a cell that holds bytes but no valid
    /// copy (all copies of a written pointer destroyed), if any.
    fn read_pointers<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
    ) -> (Vec<(u64, u64, u32)>, Option<u64>) {
        let mut candidates: Vec<(u64, u64, u32)> = Vec::new();
        let mut poisoned = None;
        let ids = (0..2u64).flat_map(|slot| self.pointer_ids(slot));
        let mut found = fetch_all(store, ids).into_iter();
        for slot in 0..2u64 {
            let copies: Vec<_> = found.by_ref().take(self.meta.copies as usize).collect();
            let any_bytes = copies.iter().any(Option::is_some);
            let set = CopySet::validate(slot, true, copies);
            match set.valid {
                Some((MetaRecord::Pointer { checkpoint, parts }, block)) => {
                    self.pointers.entry(slot).or_insert(block);
                    self.report_damage(slot, true, set.states);
                    candidates.push((slot, checkpoint, parts));
                }
                _ if any_bytes => poisoned = poisoned.or(Some(slot)),
                _ => {}
            }
        }
        // Newest checkpoint first; mixed-generation copy sets are
        // handled by falling through candidates.
        candidates.sort_by_key(|&(_, cseq, _)| std::cmp::Reverse(cseq));
        candidates.dedup_by_key(|&mut (_, cseq, parts)| (cseq, parts));
        (candidates, poisoned)
    }

    /// Loads the checkpoint whose newest segment's part 0 sits at journal
    /// seq `cseq`: that segment, then the one it names as its base, and
    /// so on down — one batched fetch per hop (per probe window of parts,
    /// for a long segment). Returns the chain stacked into one payload:
    /// every row, oldest first, and the newest segment's tail. On success
    /// the chain is this journal's and its parts' canonical blocks join
    /// the live records; a refusal names the record it is about.
    ///
    /// The walk ends: a base must lie wholly below the segment naming it,
    /// so seqs strictly fall, and must have been folded more often, so
    /// there are at most 256 hops; no count read on the way sizes an
    /// allocation.
    fn load_chain<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        cseq: u64,
        parts: u32,
    ) -> Result<CheckpointPayload, (u64, RecordError)> {
        let mut blocks = Vec::new();
        let mut chain: Vec<Segment> = Vec::new();
        let mut stacked: Option<CheckpointPayload> = None;
        let mut next = Some((cseq, parts));
        while let Some((seq, parts)) = next {
            let above = chain.last().copied();
            if let Some(above) = above {
                if seq.saturating_add(u64::from(parts)) > above.seq {
                    let detail = format!("base segment {seq}+{parts} does not lie below it");
                    return Err((above.seq, detail));
                }
            }
            let segment = self
                .load_segment(store, seq, parts, &mut blocks)
                .map_err(|detail| (seq, detail))?;
            let level = segment.level;
            if let Some(above) = above.filter(|above| level <= above.level) {
                let detail = format!(
                    "level-{level} segment is the base of level-{} meta#{}",
                    above.level, above.seq
                );
                return Err((seq, detail));
            }
            next = segment.base;
            chain.push(Segment { seq, parts, level });
            match &mut stacked {
                Some(newer) => newer.stack_on(segment),
                None => stacked = Some(segment),
            }
        }
        chain.reverse();
        self.chain = chain;
        self.journal.extend(blocks);
        Ok(stacked.expect("the walk loads the named segment or fails"))
    }

    /// Fetches and reassembles the segment whose part 0 sits at journal
    /// seq `cseq`, validating every part's framing; the parts' canonical
    /// blocks are pushed onto `blocks`.
    fn load_segment<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        cseq: u64,
        parts: u32,
        blocks: &mut Vec<(u64, Block)>,
    ) -> Result<CheckpointPayload, RecordError> {
        // The walk probes a window past the checkpoint: all of it must be
        // nameable, or a pointer cell could aim `open` at ids that do not
        // exist.
        let end = cseq.saturating_add(u64::from(parts));
        let nameable = end.saturating_add(Self::REPLAY_PROBE_WINDOW) < 1 << MetaId::SEQ_BITS;
        if parts == 0 || cseq == 0 || !nameable {
            return Err(format!(
                "pointer names impossible checkpoint {cseq}+{parts}"
            ));
        }
        let mut bytes = Vec::new();
        // Parts move in batches of a probe window's worth of records, so
        // the part count a pointer claims never sizes an allocation.
        let mut next = cseq;
        while next < end {
            let group = next..end.min(next + Self::REPLAY_PROBE_WINDOW);
            next = group.end;
            let ids = group.clone().flat_map(|seq| self.record_ids(seq));
            let mut found = fetch_all(store, ids).into_iter();
            for seq in group {
                let i = (seq - cseq) as u32;
                let copies = found.by_ref().take(self.meta.copies as usize).collect();
                match self.classify(seq, copies) {
                    Ok((
                        MetaRecord::Checkpoint {
                            part,
                            parts: p,
                            chunk,
                        },
                        block,
                    )) if part == i && p == parts => {
                        bytes.extend_from_slice(&chunk);
                        blocks.push((seq, block));
                    }
                    Ok(_) => return Err(format!("meta#{seq} is not checkpoint part {i}")),
                    Err(Some(detail)) => return Err(format!("meta#{seq}: {detail}")),
                    Err(None) => return Err(format!("meta#{seq}: missing")),
                }
            }
        }
        CheckpointPayload::decode(&bytes)
    }

    /// Whether any journal record (any copy) exists within the probe
    /// window after `seq` — i.e. `seq` failing is mid-journal damage,
    /// not the tail.
    fn journal_continues<B: BlockRepo + ?Sized>(&self, store: &B, seq: u64) -> bool {
        let probe = (seq + 1..=seq + Self::REPLAY_PROBE_WINDOW).flat_map(|s| self.record_ids(s));
        has_all(store, probe).contains(&true)
    }

    /// The walk of the suffix past what [`Journal::open`] loaded: reads
    /// on from the next sequence number and answers the next `Put` or
    /// `Seal` record with its seq, or `None` at the journal's end —
    /// which a torn tail, truncated here, is too. Absent, invalid and
    /// torn are told apart here and nowhere else; uncommitted checkpoint
    /// groups are validated and stepped over.
    pub(crate) fn next_record<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
    ) -> Result<Option<(u64, MetaRecord)>, RecoveryError> {
        loop {
            let seq = self.next_meta;
            let corrupt = |detail: String| RecoveryError::CorruptRecord { seq, detail };
            let record = match self.fetch_record(store, seq) {
                Ok((record, block)) => {
                    self.journal.insert(seq, block);
                    record
                }
                Err(None) => {
                    // End of journal — unless a later record exists
                    // within the probe window, in which case every copy
                    // of this one was destroyed mid-journal (damaged
                    // metadata beyond the redundancy, not a torn tail)
                    // and walking past it would serve a silently
                    // rewound archive.
                    if self.journal_continues(store, seq) {
                        return Err(corrupt("all copies missing mid-journal".into()));
                    }
                    return Ok(None);
                }
                Err(Some(detail)) => {
                    if self.journal_continues(store, seq) {
                        return Err(corrupt(detail));
                    }
                    // A torn final record: the crash cut the write short.
                    // Truncate the journal here — the mutation was never
                    // acknowledged — erase the unacknowledged bytes so the
                    // next open starts clean, and report it.
                    self.erase_record(store, seq);
                    self.torn_tail = Some(seq);
                    return Ok(None);
                }
            };
            self.replayed += 1;
            match record {
                MetaRecord::Genesis { .. } => {
                    return Err(corrupt("unexpected genesis record mid-journal".into()));
                }
                MetaRecord::Pointer { .. } => {
                    return Err(corrupt("pointer record inside the journal".into()));
                }
                MetaRecord::Checkpoint { part, parts, .. } => {
                    // A checkpoint whose pointer never became readable:
                    // validate the whole group, then skip it — the
                    // records it folded were walked on the way here.
                    if part != 0 {
                        return Err(corrupt(format!("checkpoint part {part} without part 0")));
                    }
                    match self.skip_checkpoint_group(store, seq, parts) {
                        Ok(()) => continue,
                        Err(None) => return Ok(None), // torn checkpoint tail
                        Err(Some(err)) => return Err(err),
                    }
                }
                MetaRecord::Put { .. } | MetaRecord::Seal { .. } => {
                    self.next_meta += 1;
                    self.records_since_checkpoint += 1;
                    return Ok(Some((seq, record)));
                }
            }
        }
    }

    /// Validates checkpoint parts `cseq..cseq + parts` encountered
    /// in-line during the walk (part 0 already read) and advances past
    /// them. `Err(None)` means the group is a torn checkpoint tail —
    /// the whole partial checkpoint is truncated; `Err(Some(_))` means
    /// mid-journal damage.
    fn skip_checkpoint_group<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        cseq: u64,
        parts: u32,
    ) -> Result<(), Option<RecoveryError>> {
        for i in 1..parts {
            let seq = cseq + i as u64;
            let bad = match self.fetch_record(store, seq) {
                Ok((MetaRecord::Checkpoint { part, parts: p, .. }, block))
                    if part == i && p == parts =>
                {
                    self.journal.insert(seq, block);
                    continue;
                }
                Ok(_) => Some(format!("meta#{seq} is not checkpoint part {i}")),
                Err(bad) => bad,
            };
            let continues = self.journal_continues(store, cseq + parts as u64 - 1);
            if continues || bad.is_some() && self.journal_continues(store, seq) {
                return Err(Some(RecoveryError::CorruptRecord {
                    seq,
                    detail: bad.unwrap_or_else(|| "checkpoint part missing".into()),
                }));
            }
            // Torn checkpoint tail: drop the partial group entirely —
            // the checkpoint was never committed (its pointer would have
            // been written after the last part). The surviving parts are
            // unacknowledged garbage: erase them so resumed appends can
            // never interleave with stale part records, and retract any
            // degraded-copy reports for records that no longer exist.
            for s in cseq..cseq + parts as u64 {
                self.journal.remove(&s);
                self.erase_record(store, s);
            }
            self.meta_damage
                .retain(|d| d.pointer || d.seq < cseq || d.seq >= cseq + parts as u64);
            self.next_meta = cseq;
            self.torn_tail = Some(cseq);
            return Err(None);
        }
        self.next_meta = cseq + parts as u64;
        Ok(())
    }

    /// Removes every copy of journal record `seq` from the backend —
    /// used by the walk to physically truncate torn, unacknowledged tail
    /// records (plain WAL truncation, applied to the copy set).
    fn erase_record<B: BlockRepo + ?Sized>(&self, store: &B, seq: u64) {
        remove_all(store, self.record_ids(seq));
    }

    /// Stores an encoded record at the next sequence number — every copy
    /// of its set, as one batch — keeping the block so [`Journal::heal`]
    /// can re-materialize copies the backend loses. A record is the unit
    /// of journal ordering: the next one is not issued before every copy
    /// of this one is acknowledged, because the walk reads a missing
    /// record with survivors beyond it as damage, not as a torn tail.
    fn write<B: BlockRepo + ?Sized>(&mut self, store: &B, encoded: Vec<u8>) {
        let seq = self.next_meta;
        let block = Block::from_vec(encoded);
        let copies = self.record_ids(seq).map(|id| (id, block.clone()));
        store_all(store, copies);
        self.journal.insert(seq, block);
        self.next_meta += 1;
    }

    /// Appends `record` to the journal (see [`Journal::write`]); a `Put`
    /// or `Seal` counts towards the checkpoint cadence.
    pub(crate) fn append<B: BlockRepo + ?Sized>(&mut self, store: &B, record: &MetaRecord) {
        self.write(store, record.encode(self.next_meta));
        let mutation = matches!(record, MetaRecord::Put { .. } | MetaRecord::Seal { .. });
        self.records_since_checkpoint += u64::from(mutation);
    }

    /// Whether the configured record cadence has accumulated since the
    /// committed checkpoint.
    pub(crate) fn checkpoint_due(&self) -> bool {
        let every = self.meta.checkpoint_every;
        every.is_some_and(|every| self.records_since_checkpoint >= every.max(1))
    }

    /// Where the garbage range of the newest segment's commit starts:
    /// past the last part of the segment below it, or past genesis.
    fn garbage_floor(&self) -> u64 {
        match self.chain.len().checked_sub(2) {
            Some(below) => self.chain[below].end(),
            None => 1,
        }
    }

    /// The payload of live segment `segment`, reassembled from the
    /// canonical blocks of its parts.
    fn payload_of(&self, segment: &Segment) -> Vec<u8> {
        let mut payload = Vec::new();
        for seq in segment.seq..segment.end() {
            let part = self
                .journal
                .get(&seq)
                .map(|b| MetaRecord::decode(seq, b.as_slice()));
            let Some(Ok(MetaRecord::Checkpoint { chunk, .. })) = part else {
                panic!("meta#{seq} is a live checkpoint part: the journal wrote or validated it")
            };
            payload.extend_from_slice(&chunk);
        }
        payload
    }

    /// Removes journal records `seqs` (ascending), every copy. Record 1
    /// goes in a batch of its own, ahead of the rest: `open` tells a
    /// rotted pointer from a torn one by GC having removed record 1 first.
    /// The rest go one aligned block of [`Self::GC_BLOCK`] seqs a batch,
    /// so whatever the in-flight window a cut leaves every seq below one
    /// block removed, every seq above it in place — what
    /// [`Journal::recollect`] relies on to stop early.
    fn collect<B: BlockRepo + ?Sized>(&self, store: &B, seqs: impl IntoIterator<Item = u64>) {
        let mut seqs = seqs.into_iter().peekable();
        let first = seqs.next_if_eq(&1);
        remove_all(store, first.into_iter().flat_map(|s| self.record_ids(s)));
        while let Some(&next) = seqs.peek() {
            let block = next / Self::GC_BLOCK;
            let batch = std::iter::from_fn(|| seqs.next_if(|s| s / Self::GC_BLOCK == block));
            remove_all(store, batch.flat_map(|s| self.record_ids(s)));
        }
    }

    /// Collects what a cut GC left of `stale`, the garbage range of the
    /// commit this journal was opened on: the top of the range, down to
    /// the block the cut fell in. Probes block by block from the top and
    /// stops at the first that holds nothing — one batch of `has` on a
    /// journal whose GC finished, and never more work than the blocks
    /// actually present, whatever range a header claims — then removes
    /// from there up, in GC order, so a cut here leaves the same shape.
    fn recollect<B: BlockRepo + ?Sized>(&self, store: &B, stale: Range<u64>) {
        let mut low = stale.end;
        while low > stale.start {
            let block = stale.start.max((low - 1) / Self::GC_BLOCK * Self::GC_BLOCK)..low;
            let ids = block.clone().flat_map(|s| self.record_ids(s));
            if !has_all(store, ids).contains(&true) {
                break;
            }
            low = block.start;
        }
        self.collect(store, low..stale.end);
    }

    /// Writes pointer cell `slot`, every copy as one batch, naming the
    /// checkpoint whose newest segment is `parts` parts from `checkpoint`.
    fn store_pointer<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        slot: u64,
        checkpoint: u64,
        parts: u32,
    ) {
        let pointer = Block::from_vec(MetaRecord::Pointer { checkpoint, parts }.encode(slot));
        let cells = self.pointer_ids(slot).map(|id| (id, pointer.clone()));
        store_all(store, cells);
        self.pointers.insert(slot, pointer);
    }

    /// Commits `rows` — what the owner added since the last commit — and
    /// `tail`, both encoded, as the newest checkpoint segment, folding
    /// into it every live segment of its own level (see the module docs),
    /// and garbage-collects what it supersedes: parts are appended
    /// (n-way), the pointer cell flips to name them, and only then are
    /// the absorbed segments and the folded records removed — a crash at
    /// any point leaves either the previous checkpoint reachable or this
    /// one committed. Returns the journal seq of the segment's part 0.
    pub(crate) fn commit_checkpoint<B: BlockRepo + ?Sized>(
        &mut self,
        store: &B,
        rows: &Rows,
        tail: &[u8],
    ) -> u64 {
        // What the commit this journal was opened on may have left
        // uncollected is garbage already, and after this commit's pointer
        // no header would name its range any more.
        if let Some(stale) = self.stale.take() {
            self.recollect(store, stale);
        }
        // Every commit but an archive's first finds a cell naming the
        // checkpoint it supersedes.
        let supersedes = !self.chain.is_empty();
        let mut level = 0u8;
        let mut absorbed = Vec::new();
        while let Some(top) = self.chain.pop_if(|top| top.level <= level) {
            absorbed.push(self.payload_of(&top));
            level = level.saturating_add(1);
        }
        absorbed.reverse();
        let base = self.chain.last().map(|below| (below.seq, below.parts));
        let payload = splice_segment(level, base, &absorbed, rows, tail);

        let cseq = self.next_meta;
        let seg = self.meta.segment_bytes.max(1);
        let parts = payload.len().div_ceil(seg) as u32;
        for (part, chunk) in (0u32..).zip(payload.chunks(seg)) {
            self.write(
                store,
                encode_checkpoint_part(self.next_meta, part, parts, chunk),
            );
        }
        // The pointer commit: all parts are durable, point one cell at
        // them — then, once that is durable, the other cell too.
        // A level-0 commit leaves the chain under it whole, so a cell left
        // naming that chain would, this commit's GC done and the newer
        // cell lost, open as an archive silently rewound.
        let slot = self.next_pointer_slot;
        self.store_pointer(store, slot, cseq, parts);
        if supersedes {
            self.store_pointer(store, 1 - slot, cseq, parts);
        }
        self.next_pointer_slot = 1 - slot;
        self.chain.push(Segment {
            seq: cseq,
            parts,
            level,
        });
        // Only now is what lies between the base and part 0 garbage: the
        // absorbed segments and the records this segment folds.
        let floor = self.garbage_floor();
        self.collect(store, self.journal.range(floor..cseq).map(|(&s, _)| s));
        self.journal.retain(|&s, _| s < floor || s >= cseq);
        self.records_since_checkpoint = 0;
        cseq
    }

    /// Heals the journal on the backend, copy by copy, and clears the
    /// damage report: every copy of every live record and pointer cell
    /// is byte-compared against the canonical in-memory block (by
    /// sequence, then pointers by slot, copies innermost), so silently
    /// garbled copies are rewritten too, not just missing ones; then
    /// pointer cells the journal does not own (uncommitted writes a crash
    /// tore mid-commit, survived by `open`) are cleared so future opens
    /// see a clean cell. Returns how many copies were rewritten.
    pub(crate) fn heal<B: BlockRepo + ?Sized>(&mut self, store: &B) -> u64 {
        let records = self.journal.iter();
        let records = records.flat_map(|(&seq, b)| self.record_ids(seq).map(move |id| (id, b)));
        let cells = self.pointers.iter();
        let cells = cells.flat_map(|(&slot, b)| self.pointer_ids(slot).map(move |id| (id, b)));
        let canon: Vec<(BlockId, &Block)> = records.chain(cells).collect();
        let found = fetch_all(store, canon.iter().map(|&(id, _)| id));
        let unhealthy: Vec<(BlockId, Block)> = canon
            .into_iter()
            .zip(found)
            .filter(|((_, canon), found)| {
                found
                    .as_ref()
                    .is_none_or(|b| b.as_slice() != canon.as_slice())
            })
            .map(|((id, canon), _)| (id, canon.clone()))
            .collect();
        let healed = unhealthy.len() as u64;
        store_all(store, unhealthy);
        let stale = (0..2u64).filter(|slot| !self.pointers.contains_key(slot));
        remove_all(store, stale.flat_map(|slot| self.pointer_ids(slot)));
        self.meta_damage.clear();
        healed
    }

    /// Total records ever appended (genesis included): the next record
    /// gets seq `len()`. GC'd prefix records still count.
    pub(crate) fn len(&self) -> u64 {
        self.next_meta
    }

    /// Records currently live: genesis + the parts of the committed
    /// checkpoint's segments + suffix.
    pub(crate) fn live_records(&self) -> u64 {
        self.journal.len() as u64
    }

    /// Every block id the backend should currently hold for the journal:
    /// all copies of every live record, then of every pointer cell.
    pub(crate) fn live_ids(&self) -> Vec<BlockId> {
        let records = self.journal.keys().flat_map(|&seq| self.record_ids(seq));
        let cells = self
            .pointers
            .keys()
            .flat_map(|&slot| self.pointer_ids(slot));
        records.chain(cells).collect()
    }

    /// The durability policy in effect: the genesis-pinned copy-set width
    /// plus this open's checkpoint cadence.
    pub(crate) fn config(&self) -> &MetaConfig {
        &self.meta
    }

    /// Part-0 journal seq of the committed checkpoint's newest segment,
    /// if any.
    pub(crate) fn checkpoint_seq(&self) -> Option<u64> {
        self.chain.last().map(|newest| newest.seq)
    }

    /// Journal records the walk read.
    pub(crate) fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Copies `open` and the walk had to skip on the way to a valid one.
    pub(crate) fn damage(&self) -> &[MetaDamage] {
        &self.meta_damage
    }

    /// Seq of the torn final record (for a torn multi-part checkpoint:
    /// its part 0) the walk detected and truncated.
    pub(crate) fn torn_tail(&self) -> Option<u64> {
        self.torn_tail
    }
}
