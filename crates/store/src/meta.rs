//! The archive's **on-backend metadata journal**: the persistent form of
//! the manifest, the stored-block counters and the encoder frontier —
//! checkpointed, and as redundant as the data it describes.
//!
//! [`crate::Archive`] keeps its metadata as a sequence of records stored
//! as ordinary blocks under the reserved [`BlockId::Meta`] namespace of
//! the *same* backend that holds the data, so a process crash loses
//! nothing: [`crate::Archive::open`] replays the journal and resumes
//! exactly where the crashed process stopped. Two mechanisms keep the
//! metadata plane as durable as the blocks it indexes:
//!
//! * **Copy sets** — every record (and every checkpoint part and pointer
//!   cell) is written to `n` placement-distinct ids (default `n = 3`,
//!   [`MetaConfig::copies`]). Copy `c` of record `seq` lives at
//!   [`MetaId::record`]`(seq, c)`; all copies carry identical bytes.
//!   Readers fall through the copy set taking the first copy whose CRC32
//!   checks out, losses below `n` degrade a read instead of failing it,
//!   and [`crate::Archive::scrub`] re-materializes lost or corrupted
//!   copies the way it heals data blocks.
//! * **Checkpoints** — past a configurable record threshold (and on
//!   `seal`) the archive commits a checkpoint and the records it folds
//!   are garbage-collected, so `open` replays *checkpoint + suffix*
//!   instead of the whole history. A checkpoint is a chain of at most
//!   ⌈log₂ commits⌉ + 1 **segments**, each holding the manifest rows
//!   added since the one below it (see "Checkpoint chain" below): a
//!   commit costs the rows since the last one — amortised, O(log files)
//!   times that — not the archive's age.
//!
//! # Position-first: counts, not id lists
//!
//! The paper's broker keeps "the last p-block of its 15 strands" and
//! nothing else (§IV.A), because every block's identity is lattice
//! arithmetic (§III). The journal follows: the `k`-th block an archive
//! stored is [`ae_api::RedundancyScheme::block_at`]`(k, data)`, so a
//! record says *how many* blocks its mutation stored and never which —
//! the ids are `block_at(stored_before + i, data_after)` — and a
//! checkpoint carries two counters, not an id log. The archive verifies
//! every id a scheme reports against `block_at` when it writes the record
//! (O(ids) arithmetic) and writes the count.
//!
//! # Record layout (format version 3)
//!
//! Every record is one block whose bytes are:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"AEMJ"` |
//! | 4      | 2    | format version, little-endian (`3`) |
//! | 6      | 2    | record kind, little-endian (below) |
//! | 8      | 8    | sequence number, little-endian — must equal the [`MetaId::seq`] of the id the record is stored under (the pointer **slot** for pointer records) |
//! | 16     | 4    | payload length `L`, little-endian |
//! | 20     | `L`  | kind-specific payload (below) |
//! | 20+L   | 4    | CRC32 (IEEE) over bytes `[0, 20+L)`, little-endian |
//!
//! Payloads (all integers little-endian; strings are UTF-8, length-prefixed
//! with a `u16`):
//!
//! * **Genesis** (`kind 0`, written once at archive creation, copies of
//!   journal seq 0): scheme display name (string), block size (`u64`)
//!   and the copy-set width (`u16`), which pins [`MetaConfig::copies`]
//!   for the archive's whole life.
//!   [`crate::Archive::open`] refuses to replay a journal whose scheme
//!   name differs from the scheme it was given.
//! * **Put** (`kind 1`, one per [`crate::Archive::put`]): file name
//!   (string), byte length (`u64`), content CRC32 (`u32`), dense extent
//!   (`first_block u64`, `block_count u64`), the **stored blocks** of
//!   this put (below; redundancy included), and the post-put
//!   encoder-frontier snapshot (`u32` length + bytes, see
//!   [`ae_api::RedundancyScheme::frontier_snapshot`]).
//! * **Seal** (`kind 2`, at most one, written by
//!   [`crate::Archive::seal`]): the stored blocks of the flush and the
//!   post-seal frontier snapshot (`u32` length + bytes).
//! * **Checkpoint** (`kind 3`): one *part* of a [`CheckpointPayload`]
//!   segment — part index (`u32`), part count (`u32`), chunk bytes
//!   (`u32` length + bytes). A segment larger than
//!   [`MetaConfig::segment_bytes`] is split across `part count`
//!   consecutive journal sequence numbers; concatenating the chunks of
//!   parts `0..count` yields the payload.
//! * **Pointer** (`kind 4`, stored at the [`MetaId::pointer`] cells, not
//!   at journal sequence numbers): the journal seq of part 0 of a
//!   fully-written checkpoint's **newest** segment (`u64`) and that
//!   segment's part count (`u32`). Pointer cells are the journal's only
//!   **rewritable** blocks: there are two slots, overwritten one after
//!   the other, so a crash mid-overwrite always leaves the other slot
//!   naming a checkpoint that is whole.
//!
//! The **stored blocks** field is a shape byte, which must be `0`, then a
//! `u32` count: the blocks are the next `count` positions of the scheme's
//! arithmetic.
//!
//! # Checkpoint payload (payload version 3)
//!
//! | field | encoding |
//! |-------|----------|
//! | payload version | `u8` (`3`) |
//! | level | `u8`: how many times the segment's rows were folded |
//! | base | journal seq of part 0 of the segment below (`u64`) and its part count (`u32`); both `0` at the bottom of the chain |
//! | rows | `u32` row count, then the manifest rows added since the base, in **write order**: name (string), byte length (`u64`), CRC32 (`u32`), `first_block` (`u64`), `block_count` (`u64`) |
//! | data blocks written | `u64` |
//! | stored blocks | as in a record: shape byte `0`, `u32` count |
//! | sealed | `u8`, `0` or `1` |
//! | frontier snapshot | `u32` length + bytes |
//!
//! Everything after the rows is the **tail**: the archive's state as of
//! this commit. Only the newest segment's tail is read; an older
//! segment's is what was true when it was the newest.
//!
//! # Checkpoint chain: levels, folds, what `open` reads
//!
//! The manifest is append-only — no file is removed, a name is refused
//! twice, and a file's extent starts where the one before it ended — so
//! a row, once checkpointed, never changes, and a commit need only add
//! the rows since the previous one. It writes them as a **level-0**
//! segment on top of the live chain and, while the segment under it has
//! its own level, **absorbs** it: that segment's row bytes are spliced
//! ahead of its own (`splice_segment` — bytes, not re-derived state),
//! its level rises by one and its base becomes the absorbed segment's
//! base. Commit `c` therefore rewrites `2^tz(c)` commits' worth of rows,
//! the live segments after it are the set bits of `c` — at most
//! ⌈log₂ c⌉ + 1, levels strictly falling from oldest to newest — and `n`
//! files cost O(n log n) rows of checkpoint over an archive's life where
//! a full snapshot per commit cost O(n²). A `seal`'s checkpoint is a
//! segment like any other; its record adds no row, so it has none of its
//! own.
//!
//! `open` reads the newest segment the pointer names, then its base, and
//! so on down (one batched fetch per hop), and hands the archive every
//! row oldest-first under the newest tail. The walk is bounded by what
//! is there: a base must lie wholly below the segment naming it (seqs
//! strictly fall, so nothing cycles) and must have a higher level (at
//! most 256 hops). The archive then holds the rows to what write order
//! implies — the first extent starts at block 0, each next one where the
//! last ended, the last ends at the data counter, no name comes twice —
//! so a chain that skips, repeats or misorders a segment is a typed
//! error, not a shorter manifest.
//!
//! # Count validation
//!
//! A count read from a record is never trusted ahead of the bytes that
//! back it. At this layer, a count that sizes an allocation or bounds a
//! loop — manifest rows — is first checked against what the
//! rest of the payload could hold at the field's minimum encoded size;
//! string, chunk and snapshot lengths are bounds-checked slices of the
//! payload. A *positional* stored count sizes nothing here: it is a
//! number, and [`crate::Archive::open`] checks it before use — a record
//! or checkpoint whose counters exceed the `u32` position space of
//! `block_at`, claim more data blocks than stored blocks, or exceed
//! [`ae_api::RedundancyScheme::universe_len`]`(data)` is
//! [`crate::archive::RecoveryError::CorruptRecord`], as is a manifest row
//! whose extent leaves the data counter or whose byte length exceeds its
//! extent. Every failure is a typed error; no input panics a decoder.
//!
//! # Version compatibility
//!
//! This build reads and writes record format 3 and checkpoint payload
//! version 3 only. Any other version is refused, and at the genesis
//! record, so [`crate::Archive::open`] fails with
//! [`crate::archive::RecoveryError::CorruptRecord`] at seq 0, naming the
//! version, before it replays anything.
//!
//! # Checkpoint commit and GC rules
//!
//! A checkpoint commits in three ordered steps, each step only started
//! after the previous is fully stored:
//!
//! 1. The new segment's **parts** are appended to the journal at the
//!    next sequence numbers (each part `n`-way, like any record).
//! 2. The **pointer** naming part 0 is written to one slot (all copies)
//!    and then, unless this is the archive's first checkpoint, to the
//!    other — one slot at a time, so at every instant at least one names
//!    a checkpoint that is whole.
//! 3. Only then is what the segment supersedes **garbage-collected**:
//!    every journal record after its base's last part (after genesis,
//!    for a base-less segment) and before its part 0 — the segments it
//!    absorbed and the `Put`/`Seal` records it folded — in ascending
//!    order, record 1 first and alone, the rest one aligned block of 16
//!    sequence numbers at a time. Live older segments, genesis and the
//!    pointer cells are never touched.
//!
//! Both slots, because a level-0 commit leaves the chain under it whole:
//! a slot left naming that chain would stay loadable after step 3 removed
//! the records that followed it, and at any cadence above the 16-record
//! probe window, losing every copy of the newer slot would then open as
//! an archive one commit short, silently. With both slots rewritten
//! before step 3, **no valid slot ever names a checkpoint whose
//! successor's garbage collection has begun**; one slot lost whole —
//! deleted or rotted — leaves the other naming the same chain.
//!
//! A crash anywhere in that sequence is safe. Before the first slot of
//! step 2 is written the old pointers still name the previous chain, none
//! of which has been removed (partially-written parts are a torn tail,
//! truncated on replay; a complete but unnamed group is validated and
//! stepped over). Between the two slots, they differ and nothing has been
//! collected: `open` loads the newer and finishes the commit by writing
//! the second slot, or, if the newer is torn or unloadable, falls back to
//! the older and replays the records the cut commit folded — replay
//! length, never data. After step 2, replay uses the new chain, and
//! whatever step 3 did not get to is left on the backend **below** the
//! checkpoint `open` loads, where the reopened process never reads it and
//! so holds no record of it. The segment's header says where that is —
//! the range of step 3 is arithmetic on `base` and the segment's own seq
//! — and step 3's order says what a cut can have left of it: the top of
//! the range, down to the one block the cut fell in. So the reopened
//! journal, ahead of its next commit (ahead, because that commit's own
//! range need not contain it), probes the range from the top, block by
//! block, stops at the first block that holds nothing and removes from
//! there up: one batch of `has` calls when step 3 had finished, work
//! bounded by the blocks present whatever range a header claims. Until
//! then the leftovers are inert: nothing below a loaded checkpoint is
//! replayed.
//!
//! # Versioning and torn-write rules
//!
//! * The journal is **append-only** (pointer cells excepted): record `n`
//!   is written before record `n + 1`, records are never rewritten, and
//!   each copy is one atomically-stored block. The sequence number inside
//!   the record must match the id it is fetched from, so a block
//!   misdirected between archives cannot be replayed silently.
//! * A reader rejects any copy whose magic, version, kind, sequence
//!   number, length framing or CRC32 does not check out — with a typed
//!   error, never a panic — and falls through to the next copy. Copies
//!   that had to be skipped surface as a [`crate::MetaDamage`] report on
//!   the opened archive, and scrub heals them.
//! * **Torn tail**: if the *final* record of the journal has no valid
//!   copy (a write torn by the crash) and no record follows it, replay
//!   truncates the journal there — the un-acknowledged mutation is
//!   dropped, the archive reopens at the last durable state, and the
//!   truncation is reported via [`crate::Archive::torn_tail`]. A torn
//!   checkpoint tail (some parts missing, nothing beyond) truncates the
//!   *whole* partial checkpoint. Blocks the torn mutation already stored
//!   are orphans; the resumed encoder overwrites them.
//! * **Mid-journal damage is fatal at open only when a whole copy set is
//!   lost**: a record with *no* valid copy that is followed by a valid
//!   record means the metadata itself was destroyed beyond the
//!   redundancy, and replay fails with
//!   [`crate::archive::RecoveryError::CorruptRecord`] naming the record —
//!   stale or reordered state is never served silently. Replay probes a
//!   16-record window past a failure to distinguish damage from the
//!   tail; only a gap of *more* than 16 consecutive destroyed records
//!   with survivors beyond it is indistinguishable from end-of-journal.
//!   Likewise, after GC the pointer cells are the only road to the
//!   checkpoint: pointer cells that all decode invalid are a typed
//!   error, and losing **every** copy of **both** pointer slots (of the
//!   one slot an archive's first checkpoint writes) without a trace is
//!   indistinguishable from an archive that never checkpointed — the one
//!   configuration beyond the metadata plane's `n - 1`-losses-per-record
//!   guarantee.
//!   A **live** archive keeps every record it wrote in memory and
//!   [`crate::Archive::scrub`] re-stores any copy the backend lost or
//!   corrupted, so the journal heals with the data it describes.

use ae_blocks::{crc32, BlockId, EdgeId, MetaId, NodeId, ReplicaId, ShardId};

/// Magic prefix of every journal record: "AE Meta Journal".
pub const MAGIC: [u8; 4] = *b"AEMJ";

/// The one journal format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 3;

/// The id of copy 0 of journal record `seq` — the id the whole record
/// had before copy sets existed.
pub fn meta_id(seq: u64) -> BlockId {
    BlockId::Meta(MetaId(seq))
}

/// The id of copy `copy` of journal record `seq`.
pub fn meta_copy_id(seq: u64, copy: u16) -> BlockId {
    BlockId::Meta(MetaId::record(seq, copy))
}

/// The id of copy `copy` of checkpoint-pointer cell `slot` (0 or 1).
pub fn pointer_id(slot: u64, copy: u16) -> BlockId {
    BlockId::Meta(MetaId::pointer(slot, copy))
}

/// Durability policy for an archive's metadata journal: how wide each
/// record's copy set is and when the journal is checkpointed.
///
/// The copy-set width is **pinned at archive creation** (persisted in the
/// genesis record); reopening with a different `copies` keeps the
/// archive's own width. Checkpoint cadence, by contrast, is a live
/// policy: each open chooses its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaConfig {
    /// Copies per record, `1..=`[`MetaId::MAX_COPIES`]. Each copy lands
    /// in a distinct placement slot; `copies - 1` losses per record
    /// degrade reads instead of failing them.
    pub copies: u16,
    /// Checkpoint after this many records accumulate past the previous
    /// checkpoint (and on `seal`). `None` disables checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Maximum chunk of a [`CheckpointPayload`] carried by one checkpoint
    /// part record — segments larger than this split into multiple
    /// parts.
    pub segment_bytes: usize,
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig {
            copies: 3,
            checkpoint_every: Some(64),
            segment_bytes: 64 * 1024,
        }
    }
}

impl MetaConfig {
    /// Clamps the width into `1..=`[`MetaId::MAX_COPIES`].
    pub(crate) fn clamped_copies(&self) -> u16 {
        self.copies.clamp(1, MetaId::MAX_COPIES)
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRecord {
    /// Archive birth certificate (journal seq 0).
    Genesis {
        /// Display name of the scheme the archive was created over.
        scheme: String,
        /// Chunk size in bytes.
        block_size: u64,
        /// Copy-set width every record of this journal is written with.
        copies: u16,
    },
    /// One archived file.
    Put {
        /// File name.
        name: String,
        /// Original length in bytes.
        byte_len: u64,
        /// CRC32 of the original contents.
        crc: u32,
        /// 0-based index of the file's first data block in write order.
        first_block: u64,
        /// Number of data blocks.
        block_count: u64,
        /// How many blocks this put stored (data + redundancy): the next
        /// positions of the scheme's arithmetic.
        stored: u32,
        /// Post-put encoder-frontier snapshot.
        frontier: Vec<u8>,
    },
    /// The archive was sealed.
    Seal {
        /// How many blocks the redundancy flush stored.
        stored: u32,
        /// Post-seal encoder-frontier snapshot.
        frontier: Vec<u8>,
    },
    /// One part of a checkpoint snapshot (see [`CheckpointPayload`]).
    Checkpoint {
        /// 0-based index of this part.
        part: u32,
        /// Total parts in the snapshot.
        parts: u32,
        /// This part's slice of the encoded payload.
        chunk: Vec<u8>,
    },
    /// A checkpoint-pointer cell naming the committed checkpoint. Framed
    /// with the pointer **slot** as its sequence number.
    Pointer {
        /// Journal seq of the checkpoint's part 0.
        checkpoint: u64,
        /// The checkpoint's part count.
        parts: u32,
    },
}

/// One manifest row of a checkpoint: `(name, byte_len, crc, first_block,
/// block_count)` — the fields of [`crate::archive::Entry`].
pub type ManifestRow = (String, u64, u32, u64, u64);

/// One checkpoint **segment**: the manifest rows its owner added since
/// the segment below it (see the module docs), plus the state only the
/// newest segment of a chain speaks for — the data and stored-block
/// counters, the sealed flag and the encoder-frontier snapshot. Encoded
/// with a leading payload-version byte, chunked into
/// [`MetaRecord::Checkpoint`] parts for storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPayload {
    /// How many times this segment's rows were folded: a level-`l`
    /// segment covers `2^l` checkpoints' worth of rows.
    pub level: u8,
    /// Part-0 journal seq and part count of the segment below — the
    /// older rows — or `None` for the bottom of the chain.
    pub base: Option<(u64, u32)>,
    /// Manifest rows in write order: extents dense and ascending.
    pub manifest: Vec<ManifestRow>,
    /// Data blocks written through the archive.
    pub data: u64,
    /// Blocks written through the archive: the first `stored` positions
    /// of the scheme's arithmetic.
    pub stored: u32,
    /// Whether the archive was sealed.
    pub sealed: bool,
    /// Encoder-frontier snapshot at checkpoint time.
    pub frontier: Vec<u8>,
}

/// The one checkpoint payload version this build reads and writes.
const PAYLOAD_VERSION: u8 = 3;

/// Smallest encoded manifest row: an empty name and the four integers.
const MIN_ROW_BYTES: usize = 2 + 8 + 4 + 8 + 8;

/// Manifest rows in their version-3 wire form, in the order pushed: what
/// an archive accumulates between checkpoints — a few bytes a put — so a
/// checkpoint encodes no row and looks none up.
#[derive(Default)]
pub(crate) struct Rows {
    count: u32,
    bytes: Vec<u8>,
}

impl Rows {
    /// Appends one row.
    pub(crate) fn push(&mut self, (name, byte_len, crc, first_block, block_count): RowRef<'_>) {
        put_str(&mut self.bytes, name);
        self.bytes.extend_from_slice(&byte_len.to_le_bytes());
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        self.bytes.extend_from_slice(&first_block.to_le_bytes());
        self.bytes.extend_from_slice(&block_count.to_le_bytes());
        self.count += 1;
    }

    /// Forgets every row, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.count = 0;
        self.bytes.clear();
    }
}

/// A borrowed [`ManifestRow`].
pub(crate) type RowRef<'a> = (&'a str, u64, u32, u64, u64);

/// Serializes the tail of a checkpoint payload: what follows its rows.
pub(crate) fn encode_tail(data: u64, stored: u32, sealed: bool, frontier: &[u8]) -> Vec<u8> {
    let mut tail = Vec::with_capacity(32 + frontier.len());
    tail.extend_from_slice(&data.to_le_bytes());
    put_stored(&mut tail, stored);
    tail.push(sealed as u8);
    put_bytes(&mut tail, frontier);
    tail
}

/// Assembles a version-3 segment payload: the header naming `level` and
/// `base`, then the rows of the `absorbed` payloads (oldest first — each
/// a whole payload this journal wrote or validated) and `rows` as one row
/// section, then `tail`. Absorbed rows are copied as the bytes they are;
/// nothing is re-derived from their owner.
///
/// # Panics
///
/// Panics if an absorbed payload does not parse or the rows outnumber
/// `u32` — neither can happen to payloads a journal holds as canonical.
pub(crate) fn splice_segment(
    level: u8,
    base: Option<(u64, u32)>,
    absorbed: &[Vec<u8>],
    rows: &Rows,
    tail: &[u8],
) -> Vec<u8> {
    let sections: Vec<(u32, &[u8])> = absorbed
        .iter()
        .map(|payload| row_section(payload).expect("a canonical payload parses"))
        .collect();
    let count = sections
        .iter()
        .try_fold(rows.count, |sum, (n, _)| sum.checked_add(*n));
    let count = count.expect("an archive's files fit its u32 positions");
    let spliced: usize = sections.iter().map(|(_, bytes)| bytes.len()).sum();
    let body = spliced + rows.bytes.len() + tail.len();
    let mut buf = Vec::with_capacity(SEGMENT_HEADER_BYTES + 4 + body);
    buf.push(PAYLOAD_VERSION);
    buf.push(level);
    let (base_seq, base_parts) = base.unwrap_or((0, 0));
    buf.extend_from_slice(&base_seq.to_le_bytes());
    buf.extend_from_slice(&base_parts.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    for (_, bytes) in &sections {
        buf.extend_from_slice(bytes);
    }
    buf.extend_from_slice(&rows.bytes);
    buf.extend_from_slice(tail);
    buf
}

/// Version byte, level, base seq and base part count.
const SEGMENT_HEADER_BYTES: usize = 1 + 1 + 8 + 4;

/// The row count and encoded rows of a whole checkpoint payload: a
/// borrowed slice of it.
fn row_section(payload: &[u8]) -> Result<(u32, &[u8]), RecordError> {
    let mut r = Reader {
        buf: payload,
        pos: SEGMENT_HEADER_BYTES.min(payload.len()),
    };
    let rows = r.row_count()?;
    let start = r.pos;
    for _ in 0..rows {
        let name = r.u16()? as usize;
        r.take(name + MIN_ROW_BYTES - 2)?;
    }
    Ok((rows as u32, &payload[start..r.pos]))
}

impl CheckpointPayload {
    /// Serializes the segment (version byte + fields, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let tail = encode_tail(self.data, self.stored, self.sealed, &self.frontier);
        splice_segment(self.level, self.base, &[], &self.rows(), &tail)
    }

    /// The rows in their wire form.
    fn rows(&self) -> Rows {
        let mut rows = Rows::default();
        for (name, len, crc, first, count) in &self.manifest {
            rows.push((name, *len, *crc, *first, *count));
        }
        rows
    }

    /// Puts the rows of `below` — the segment this one names as its base
    /// — ahead of its own, so a chain walked newest to oldest adds up to
    /// one payload: every row in write order under the newest tail.
    pub(crate) fn stack_on(&mut self, mut below: CheckpointPayload) {
        below.manifest.append(&mut self.manifest);
        self.manifest = below.manifest;
    }

    /// Parses a payload reassembled from checkpoint parts.
    ///
    /// # Errors
    ///
    /// A [`RecordError`] naming the first structural check that failed.
    pub fn decode(bytes: &[u8]) -> Result<Self, RecordError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let version = r.u8()?;
        if version != PAYLOAD_VERSION {
            return Err(format!(
                "checkpoint payload version {version}; this build reads {PAYLOAD_VERSION}"
            ));
        }
        let level = r.u8()?;
        let base = match (r.u64()?, r.u32()?) {
            (0, 0) => None,
            (seq, parts) if seq == 0 || parts == 0 => {
                return Err(format!("impossible base segment {seq}+{parts}"));
            }
            base => Some(base),
        };
        let rows = r.row_count()?;
        let mut manifest: Vec<ManifestRow> = Vec::with_capacity(rows);
        for _ in 0..rows {
            manifest.push((r.string()?, r.u64()?, r.u32()?, r.u64()?, r.u64()?));
        }
        let (data, stored) = (r.u64()?, r.stored()?);
        let sealed = match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(format!("bad sealed flag {b}")),
        };
        let frontier = r.bytes()?;
        r.finish()?;
        Ok(CheckpointPayload {
            level,
            base,
            manifest,
            data,
            stored,
            sealed,
            frontier,
        })
    }
}

/// Why a record's bytes could not be decoded. The string names the exact
/// check that failed; [`crate::Archive::open`] wraps it with the record's
/// sequence number.
pub type RecordError = String;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "strings are u16-framed");
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Appends a stored-blocks field: shape byte `0`, then the count.
fn put_stored(buf: &mut Vec<u8>, stored: u32) {
    buf.push(0);
    buf.extend_from_slice(&stored.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Appends a stable tagged byte form of `id` — a one-byte variant tag
/// followed by the variant's fields, little-endian (`0` data: node
/// `u64`; `1` parity: class `u8`, left `u64`; `2` shard: stripe `u64`,
/// index `u16`; `3` replica: node `u64`, copy `u16`; `4` meta: seq
/// `u64`) — for digesting or naming ids. No journal record carries one.
pub fn encode_block_id(buf: &mut Vec<u8>, id: BlockId) {
    match id {
        BlockId::Data(NodeId(i)) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        BlockId::Parity(EdgeId { class, left }) => {
            buf.push(1);
            buf.push(class.index() as u8);
            buf.extend_from_slice(&left.0.to_le_bytes());
        }
        BlockId::Shard(ShardId { stripe, index }) => {
            buf.push(2);
            buf.extend_from_slice(&stripe.to_le_bytes());
            buf.extend_from_slice(&index.to_le_bytes());
        }
        BlockId::Replica(ReplicaId { node, copy }) => {
            buf.push(3);
            buf.extend_from_slice(&node.0.to_le_bytes());
            buf.extend_from_slice(&copy.to_le_bytes());
        }
        BlockId::Meta(MetaId(seq)) => {
            buf.push(4);
            buf.extend_from_slice(&seq.to_le_bytes());
        }
    }
}

/// Bounds-checked cursor over record bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let bytes = &self.buf[self.pos..end];
                self.pos = end;
                Ok(bytes)
            }
            None => Err(format!("truncated at byte {}", self.pos)),
        }
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RecordError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A manifest row count, refused unless the rest of the payload could
    /// hold that many rows at their minimum size — so the count may size
    /// an allocation and bound a loop.
    fn row_count(&mut self) -> Result<usize, RecordError> {
        let count = self.u32()? as usize;
        if count > (self.buf.len() - self.pos) / MIN_ROW_BYTES {
            return Err(format!("manifest row count {count} exceeds the payload"));
        }
        Ok(count)
    }

    fn string(&mut self) -> Result<String, RecordError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }

    /// A stored-blocks field: shape byte `0`, then the count.
    fn stored(&mut self) -> Result<u32, RecordError> {
        match self.u8()? {
            0 => self.u32(),
            b => Err(format!("bad stored-blocks shape {b}")),
        }
    }

    fn bytes(&mut self) -> Result<Vec<u8>, RecordError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), RecordError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing payload byte(s)",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// Frames one record for storage at `Meta(seq)`: header, the payload
/// `body` appends, the back-patched payload length and the trailing
/// CRC32, as documented at module level — written in place, no
/// intermediate payload buffer. `hint` is the expected payload size.
fn frame(
    version: u16,
    kind: u16,
    seq: u64,
    hint: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + hint);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    body(&mut out);
    let payload_len = (out.len() - 20) as u32;
    out[16..20].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

const KIND_CHECKPOINT: u16 = 3;

fn put_part(buf: &mut Vec<u8>, part: u32, parts: u32, chunk: &[u8]) {
    buf.extend_from_slice(&part.to_le_bytes());
    buf.extend_from_slice(&parts.to_le_bytes());
    put_bytes(buf, chunk);
}

/// Encodes checkpoint part `part` of `parts` around a borrowed slice of
/// the payload: the bytes of the [`MetaRecord::Checkpoint`] it decodes
/// to, without owning the chunk first.
pub(crate) fn encode_checkpoint_part(seq: u64, part: u32, parts: u32, chunk: &[u8]) -> Vec<u8> {
    frame(
        FORMAT_VERSION,
        KIND_CHECKPOINT,
        seq,
        12 + chunk.len(),
        |out| put_part(out, part, parts, chunk),
    )
}

impl MetaRecord {
    fn kind(&self) -> u16 {
        match self {
            MetaRecord::Genesis { .. } => 0,
            MetaRecord::Put { .. } => 1,
            MetaRecord::Seal { .. } => 2,
            MetaRecord::Checkpoint { .. } => KIND_CHECKPOINT,
            MetaRecord::Pointer { .. } => 4,
        }
    }

    /// Encodes the record for storage at `Meta(seq)`: header, payload and
    /// trailing CRC32 as documented at module level.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let hint = match self {
            MetaRecord::Checkpoint { chunk, .. } => 12 + chunk.len(),
            _ => 96,
        };
        frame(FORMAT_VERSION, self.kind(), seq, hint, |out| match self {
            MetaRecord::Genesis {
                scheme,
                block_size,
                copies,
            } => {
                put_str(out, scheme);
                out.extend_from_slice(&block_size.to_le_bytes());
                out.extend_from_slice(&copies.to_le_bytes());
            }
            MetaRecord::Put {
                name,
                byte_len,
                crc,
                first_block,
                block_count,
                stored,
                frontier,
            } => {
                put_str(out, name);
                out.extend_from_slice(&byte_len.to_le_bytes());
                out.extend_from_slice(&crc.to_le_bytes());
                out.extend_from_slice(&first_block.to_le_bytes());
                out.extend_from_slice(&block_count.to_le_bytes());
                put_stored(out, *stored);
                put_bytes(out, frontier);
            }
            MetaRecord::Seal { stored, frontier } => {
                put_stored(out, *stored);
                put_bytes(out, frontier);
            }
            MetaRecord::Checkpoint { part, parts, chunk } => put_part(out, *part, *parts, chunk),
            MetaRecord::Pointer { checkpoint, parts } => {
                out.extend_from_slice(&checkpoint.to_le_bytes());
                out.extend_from_slice(&parts.to_le_bytes());
            }
        })
    }

    /// Decodes the record stored at `Meta(seq)`, verifying magic, version,
    /// sequence number, length framing and CRC32.
    ///
    /// # Errors
    ///
    /// A [`RecordError`] naming the first check that failed — the caller
    /// decides whether that means a torn tail (truncate) or damaged
    /// metadata (fatal).
    pub fn decode(seq: u64, bytes: &[u8]) -> Result<MetaRecord, RecordError> {
        if bytes.len() < 24 {
            return Err(format!("{} bytes is shorter than any record", bytes.len()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4"));
        if crc32(body) != stored_crc {
            return Err("record CRC mismatch".to_string());
        }
        let mut r = Reader { buf: body, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err("bad magic".to_string());
        }
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "format version {version}; this build reads {FORMAT_VERSION}"
            ));
        }
        let kind = r.u16()?;
        let stored_seq = r.u64()?;
        if stored_seq != seq {
            return Err(format!("sequence {stored_seq} stored under meta#{seq}"));
        }
        let payload_len = r.u32()? as usize;
        if body.len() != 20 + payload_len {
            return Err(format!(
                "payload length {payload_len} does not match record length {}",
                bytes.len()
            ));
        }
        let record = match kind {
            0 => MetaRecord::Genesis {
                scheme: r.string()?,
                block_size: r.u64()?,
                copies: r.u16()?,
            },
            1 => MetaRecord::Put {
                name: r.string()?,
                byte_len: r.u64()?,
                crc: r.u32()?,
                first_block: r.u64()?,
                block_count: r.u64()?,
                stored: r.stored()?,
                frontier: r.bytes()?,
            },
            2 => MetaRecord::Seal {
                stored: r.stored()?,
                frontier: r.bytes()?,
            },
            KIND_CHECKPOINT => MetaRecord::Checkpoint {
                part: r.u32()?,
                parts: r.u32()?,
                chunk: r.bytes()?,
            },
            4 => MetaRecord::Pointer {
                checkpoint: r.u64()?,
                parts: r.u32()?,
            },
            k => return Err(format!("unknown record kind {k}")),
        };
        r.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn put_record(stored: u32) -> MetaRecord {
        MetaRecord::Put {
            name: "report.pdf".into(),
            byte_len: 2000,
            crc: 0xDEAD_BEEF,
            first_block: 5,
            block_count: 32,
            stored,
            frontier: vec![1, 2, 3],
        }
    }

    fn sample_records() -> Vec<MetaRecord> {
        vec![
            MetaRecord::Genesis {
                scheme: "AE(3,2,5)".into(),
                block_size: 64,
                copies: 3,
            },
            put_record(128),
            MetaRecord::Seal {
                stored: 0,
                frontier: vec![],
            },
            MetaRecord::Checkpoint {
                part: 1,
                parts: 3,
                chunk: vec![0xAE; 100],
            },
            MetaRecord::Pointer {
                checkpoint: 41,
                parts: 3,
            },
        ]
    }

    fn sample_payload(stored: u32) -> CheckpointPayload {
        CheckpointPayload {
            level: 0,
            base: None,
            manifest: vec![
                ("a.txt".into(), 1000, 0xAB, 0, 16),
                ("b.txt".into(), 64, 0xCD, 16, 1),
            ],
            data: 17,
            stored,
            sealed: true,
            frontier: vec![7; 33],
        }
    }

    #[test]
    fn records_roundtrip() {
        for (seq, record) in (0u64..).zip(sample_records()) {
            let bytes = record.encode(seq);
            assert_eq!(MetaRecord::decode(seq, &bytes), Ok(record), "seq {seq}");
        }
    }

    #[test]
    fn a_positional_put_record_does_not_grow_with_the_put() {
        let small = put_record(4).encode(1).len();
        let large = put_record(4_000_000).encode(1).len();
        assert_eq!(small, large);
        // Header 20 + name 2+10 + four integers 28 + shape and count 5 +
        // frontier 4+3 + CRC 4.
        assert_eq!(small, 76);
    }

    #[test]
    fn the_borrowed_part_encoder_is_the_checkpoint_record() {
        let chunk = vec![0x5A; 300];
        let owned = MetaRecord::Checkpoint {
            part: 2,
            parts: 5,
            chunk: chunk.clone(),
        };
        assert_eq!(encode_checkpoint_part(9, 2, 5, &chunk), owned.encode(9));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = put_record(20).encode(3);
        for cut in 0..bytes.len() {
            assert!(
                MetaRecord::decode(3, &bytes[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn field_corruption_is_detected() {
        let good = MetaRecord::Genesis {
            scheme: "RS(4,2)".into(),
            block_size: 32,
            copies: 3,
        }
        .encode(0);
        // Flip one byte anywhere: the CRC (or, for the CRC bytes
        // themselves, the body mismatch) must catch it.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(MetaRecord::decode(0, &bad).is_err(), "flip at {i}");
        }
        // A record replayed under the wrong sequence number is rejected.
        assert!(MetaRecord::decode(1, &good).is_err());
    }

    #[test]
    fn checkpoint_payload_roundtrips_and_rejects_damage() {
        let payload = CheckpointPayload {
            level: 2,
            base: Some((31, 4)),
            ..sample_payload(68)
        };
        let bytes = payload.encode();
        assert_eq!(CheckpointPayload::decode(&bytes), Ok(payload.clone()));
        // Chunked through checkpoint part records and reassembled.
        let parts: Vec<&[u8]> = bytes.chunks(10).collect();
        let mut reassembled = Vec::new();
        for (i, chunk) in parts.iter().enumerate() {
            let seq = 40 + i as u64;
            let rec = encode_checkpoint_part(seq, i as u32, parts.len() as u32, chunk);
            match MetaRecord::decode(seq, &rec).unwrap() {
                MetaRecord::Checkpoint { chunk, .. } => reassembled.extend_from_slice(&chunk),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(CheckpointPayload::decode(&reassembled), Ok(payload));
        // Truncations and trailing garbage are typed errors.
        for cut in 0..bytes.len() {
            assert!(CheckpointPayload::decode(&bytes[..cut]).is_err(), "{cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(CheckpointPayload::decode(&long).is_err());
    }

    #[test]
    fn a_positional_checkpoint_is_its_manifest_and_two_counters() {
        let few = sample_payload(68).encode().len();
        let many = sample_payload(u32::MAX).encode().len();
        assert_eq!(few, many, "the stored count is a number, not a list");
        // Version 1 + level 1 + base 8+4 + row count 4 + rows (2+5+28)*2 +
        // data 8 + shape and count 5 + sealed 1 + frontier 4+33.
        assert_eq!(few, 139);
    }

    /// A segment lists the rows of a few puts in write order, whatever
    /// their names (duplicates are the archive's to find: it is the one
    /// that knows the rows of the segments below).
    #[test]
    fn manifest_rows_must_ascend_by_name() {
        let mut payload = sample_payload(68);
        payload.manifest.swap(0, 1);
        assert_eq!(CheckpointPayload::decode(&payload.encode()), Ok(payload));
    }

    /// A fold copies the rows of the segments it absorbs as bytes ahead
    /// of its own, under one count.
    #[test]
    fn a_spliced_segment_is_the_rows_of_its_parts_in_order() {
        let row = |name: &str, first: u64| -> ManifestRow { (name.into(), 9, 7, first, 1) };
        let segment = |rows: Vec<ManifestRow>| CheckpointPayload {
            manifest: rows,
            ..sample_payload(12)
        };
        let oldest = segment(vec![row("z", 0), row("a", 1)]).encode();
        let older = segment(vec![row("m", 2)]).encode();
        let newest = segment(vec![row("b", 3), row("", 4)]).rows();
        let tail = encode_tail(5, 20, true, &[1, 2]);
        let spliced = splice_segment(2, Some((6, 2)), &[oldest, older], &newest, &tail);
        assert_eq!(
            CheckpointPayload::decode(&spliced),
            Ok(CheckpointPayload {
                level: 2,
                base: Some((6, 2)),
                manifest: vec![
                    row("z", 0),
                    row("a", 1),
                    row("m", 2),
                    row("b", 3),
                    row("", 4)
                ],
                data: 5,
                stored: 20,
                sealed: true,
                frontier: vec![1, 2],
            })
        );
        // A base is a seq and a part count, or neither.
        for (seq, parts) in [(0u64, 1u32), (1, 0)] {
            let mut forged = spliced.clone();
            forged[2..10].copy_from_slice(&seq.to_le_bytes());
            forged[10..14].copy_from_slice(&parts.to_le_bytes());
            let err = CheckpointPayload::decode(&forged).unwrap_err();
            assert!(err.contains("impossible base"), "{err}");
        }
    }

    /// A count far beyond the bytes that could back it is refused before
    /// it sizes anything — this one would otherwise ask for gigabytes —
    /// and a stored-blocks field of any shape but `0` is refused.
    #[test]
    fn hostile_counts_are_refused_before_they_size_anything() {
        // A checkpoint claiming u32::MAX manifest rows.
        let header = [&[PAYLOAD_VERSION, 0][..], &[0; 12]].concat();
        let mut rows = header.clone();
        rows.extend_from_slice(&u32::MAX.to_le_bytes());
        rows.extend_from_slice(&[0; 64]);
        let err = CheckpointPayload::decode(&rows).unwrap_err();
        assert!(err.contains("manifest row count"), "{err}");
        // A checkpoint and a put record whose stored blocks have shape 1.
        let mut shaped = header;
        shaped.extend_from_slice(&0u32.to_le_bytes());
        shaped.extend_from_slice(&0u64.to_le_bytes());
        shaped.push(1);
        shaped.extend_from_slice(&u32::MAX.to_le_bytes());
        shaped.extend_from_slice(&[0; 64]);
        let err = CheckpointPayload::decode(&shaped).unwrap_err();
        assert!(err.contains("bad stored-blocks shape 1"), "{err}");
        let put = frame(FORMAT_VERSION, 1, 5, 0, |out| {
            put_str(out, "f");
            out.extend_from_slice(&[0; 28]);
            out.push(1);
            out.extend_from_slice(&u32::MAX.to_le_bytes());
            out.extend_from_slice(&[0; 64]);
        });
        let err = MetaRecord::decode(5, &put).unwrap_err();
        assert!(err.contains("bad stored-blocks shape 1"), "{err}");
        // A positional count is only a number here, however large.
        let counted = put_record(u32::MAX);
        assert_eq!(MetaRecord::decode(2, &counted.encode(2)), Ok(counted));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — raw, and as the payload of a correctly framed
        /// and checksummed record of every kind and version, so the field
        /// parsers are actually reached — never panic a decoder, and
        /// nothing but version 3 ever decodes.
        #[test]
        fn arbitrary_input_is_a_typed_error_or_a_record(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            kind in 0u16..6,
            version in 0u16..5,
            seq in 0u64..4,
        ) {
            let _ = MetaRecord::decode(seq, &bytes);
            let _ = CheckpointPayload::decode(&bytes);
            let framed = frame(version, kind, seq, 0, |out| out.extend_from_slice(&bytes));
            let decoded = MetaRecord::decode(seq, &framed);
            prop_assert!(version == FORMAT_VERSION || decoded.is_err(), "v{version}");
            if let Ok(record) = decoded {
                // Whatever parsed re-encodes to something that parses back.
                prop_assert_eq!(MetaRecord::decode(seq, &record.encode(seq)), Ok(record));
            }
            // A real record's payload parses under version 3 only.
            let real = &sample_records()[kind as usize % 5];
            let encoded = real.encode(seq);
            let payload = &encoded[20..encoded.len() - 4];
            let reframed = frame(version, real.kind(), seq, 0, |out| out.extend_from_slice(payload));
            prop_assert_eq!(MetaRecord::decode(seq, &reframed).is_ok(), version == FORMAT_VERSION);
            let mut real = sample_payload(68).encode();
            for payload_version in 0u8..4 {
                let mut payload = vec![payload_version];
                payload.extend_from_slice(&bytes);
                let decoded = CheckpointPayload::decode(&payload);
                prop_assert!(payload_version == PAYLOAD_VERSION || decoded.is_err());
                if let Ok(decoded) = decoded {
                    prop_assert_eq!(CheckpointPayload::decode(&decoded.encode()), Ok(decoded));
                }
                real[0] = payload_version;
                let parsed = CheckpointPayload::decode(&real).is_ok();
                prop_assert_eq!(parsed, payload_version == PAYLOAD_VERSION);
            }
        }

        /// One mutated byte inside a real record's payload, checksum
        /// re-sealed so the mutation reaches the parser: a typed error or
        /// a well-formed record, never a panic.
        #[test]
        fn one_mutated_byte_never_panics_a_decoder(
            pick in 0usize..5,
            at in 0usize..200,
            to in any::<u8>(),
        ) {
            let record = &sample_records()[pick];
            let mut bytes = record.encode(6);
            let body = bytes.len() - 4;
            let at = at % body;
            bytes[at] = to;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            let _ = MetaRecord::decode(6, &bytes);

            let mut payload = sample_payload(68).encode();
            let at = at % payload.len();
            payload[at] = to;
            let _ = CheckpointPayload::decode(&payload);
        }
    }

    #[test]
    fn meta_config_defaults_and_clamping() {
        let cfg = MetaConfig::default();
        assert_eq!(cfg.copies, 3);
        assert_eq!(cfg.checkpoint_every, Some(64));
        let wide = MetaConfig {
            copies: 99,
            ..MetaConfig::default()
        };
        assert_eq!(wide.clamped_copies(), MetaId::MAX_COPIES);
        let zero = MetaConfig {
            copies: 0,
            ..MetaConfig::default()
        };
        assert_eq!(zero.clamped_copies(), 1);
    }

    #[test]
    fn copy_and_pointer_ids_are_disjoint_namespaces() {
        let mut all = std::collections::HashSet::new();
        for seq in 0..50 {
            for copy in 0..3 {
                assert!(all.insert(meta_copy_id(seq, copy)));
            }
        }
        for slot in 0..2 {
            for copy in 0..3 {
                assert!(all.insert(pointer_id(slot, copy)));
            }
        }
        assert_eq!(meta_copy_id(7, 0), meta_id(7), "copy 0 is the record's id");
    }
}
