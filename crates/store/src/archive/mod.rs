//! A file-level archival API over any redundancy scheme and any backend.
//!
//! The paper positions AE codes as codes "to archive data in unreliable
//! environments"; this module is the layer a user actually touches: an
//! append-only [`Archive`] that chunks files into blocks, keeps a manifest
//! (name → dense data extent + length + CRC32), and serves reads and
//! repairs. It is doubly generic:
//!
//! * **over the scheme** — any `Arc<dyn RedundancyScheme>`: alpha
//!   entanglement, Reed-Solomon, replication, the §IV.B entangled chain, a
//!   namespaced geo lattice. `put` goes through the batch-first
//!   [`RedundancyScheme::encode_batch`], degraded `get` through the
//!   error-typed [`RedundancyScheme::repair_block`] fast path — which
//!   reads only the missing block's tuple members, however large the
//!   archive — and, for chained reconstructions, the round-based
//!   planners into a read-side [`ae_api::Overlay`]; `scrub`/`verify_all`
//!   use the same generic machinery — so an unreadable file reports
//!   *which* blocks were unavailable, whatever the code.
//! * **over the backend** — any [`BlockRepo`] of the unified `ae_api`
//!   family: a local [`crate::MemStore`], a [`crate::DistributedStore`]
//!   with failing locations, a two-tier [`crate::TieredStore`], a
//!   fault-injecting [`crate::FaultyStore`] in a disaster drill.
//!
//! [`Archive::new`] is the thin AE convenience constructor (config +
//! block size).
//!
//! Schemes that buffer redundancy (Reed-Solomon's partial stripe) leave
//! the newest blocks unprotected until the stripe fills or the archive is
//! sealed; [`Archive::seal`] flushes every buffer and freezes the archive
//! (further `put`s error), which is the natural end state of an archival
//! workload.
//!
//! # Who owns what
//!
//! An archive is two machines, and each has one owner. The **file layer**
//! — scheme, backend, manifest, positions, the sealed flag — is this
//! module: constructors, `put` and `seal` here, the read side (`get`,
//! `scrub`, `verify_all`) in `read.rs`, the position-first block log in
//! `positions.rs` (the archive holds no per-block state), and the way
//! batches of calls meet a backend that may be a network away in
//! `io.rs`. The **metadata journal** — where records live on the
//! backend, how many copies, in what order they are written, what a
//! crash may leave and how it is read back — is `journal.rs`, a sibling
//! of this module: the archive hands it a record to make durable before
//! a mutation is acknowledged and, in [`Archive::open`], applies the
//! records it hands back, restores the encoder frontier through
//! [`RedundancyScheme::restore_frontier`] and resumes where the crashed
//! process stopped. It knows neither an id nor a barrier of the journal;
//! what the records' bytes are is [`crate::meta`].

use crate::journal::{Journal, Opened};
use crate::meta::{encode_tail, CheckpointPayload, MetaConfig, MetaRecord, RecordError, Rows};
use ae_api::{AeError, BlockRepo, BlockSink, Overlay, RedundancyScheme, RepairError};
use ae_blocks::{Block, BlockId, Crc32, Crc32Append};
use ae_core::Code;
use ae_lattice::Config;
use io::{store_all, Collect, Prefetched, RepairingSource};
use positions::{Positions, POSITION_CEILING};
use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub(crate) mod io;
mod positions;
mod read;

/// Manifest entry for one archived file: the file's **dense data extent**
/// — its index range in the archive's data-block write order, which every
/// scheme shares — plus length and checksum. The extent counts data
/// blocks, not ids, so entries stay scheme-agnostic even for schemes with
/// namespaced ids (the geo lattice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// 0-based index of the file's first data block in write order.
    pub first_block: u64,
    /// Number of data blocks.
    pub block_count: u64,
    /// Original length in bytes (the tail block is zero-padded).
    pub byte_len: usize,
    /// CRC32 of the original contents, checked on every read.
    pub crc: u32,
}

/// Errors from archive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// No entry under that name.
    UnknownFile(String),
    /// A block could not be fetched or repaired; the wrapped error names
    /// the tuple members that were unavailable.
    BlockUnavailable {
        /// The block the read needed.
        id: BlockId,
        /// Why the repair failed.
        source: RepairError,
    },
    /// The reassembled file failed its manifest checksum.
    ChecksumMismatch {
        /// File name.
        name: String,
        /// Expected CRC32 from the manifest.
        expected: u32,
        /// CRC32 of the bytes actually reassembled.
        actual: u32,
    },
    /// A name was archived twice.
    DuplicateName(String),
    /// A `put` after [`Archive::seal`]: sealed archives are frozen
    /// (buffered-redundancy schemes cannot soundly grow past their flush).
    Sealed(String),
    /// The scheme rejected the encode (e.g. a block-size change against a
    /// buffered partial stripe).
    Encode(AeError),
    /// The operation could take the archive past the `u32` position space
    /// of [`RedundancyScheme::block_at`]; nothing was encoded or stored.
    TooLarge {
        /// Blocks the archive could hold after the operation.
        blocks: u64,
    },
    /// The file's name is longer than a journal record can frame (65 535
    /// bytes); nothing was encoded or stored.
    NameTooLong {
        /// Length of the refused name in bytes.
        len: usize,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::UnknownFile(n) => write!(f, "no archived file named {n:?}"),
            ArchiveError::BlockUnavailable { id, source } => {
                write!(f, "block {id} unavailable and unrepairable ({source})")
            }
            ArchiveError::ChecksumMismatch { name, expected, actual } => write!(
                f,
                "file {name:?} failed verification: manifest crc {expected:#010x}, got {actual:#010x}"
            ),
            ArchiveError::DuplicateName(n) => write!(f, "file {n:?} already archived"),
            ArchiveError::Sealed(n) => {
                write!(f, "archive is sealed; cannot archive {n:?}")
            }
            ArchiveError::Encode(e) => write!(f, "encode failed: {e}"),
            ArchiveError::TooLarge { blocks } => write!(
                f,
                "archive would hold {blocks} blocks, past the {} block positions can name",
                u32::MAX
            ),
            ArchiveError::NameTooLong { len } => write!(
                f,
                "a {len}-byte file name is longer than the {NAME_CEILING} bytes a journal record can frame"
            ),
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::BlockUnavailable { source, .. } => Some(source),
            ArchiveError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

/// Why [`Archive::open`] could not reconstruct an archive from a backend.
///
/// Every variant names what was lost or mismatched — recovery never
/// panics and never silently serves stale state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The backend holds no archive metadata at all (no genesis record).
    NoArchive,
    /// A metadata record is damaged, missing mid-journal, or structurally
    /// inconsistent with the records before it. The files logged from
    /// this record onward are unrecoverable from metadata alone.
    CorruptRecord {
        /// Journal sequence number of the damaged record.
        seq: u64,
        /// The exact check that failed.
        detail: String,
    },
    /// The journal was written by a different scheme than the one given —
    /// replaying it would decode garbage.
    SchemeMismatch {
        /// Scheme name in the genesis record.
        archived: String,
        /// Name of the scheme passed to [`Archive::open`].
        given: String,
    },
    /// The encoder frontier could not be restored (snapshot corrupt, or
    /// an in-flight block is gone and unrepairable); the wrapped error
    /// names the missing block.
    Frontier(AeError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoArchive => write!(f, "backend holds no archive metadata"),
            RecoveryError::CorruptRecord { seq, detail } => {
                write!(f, "metadata record meta#{seq} is unusable: {detail}")
            }
            RecoveryError::SchemeMismatch { archived, given } => write!(
                f,
                "archive was written by {archived}, cannot open with {given}"
            ),
            RecoveryError::Frontier(e) => write!(f, "encoder frontier not restorable: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Frontier(e) => Some(e),
            _ => None,
        }
    }
}

/// One metadata copy that had to be skipped during a degraded read of
/// the journal: the record (or pointer cell) was still served from a
/// surviving copy, but this copy was missing or failed its validation.
/// [`Archive::scrub`] re-materializes every damaged copy and clears the
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaDamage {
    /// The damaged copy's id.
    pub id: BlockId,
    /// Journal sequence number (or pointer slot) of the record.
    pub seq: u64,
    /// Whether the damaged block is a checkpoint-pointer cell.
    pub pointer: bool,
    /// Which copy of the record was damaged.
    pub copy: u16,
    /// What failed: `"missing"`, or the first decode check that did not
    /// pass.
    pub detail: String,
}

impl fmt::Display for MetaDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.detail)
    }
}

/// An append-only archive over any scheme and any backend.
///
/// # Examples
///
/// The legacy AE constructor:
///
/// ```
/// use ae_store::archive::Archive;
/// use ae_store::MemStore;
/// use ae_lattice::Config;
/// use std::sync::Arc;
///
/// let store = Arc::new(MemStore::new());
/// let mut ar = Archive::new(Config::new(2, 1, 2).unwrap(), 64, store);
/// ar.put("notes.txt", b"alpha entanglement").unwrap();
/// assert_eq!(ar.get("notes.txt").unwrap(), b"alpha entanglement");
/// ```
///
/// The same archive over Reed-Solomon — nothing else changes:
///
/// ```
/// use ae_store::archive::Archive;
/// use ae_store::MemStore;
/// use ae_baselines::ReedSolomon;
/// use std::sync::Arc;
///
/// let scheme = Arc::new(ReedSolomon::new(4, 2).unwrap());
/// let mut ar = Archive::with_scheme(scheme, 64, Arc::new(MemStore::new()));
/// ar.put("notes.txt", b"maximum distance separable").unwrap();
/// ar.seal().unwrap(); // flush the partial stripe
/// assert_eq!(ar.get("notes.txt").unwrap(), b"maximum distance separable");
/// ```
pub struct Archive<B: BlockRepo + ?Sized = dyn BlockRepo> {
    scheme: Arc<dyn RedundancyScheme>,
    store: Arc<B>,
    block_size: usize,
    /// CRC32's "append one block" operator, built once per archive:
    /// `put` and `get` compose a file's checksum from its blocks' with it.
    append_block: Crc32Append,
    manifest: BTreeMap<String, Entry>,
    /// The manifest rows of the files put since the last committed
    /// checkpoint, in write order (after `open`: those of the replayed
    /// suffix) — what the next checkpoint adds, kept in the form it will
    /// write them. At most a cadence's worth under an automatic cadence;
    /// with [`MetaConfig::checkpoint_every`] `None` it grows by a row —
    /// the name and 30 bytes — a put until the caller checkpoints, beside
    /// the records of those same puts the journal keeps for `heal`.
    unfolded: Rows,
    /// Every block written through this archive, by position.
    positions: Positions,
    sealed: bool,
    /// The metadata journal: where and in what order all of the above is
    /// made durable on `store`.
    journal: Journal,
}

/// The longest file name a journal record can carry: the format frames
/// strings with a `u16` length.
const NAME_CEILING: usize = u16::MAX as usize;

impl<B: BlockRepo + ?Sized> Archive<B> {
    /// Creates an empty **alpha-entanglement** archive writing
    /// `block_size`-byte blocks into `store` — the thin AE convenience
    /// constructor.
    pub fn new(cfg: Config, block_size: usize, store: Arc<B>) -> Self {
        Self::with_scheme(Arc::new(Code::new(cfg, block_size)), block_size, store)
    }

    /// Creates an empty archive over any scheme: files are chunked into
    /// `block_size`-byte blocks and encoded through `scheme` into `store`,
    /// and a genesis record is written to the backend's metadata journal
    /// so the archive can be reopened with [`Archive::open`] after a
    /// crash.
    ///
    /// The scheme must be fresh (nothing written through it yet): the
    /// archive owns the write-order log that maps manifest extents to
    /// block ids.
    ///
    /// # Panics
    ///
    /// Panics if the scheme has already encoded data, or if the backend
    /// already holds archive metadata (reopen those with [`Archive::open`]
    /// instead of silently shadowing them).
    pub fn with_scheme(
        scheme: Arc<dyn RedundancyScheme>,
        block_size: usize,
        store: Arc<B>,
    ) -> Self {
        Self::with_scheme_meta(scheme, block_size, store, MetaConfig::default())
    }

    /// [`Archive::with_scheme`] with an explicit metadata durability
    /// policy: copy-set width (pinned for the archive's life), checkpoint
    /// cadence and checkpoint segment size.
    ///
    /// # Panics
    ///
    /// As [`Archive::with_scheme`].
    pub fn with_scheme_meta(
        scheme: Arc<dyn RedundancyScheme>,
        block_size: usize,
        store: Arc<B>,
        meta: MetaConfig,
    ) -> Self {
        assert_eq!(scheme.data_written(), 0, "archive schemes must start fresh");
        assert!(block_size > 0, "blocks must be non-empty");
        let journal = Journal::create(&*store, meta, scheme.scheme_name(), block_size as u64);
        Self::assemble(scheme, store, block_size, journal)
    }

    /// An archive with nothing in it yet, over `journal`.
    fn assemble(
        scheme: Arc<dyn RedundancyScheme>,
        store: Arc<B>,
        block_size: usize,
        journal: Journal,
    ) -> Self {
        Archive {
            scheme,
            store,
            block_size,
            append_block: Crc32Append::new(block_size),
            manifest: BTreeMap::new(),
            unfolded: Rows::default(),
            positions: Positions::default(),
            sealed: false,
            journal,
        }
    }

    /// Reopens an archive previously created over `store`, replaying the
    /// on-backend metadata journal: the manifest, the block counters and
    /// the sealed state are reconstructed record by record (each record
    /// CRC-verified, its counters checked against the scheme's universe
    /// — no block is resolved), the scheme's encoder frontier is restored
    /// through [`RedundancyScheme::restore_frontier`] — refetching
    /// in-flight blocks from the backend and falling back to single-block
    /// repair if the crash also lost hardware — and the archive resumes
    /// `put`/`get`/`seal`/`scrub` exactly where the crashed process
    /// stopped.
    ///
    /// `scheme` must be a **fresh** instance of the same scheme the
    /// archive was created with (same parameters; the genesis record's
    /// scheme name is checked). A torn final journal record — a write the
    /// crash cut short — is detected, truncated and reported via
    /// [`Archive::torn_tail`]; the mutation it described was never
    /// acknowledged and its orphan blocks are overwritten as the archive
    /// resumes.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] naming exactly what was lost: no metadata at
    /// all, a damaged or missing mid-journal record, a scheme mismatch,
    /// or an unrestorable encoder frontier.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` already encoded data.
    pub fn open(scheme: Arc<dyn RedundancyScheme>, store: Arc<B>) -> Result<Self, RecoveryError> {
        Self::open_with_meta(scheme, store, MetaConfig::default())
    }

    /// [`Archive::open`] with an explicit metadata policy. The copy-set
    /// width is **adopted from the genesis record** (it is a property of
    /// the stored journal, not of this open); `meta` contributes the
    /// live checkpoint cadence and segment size.
    ///
    /// # Errors / Panics
    ///
    /// As [`Archive::open`].
    pub fn open_with_meta(
        scheme: Arc<dyn RedundancyScheme>,
        store: Arc<B>,
        meta: MetaConfig,
    ) -> Result<Self, RecoveryError> {
        assert_eq!(
            scheme.data_written(),
            0,
            "Archive::open requires a fresh scheme instance"
        );
        let Opened {
            journal,
            block_size,
            checkpoint,
            poisoned_cell,
        } = Journal::open(&*store, meta, scheme.scheme_name())?;
        let mut ar = Self::assemble(scheme, store, block_size as usize, journal);
        // The newest loadable checkpoint, then the records past it; the
        // last frontier snapshot seen is the one to restore.
        let mut frontier = None;
        if let Some((cseq, payload)) = checkpoint {
            frontier = Some(ar.apply_checkpoint(cseq, payload)?);
        }
        while let Some((seq, record)) = ar.journal.next_record(&*ar.store)? {
            frontier = Some(ar.apply(seq, record)?);
        }
        if let Some(slot) = poisoned_cell {
            ar.journal.judge_poisoned_cell(&*ar.store, slot)?;
        }
        if let Some(snapshot) = frontier {
            let store: &B = &ar.store;
            // The frontier refetch as one batch: the restore reads its
            // in-flight blocks from the answers — a lost one is known
            // lost, and goes straight to repair — and anything the scheme
            // did not announce still goes to the backend one call at a
            // time.
            let (scheme, written) = (&*ar.scheme, ar.positions.data);
            let mut known = Prefetched::new(store, ar.block_size);
            let reads = scheme.frontier_reads(&snapshot);
            known.fill(reads.iter().copied());
            let repairing = RepairingSource {
                scheme,
                base: &known,
                written,
            };
            let restored = match scheme.restore_frontier(&snapshot, &repairing) {
                // A lost frontier block whose one repair tuple is short a
                // member too: the closure rounds rebuild the frontier reads
                // (a present one is no target) and the restore reads that;
                // a block it still misses joins the targets. (A restore
                // sets its state whole: a failed one leaves nothing to undo.)
                Err(AeError::FrontierBlockMissing { .. }) => {
                    let mut targets = reads;
                    loop {
                        let restore =
                            |rebuilt: &Overlay<'_>| scheme.restore_frontier(&snapshot, rebuilt);
                        match ar.closure_rounds(&mut known, &mut targets, None, restore) {
                            Err(AeError::FrontierBlockMissing { id }) if !targets.contains(&id) => {
                                targets.push(id)
                            }
                            restored => break restored,
                        }
                    }
                }
                restored => restored,
            };
            restored.map_err(RecoveryError::Frontier)?;
        }
        // Positions are only as good as the counters under them: the
        // encoder the journal restored must have written exactly the
        // data blocks the journal counted.
        if ar.scheme.data_written() != ar.positions.data {
            return Err(RecoveryError::CorruptRecord {
                seq: ar.journal.len() - 1,
                detail: format!(
                    "journal counts {} data blocks, its encoder frontier {}",
                    ar.positions.data,
                    ar.scheme.data_written()
                ),
            });
        }
        Ok(ar)
    }

    /// Installs a checkpoint's state (block counters, manifest, sealed
    /// flag), returning its frontier snapshot. The rows come in write
    /// order, so their extents must meet — each starting where the one
    /// before it ended, the last ending at the data counter — and no name
    /// may come twice. Structural damage is a typed error naming the
    /// checkpoint.
    fn apply_checkpoint(
        &mut self,
        cseq: u64,
        payload: CheckpointPayload,
    ) -> Result<Vec<u8>, RecoveryError> {
        let corrupt = |detail: String| RecoveryError::CorruptRecord { seq: cseq, detail };
        self.positions
            .advance(&*self.scheme, payload.data, payload.stored)
            .map_err(corrupt)?;
        let rows = payload.manifest.len();
        let listed = payload.manifest.into_iter();
        let mut written = 0;
        self.manifest = listed
            .map(|(name, byte_len, crc, first_block, block_count)| {
                if first_block != written {
                    return Err(corrupt(format!(
                        "checkpoint entry {name:?}: extent starts at block {first_block}, \
                         the rows before it end at {written}"
                    )));
                }
                let entry = self
                    .checked_entry(byte_len, crc, first_block, block_count)
                    .map_err(|why| corrupt(format!("checkpoint entry {name:?} {why}")))?;
                written = first_block + block_count;
                Ok((name, entry))
            })
            .collect::<Result<_, _>>()?;
        if written != self.positions.data {
            return Err(corrupt(format!(
                "checkpoint rows end at block {written} of {} data blocks",
                self.positions.data
            )));
        }
        if self.manifest.len() != rows {
            return Err(corrupt("checkpoint lists a file name twice".into()));
        }
        self.sealed = payload.sealed;
        Ok(payload.frontier)
    }

    /// Applies the `Put` or `Seal` record the journal's walk handed back
    /// from `seq`, returning its frontier snapshot. A record inconsistent
    /// with the ones before it is a typed error naming it.
    fn apply(&mut self, seq: u64, record: MetaRecord) -> Result<Vec<u8>, RecoveryError> {
        let corrupt = |detail: String| RecoveryError::CorruptRecord { seq, detail };
        match record {
            MetaRecord::Put {
                name,
                byte_len,
                crc,
                first_block,
                block_count,
                stored,
                frontier,
            } => {
                if first_block != self.positions.data {
                    return Err(corrupt(format!(
                        "extent starts at {first_block} but {} data blocks were replayed",
                        self.positions.data
                    )));
                }
                // (An extent that overflows is refused below.)
                let data_after = first_block.saturating_add(block_count);
                self.positions
                    .advance(&*self.scheme, data_after, stored)
                    .map_err(corrupt)?;
                let entry = self
                    .checked_entry(byte_len, crc, first_block, block_count)
                    .map_err(|why| corrupt(format!("entry {name:?} {why}")))?;
                match self.manifest.entry(name) {
                    MapEntry::Occupied(e) => {
                        return Err(corrupt(format!("duplicate manifest entry {:?}", e.key())));
                    }
                    MapEntry::Vacant(v) => {
                        self.unfolded
                            .push((v.key(), byte_len, crc, first_block, block_count));
                        v.insert(entry);
                    }
                };
                Ok(frontier)
            }
            MetaRecord::Seal { stored, frontier } => {
                if self.sealed {
                    return Err(corrupt("second seal record".into()));
                }
                self.positions
                    .advance(&*self.scheme, self.positions.data, stored)
                    .map_err(corrupt)?;
                self.sealed = true;
                Ok(frontier)
            }
            _ => unreachable!("the journal's walk hands back puts and seals only"),
        }
    }

    /// A journaled manifest entry, refused unless its extent lies inside
    /// the data blocks replayed so far and its byte length inside its
    /// extent — `get` sizes its buffer by the one and indexes by the
    /// other.
    fn checked_entry(
        &self,
        byte_len: u64,
        crc: u32,
        first_block: u64,
        block_count: u64,
    ) -> Result<Entry, RecordError> {
        let end = first_block.checked_add(block_count);
        if end.is_none_or(|end| end > self.positions.data) {
            return Err(format!(
                "extent {first_block}+{block_count} exceeds the {} data blocks written",
                self.positions.data
            ));
        }
        let capacity = block_count.checked_mul(self.block_size as u64);
        if capacity.is_none_or(|capacity| byte_len > capacity) {
            return Err(format!("claims {byte_len} bytes in {block_count} blocks"));
        }
        Ok(Entry {
            first_block,
            block_count,
            byte_len: byte_len as usize,
            crc,
        })
    }

    /// Commits a checkpoint — the files put since the last one, the block
    /// counters, the sealed flag and the encoder frontier — and
    /// garbage-collects the journal records it supersedes (parts, then
    /// the pointer cell naming them, then the old records — a crash at
    /// any point leaves either the previous checkpoint reachable or this
    /// one committed). Returns the journal seq of the checkpoint's part 0.
    ///
    /// What is handed over is the rows since the last checkpoint, two
    /// counters and the frontier — O(cadence), nothing per block and
    /// nothing per file already checkpointed; how the journal keeps the
    /// earlier rows reachable is its business ([`crate::meta`]).
    ///
    /// Called automatically past [`MetaConfig::checkpoint_every`] and on
    /// [`Archive::seal`]; public so callers with their own policy can
    /// checkpoint explicitly.
    pub fn checkpoint(&mut self) -> u64 {
        let tail = encode_tail(
            self.positions.data,
            self.positions.stored as u32,
            self.sealed,
            &self.scheme.frontier_snapshot(),
        );
        let cseq = self
            .journal
            .commit_checkpoint(&*self.store, &self.unfolded, &tail);
        self.unfolded.clear();
        cseq
    }

    /// The underlying backend.
    pub fn store(&self) -> &Arc<B> {
        &self.store
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Arc<dyn RedundancyScheme> {
        &self.scheme
    }

    /// Chunk size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Data blocks written so far (all files).
    pub fn blocks_written(&self) -> u64 {
        self.positions.data
    }

    /// Whether [`Archive::seal`] has been called.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Total records ever appended to the metadata journal (genesis
    /// included): the next record gets seq `meta_len()`. GC'd prefix
    /// records still count — see [`Archive::live_meta_records`] for the
    /// records the backend actually holds.
    pub fn meta_len(&self) -> u64 {
        self.journal.len()
    }

    /// Records currently live in the journal: genesis + committed
    /// checkpoint parts + suffix. Checkpointing keeps this bounded while
    /// [`Archive::meta_len`] grows with history.
    pub fn live_meta_records(&self) -> u64 {
        self.journal.live_records()
    }

    /// Every metadata block id the backend should currently hold: all
    /// copies of every live journal record and pointer cell. Disaster
    /// drills pick metadata victims from this list; [`Archive::scrub`]
    /// heals against it.
    pub fn live_meta_ids(&self) -> Vec<BlockId> {
        self.journal.live_ids()
    }

    /// The metadata durability policy in effect: the genesis-pinned
    /// copy-set width plus this open's checkpoint cadence.
    pub fn meta_config(&self) -> &MetaConfig {
        self.journal.config()
    }

    /// Part-0 journal seq of the committed checkpoint, if any.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.journal.checkpoint_seq()
    }

    /// Journal records [`Archive::open`] actually replayed — the suffix
    /// past the checkpoint, or the full journal without one. The
    /// O(checkpoint)-open guarantee is this number staying bounded by
    /// the checkpoint cadence while [`Archive::meta_len`] grows.
    pub fn replayed_records(&self) -> u64 {
        self.journal.replayed()
    }

    /// Metadata copies [`Archive::open`] had to skip on the way to a
    /// valid copy — the degraded-read report of the self-protecting
    /// metadata plane. Empty for clean opens; [`Archive::scrub`] heals
    /// the damage (subsequent opens report clean again).
    pub fn meta_damage(&self) -> &[MetaDamage] {
        self.journal.damage()
    }

    /// The journal sequence number of a torn final record that
    /// [`Archive::open`] detected and truncated — the mutation the crash
    /// cut short (for a torn multi-part checkpoint: its part 0). `None`
    /// for archives that opened clean (or were never reopened).
    pub fn torn_tail(&self) -> Option<u64> {
        self.journal.torn_tail()
    }

    /// Names currently archived, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.manifest.keys().map(String::as_str)
    }

    /// Manifest entry for a file.
    pub fn entry(&self, name: &str) -> Option<&Entry> {
        self.manifest.get(name)
    }

    /// Number of archived files.
    pub fn file_count(&self) -> usize {
        self.manifest.len()
    }

    /// The full manifest in name order: `(name, entry)` pairs. Parity
    /// harnesses compare two archives manifest-first through this.
    pub fn manifest(&self) -> impl Iterator<Item = (&str, &Entry)> {
        self.manifest.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Every id written through this archive (data + redundancy + sealed),
    /// in write order — exactly what the backend should hold right now.
    /// Disaster drills pick victims from this list. The archive works by
    /// position and never reads it: the first call materialises it
    /// (O(stored blocks) of [`RedundancyScheme::block_at`] arithmetic),
    /// later calls and later `put`s keep it current.
    pub fn stored_ids(&self) -> &[BlockId] {
        self.positions.list(&*self.scheme)
    }

    /// The ids of the data blocks in write order, computed as it goes;
    /// manifest extents ([`Entry::first_block`]) count into it.
    pub fn data_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.positions.data_ids(0..self.positions.data)
    }

    /// Runs one scheme write phase (`encode_batch`, `seal`). A plain
    /// backend is handed to the scheme directly; one a network away gets
    /// an order-preserving collecting sink whose contents then leave as
    /// one batch — same writes, same order, `⌈n / window⌉` round trips
    /// (and whatever the scheme stored before an error is flushed too,
    /// as the direct path would have left it).
    fn write_through<R>(&self, phase: impl FnOnce(&dyn BlockSink) -> R) -> R {
        let store: &B = &self.store;
        if store.as_async().is_none() {
            return phase(&self.store);
        }
        let sink = Collect::default();
        let out = phase(&sink);
        store_all(store, sink.0.into_inner());
        out
    }

    /// Archives a file: chunks, encodes the whole file as one batch
    /// through the scheme, stores data + redundancy.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names and on sealed archives; archives are
    /// append-only (§III: "the only assumption is that data are stored
    /// permanently"). A name the journal cannot frame, or a file that
    /// could take the archive past its position space, is refused before
    /// anything is encoded or stored.
    ///
    /// # Panics
    ///
    /// Panics if the scheme reports storing a block anywhere but at the
    /// next position of its own `block_at` arithmetic — naming the
    /// scheme, the position and both ids. (Nothing of the put is
    /// journaled; a service worker contains it as a poisoned tenant.)
    pub fn put(&mut self, name: &str, contents: &[u8]) -> Result<Entry, ArchiveError> {
        if self.sealed {
            return Err(ArchiveError::Sealed(name.to_string()));
        }
        if self.manifest.contains_key(name) {
            return Err(ArchiveError::DuplicateName(name.to_string()));
        }
        if name.len() > NAME_CEILING {
            return Err(ArchiveError::NameTooLong { len: name.len() });
        }
        let bs = self.block_size;
        // Even empty files occupy one (zero) block so they have an extent.
        let block_count = contents.len().div_ceil(bs).max(1) as u64;
        let first_block = self.positions.data;
        let data_after = first_block + block_count;
        self.check_ceiling(data_after)?;
        // Every payload byte is copied once and CRC'd once, as part of its
        // block; the file checksum is composed from the block checksums,
        // four table lookups a block (`file_crc`). Only a partial last
        // chunk is read again: its block's checksum covers the padding,
        // the file's does not.
        let blocks = match contents.len() {
            0 => vec![Block::zero(bs)],
            _ => Block::cut(contents, bs),
        };
        let whole = contents.len() / bs;
        let crc = self.file_crc(
            blocks[..whole].iter().map(Block::crc),
            &contents[whole * bs..],
        );
        let report = self
            .write_through(|sink| self.scheme.encode_batch(&blocks, sink))
            .map_err(ArchiveError::Encode)?;
        let entry = Entry {
            first_block,
            block_count,
            byte_len: contents.len(),
            crc,
        };
        // Journal the mutation before acknowledging it: a crash after the
        // record lands replays the put; a crash before leaves only orphan
        // blocks that the resumed encoder overwrites. `write_through`
        // returned, so every block of the put is acknowledged.
        let record = MetaRecord::Put {
            name: name.to_string(),
            byte_len: entry.byte_len as u64,
            crc: entry.crc,
            first_block,
            block_count,
            stored: self.positions.push(&*self.scheme, data_after, &report.ids),
            frontier: self.scheme.frontier_snapshot(),
        };
        self.journal.append(&*self.store, &record);
        self.unfolded.push((
            name,
            entry.byte_len as u64,
            entry.crc,
            first_block,
            block_count,
        ));
        self.manifest.insert(name.to_string(), entry.clone());
        // Only after the archive state reflects the put may it be folded
        // into a checkpoint.
        if self.journal.checkpoint_due() {
            self.checkpoint();
        }
        Ok(entry)
    }

    /// The checksum of a file from the checksums of its whole blocks, in
    /// order, and `tail`, the bytes of a partial last block without its
    /// padding: `put` and `get` check each byte once, as part of its
    /// block, and compose the file's checksum from the blocks'.
    fn file_crc(&self, whole_blocks: impl Iterator<Item = u32>, tail: &[u8]) -> u32 {
        let crc = whole_blocks.fold(0, |crc, block| self.append_block.combine(crc, block));
        let mut crc = Crc32::resume(crc);
        crc.update(tail);
        crc.finalize()
    }

    /// Refuses an operation that could take an archive of `data_after`
    /// data blocks past what `u32` positions can name.
    fn check_ceiling(&self, data_after: u64) -> Result<(), ArchiveError> {
        let blocks = self.scheme.universe_len(data_after);
        if blocks > POSITION_CEILING {
            return Err(ArchiveError::TooLarge { blocks });
        }
        Ok(())
    }

    /// Flushes any buffered redundancy (a partial Reed-Solomon stripe, a
    /// closed chain's closing parity) and freezes the archive: further
    /// `put`s report [`ArchiveError::Sealed`]. Returns the ids the flush
    /// stored.
    ///
    /// Idempotent — on an already-sealed archive, including one freshly
    /// reopened with [`Archive::open`], this is a no-op: the sealed state
    /// is journaled, so a second call never re-flushes the stripe or
    /// stores a duplicate closing parity.
    ///
    /// # Errors
    ///
    /// Propagates scheme flush failures.
    ///
    /// # Panics
    ///
    /// As [`Archive::put`], if the flush reports blocks the scheme's
    /// arithmetic does not put there.
    pub fn seal(&mut self) -> Result<Vec<BlockId>, ArchiveError> {
        if self.sealed {
            return Ok(Vec::new());
        }
        let data = self.positions.data;
        self.check_ceiling(data)?;
        let flushed = self
            .write_through(|sink| self.scheme.seal(sink))
            .map_err(ArchiveError::Encode)?;
        let record = MetaRecord::Seal {
            stored: self.positions.push(&*self.scheme, data, &flushed),
            frontier: self.scheme.frontier_snapshot(),
        };
        self.journal.append(&*self.store, &record);
        self.sealed = true;
        // A sealed archive never grows again: checkpoint it so every
        // future open is O(checkpoint) regardless of its history.
        if self.journal.config().checkpoint_every.is_some() {
            self.checkpoint();
        }
        Ok(flushed)
    }
}

#[cfg(test)]
mod tests;
