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
//!   planners into a read-side [`Overlay`]; `scrub`/`verify_all` use the
//!   same generic machinery — so an unreadable file reports *which*
//!   blocks were unavailable, whatever the code.
//! * **over the backend** — any [`BlockRepo`] of the unified `ae_api`
//!   family: a local [`crate::MemStore`], a [`crate::DistributedStore`]
//!   with failing locations, a two-tier [`crate::TieredStore`], a
//!   fault-injecting [`crate::FaultyStore`] in a disaster drill.
//!
//! [`Archive::new`] remains the thin AE convenience constructor
//! (config + block size), byte-compatible with the archive this module
//! shipped before it became scheme-generic.
//!
//! Schemes that buffer redundancy (Reed-Solomon's partial stripe) leave
//! the newest blocks unprotected until the stripe fills or the archive is
//! sealed; [`Archive::seal`] flushes every buffer and freezes the archive
//! (further `put`s error), which is the natural end state of an archival
//! workload.
//!
//! # Crash recovery
//!
//! Archives are **crash-recoverable end to end**: every mutation appends
//! a versioned, checksummed record to an on-backend metadata journal (the
//! reserved [`BlockId::Meta`] namespace — see [`crate::meta`] for the
//! format) carrying the manifest entry, how many blocks it stored, and
//! the scheme's encoder-frontier snapshot. After a crash,
//! [`Archive::open`] replays the journal, restores the encoder frontier
//! through [`RedundancyScheme::restore_frontier`] (refetching in-flight
//! blocks from the backend, repairing them on the fly if the crash also
//! took hardware with it), and resumes `put`/`seal`/`scrub` exactly where
//! the crashed process stopped — a torn final journal record is detected
//! and truncated ([`Archive::torn_tail`]), while damaged metadata
//! surfaces as a typed [`RecoveryError`] naming what was lost.
//!
//! The metadata plane itself is **self-protecting** (see [`crate::meta`]
//! and [`MetaConfig`]): every journal record is written as an n-way copy
//! set across placement-distinct `Meta` ids, reads fall through copies
//! with per-copy CRC validation (surviving copies degrade a read instead
//! of failing it, reported via [`Archive::meta_damage`]), and past a
//! configurable threshold the journal is folded into a **checkpoint** —
//! manifest, block counters, sealed flag and encoder frontier in one
//! snapshot — so `open` replays checkpoint + suffix in O(checkpoint)
//! time however old the archive is, and the superseded prefix is
//! garbage-collected only after the checkpoint is durably committed.
//!
//! # Position-first
//!
//! The archive holds **no per-block state**. Every roster scheme answers
//! [`RedundancyScheme::block_at`] in O(1), so "which blocks did this
//! archive store" is two counters — data blocks and stored blocks — and
//! the `k`-th stored block *is* `block_at(k, data)`: `put` verifies each
//! id the scheme reports against that arithmetic as it goes (and that
//! data block `j` is `Data(base + j)`, the shared data-id space of the
//! trait), the journal records counts, `get` computes its extent's ids,
//! `open` rebuilds nothing per block, and a checkpoint is the manifest
//! streamed once from where it lives. The only materialised id list is
//! the one [`Archive::stored_ids`] hands out by reference, built on first
//! call — drills, `scrub` and the chained-repair slow path use it; `put`,
//! `get` and `open` never do. A scheme without the authoritative
//! bijection (or one whose report ever disagrees with it) takes the same
//! code path with an explicit id log behind it and explicit-id records
//! in front (see [`crate::meta`]). Positions are `u32`
//! ([`RedundancyScheme::block_at`]), so a `put` or `seal` that could take
//! the stored count past `u32::MAX` is refused with
//! [`ArchiveError::TooLarge`] before anything is encoded.
//!
//! # Batched backend I/O
//!
//! Every phase that issues *independent* backend calls — a put's data
//! and redundancy blocks, a record's copy set, a checkpoint's pointer
//! cells, GC, the probes and refetches of `open`, the sweeps of `scrub`,
//! a file's blocks in `get` — goes through one private helper (`batch`,
//! behind `store_all` / `remove_all` / `fetch_all` / `has_all` and the
//! read sweep of `Prefetched`). Over a backend with a native async
//! interior ([`BlockSource::as_async`]) the batch moves through the
//! bounded in-flight window, so an operation a network away costs
//! **window rounds, not block counts**: a 16-block AE(3,2,5) `put` is
//! ⌈64 / 8⌉ + 1 = 9 sequential round trips at the default window, not
//! 67. Over a plain backend the helper is the same calls in the same
//! order as a loop — there is one `put`/`seal`/`open` path, in which a
//! plain backend is simply window-agnostic. `tests/wan_rtt_budget.rs`
//! pins the round-trip count of every operation under the virtual clock.
//!
//! Crash ordering is kept by **barriers**, not by serial issue: a batch
//! returns only once every call in it is acknowledged, whatever order
//! the completions arrived in, and
//!
//! 1. no journal record is issued before every block of its `put` (or
//!    `seal`) is acknowledged;
//! 2. no pointer cell is issued before every checkpoint part — and
//!    journal records, parts included, go one copy set at a time,
//!    because replay reads a missing record with survivors beyond it as
//!    mid-journal damage, not as a torn tail;
//! 3. no GC remove is issued before every pointer copy, and record 1
//!    leaves ahead of the rest (how `open` tells a rotted pointer from a
//!    torn one).
//!
//! Final backend state, manifest and error typing are byte-identical at
//! every window and to the plain-backend run (`tests/aio_parity.rs`), and
//! a power cut at any backend write under out-of-order completion still
//! reopens to a prefix of the uninterrupted run
//! (`tests/archive_recovery.rs`).
//!
//! # Dependent reads
//!
//! Repair reads depend on what earlier reads found, so they cannot be
//! one batch. They are **plan → fetch(window) → apply** instead: name
//! the read set, fetch it as a batch into a `Prefetched` — the answers,
//! absences included, over the backend — and run the unchanged scheme
//! logic against that. `open` plans with
//! [`RedundancyScheme::frontier_reads`], a degraded `get` with
//! [`RedundancyScheme::is_repairable`] asked optimistically, round by
//! round; whatever a plan misses reads through, one call at a time. (A
//! backend that answers at call time is its own memory: nothing is
//! planned or kept, every read goes through.) Whole-archive planners (`scrub`'s repair stage, a chained
//! reconstruction in `get`) read the backend itself when it answers at
//! call time, and a network away a *closed* `Prefetched` holding one
//! windowed sweep of every stored block — an archive owns its id
//! namespace, so what the sweep did not return is absent — so planner
//! threads only ever see memory and their number never shows in the
//! order, or the timing, of what crosses the link.

use crate::meta::{
    encode_checkpoint_part, encode_checkpoint_payload, meta_copy_id, pointer_id, CheckpointPayload,
    MetaConfig, MetaRecord, RecordError, StoredIds, StoredParts,
};
use ae_aio::{in_flight_window, windowed_map};
use ae_api::{
    AeError, AsyncBlockRepo, BlockRepo, BlockSink, BlockSource, BoxFuture, Overlay,
    RedundancyScheme, RepairError, StoreError,
};
use ae_blocks::{crc32, Block, BlockId, Crc32, Crc32Append, MetaId, NodeId};
use ae_core::Code;
use ae_lattice::Config;
use std::cell::RefCell;
use std::collections::btree_map::Entry as MapEntry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// A read-only view that falls back to the scheme's single-block repair
/// when the backend no longer holds a block — so restoring the encoder
/// frontier survives a crash that *also* lost the frontier blocks, as
/// long as they are repairable from surviving redundancy. Nothing is
/// written back; [`Archive::scrub`] heals the backend afterwards.
struct RepairingSource<'a> {
    scheme: &'a dyn RedundancyScheme,
    base: &'a dyn BlockSource,
    written: u64,
}

impl BlockSource for RepairingSource<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.base
            .fetch(id)
            .or_else(|| self.scheme.repair_block(self.base, id, self.written).ok())
    }
}

/// Hides one id from a base source. Used to rebuild a block the backend
/// still *returns* bytes for but reports as corrupted: the scheme must
/// reconstruct it from redundancy, never echo the garbled bytes back.
struct MaskOne<'a> {
    base: &'a dyn BlockSource,
    masked: BlockId,
}

impl BlockSource for MaskOne<'_> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        if id == self.masked {
            None
        } else {
            self.base.fetch(id)
        }
    }
}

/// Runs one batch of **independent** backend calls, hands their results
/// to `then` in issue order and returns what it made of them — the one
/// place archive I/O meets the backend in bulk. Over a backend with a
/// native async interior ([`BlockSource::as_async`]) the calls move
/// through the bounded in-flight window, so a batch costs
/// `⌈n / window⌉` round trips, not `n`; over a plain backend it is the
/// same calls in the same order as a loop, each result consumed before
/// the next call is made. Returning is the **barrier**: every call of
/// the batch has been acknowledged, whatever order the completions
/// arrived in.
fn batch<'s, B, T, U, V>(
    store: &'s B,
    items: impl IntoIterator<Item = T>,
    call: impl Fn(&B, T) -> U,
    issue: impl Fn(&'s dyn AsyncBlockRepo, T) -> BoxFuture<'s, U> + Send + Sync + 's,
    mut then: impl FnMut(U) -> V,
) -> Vec<V>
where
    B: BlockRepo + ?Sized,
    T: Send + 's,
    U: Send,
{
    match store.as_async() {
        Some(handle) => {
            let repo = handle.repo;
            let items = items.into_iter().collect();
            let window = windowed_map(items, in_flight_window(), move |item| issue(repo, item));
            handle.run(Box::pin(window)).into_iter().map(then).collect()
        }
        None => items
            .into_iter()
            .map(|item| then(call(store, item)))
            .collect(),
    }
}

fn store_all<B: BlockRepo + ?Sized>(store: &B, writes: impl IntoIterator<Item = (BlockId, Block)>) {
    let call = |s: &B, (id, block)| s.store(id, block);
    batch(
        store,
        writes,
        call,
        |r, (id, block)| r.store_async(id, block),
        drop,
    );
}

fn remove_all<B: BlockRepo + ?Sized>(store: &B, ids: impl IntoIterator<Item = BlockId>) {
    batch(
        store,
        ids,
        |s, id| s.remove(id),
        |r, id| r.remove_async(id),
        drop,
    );
}

fn fetch_all<B: BlockRepo + ?Sized>(
    store: &B,
    ids: impl IntoIterator<Item = BlockId>,
) -> Vec<Option<Block>> {
    batch(
        store,
        ids,
        |s, id| s.fetch(id),
        |r, id| r.fetch_async(id),
        |found| found,
    )
}

fn has_all<B: BlockRepo + ?Sized>(store: &B, ids: impl IntoIterator<Item = BlockId>) -> Vec<bool> {
    batch(
        store,
        ids,
        |s, id| s.has(id),
        |r, id| r.has_async(id),
        |has| has,
    )
}

/// An order-preserving collecting sink: a scheme's write phase lands here
/// when the backend is a network away, and leaves as one batch.
#[derive(Default)]
struct Collect(RefCell<Vec<(BlockId, Block)>>);

impl BlockSink for Collect {
    fn store(&self, id: BlockId, block: Block) {
        self.0.borrow_mut().push((id, block));
    }
}

/// What is known of a backend's blocks — answers already fetched,
/// negative ones included — over the backend itself: the one source
/// dependent reads run against (see the module docs). An id it answers
/// never reaches the backend again; any other reads through, or, once the
/// view is **closed**, is absent. Filled only through `batch`, a window at
/// a time.
struct Prefetched<'a, B: ?Sized> {
    store: &'a B,
    /// Whether the backend is a network away: a read then costs a round
    /// trip, so what was read is kept, repair reads are planned, and
    /// whole-archive planners — whose threads would read in an order
    /// their interleaving picks — run on a closed view. With `batch` and
    /// `write_through`, the one place that asks which kind of backend
    /// this is.
    remote: bool,
    answers: HashMap<BlockId, Option<Block>>,
    closed: bool,
}

impl<'a, B: BlockRepo + ?Sized> Prefetched<'a, B> {
    /// An empty view of `store`.
    fn new(store: &'a B, closed: bool) -> Self {
        Prefetched {
            store,
            remote: store.as_async().is_some(),
            answers: HashMap::new(),
            closed,
        }
    }

    /// Fetches, as one batch in the given order, every id of `ids` not
    /// answered yet.
    fn fill(&mut self, ids: impl IntoIterator<Item = BlockId>) {
        let unknown = ids.into_iter().filter(|id| !self.answers.contains_key(id));
        let unknown: Vec<BlockId> = unknown.collect();
        let found = fetch_all(self.store, unknown.iter().copied());
        self.answers.extend(unknown.into_iter().zip(found));
    }

    /// Reads `ids` as one batch — `read`, not `fetch`: a backend that
    /// verifies checksums reports tampered bytes as `Corrupted` — and
    /// shows `each` the results in order. A network away they stay as
    /// answers: a block as itself, `NotFound` as absent, and nothing for
    /// an unreadable block, which still `fetch`es, as tampered bytes.
    fn sweep(
        &mut self,
        ids: impl Iterator<Item = BlockId> + Clone,
        mut each: impl FnMut(BlockId, &Result<Block, StoreError>),
    ) {
        let (mut asked, keep) = (ids.clone(), self.remote);
        let consume = |read| {
            let id = asked.next().expect("one read per id");
            each(id, &read);
            match read {
                Ok(block) if keep => self.answers.insert(id, Some(block)),
                Err(StoreError::NotFound(_)) if keep => self.answers.insert(id, None),
                _ => None,
            };
        };
        let issue = |r: &'a dyn AsyncBlockRepo, id| r.read_async(id);
        batch(self.store, ids, |s, id| s.read(id), issue, consume);
    }
}

impl<B: BlockRepo + ?Sized> BlockSource for Prefetched<'_, B> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        match self.answers.get(&id) {
            Some(answer) => answer.clone(),
            None if self.closed => None,
            None => self.store.fetch(id),
        }
    }
}

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

/// The position-first block log: stored block `k` is
/// `scheme.block_at(k, data)` and data block `j` is `Data(base + j)`,
/// every id verified as it was stored — two counters, whatever the
/// archive's size.
#[derive(Default)]
struct Positions {
    /// Data blocks written.
    data: u64,
    /// Blocks stored (data + redundancy + sealed).
    stored: u64,
    /// Node number of the first data block (meaningless while
    /// `data == 0`).
    base: u64,
    /// What [`Archive::stored_ids`] hands out by reference: built on
    /// first call, kept current afterwards.
    listed: OnceLock<Vec<BlockId>>,
}

/// Positions are `u32` ([`RedundancyScheme::block_at`]): the most blocks
/// a position-first archive can hold.
const POSITION_CEILING: u64 = u32::MAX as u64;

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

    /// Checks the `ids` a mutation stored, taking the archive to
    /// `data_after` data blocks, against the scheme's arithmetic: id `i`
    /// must be `block_at(stored + i, data_after)`, and the data blocks
    /// among them `Data(base + data)`, `Data(base + data + 1)`, … up to
    /// `data_after`. Answers the base when they are.
    fn agrees(
        &self,
        scheme: &dyn RedundancyScheme,
        data_after: u64,
        ids: &[BlockId],
    ) -> Option<u64> {
        if self.stored + ids.len() as u64 > POSITION_CEILING {
            return None;
        }
        let base = self.base_at(scheme, data_after)?;
        let mut next_data = self.data;
        for (k, &id) in (self.stored..).zip(ids) {
            if scheme.block_at(k as u32, data_after) != Some(id) {
                return None;
            }
            if id.is_data() {
                if id != BlockId::Data(NodeId(base + next_data)) {
                    return None;
                }
                next_data += 1;
            }
        }
        (next_data == data_after).then_some(base)
    }

    /// Replays a positional record: `count` more stored blocks, taking
    /// the archive to `data_after` data blocks. Nothing is resolved per
    /// block; the counters are checked against the position space and the
    /// scheme's universe instead.
    fn advance(
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

    /// Every stored id in write order, materialised on first use.
    fn list(&self, scheme: &dyn RedundancyScheme) -> &[BlockId] {
        self.listed.get_or_init(|| {
            let at = |k| scheme.block_at(k, self.data);
            (0..self.stored as u32)
                .map(|k| at(k).expect("stored positions lie inside the universe"))
                .collect()
        })
    }
}

/// Which scheme blocks the archive has stored, in write order — the
/// scrub/repair target universe, and what the manifest extents count
/// into. Exactly what the backend should hold, honouring buffered
/// redundancy.
enum IdLog {
    /// By position: no per-block state.
    Positions(Positions),
    /// The explicit logs, for a scheme without an authoritative
    /// `block_at` or whose report once disagreed with it.
    Listed {
        /// Data-block ids in write order.
        data: Vec<BlockId>,
        /// Every stored id in write order.
        stored: Vec<BlockId>,
    },
}

impl IdLog {
    fn new(scheme: &dyn RedundancyScheme) -> Self {
        if scheme.supports_dense_index() {
            IdLog::Positions(Positions::default())
        } else {
            IdLog::Listed {
                data: Vec::new(),
                stored: Vec::new(),
            }
        }
    }

    fn data_len(&self) -> u64 {
        match self {
            IdLog::Positions(at) => at.data,
            IdLog::Listed { data, .. } => data.len() as u64,
        }
    }

    /// The stored-block count and, when the log is explicit, the ids —
    /// the form a checkpoint encodes.
    fn parts(&self) -> StoredParts<'_> {
        match self {
            IdLog::Positions(at) => (at.stored as u32, None),
            IdLog::Listed { stored, .. } => (stored.len() as u32, Some(stored)),
        }
    }

    /// Every stored id in write order.
    fn stored(&self, scheme: &dyn RedundancyScheme) -> &[BlockId] {
        match self {
            IdLog::Positions(at) => at.list(scheme),
            IdLog::Listed { stored, .. } => stored,
        }
    }

    /// The ids of data blocks `range` (0-based, write order).
    fn data(&self, range: std::ops::Range<u64>) -> impl Iterator<Item = BlockId> + Clone + '_ {
        range.map(move |j| match self {
            IdLog::Positions(at) => BlockId::Data(NodeId(at.base + j)),
            IdLog::Listed { data, .. } => data[j as usize],
        })
    }

    /// Logs the `ids` one mutation stored, taking the archive to
    /// `data_after` data blocks, and answers the shape its record
    /// carries: a count when every id is where the scheme's arithmetic
    /// says — checked here, id by id — and the list otherwise, which
    /// turns the whole log explicit.
    fn push(
        &mut self,
        scheme: &dyn RedundancyScheme,
        data_after: u64,
        ids: Vec<BlockId>,
    ) -> StoredIds {
        if let IdLog::Positions(at) = self {
            if let Some(base) = at.agrees(scheme, data_after, &ids) {
                (at.data, at.base) = (data_after, base);
                at.stored += ids.len() as u64;
                if let Some(list) = at.listed.get_mut() {
                    list.extend_from_slice(&ids);
                }
                return StoredIds::Count(ids.len() as u32);
            }
            let stored = at.list(scheme).to_vec();
            let data = stored.iter().copied().filter(|id| id.is_data()).collect();
            *self = IdLog::Listed { data, stored };
        }
        let IdLog::Listed { data, stored } = self else {
            unreachable!("a disagreeing log was just made explicit");
        };
        data.extend(ids.iter().copied().filter(|id| id.is_data()));
        stored.extend_from_slice(&ids);
        StoredIds::Listed(ids)
    }

    /// Replays a positional record (see [`Positions::advance`]); an
    /// explicit log has no positions to count.
    fn advance(
        &mut self,
        scheme: &dyn RedundancyScheme,
        data_after: u64,
        count: u32,
    ) -> Result<(), RecordError> {
        match self {
            IdLog::Positions(at) => at.advance(scheme, data_after, count),
            IdLog::Listed { .. } => Err("positional block count in an explicit id log".into()),
        }
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
    /// `put` composes a file's checksum from its blocks' with it.
    append_block: Crc32Append,
    manifest: BTreeMap<String, Entry>,
    /// Every block written through this archive, by position.
    ids: IdLog,
    sealed: bool,
    /// Sequence number of the next metadata journal record.
    next_meta: u64,
    /// Metadata durability policy; `copies` is pinned by the genesis
    /// record, checkpoint cadence is this open's live policy.
    meta: MetaConfig,
    /// The **live** journal records (genesis, committed checkpoint parts
    /// and the suffix) by sequence number — [`Archive::scrub`]
    /// re-materializes any copy the backend lost, so a live archive's
    /// journal is self-healing. GC'd prefix records leave the map.
    journal: BTreeMap<u64, Block>,
    /// Live checkpoint-pointer cells by slot.
    pointers: BTreeMap<u64, Block>,
    /// Part-0 seq and part count of the committed checkpoint, if any.
    checkpoint: Option<(u64, u32)>,
    /// Ping-pong slot the next checkpoint's pointer will overwrite.
    next_pointer_slot: u64,
    /// Put/seal records since the committed checkpoint — the
    /// auto-checkpoint trigger counter.
    records_since_checkpoint: u64,
    /// Set by [`Archive::open`] when a torn final journal record was
    /// detected and truncated.
    torn_tail: Option<u64>,
    /// Metadata copies skipped during [`Archive::open`]'s degraded reads.
    meta_damage: Vec<MetaDamage>,
    /// Journal records actually replayed by [`Archive::open`] (suffix
    /// past the checkpoint; the whole journal when none was usable).
    replayed: u64,
}

/// Outcome of reading one record's copy set.
enum CopyRead {
    /// A copy validated; the decoded record and its canonical bytes.
    Valid(MetaRecord, Block),
    /// At least one copy exists but none validates — torn or corrupt.
    Invalid(RecordError),
    /// No copy exists at all.
    Absent,
}

impl<B: BlockRepo + ?Sized> Archive<B> {
    /// Creates an empty **alpha-entanglement** archive writing
    /// `block_size`-byte blocks into `store` — the thin AE convenience
    /// constructor, kept signature-compatible with the pre-generic
    /// archive.
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
    /// already holds archive metadata (reopen those with
    /// [`Archive::open`] instead of silently shadowing them).
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
        let genesis_ids = (0..MetaId::MAX_COPIES).map(|c| meta_copy_id(0, c));
        assert!(
            fetch_all(&*store, genesis_ids).iter().all(Option::is_none),
            "backend already holds an archive; reopen it with Archive::open"
        );
        let meta = MetaConfig {
            copies: meta.clamped_copies(),
            ..meta
        };
        let mut ar = Archive {
            ids: IdLog::new(&*scheme),
            scheme,
            store,
            block_size,
            append_block: Crc32Append::new(block_size),
            manifest: BTreeMap::new(),
            sealed: false,
            next_meta: 0,
            meta,
            journal: BTreeMap::new(),
            pointers: BTreeMap::new(),
            checkpoint: None,
            next_pointer_slot: 0,
            records_since_checkpoint: 0,
            torn_tail: None,
            meta_damage: Vec::new(),
            replayed: 0,
        };
        let genesis = MetaRecord::Genesis {
            scheme: ar.scheme.scheme_name(),
            block_size: block_size as u64,
            copies: ar.meta.copies,
        };
        ar.append_record(genesis.encode(0));
        ar
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
        // Genesis: probe the widest possible copy set (the true width is
        // *inside* the record); first copy that validates wins.
        let genesis_ids = (0..MetaId::MAX_COPIES).map(|c| meta_copy_id(0, c));
        let genesis = CopySet::validate(0, false, fetch_all(&*store, genesis_ids));
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
        if archived != scheme.scheme_name() {
            return Err(RecoveryError::SchemeMismatch {
                archived,
                given: scheme.scheme_name(),
            });
        }
        let meta = MetaConfig {
            copies: MetaConfig {
                copies,
                ..meta.clone()
            }
            .clamped_copies(),
            ..meta
        };
        let mut ar = Archive {
            ids: IdLog::new(&*scheme),
            scheme,
            store,
            block_size: block_size as usize,
            append_block: Crc32Append::new(block_size as usize),
            manifest: BTreeMap::new(),
            sealed: false,
            next_meta: 1,
            meta,
            journal: BTreeMap::new(),
            pointers: BTreeMap::new(),
            checkpoint: None,
            next_pointer_slot: 0,
            records_since_checkpoint: 0,
            torn_tail: None,
            meta_damage: Vec::new(),
            replayed: 0,
        };
        let mut states = genesis.states;
        states.truncate(ar.meta.copies as usize);
        ar.report_damage(0, false, states);
        ar.journal.insert(0, genesis_block);

        // Checkpoint discovery: read the pointer cells, try candidates
        // newest-first, fall back across them — a torn newer checkpoint
        // must never cost data, only replay length.
        let mut checkpoint_frontier = None;
        let (candidates, poisoned_slot) = ar.read_pointers();
        if candidates.is_empty() {
            // No valid pointer: replay from genesis. A *poisoned* cell
            // (bytes present, zero valid copies) is either a crash torn
            // mid-pointer-write — the checkpoint never committed, nothing
            // was GC'd, full replay is correct — or a committed pointer
            // that rotted, where GC makes replay-from-genesis a silent
            // rewind. The two are told apart below: GC always removes
            // record 1 first, so a rotted pointer leaves a replay that
            // cannot get past genesis.
        } else {
            let mut last_err = String::new();
            let mut loaded = None;
            for &(slot, cseq, parts) in &candidates {
                match ar.load_checkpoint(cseq, parts) {
                    Ok(payload) => {
                        loaded = Some((slot, cseq, parts, payload));
                        break;
                    }
                    Err(detail) => last_err = detail,
                }
            }
            let Some((slot, cseq, parts, payload)) = loaded else {
                let (_, cseq, _) = candidates[0];
                return Err(RecoveryError::CorruptRecord {
                    seq: cseq,
                    detail: format!("checkpoint named by pointer is not loadable: {last_err}"),
                });
            };
            checkpoint_frontier = Some(ar.apply_checkpoint(cseq, payload)?);
            ar.checkpoint = Some((cseq, parts));
            ar.next_pointer_slot = 1 - slot;
            ar.next_meta = cseq + parts as u64;
        }

        let frontier = ar.replay()?;
        if let (Some(slot), None, true) = (poisoned_slot, ar.checkpoint, ar.next_meta == 1) {
            // A poisoned pointer cell and a replay that never got past
            // genesis: a committed checkpoint's pointer rotted after GC —
            // opening would silently rewind the archive to empty.
            return Err(RecoveryError::CorruptRecord {
                seq: slot,
                detail: "checkpoint pointer cell has no valid copy".into(),
            });
        }
        if let Some(slot) = poisoned_slot {
            // The survivable flavour (torn mid-commit): report it so
            // scrub can clean the cell up.
            let present = has_all(&*ar.store, ar.pointer_ids(slot));
            let states = present
                .into_iter()
                .map(|has| has.then(|| "no valid copy (uncommitted pointer write)".to_string()));
            ar.report_damage(slot, true, states);
        }
        let frontier = frontier.or(checkpoint_frontier);
        if let Some(snapshot) = frontier {
            let store: &B = &ar.store;
            // The frontier refetch as one batch: the restore reads its
            // in-flight blocks from the answers — a lost one is known
            // lost, and goes straight to repair — and anything the scheme
            // did not announce still goes to the backend one call at a
            // time.
            let mut known = Prefetched::new(store, false);
            known.fill(ar.scheme.frontier_reads(&snapshot));
            let repairing = RepairingSource {
                scheme: &*ar.scheme,
                base: &known,
                written: ar.ids.data_len(),
            };
            ar.scheme
                .restore_frontier(&snapshot, &repairing)
                .map_err(RecoveryError::Frontier)?;
        }
        // Positions are only as good as the counters under them: the
        // encoder the journal restored must have written exactly the
        // data blocks the journal counted.
        if ar.scheme.data_written() != ar.ids.data_len() {
            return Err(RecoveryError::CorruptRecord {
                seq: ar.next_meta - 1,
                detail: format!(
                    "journal counts {} data blocks, its encoder frontier {}",
                    ar.ids.data_len(),
                    ar.scheme.data_written()
                ),
            });
        }
        Ok(ar)
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
    fn fetch_record(&mut self, seq: u64) -> CopyRead {
        let copies = fetch_all(&*self.store, self.record_ids(seq));
        self.classify(seq, copies)
    }

    /// Judges record `seq`'s fetched copy set. Copies skipped on the way
    /// to a valid one are recorded in [`Archive::meta_damage`].
    fn classify(&mut self, seq: u64, copies: Vec<Option<Block>>) -> CopyRead {
        let set = CopySet::validate(seq, false, copies);
        match (set.first_damage(), set.valid) {
            (_, Some((record, block))) => {
                self.report_damage(seq, false, set.states);
                CopyRead::Valid(record, block)
            }
            (Some(detail), None) => CopyRead::Invalid(detail),
            (None, None) => CopyRead::Absent,
        }
    }

    /// Reads both checkpoint-pointer cells as one batch. Returns the
    /// distinct valid `(slot, checkpoint seq, parts)` candidates sorted
    /// newest-first, and the slot of a cell that holds bytes but no valid
    /// copy (all copies of a written pointer destroyed), if any.
    fn read_pointers(&mut self) -> (Vec<(u64, u64, u32)>, Option<u64>) {
        let mut candidates: Vec<(u64, u64, u32)> = Vec::new();
        let mut poisoned = None;
        let ids = (0..2u64).flat_map(|slot| self.pointer_ids(slot));
        let mut found = fetch_all(&*self.store, ids).into_iter();
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

    /// Fetches and reassembles the checkpoint whose part 0 sits at
    /// journal seq `cseq`, validating every part's framing. On success
    /// the parts' canonical blocks join the live journal.
    fn load_checkpoint(&mut self, cseq: u64, parts: u32) -> Result<CheckpointPayload, RecordError> {
        // Replay probes a window past the checkpoint: all of it must be
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
        let mut blocks = Vec::new();
        // Parts move in batches of a probe window's worth of records, so
        // the part count a pointer claims never sizes an allocation.
        let mut next = cseq;
        while next < end {
            let group = next..end.min(next + Self::REPLAY_PROBE_WINDOW);
            next = group.end;
            let ids = group.clone().flat_map(|seq| self.record_ids(seq));
            let mut found = fetch_all(&*self.store, ids).into_iter();
            for seq in group {
                let i = (seq - cseq) as u32;
                let copies = found.by_ref().take(self.meta.copies as usize).collect();
                match self.classify(seq, copies) {
                    CopyRead::Valid(
                        MetaRecord::Checkpoint {
                            part,
                            parts: p,
                            chunk,
                        },
                        block,
                    ) if part == i && p == parts => {
                        bytes.extend_from_slice(&chunk);
                        blocks.push((seq, block));
                    }
                    CopyRead::Valid(..) => {
                        return Err(format!("meta#{seq} is not checkpoint part {i}"));
                    }
                    CopyRead::Invalid(detail) => return Err(format!("meta#{seq}: {detail}")),
                    CopyRead::Absent => return Err(format!("meta#{seq}: missing")),
                }
            }
        }
        let payload = CheckpointPayload::decode(&bytes)?;
        self.journal.extend(blocks);
        Ok(payload)
    }

    /// Installs a checkpoint's state (block counters, manifest, sealed
    /// flag), returning its frontier snapshot. Structural damage is a
    /// typed error naming the checkpoint.
    fn apply_checkpoint(
        &mut self,
        cseq: u64,
        payload: CheckpointPayload,
    ) -> Result<Vec<u8>, RecoveryError> {
        let corrupt = |detail: String| RecoveryError::CorruptRecord { seq: cseq, detail };
        match payload.stored {
            StoredIds::Count(count) => self
                .ids
                .advance(&*self.scheme, payload.data, count)
                .map_err(corrupt)?,
            StoredIds::Listed(ids) => {
                self.ids.push(&*self.scheme, payload.data, ids);
                if self.ids.data_len() != payload.data {
                    return Err(corrupt(format!(
                        "checkpoint counts {} data blocks, its id list holds {}",
                        payload.data,
                        self.ids.data_len()
                    )));
                }
            }
        }
        // The decoder vouched for strictly ascending names, so the rows
        // are the map, built in one pass.
        let rows = payload.manifest.into_iter();
        self.manifest = rows
            .map(|(name, byte_len, crc, first_block, block_count)| {
                self.checked_entry(byte_len, crc, first_block, block_count)
                    .map_err(|why| corrupt(format!("checkpoint entry {name:?} {why}")))
                    .map(|entry| (name, entry))
            })
            .collect::<Result<_, _>>()?;
        self.sealed = payload.sealed;
        Ok(payload.frontier)
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
        if end.is_none_or(|end| end > self.ids.data_len()) {
            return Err(format!(
                "extent {first_block}+{block_count} exceeds the {} data blocks written",
                self.ids.data_len()
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

    /// How far past an invalid or missing record the replay looks for
    /// survivors before concluding the journal ended there. A gap longer
    /// than this with valid records beyond it is indistinguishable from
    /// end-of-journal (see the torn-write rules in [`crate::meta`]).
    const REPLAY_PROBE_WINDOW: u64 = 16;

    /// Whether any journal record (any copy) exists within the probe
    /// window after `seq` — i.e. `seq` failing is mid-journal damage,
    /// not the tail.
    fn journal_continues(&self, seq: u64) -> bool {
        let probe = (seq + 1..=seq + Self::REPLAY_PROBE_WINDOW).flat_map(|s| self.record_ids(s));
        has_all(&*self.store, probe).contains(&true)
    }

    /// Replays journal records from `next_meta` on — the suffix past the
    /// checkpoint when one was loaded — returning the last frontier
    /// snapshot seen (`None` when no record carried one).
    fn replay(&mut self) -> Result<Option<Vec<u8>>, RecoveryError> {
        let mut frontier = None;
        loop {
            let seq = self.next_meta;
            let record = match self.fetch_record(seq) {
                CopyRead::Valid(record, block) => {
                    self.journal.insert(seq, block);
                    record
                }
                CopyRead::Absent => {
                    // End of journal — unless a later record exists
                    // within the probe window, in which case every copy
                    // of this one was destroyed mid-journal (damaged
                    // metadata beyond the redundancy, not a torn tail)
                    // and replaying past it would serve a silently
                    // rewound archive.
                    if self.journal_continues(seq) {
                        return Err(RecoveryError::CorruptRecord {
                            seq,
                            detail: "all copies missing mid-journal".into(),
                        });
                    }
                    break;
                }
                CopyRead::Invalid(detail) => {
                    if self.journal_continues(seq) {
                        return Err(RecoveryError::CorruptRecord { seq, detail });
                    }
                    // A torn final record: the crash cut the write short.
                    // Truncate the journal here — the mutation was never
                    // acknowledged — erase the unacknowledged bytes so the
                    // next open starts clean, and report it.
                    self.erase_record(seq);
                    self.torn_tail = Some(seq);
                    break;
                }
            };
            self.replayed += 1;
            match record {
                MetaRecord::Genesis { .. } => {
                    return Err(RecoveryError::CorruptRecord {
                        seq,
                        detail: "unexpected genesis record mid-journal".into(),
                    });
                }
                MetaRecord::Pointer { .. } => {
                    return Err(RecoveryError::CorruptRecord {
                        seq,
                        detail: "pointer record inside the journal".into(),
                    });
                }
                MetaRecord::Checkpoint { part, parts, .. } => {
                    // A checkpoint whose pointer never became readable:
                    // validate the whole group, then skip it — the
                    // records it folded were replayed on the way here.
                    if part != 0 {
                        return Err(RecoveryError::CorruptRecord {
                            seq,
                            detail: format!("checkpoint part {part} without part 0"),
                        });
                    }
                    match self.skip_checkpoint_group(seq, parts) {
                        Ok(()) => continue,
                        Err(None) => break, // torn checkpoint tail
                        Err(Some(err)) => return Err(err),
                    }
                }
                MetaRecord::Put {
                    name,
                    byte_len,
                    crc,
                    first_block,
                    block_count,
                    ids,
                    frontier: snap,
                } => {
                    let corrupt = |detail: String| RecoveryError::CorruptRecord { seq, detail };
                    if first_block != self.ids.data_len() {
                        return Err(corrupt(format!(
                            "extent starts at {first_block} but {} data blocks were replayed",
                            self.ids.data_len()
                        )));
                    }
                    // (An extent that overflows is refused below, whichever
                    // shape the record has.)
                    let data_after = first_block.saturating_add(block_count);
                    match ids {
                        StoredIds::Count(count) => self
                            .ids
                            .advance(&*self.scheme, data_after, count)
                            .map_err(corrupt)?,
                        StoredIds::Listed(ids) => {
                            let data_added = ids.iter().filter(|id| id.is_data()).count() as u64;
                            if data_added != block_count {
                                return Err(corrupt(format!(
                                    "entry claims {block_count} data blocks, record stores {data_added}"
                                )));
                            }
                            self.ids.push(&*self.scheme, data_after, ids);
                        }
                    }
                    let entry = self
                        .checked_entry(byte_len, crc, first_block, block_count)
                        .map_err(|why| corrupt(format!("entry {name:?} {why}")))?;
                    match self.manifest.entry(name) {
                        MapEntry::Occupied(e) => {
                            return Err(corrupt(format!("duplicate manifest entry {:?}", e.key())));
                        }
                        MapEntry::Vacant(v) => v.insert(entry),
                    };
                    frontier = Some(snap);
                    self.records_since_checkpoint += 1;
                }
                MetaRecord::Seal {
                    ids,
                    frontier: snap,
                } => {
                    let corrupt = |detail: String| RecoveryError::CorruptRecord { seq, detail };
                    if self.sealed {
                        return Err(corrupt("second seal record".into()));
                    }
                    let data = self.ids.data_len();
                    match ids {
                        StoredIds::Count(count) => self
                            .ids
                            .advance(&*self.scheme, data, count)
                            .map_err(corrupt)?,
                        StoredIds::Listed(ids) => {
                            if ids.iter().any(|id| id.is_data()) {
                                return Err(corrupt("seal record stores data blocks".into()));
                            }
                            self.ids.push(&*self.scheme, data, ids);
                        }
                    }
                    self.sealed = true;
                    frontier = Some(snap);
                    self.records_since_checkpoint += 1;
                }
            }
            self.next_meta += 1;
        }
        Ok(frontier)
    }

    /// Validates checkpoint parts `cseq..cseq + parts` encountered
    /// in-line during replay (part 0 already read) and advances past
    /// them. `Err(None)` means the group is a torn checkpoint tail —
    /// the whole partial checkpoint is truncated; `Err(Some(_))` means
    /// mid-journal damage.
    fn skip_checkpoint_group(
        &mut self,
        cseq: u64,
        parts: u32,
    ) -> Result<(), Option<RecoveryError>> {
        for i in 1..parts {
            let seq = cseq + i as u64;
            let bad = match self.fetch_record(seq) {
                CopyRead::Valid(MetaRecord::Checkpoint { part, parts: p, .. }, block)
                    if part == i && p == parts =>
                {
                    self.journal.insert(seq, block);
                    continue;
                }
                CopyRead::Valid(..) => Some(format!("meta#{seq} is not checkpoint part {i}")),
                CopyRead::Invalid(detail) => Some(detail),
                CopyRead::Absent => None,
            };
            let continues = self.journal_continues(cseq + parts as u64 - 1);
            if continues || bad.is_some() && self.journal_continues(seq) {
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
                self.erase_record(s);
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
    /// used by replay to physically truncate torn, unacknowledged tail
    /// records (plain WAL truncation, applied to the copy set).
    fn erase_record(&self, seq: u64) {
        remove_all(&*self.store, self.record_ids(seq));
    }

    /// Appends an encoded record to the on-backend metadata journal —
    /// every copy of its set, as one batch — keeping the block so
    /// [`Archive::scrub`] can re-materialize copies the backend loses.
    /// A record is the unit of journal ordering: the next one is not
    /// issued before every copy of this one is acknowledged, because
    /// replay reads a missing record with survivors beyond it as damage,
    /// not as a torn tail.
    fn append_record(&mut self, encoded: Vec<u8>) {
        let seq = self.next_meta;
        let block = Block::from_vec(encoded);
        let copies = self.record_ids(seq).map(|id| (id, block.clone()));
        store_all(&*self.store, copies);
        self.journal.insert(seq, block);
        self.next_meta += 1;
    }

    /// Folds the archive's entire state into a checkpoint, commits it,
    /// and garbage-collects the superseded journal prefix: parts are
    /// appended (n-way), the pointer cell flips to name them, and only
    /// then are older records removed — a crash at any point leaves
    /// either the previous checkpoint reachable or this one committed.
    /// Returns the journal seq of the checkpoint's part 0.
    ///
    /// The snapshot is one streaming pass over the manifest where it
    /// lives, two counters and the frontier: O(files), nothing per block,
    /// nothing cloned.
    ///
    /// Called automatically past [`MetaConfig::checkpoint_every`] and on
    /// [`Archive::seal`]; public so callers with their own policy can
    /// checkpoint explicitly.
    pub fn checkpoint(&mut self) -> u64 {
        let rows = self.manifest.iter();
        let rows = rows.map(|(name, e)| {
            let byte_len = e.byte_len as u64;
            (name.as_str(), byte_len, e.crc, e.first_block, e.block_count)
        });
        let payload = encode_checkpoint_payload(
            rows,
            self.ids.data_len(),
            self.ids.parts(),
            self.sealed,
            &self.scheme.frontier_snapshot(),
        );
        let cseq = self.next_meta;
        let seg = self.meta.segment_bytes.max(1);
        let parts = payload.len().div_ceil(seg) as u32;
        for (part, chunk) in (0u32..).zip(payload.chunks(seg)) {
            self.append_record(encode_checkpoint_part(self.next_meta, part, parts, chunk));
        }
        // The pointer commit: all parts are durable, flip the ping-pong
        // cell to them.
        let slot = self.next_pointer_slot;
        let pointer = Block::from_vec(
            MetaRecord::Pointer {
                checkpoint: cseq,
                parts,
            }
            .encode(slot),
        );
        let cells = self.pointer_ids(slot).map(|id| (id, pointer.clone()));
        store_all(&*self.store, cells);
        self.pointers.insert(slot, pointer);
        self.next_pointer_slot = 1 - slot;
        // Only now is the prefix garbage: every record between genesis
        // and part 0, previous checkpoints included. Record 1 goes in a
        // batch of its own, ahead of the rest: `open` tells a rotted
        // pointer from a torn one by GC having removed record 1 first.
        let dead: Vec<u64> = self.journal.range(1..cseq).map(|(&s, _)| s).collect();
        let (first, rest) = dead.split_at(usize::from(dead.first() == Some(&1)));
        for group in [first, rest] {
            let ids = group.iter().flat_map(|&s| self.record_ids(s));
            remove_all(&*self.store, ids);
        }
        self.journal.retain(|&s, _| s == 0 || s >= cseq);
        self.checkpoint = Some((cseq, parts));
        self.records_since_checkpoint = 0;
        cseq
    }

    /// Checkpoints when the configured record threshold has accumulated.
    fn maybe_checkpoint(&mut self) {
        if let Some(every) = self.meta.checkpoint_every {
            if self.records_since_checkpoint >= every.max(1) {
                self.checkpoint();
            }
        }
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
        self.ids.data_len()
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
        self.next_meta
    }

    /// Records currently live in the journal: genesis + committed
    /// checkpoint parts + suffix. Checkpointing keeps this bounded while
    /// [`Archive::meta_len`] grows with history.
    pub fn live_meta_records(&self) -> u64 {
        self.journal.len() as u64
    }

    /// Every metadata block id the backend should currently hold: all
    /// copies of every live journal record and pointer cell. Disaster
    /// drills pick metadata victims from this list; [`Archive::scrub`]
    /// heals against it.
    pub fn live_meta_ids(&self) -> Vec<BlockId> {
        let records = self.journal.keys().flat_map(|&seq| self.record_ids(seq));
        let cells = self
            .pointers
            .keys()
            .flat_map(|&slot| self.pointer_ids(slot));
        records.chain(cells).collect()
    }

    /// The metadata durability policy in effect: the genesis-pinned
    /// copy-set width plus this open's checkpoint cadence.
    pub fn meta_config(&self) -> &MetaConfig {
        &self.meta
    }

    /// Part-0 journal seq of the committed checkpoint, if any.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.checkpoint.map(|(seq, _)| seq)
    }

    /// Journal records [`Archive::open`] actually replayed — the suffix
    /// past the checkpoint, or the full journal without one. The
    /// O(checkpoint)-open guarantee is this number staying bounded by
    /// the checkpoint cadence while [`Archive::meta_len`] grows.
    pub fn replayed_records(&self) -> u64 {
        self.replayed
    }

    /// Metadata copies [`Archive::open`] had to skip on the way to a
    /// valid copy — the degraded-read report of the self-protecting
    /// metadata plane. Empty for clean opens; [`Archive::scrub`] heals
    /// the damage (subsequent opens report clean again).
    pub fn meta_damage(&self) -> &[MetaDamage] {
        &self.meta_damage
    }

    /// The journal sequence number of a torn final record that
    /// [`Archive::open`] detected and truncated — the mutation the crash
    /// cut short (for a torn multi-part checkpoint: its part 0). `None`
    /// for archives that opened clean (or were never reopened).
    pub fn torn_tail(&self) -> Option<u64> {
        self.torn_tail
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
    /// Disaster drills pick victims from this list; [`Archive::scrub`]
    /// repairs against it. The archive works by position and holds no
    /// such list: the first call materialises it (O(stored blocks) of
    /// [`RedundancyScheme::block_at`] arithmetic), later calls and later
    /// `put`s keep it current.
    pub fn stored_ids(&self) -> &[BlockId] {
        self.ids.stored(&*self.scheme)
    }

    /// The ids of the data blocks in write order, computed as it goes;
    /// manifest extents ([`Entry::first_block`]) count into it.
    pub fn data_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.ids.data(0..self.ids.data_len())
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
    /// permanently").
    pub fn put(&mut self, name: &str, contents: &[u8]) -> Result<Entry, ArchiveError> {
        if self.sealed {
            return Err(ArchiveError::Sealed(name.to_string()));
        }
        if self.manifest.contains_key(name) {
            return Err(ArchiveError::DuplicateName(name.to_string()));
        }
        let bs = self.block_size;
        // Even empty files occupy one (zero) block so they have an extent.
        let block_count = contents.len().div_ceil(bs).max(1) as u64;
        let first_block = self.ids.data_len();
        let data_after = first_block + block_count;
        self.check_ceiling(data_after)?;
        // Every payload byte is copied once and CRC'd once, as part of its
        // block; the file checksum is composed from the block checksums.
        // Only a partial last chunk is read again: its block's checksum
        // covers the padding, the file's does not.
        let blocks = match contents.len() {
            0 => vec![Block::zero(bs)],
            _ => Block::cut(contents, bs),
        };
        let whole = contents.len() / bs;
        let crc = blocks[..whole]
            .iter()
            .fold(0, |crc, block| self.append_block.combine(crc, block.crc()));
        let mut crc = Crc32::resume(crc);
        crc.update(&contents[whole * bs..]);
        let report = self
            .write_through(|sink| self.scheme.encode_batch(&blocks, sink))
            .map_err(ArchiveError::Encode)?;
        let entry = Entry {
            first_block,
            block_count,
            byte_len: contents.len(),
            crc: crc.finalize(),
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
            ids: self.ids.push(&*self.scheme, data_after, report.ids),
            frontier: self.scheme.frontier_snapshot(),
        };
        self.append_record(record.encode(self.next_meta));
        self.records_since_checkpoint += 1;
        self.manifest.insert(name.to_string(), entry.clone());
        // Only after the archive state reflects the put may it be folded
        // into a checkpoint.
        self.maybe_checkpoint();
        Ok(entry)
    }

    /// Refuses an operation that could take a position-first archive of
    /// `data_after` data blocks past what `u32` positions can name (an
    /// explicit id log names its blocks itself).
    fn check_ceiling(&self, data_after: u64) -> Result<(), ArchiveError> {
        let blocks = match self.ids {
            IdLog::Positions(_) => self.scheme.universe_len(data_after),
            IdLog::Listed { .. } => 0,
        };
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
    pub fn seal(&mut self) -> Result<Vec<BlockId>, ArchiveError> {
        if self.sealed {
            return Ok(Vec::new());
        }
        let data = self.ids.data_len();
        self.check_ceiling(data)?;
        let flushed = self
            .write_through(|sink| self.scheme.seal(sink))
            .map_err(ArchiveError::Encode)?;
        let record = MetaRecord::Seal {
            ids: self.ids.push(&*self.scheme, data, flushed.clone()),
            frontier: self.scheme.frontier_snapshot(),
        };
        self.append_record(record.encode(self.next_meta));
        self.records_since_checkpoint += 1;
        self.sealed = true;
        // A sealed archive never grows again: checkpoint it so every
        // future open is O(checkpoint) regardless of its history.
        if self.meta.checkpoint_every.is_some() {
            self.checkpoint();
        }
        Ok(flushed)
    }

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
    pub fn get(&self, name: &str) -> Result<Vec<u8>, ArchiveError> {
        let unknown = || ArchiveError::UnknownFile(name.to_string());
        let entry = self.manifest.get(name).ok_or_else(unknown)?;
        let extent = entry.first_block..entry.first_block + entry.block_count;
        let (store, bs): (&B, usize) = (&self.store, self.block_size);
        // Each block is appended as its read is consumed; a failed one
        // leaves a hole for its repair to fill.
        let mut known = Prefetched::new(store, false);
        let mut out = Vec::with_capacity(entry.byte_len);
        let mut holes = Vec::new();
        known.sweep(self.ids.data(extent), |id, read| match read {
            Ok(block) => out.extend_from_slice(block.as_slice()),
            Err(_) => {
                holes.push((id, out.len()));
                out.resize(out.len() + bs, 0);
            }
        });
        if known.remote {
            self.prefetch_repairs(&mut known, &holes);
        }
        for (id, at) in holes {
            let block = self
                .repair_fast(&known, id)
                .or_else(|err| self.repair_slow(&mut known, id, err))?;
            // (A block of any other size cannot be this file's: the hole
            // stays zero and the checksum below says so.)
            if block.len() == bs {
                out[at..at + bs].copy_from_slice(block.as_slice());
            }
        }
        // Truncate the padded tail block and verify the manifest checksum.
        out.truncate(entry.byte_len);
        let actual = crc32(&out);
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
    fn prefetch_repairs(&self, known: &mut Prefetched<'_, B>, failed: &[(BlockId, usize)]) {
        let written = self.scheme.data_written();
        loop {
            let unknown = RefCell::new(BTreeSet::new());
            for &(target, _) in failed {
                self.scheme.is_repairable(target, written, &|id| {
                    let answer = known.answers.get(&id);
                    if id != target && answer.is_none() {
                        unknown.borrow_mut().insert(id);
                    }
                    id != target && answer.is_none_or(Option::is_some)
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
    /// ([`StoreError::Corrupted`]) are quarantined (removed) first so the
    /// repair planners rebuild them from surviving redundancy. Returns
    /// how many blocks were restored (data, redundancy and metadata
    /// copies); clears the [`Archive::meta_damage`] report.
    ///
    /// Four stages, each a batch: (1) a read sweep of everything the
    /// backend should hold, quarantining corrupt blocks; (2) round-based
    /// repair of the blocks whose read failed; (3) metadata
    /// compare-and-heal; (4) stale pointer-cell clearing.
    pub fn scrub(&mut self) -> u64 {
        let store: &B = &self.store;
        let stored = self.stored_ids();
        // Stage 1: integrity sweep + quarantine — a block whose read
        // fails its integrity check is worse than a missing one (planners
        // would trust its bytes), so drop it and let repair re-materialize
        // it. A plain backend answers again at call time, so nothing is
        // held; a network away the blocks are the snapshot stage 2 plans
        // on, closed: what the sweep did not return is absent.
        let mut known = Prefetched::new(store, true);
        let (mut failed, mut quarantine) = (Vec::new(), Vec::new());
        known.sweep(stored.iter().copied(), |id, read| {
            if let Err(err) = read {
                failed.push(id);
                if matches!(err, StoreError::Corrupted(_)) {
                    quarantine.push(id);
                }
            }
        });
        remove_all(store, quarantine);
        // Stage 2: round-based repair of what the sweep did not find, in
        // stored order. Planners a network away write into an overlay,
        // committed as one batch.
        let written = self.scheme.data_written();
        let summary = if known.remote {
            let overlay = Overlay::new(&known);
            let summary = self.scheme.repair_missing(&overlay, &failed, written);
            let patch = failed
                .iter()
                .filter_map(|&id| Some((id, overlay.patch.remove(&id)?)));
            store_all(store, patch);
            summary
        } else {
            self.scheme.repair_missing(&store, &failed, written)
        };
        // Stage 3: heal the metadata plane copy by copy — byte-compare
        // against the canonical in-memory journal (by sequence, then
        // pointers by slot, copies innermost), so silently-garbled
        // copies are rewritten too, not just missing ones.
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
        let restored = summary.total_repaired() as u64 + unhealthy.len() as u64;
        store_all(store, unhealthy);
        // Stage 4: pointer cells the archive does not own (uncommitted
        // writes a crash tore mid-commit, survived by open) are garbage:
        // clear the bytes so future opens see a clean cell.
        let stale = (0..2u64).filter(|slot| !self.pointers.contains_key(slot));
        remove_all(store, stale.flat_map(|slot| self.pointer_ids(slot)));
        self.meta_damage.clear();
        restored
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
        if known.remote {
            // One windowed sweep of what is not known yet, then closed:
            // planner threads see memory, never the link.
            known.fill(self.stored_ids().iter().copied());
            known.closed = true;
        }
        let base: &dyn BlockSource = known;
        let masked = MaskOne { base, masked: id };
        let overlay = Overlay::new(&masked);
        self.scheme
            .repair_missing(&overlay, self.stored_ids(), self.scheme.data_written());
        overlay
            .patch
            .remove(&id)
            .ok_or(ArchiveError::BlockUnavailable {
                id,
                source: fast_err,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{meta_id, FORMAT_VERSION};
    use crate::store::MemStore;

    fn data_id(i: u64) -> BlockId {
        BlockId::Data(NodeId(i))
    }

    fn archive() -> Archive<MemStore> {
        Archive::new(Config::new(3, 2, 5).unwrap(), 64, Arc::new(MemStore::new()))
    }

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(seed).wrapping_add(3))
            .collect()
    }

    #[test]
    fn put_get_roundtrip_multiple_files() {
        let mut ar = archive();
        let a = payload(1000, 7);
        let b = payload(64, 11); // exactly one block
        let c = payload(65, 13); // one block + 1 byte
        ar.put("a", &a).unwrap();
        ar.put("b", &b).unwrap();
        ar.put("c", &c).unwrap();
        assert_eq!(ar.get("a").unwrap(), a);
        assert_eq!(ar.get("b").unwrap(), b);
        assert_eq!(ar.get("c").unwrap(), c);
        assert_eq!(ar.names().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(ar.entry("b").unwrap().block_count, 1);
        assert_eq!(ar.entry("c").unwrap().block_count, 2);
        assert_eq!(ar.entry("a").unwrap().first_block, 0);
        assert_eq!(ar.entry("b").unwrap().first_block, 16);
    }

    #[test]
    fn empty_file_supported() {
        let mut ar = archive();
        ar.put("empty", b"").unwrap();
        assert_eq!(ar.get("empty").unwrap(), Vec::<u8>::new());
        assert_eq!(ar.entry("empty").unwrap().block_count, 1);
    }

    /// `put` composes `Entry::crc` from the block checksums it computed
    /// while cutting; it must be the checksum of the contents at every
    /// length around a block edge and a slab edge (16 blocks of 4 KiB),
    /// whichever scheme stores the blocks.
    #[test]
    fn entry_crc_is_the_crc_of_the_contents() {
        use ae_baselines::{ReedSolomon, Replication};
        let bs = 4096;
        let schemes: [fn(usize) -> Arc<dyn RedundancyScheme>; 3] = [
            |bs| Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), bs)),
            |_| Arc::new(ReedSolomon::new(10, 4).unwrap()),
            |_| Arc::new(Replication::new(3)),
        ];
        for scheme in schemes {
            let mut ar = Archive::with_scheme(scheme(bs), bs, Arc::new(MemStore::new()));
            let lens = [0, 1, bs - 1, bs, bs + 1, 63 * bs + 123, 64 * bs];
            for (k, len) in lens.into_iter().enumerate() {
                let contents = payload(len, 2 * k as u8 + 5);
                let entry = ar.put(&format!("f{k}"), &contents).unwrap();
                assert_eq!(entry.crc, crc32(&contents), "len {len}");
                assert_eq!(entry.block_count as usize, len.div_ceil(bs).max(1));
            }
            ar.seal().unwrap();
            for (k, len) in lens.into_iter().enumerate() {
                let got = ar.get(&format!("f{k}")).unwrap();
                assert_eq!(got, payload(len, 2 * k as u8 + 5), "len {len}");
            }
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ar = archive();
        ar.put("x", b"1").unwrap();
        assert!(matches!(
            ar.put("x", b"2"),
            Err(ArchiveError::DuplicateName(_))
        ));
    }

    #[test]
    fn sealed_archives_reject_puts() {
        let mut ar = archive();
        ar.put("x", b"1").unwrap();
        assert!(ar.seal().is_ok());
        assert!(ar.is_sealed());
        assert!(matches!(ar.put("y", b"2"), Err(ArchiveError::Sealed(_))));
        assert_eq!(ar.seal().unwrap(), Vec::new(), "idempotent");
        assert_eq!(ar.get("x").unwrap(), b"1");
    }

    #[test]
    fn unknown_file_reported() {
        let ar = archive();
        assert!(matches!(ar.get("nope"), Err(ArchiveError::UnknownFile(_))));
    }

    #[test]
    fn degraded_read_repairs_on_the_fly() {
        let mut ar = archive();
        let data = payload(640, 5);
        let entry = ar.put("f", &data).unwrap();
        // Drop three data blocks behind the archive's back.
        for k in [0, 4, 9] {
            ar.store().remove(data_id(entry.first_block + k + 1));
        }
        assert_eq!(ar.get("f").unwrap(), data, "read-time repair");
        // Blocks remain missing until scrubbed.
        assert!(!ar.store().contains(data_id(1)));
        let restored = ar.scrub();
        assert_eq!(restored, 3);
        assert!(ar.store().contains(data_id(1)));
        assert_eq!(ar.scrub(), 0, "idempotent");
    }

    #[test]
    fn scrub_restores_parities_too() {
        let mut ar = archive();
        ar.put("f", &payload(640, 9)).unwrap();
        let killed = 5;
        for i in 1..=killed {
            ar.store().remove(BlockId::Parity(ae_blocks::EdgeId::new(
                ae_blocks::StrandClass::Horizontal,
                NodeId(i),
            )));
        }
        assert_eq!(ar.scrub(), killed);
        assert!(ar.verify_all().is_empty());
    }

    #[test]
    fn verify_all_flags_dead_files() {
        let mut ar = Archive::new(Config::new(2, 1, 1).unwrap(), 32, Arc::new(MemStore::new()));
        ar.put("ok", &payload(100, 3)).unwrap();
        let entry = ar.put("doomed", &payload(100, 4)).unwrap();
        // Erase a Fig 7 A dead pattern inside "doomed": two adjacent nodes
        // plus both parallel edges between them.
        let i = entry.first_block + 2; // 1-based node of the second block
        ar.store().remove(data_id(i));
        ar.store().remove(data_id(i + 1));
        for class in [
            ae_blocks::StrandClass::Horizontal,
            ae_blocks::StrandClass::RightHanded,
        ] {
            ar.store()
                .remove(BlockId::Parity(ae_blocks::EdgeId::new(class, NodeId(i))));
        }
        assert_eq!(ar.verify_all(), vec!["doomed".to_string()]);
        assert!(ar.get("ok").is_ok());
        // The failure names the block and carries the repair detail.
        match ar.get("doomed") {
            Err(ArchiveError::BlockUnavailable { id, source }) => {
                assert!(id.is_data());
                assert!(!source.missing_blocks().is_empty());
            }
            other => panic!("expected BlockUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn degraded_read_chains_repairs_when_tuples_are_broken() {
        // Erase a data block AND parts of all its tuples, leaving a repair
        // chain: the single-XOR fast path fails, the overlay rounds win.
        let mut ar = archive();
        let data = payload(640, 17);
        let entry = ar.put("f", &data).unwrap();
        let i = entry.first_block + 5; // 1-based node of the fifth block
        ar.store().remove(data_id(i));
        // Break every pp-tuple of d_i by removing one parity per class…
        for &class in [
            ae_blocks::StrandClass::Horizontal,
            ae_blocks::StrandClass::RightHanded,
            ae_blocks::StrandClass::LeftHanded,
        ]
        .iter()
        {
            ar.store()
                .remove(BlockId::Parity(ae_blocks::EdgeId::new(class, NodeId(i))));
        }
        // …the parities themselves are repairable (their dp-tuples are
        // intact), so a two-round read still reconstructs the file.
        assert_eq!(ar.get("f").unwrap(), data);
        // And the backend was not mutated by the read.
        assert!(!ar.store().contains(data_id(i)));
    }

    #[test]
    fn works_over_a_distributed_store_with_outages() {
        use crate::cluster::LocationId;
        use crate::distributed::DistributedStore;
        use crate::placement::Placement;

        let store = Arc::new(DistributedStore::new(30, Placement::Random { seed: 4 }));
        let mut ar = Archive::new(Config::new(3, 2, 5).unwrap(), 64, Arc::clone(&store));
        let data = payload(3000, 21);
        ar.put("big", &data).unwrap();
        store.with_cluster(|c| {
            for l in [2, 9, 16, 23] {
                c.fail(LocationId(l));
            }
        });
        assert_eq!(ar.get("big").unwrap(), data, "degraded read through outage");
    }

    #[test]
    fn type_erased_backend_works() {
        // Archive<dyn BlockRepo>: backend chosen at runtime.
        let store: Arc<dyn BlockRepo> = Arc::new(MemStore::new());
        let mut ar: Archive = Archive::new(Config::new(2, 1, 2).unwrap(), 32, store);
        let data = payload(200, 29);
        ar.put("f", &data).unwrap();
        ar.store().remove(data_id(2));
        assert_eq!(ar.get("f").unwrap(), data);
    }

    #[test]
    fn error_display() {
        let e = ArchiveError::ChecksumMismatch {
            name: "f".into(),
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("verification"));
        assert!(ArchiveError::UnknownFile("x".into())
            .to_string()
            .contains("x"));
        assert!(ArchiveError::Sealed("y".into())
            .to_string()
            .contains("sealed"));
        assert!(RecoveryError::NoArchive.to_string().contains("metadata"));
        assert!(RecoveryError::SchemeMismatch {
            archived: "AE(3,2,5)".into(),
            given: "RS(4,2)".into()
        }
        .to_string()
        .contains("AE(3,2,5)"));
    }

    fn ae_scheme() -> Arc<dyn RedundancyScheme> {
        Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 64))
    }

    #[test]
    fn crash_and_reopen_resumes_mid_stream() {
        let (a, b, c) = (payload(1000, 7), payload(300, 11), payload(129, 13));

        // The uninterrupted reference run.
        let ref_store = Arc::new(MemStore::new());
        let mut reference = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&ref_store));
        reference.put("a", &a).unwrap();
        reference.put("b", &b).unwrap();
        reference.put("c", &c).unwrap();
        reference.seal().unwrap();

        // The crashed run: two puts, then the process dies.
        let store = Arc::new(MemStore::new());
        {
            let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
            ar.put("a", &a).unwrap();
            ar.put("b", &b).unwrap();
        } // crash: archive and scheme dropped, backend survives

        let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.torn_tail(), None);
        assert_eq!(ar.block_size(), 64);
        assert_eq!(ar.names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(ar.get("a").unwrap(), a, "pre-crash contents replay");
        ar.put("c", &c).unwrap();
        ar.seal().unwrap();
        assert_eq!(ar.get("c").unwrap(), c);

        // Block-for-block identical to the uninterrupted run.
        assert_eq!(ar.stored_ids(), reference.stored_ids());
        assert_eq!(ar.entry("c"), reference.entry("c"));
        for id in reference.stored_ids() {
            assert_eq!(store.get(*id).unwrap(), ref_store.get(*id).unwrap(), "{id}");
        }
    }

    #[test]
    fn reopen_restores_sealed_state_and_seal_stays_idempotent() {
        use ae_baselines::ReedSolomon;
        let store = Arc::new(MemStore::new());
        {
            let scheme: Arc<dyn RedundancyScheme> = Arc::new(ReedSolomon::new(4, 2).unwrap());
            let mut ar = Archive::with_scheme(scheme, 32, Arc::clone(&store));
            ar.put("f", &payload(200, 9)).unwrap(); // 7 blocks: 3 buffered
            assert!(!ar.seal().unwrap().is_empty(), "partial stripe flushed");
        }
        let before = store.len();
        let scheme: Arc<dyn RedundancyScheme> = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let mut ar = Archive::open(scheme, Arc::clone(&store)).unwrap();
        assert!(ar.is_sealed(), "sealed state survives the crash");
        assert_eq!(ar.seal().unwrap(), Vec::new(), "re-seal is a no-op");
        assert_eq!(store.len(), before, "no duplicate stripe flush");
        assert!(matches!(
            ar.put("late", b"no"),
            Err(ArchiveError::Sealed(_))
        ));
        assert_eq!(ar.get("f").unwrap(), payload(200, 9));
    }

    #[test]
    fn open_repairs_lost_frontier_blocks_on_the_fly() {
        let store = Arc::new(MemStore::new());
        {
            let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
            ar.put("f", &payload(1000, 5)).unwrap();
        }
        // The crash also takes a frontier parity with it; its dp-tuple
        // survives, so open's repairing fallback reconstructs it.
        let frontier = BlockId::Parity(ae_blocks::EdgeId::new(
            ae_blocks::StrandClass::Horizontal,
            NodeId(16),
        ));
        assert!(store.remove(frontier));
        let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(!store.contains(frontier), "open mutates nothing");
        assert_eq!(ar.scrub(), 1, "scrub heals the backend afterwards");
        ar.put("g", &payload(70, 6)).unwrap();
        assert_eq!(ar.get("g").unwrap(), payload(70, 6));
    }

    #[test]
    fn scrub_heals_the_metadata_journal_too() {
        let store = Arc::new(MemStore::new());
        let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
        ar.put("a", &payload(500, 3)).unwrap();
        ar.put("b", &payload(500, 4)).unwrap();
        // The backend loses a journal record AND a data block.
        assert!(store.remove(meta_id(1)));
        assert!(store.remove(data_id(3)));
        assert_eq!(ar.scrub(), 2, "one data repair + one journal re-store");
        assert!(store.contains(meta_id(1)), "journal is self-healing");
        assert_eq!(ar.scrub(), 0, "idempotent");
        // The healed journal replays: a crash right now is survivable.
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.get("a").unwrap(), payload(500, 3));
        assert_eq!(ar.get("b").unwrap(), payload(500, 4));
    }

    #[test]
    fn open_failure_modes_are_typed() {
        // No metadata at all.
        assert!(matches!(
            Archive::open(ae_scheme(), Arc::new(MemStore::new())),
            Err(RecoveryError::NoArchive)
        ));

        // Wrong scheme.
        let store = Arc::new(MemStore::new());
        drop(Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store)));
        let rs: Arc<dyn RedundancyScheme> = Arc::new(ae_baselines::ReedSolomon::new(4, 2).unwrap());
        assert!(matches!(
            Archive::open(rs, Arc::clone(&store)),
            Err(RecoveryError::SchemeMismatch { archived, given })
                if archived == "AE(3,2,5)" && given == "RS(4,2)"
        ));

        // One scribbled genesis copy is survivable: a surviving copy wins
        // and the damage is reported, not fatal.
        store.put(meta_id(0), Block::from_vec(vec![0xAB; 40]));
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(
            ar.meta_damage().iter().any(|d| d.seq == 0 && !d.pointer),
            "degraded genesis read is reported: {:?}",
            ar.meta_damage()
        );
        drop(ar);

        // Every genesis copy scribbled: typed corruption.
        for copy in 0..MetaId::MAX_COPIES {
            store.put(meta_copy_id(0, copy), Block::from_vec(vec![0xAB; 40]));
        }
        assert!(matches!(
            Archive::open(ae_scheme(), Arc::clone(&store)),
            Err(RecoveryError::CorruptRecord { seq: 0, .. })
        ));
    }

    #[test]
    fn torn_final_record_is_truncated_and_reported() {
        let store = Arc::new(MemStore::new());
        let torn_seq = {
            let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
            ar.put("kept", &payload(500, 3)).unwrap();
            ar.put("torn", &payload(500, 4)).unwrap();
            ar.meta_len() - 1
        };
        // Tear EVERY copy of the final journal record: keep a prefix of
        // its bytes — the crash happened before any copy was complete.
        let full = store.get(meta_id(torn_seq)).unwrap();
        for copy in 0..MetaConfig::default().copies {
            store.put(
                meta_copy_id(torn_seq, copy),
                Block::copy_from_slice(&full.as_slice()[..10]),
            );
        }

        let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.torn_tail(), Some(torn_seq), "truncation is reported");
        assert_eq!(ar.names().collect::<Vec<_>>(), vec!["kept"]);
        assert_eq!(ar.get("kept").unwrap(), payload(500, 3));
        assert!(
            matches!(ar.get("torn"), Err(ArchiveError::UnknownFile(_)),),
            "the un-acknowledged put is gone, not stale"
        );
        // The archive resumes: the journal overwrites the torn record.
        ar.put("after", &payload(100, 5)).unwrap();
        assert_eq!(ar.get("after").unwrap(), payload(100, 5));
        assert!(ar.verify_all().is_empty());
    }

    #[test]
    fn mid_journal_damage_is_fatal_not_silent() {
        let store = Arc::new(MemStore::new());
        {
            let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
            ar.put("a", &payload(200, 3)).unwrap();
            ar.put("b", &payload(200, 4)).unwrap();
            ar.put("c", &payload(200, 5)).unwrap();
            ar.put("d", &payload(200, 6)).unwrap();
        }
        let copies = MetaConfig::default().copies;
        // Losing ONE copy of the first put record is survivable: the read
        // falls through to a surviving copy and reports the damage.
        store.remove(meta_id(1));
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.names().count(), 4, "copy fall-through keeps the data");
        assert!(ar.meta_damage().iter().any(|d| d.seq == 1 && !d.pointer));
        drop(ar);
        // Damage EVERY copy of the FIRST put record (later records
        // follow): replay must refuse rather than silently rewind past it.
        for copy in 0..copies {
            store.remove(meta_copy_id(1, copy));
        }
        assert!(matches!(
            Archive::open(ae_scheme(), Arc::clone(&store)),
            Err(RecoveryError::CorruptRecord { seq: 1, .. })
        ));
        // A *gap* of consecutive lost records with survivors beyond is
        // still mid-journal damage, not an end-of-journal.
        for seq in [2u64, 3] {
            for copy in 0..copies {
                store.remove(meta_copy_id(seq, copy));
            }
        }
        assert!(matches!(
            Archive::open(ae_scheme(), Arc::clone(&store)),
            Err(RecoveryError::CorruptRecord { seq: 1, .. })
        ));
    }

    #[test]
    fn open_rejects_a_scheme_with_the_wrong_block_size() {
        let store = Arc::new(MemStore::new());
        {
            let mut ar = Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store));
            ar.put("f", &payload(500, 3)).unwrap();
        }
        // Same AE parameters (same scheme name!) but 32-byte blocks: the
        // frontier snapshot pins the block size, so open fails typed
        // instead of serving an archive that breaks on the next put.
        let wrong: Arc<dyn RedundancyScheme> =
            Arc::new(Code::new(Config::new(3, 2, 5).unwrap(), 32));
        match Archive::open(wrong, Arc::clone(&store)) {
            Err(RecoveryError::Frontier(AeError::CorruptFrontier { detail })) => {
                assert!(detail.contains("64"), "{detail}");
            }
            Err(other) => panic!("expected CorruptFrontier, got {other}"),
            Ok(_) => panic!("wrong block size must not open"),
        }
    }

    #[test]
    #[should_panic(expected = "Archive::open")]
    fn fresh_constructor_refuses_an_occupied_backend() {
        let store = Arc::new(MemStore::new());
        drop(Archive::with_scheme(ae_scheme(), 64, Arc::clone(&store)));
        // Shadowing an existing archive must panic, pointing at open().
        let _ = Archive::with_scheme(ae_scheme(), 64, store);
    }

    fn meta_cfg(copies: u16, every: Option<u64>) -> MetaConfig {
        MetaConfig {
            copies,
            checkpoint_every: every,
            ..MetaConfig::default()
        }
    }

    #[test]
    fn checkpoint_bounds_the_live_journal_and_gcs_the_prefix() {
        let store = Arc::new(MemStore::new());
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(4)));
        for i in 0..12u8 {
            ar.put(&format!("f{i}"), &payload(150, i)).unwrap();
        }
        let cseq = ar.checkpoint_seq().expect("cadence of 4 must have fired");
        assert!(
            ar.live_meta_records() < ar.meta_len(),
            "GC shrank the live journal ({} live, {} ever)",
            ar.live_meta_records(),
            ar.meta_len()
        );
        // The GC'd prefix is really gone from the backend, every copy.
        for copy in 0..3 {
            assert!(!store.contains(meta_copy_id(1, copy)), "copy {copy}");
        }
        // ... and everything the checkpoint superseded replays correctly.
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.checkpoint_seq(), Some(cseq), "pointer names the commit");
        assert!(ar.meta_damage().is_empty());
        for i in 0..12u8 {
            assert_eq!(ar.get(&format!("f{i}")).unwrap(), payload(150, i));
        }
    }

    #[test]
    fn reopen_replays_the_suffix_not_the_history() {
        let store = Arc::new(MemStore::new());
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(8)));
        for i in 0..40u8 {
            ar.put(&format!("f{i}"), &payload(100, i)).unwrap();
        }
        let history = ar.meta_len();
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(
            ar.replayed_records() <= 8 + 2,
            "open replayed {} records of a {history}-record history",
            ar.replayed_records()
        );
        assert_eq!(ar.names().count(), 40);
    }

    #[test]
    fn seal_checkpoints_and_further_checkpoints_are_stable() {
        let store = Arc::new(MemStore::new());
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(2, Some(100)));
        ar.put("f", &payload(300, 7)).unwrap();
        assert_eq!(ar.checkpoint_seq(), None, "threshold not reached");
        ar.seal().unwrap();
        let sealed_ckpt = ar.checkpoint_seq().expect("seal checkpoints");
        drop(ar);
        let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(ar.is_sealed());
        assert_eq!(ar.checkpoint_seq(), Some(sealed_ckpt));
        assert_eq!(ar.get("f").unwrap(), payload(300, 7));
        // An explicit re-checkpoint ping-pongs the pointer slot and stays
        // reopenable (the previous checkpoint is GC'd as ordinary prefix).
        let next = ar.checkpoint();
        assert!(next > sealed_ckpt);
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.checkpoint_seq(), Some(next));
        assert_eq!(ar.get("f").unwrap(), payload(300, 7));
    }

    #[test]
    fn multi_part_checkpoints_roundtrip() {
        let store = Arc::new(MemStore::new());
        let cfg = MetaConfig {
            copies: 2,
            checkpoint_every: Some(6),
            segment_bytes: 64, // force several parts per checkpoint
        };
        let mut ar = Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), cfg);
        for i in 0..14u8 {
            ar.put(&format!("part{i}"), &payload(200, i)).unwrap();
        }
        assert!(ar.checkpoint_seq().is_some());
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(ar.meta_damage().is_empty());
        for i in 0..14u8 {
            assert_eq!(ar.get(&format!("part{i}")).unwrap(), payload(200, i));
        }
    }

    #[test]
    fn single_copy_loss_of_any_live_meta_id_is_survivable_and_healable() {
        let store = Arc::new(MemStore::new());
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, Some(3)));
        for i in 0..8u8 {
            ar.put(&format!("f{i}"), &payload(120, i)).unwrap();
        }
        let live = ar.live_meta_ids();
        drop(ar);
        // Lose one copy (the first) of EVERY live record and pointer cell
        // at once: n-way redundancy keeps every record readable.
        for &id in &live {
            if let BlockId::Meta(m) = id {
                if m.copy() == 0 {
                    assert!(store.remove(id), "{id:?} should have been live");
                }
            }
        }
        let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(
            !ar.meta_damage().is_empty(),
            "degraded reads must be reported"
        );
        for i in 0..8u8 {
            assert_eq!(ar.get(&format!("f{i}")).unwrap(), payload(120, i));
        }
        // Scrub heals every lost copy; the next open is clean.
        assert!(ar.scrub() > 0);
        for &id in &live {
            assert!(store.contains(id), "{id:?} healed");
        }
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(ar.meta_damage().is_empty(), "healed archive opens clean");
    }

    #[test]
    fn scrub_rewrites_garbled_meta_copies() {
        let store = Arc::new(MemStore::new());
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, None));
        ar.put("f", &payload(400, 9)).unwrap();
        // Garble (not delete) the middle copy of the put record: scrub
        // byte-compares against the canonical journal and rewrites it.
        let victim = meta_copy_id(1, 1);
        store.put(victim, Block::from_vec(vec![0x5A; 24]));
        assert_eq!(ar.scrub(), 1, "exactly the garbled copy is rewritten");
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(ar.meta_damage().is_empty());
        assert_eq!(ar.get("f").unwrap(), payload(400, 9));
    }

    #[test]
    fn copy_width_is_pinned_by_genesis_not_by_the_reopener() {
        let store = Arc::new(MemStore::new());
        drop(Archive::with_scheme_meta(
            ae_scheme(),
            64,
            Arc::clone(&store),
            meta_cfg(2, None),
        ));
        // The reopener asks for 3 copies; the stored journal has 2 and
        // that is what governs reads and future writes.
        let ar = Archive::open_with_meta(ae_scheme(), Arc::clone(&store), meta_cfg(3, Some(10)))
            .unwrap();
        assert_eq!(ar.meta_config().copies, 2, "width adopted from genesis");
        assert_eq!(
            ar.meta_config().checkpoint_every,
            Some(10),
            "cadence is the reopener's policy"
        );
        assert!(!store.contains(meta_copy_id(0, 2)), "no third copy exists");
    }

    #[test]
    fn an_uncommitted_torn_pointer_write_is_survivable_and_scrubbed() {
        let store = Arc::new(MemStore::new());
        {
            let mut ar =
                Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(3, None));
            ar.put("f", &payload(250, 4)).unwrap();
        }
        // A crash tore the very first pointer-cell write: garbage bytes,
        // zero valid copies, but nothing was ever GC'd — full replay is
        // still the whole truth and open must take it.
        store.put(pointer_id(0, 0), Block::from_vec(vec![0xCC; 9]));
        let mut ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.get("f").unwrap(), payload(250, 4));
        assert!(
            ar.meta_damage().iter().any(|d| d.pointer),
            "the poisoned cell is reported: {:?}",
            ar.meta_damage()
        );
        // Scrub clears the uncommitted garbage; the next open is clean.
        ar.scrub();
        assert!(!store.contains(pointer_id(0, 0)), "garbage cell removed");
        drop(ar);
        let ar = Archive::open(ae_scheme(), Arc::clone(&store)).unwrap();
        assert!(ar.meta_damage().is_empty());
    }

    #[test]
    fn losing_every_pointer_copy_with_bytes_present_is_typed() {
        let store = Arc::new(MemStore::new());
        let mut ar =
            Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), meta_cfg(2, Some(2)));
        for i in 0..5u8 {
            ar.put(&format!("f{i}"), &payload(90, i)).unwrap();
        }
        assert!(ar.checkpoint_seq().is_some());
        drop(ar);
        // Scribble every copy of every pointer cell: the cell exists but
        // no copy validates. Replaying from scratch could silently rewind
        // past the GC'd prefix, so open must refuse, typed.
        for slot in 0..2u64 {
            for copy in 0..2 {
                if store.contains(pointer_id(slot, copy)) {
                    store.put(pointer_id(slot, copy), Block::from_vec(vec![0xEE; 16]));
                }
            }
        }
        assert!(matches!(
            Archive::open(ae_scheme(), Arc::clone(&store)),
            Err(RecoveryError::CorruptRecord { .. })
        ));
    }
    // --- position-first journal -----------------------------------------

    use crate::meta::v2;
    use ae_api::SnapshotWriter;
    use ae_baselines::{ReedSolomon, Replication};

    fn repl3() -> Arc<dyn RedundancyScheme> {
        Arc::new(Replication::new(3))
    }

    /// Every `Meta` block `store` holds.
    fn meta_blocks(store: &MemStore) -> Vec<(BlockId, Block)> {
        let ids = store.ids().into_iter().filter(|id| id.is_meta());
        ids.map(|id| (id, store.get(id).unwrap())).collect()
    }

    fn copy_of(store: &MemStore) -> Arc<MemStore> {
        let copy = MemStore::new();
        for id in store.ids() {
            copy.put(id, store.get(id).unwrap());
        }
        Arc::new(copy)
    }

    /// A backend holding genesis, a one-part committed checkpoint of
    /// `payload` at seq 1 and the `suffix` records after it — written by
    /// hand, so the counters can claim what no test could afford to store.
    fn crafted(
        scheme: &dyn RedundancyScheme,
        payload: &CheckpointPayload,
        suffix: &[MetaRecord],
    ) -> Arc<MemStore> {
        let store = MemStore::new();
        let genesis = MetaRecord::Genesis {
            scheme: scheme.scheme_name(),
            block_size: 64,
            copies: 3,
        };
        let pointer = MetaRecord::Pointer {
            checkpoint: 1,
            parts: 1,
        };
        let mut records = vec![
            genesis.encode(0),
            encode_checkpoint_part(1, 0, 1, &payload.encode()),
        ];
        records.extend((2u64..).zip(suffix).map(|(seq, r)| r.encode(seq)));
        for copy in 0..3 {
            for (seq, bytes) in (0u64..).zip(&records) {
                store.put(meta_copy_id(seq, copy), Block::from_vec(bytes.clone()));
            }
            store.put(pointer_id(0, copy), Block::from_vec(pointer.encode(0)));
        }
        Arc::new(store)
    }

    /// A 3-way-replication checkpoint claiming `data` data blocks and
    /// `stored` stored ones, its encoder frontier in step.
    fn claimed(data: u64, stored: u32) -> CheckpointPayload {
        CheckpointPayload {
            manifest: Vec::new(),
            data,
            stored: StoredIds::Count(stored),
            sealed: false,
            frontier: SnapshotWriter::new(1).u64(data).finish(),
        }
    }

    #[test]
    fn the_position_ceiling_is_a_typed_refusal() {
        // 3-way replication stores 3 blocks per data block, and
        // u32::MAX = 3 × 1 431 655 765: that many data blocks fill the
        // position space exactly.
        let full = u64::from(u32::MAX) / 3;
        let store = crafted(&*repl3(), &claimed(full, u32::MAX - 2), &[]);
        let mut ar = Archive::open(repl3(), Arc::clone(&store)).unwrap();
        assert_eq!(ar.blocks_written(), full);
        let held = store.len();
        assert_eq!(
            ar.put("one-more", b"x"),
            Err(ArchiveError::TooLarge {
                blocks: 3 * (full + 1)
            })
        );
        assert_eq!(store.len(), held, "nothing encoded, nothing journaled");
        assert_eq!(ar.scheme().data_written(), full, "the encoder never ran");
        assert_eq!(ar.file_count(), 0);
        assert_eq!(ar.seal(), Ok(Vec::new()), "the flush still fits");

        // One data block further the universe itself is past the ceiling
        // (the stored count, buffered redundancy pending, is not): even
        // the flush is refused.
        let store = crafted(&*repl3(), &claimed(full + 1, u32::MAX - 2), &[]);
        let mut ar = Archive::open(repl3(), Arc::clone(&store)).unwrap();
        let refused = ArchiveError::TooLarge {
            blocks: 3 * (full + 1),
        };
        assert_eq!(ar.seal(), Err(refused.clone()));
        assert!(!ar.is_sealed());
        assert!(refused.to_string().contains("4294967298"), "{refused}");
    }

    #[test]
    fn counters_beyond_the_universe_are_corrupt_records() {
        let open = |payload: &CheckpointPayload, suffix: &[MetaRecord]| {
            Archive::open(repl3(), crafted(&*repl3(), payload, suffix)).map(|_| ())
        };
        let corrupt_at = |result: Result<(), RecoveryError>, at: u64, what: &str| match result {
            Err(RecoveryError::CorruptRecord { seq, detail }) => {
                assert_eq!(seq, at, "{detail}");
                assert!(detail.contains(what), "{detail}");
            }
            other => panic!("expected a corrupt record at {at}, got {other:?}"),
        };
        assert_eq!(open(&claimed(10, 30), &[]), Ok(()));
        // More stored blocks than 10 data blocks can have.
        corrupt_at(open(&claimed(10, 31), &[]), 1, "exceed the universe");
        // More data blocks than stored blocks.
        corrupt_at(open(&claimed(10, 9), &[]), 1, "cannot take");
        // A put record whose count runs past the position space.
        let full = u64::from(u32::MAX) / 3;
        let put = |count| MetaRecord::Put {
            name: "f".into(),
            byte_len: 1,
            crc: 0,
            first_block: full - 1,
            block_count: 1,
            ids: StoredIds::Count(count),
            frontier: SnapshotWriter::new(1).u64(full).finish(),
        };
        let nearly = claimed(full - 1, u32::MAX - 3);
        assert_eq!(open(&nearly, &[put(3)]), Ok(()));
        corrupt_at(open(&nearly, &[put(4)]), 2, "exceed the universe");
        // A put record that stores fewer blocks than it adds data blocks.
        corrupt_at(open(&nearly, &[put(0)]), 2, "cannot take");
        // Manifest rows outside the data counter, or longer than their
        // extent: `get` would index and allocate by them.
        let with_row = |row| CheckpointPayload {
            manifest: vec![row],
            ..claimed(10, 30)
        };
        assert_eq!(open(&with_row(("f".into(), 640, 0, 0, 10)), &[]), Ok(()));
        corrupt_at(open(&with_row(("f".into(), 1, 0, 0, 11)), &[]), 1, "extent");
        corrupt_at(
            open(&with_row(("f".into(), 1, 0, u64::MAX, 2)), &[]),
            1,
            "extent",
        );
        corrupt_at(
            open(&with_row(("f".into(), 641, 0, 0, 10)), &[]),
            1,
            "claims",
        );
        corrupt_at(
            open(&with_row(("f".into(), u64::MAX, 0, 0, 10)), &[]),
            1,
            "claims",
        );
        // Counters the restored encoder does not agree with.
        let skewed = CheckpointPayload {
            frontier: SnapshotWriter::new(1).u64(9).finish(),
            ..claimed(10, 30)
        };
        corrupt_at(open(&skewed, &[]), 1, "encoder frontier");
    }

    /// `ar`'s journal and blocks as the build before position-first
    /// journals would have left them: format-2 records with their ids
    /// listed and — when asked — a committed multi-part version-1
    /// checkpoint after record `checkpoint_after`, its prefix collected.
    /// `ar` must never have checkpointed (its journal is then one record
    /// per mutation, in order).
    fn as_version_2(ar: &Archive<MemStore>, checkpoint_after: Option<u64>) -> Arc<MemStore> {
        assert_eq!(ar.checkpoint_seq(), None);
        let out = MemStore::new();
        for id in ar.store.ids().into_iter().filter(|id| !id.is_meta()) {
            out.put(id, ar.store.get(id).unwrap());
        }
        let write = |seq: u64, bytes: Vec<u8>| {
            for copy in 0..3 {
                out.put(meta_copy_id(seq, copy), Block::from_vec(bytes.clone()));
            }
        };
        let all = ar.stored_ids();
        let mut folded = CheckpointPayload {
            manifest: Vec::new(),
            data: 0,
            stored: StoredIds::Listed(Vec::new()),
            sealed: false,
            frontier: Vec::new(),
        };
        let mut at = 0;
        let mut seq = 0;
        for (&live_seq, block) in &ar.journal {
            let mut record = MetaRecord::decode(live_seq, block.as_slice()).unwrap();
            let mut list = |ids: &mut StoredIds| {
                let StoredIds::Count(count) = *ids else {
                    panic!("a roster scheme journals counts");
                };
                let listed = all[at..at + count as usize].to_vec();
                at += count as usize;
                *ids = StoredIds::Listed(listed);
            };
            match &mut record {
                MetaRecord::Put {
                    name,
                    byte_len,
                    crc,
                    first_block,
                    block_count,
                    ids,
                    frontier,
                } => {
                    list(ids);
                    let row = (name.clone(), *byte_len, *crc, *first_block, *block_count);
                    folded.manifest.push(row);
                    folded.frontier = frontier.clone();
                }
                MetaRecord::Seal { ids, frontier } => {
                    list(ids);
                    folded.sealed = true;
                    folded.frontier = frontier.clone();
                }
                _ => {}
            }
            write(seq, v2::encode_record(&record, seq));
            seq += 1;
            if checkpoint_after == Some(live_seq) {
                folded.manifest.sort();
                folded.stored = StoredIds::Listed(all[..at].to_vec());
                let payload = v2::encode_payload(&folded);
                let (cseq, parts) = (seq, payload.len().div_ceil(100) as u32);
                for (part, chunk) in (0u32..).zip(payload.chunks(100)) {
                    let record = MetaRecord::Checkpoint {
                        part,
                        parts,
                        chunk: chunk.to_vec(),
                    };
                    write(seq, v2::encode_record(&record, seq));
                    seq += 1;
                }
                let pointer = MetaRecord::Pointer {
                    checkpoint: cseq,
                    parts,
                };
                for copy in 0..3 {
                    let cell = Block::from_vec(v2::encode_record(&pointer, 0));
                    out.put(pointer_id(0, copy), cell);
                    for dead in 1..cseq {
                        out.remove(meta_copy_id(dead, copy));
                    }
                }
            }
        }
        Arc::new(out)
    }

    #[test]
    fn version_2_journals_open_unchanged_and_checkpoint_into_version_3() {
        type Build = fn() -> Arc<dyn RedundancyScheme>;
        let roster: [Build; 3] = [
            ae_scheme,
            || Arc::new(ReedSolomon::new(10, 4).unwrap()),
            repl3,
        ];
        let file = |i: u8| (format!("f{i}"), payload(40 + 97 * i as usize, i));
        let version =
            |block: &Block| u16::from_le_bytes([block.as_slice()[4], block.as_slice()[5]]);
        for build in roster {
            for checkpoint_after in [None, Some(4)] {
                // What this build journals for seven files (the last RS
                // stripe left buffered), and the same history as the
                // previous build stored it.
                let no_checkpoints = meta_cfg(3, None);
                let mut reference = Archive::with_scheme_meta(
                    build(),
                    64,
                    Arc::new(MemStore::new()),
                    no_checkpoints,
                );
                for i in 0..7 {
                    let (name, contents) = file(i);
                    reference.put(&name, &contents).unwrap();
                }
                let name = reference.scheme().scheme_name();
                let ctx = format!("{name}, checkpoint after {checkpoint_after:?}");
                let store = as_version_2(&reference, checkpoint_after);
                assert!(
                    meta_blocks(&store).iter().all(|(_, b)| version(b) == 2),
                    "{ctx}"
                );

                let scheme = build();
                let mut ar = Archive::open(Arc::clone(&scheme), Arc::clone(&store)).expect(&ctx);
                assert!(ar.manifest().eq(reference.manifest()), "{ctx}");
                assert_eq!(ar.stored_ids(), reference.stored_ids(), "{ctx}");
                assert_eq!(
                    scheme.frontier_snapshot(),
                    reference.scheme().frontier_snapshot(),
                    "{ctx}"
                );
                assert_eq!(ar.checkpoint_seq().is_some(), checkpoint_after.is_some());
                assert!(
                    ar.meta_damage().is_empty() && ar.torn_tail().is_none(),
                    "{ctx}"
                );
                assert!(
                    matches!(ar.ids, IdLog::Positions(_)),
                    "{ctx}: listed ids that agree with block_at replay by position"
                );
                for i in 0..7 {
                    let (name, contents) = file(i);
                    assert_eq!(ar.get(&name).unwrap(), contents, "{ctx}");
                }

                // It resumes block for block, and its next checkpoint
                // supersedes every version-2 record: what is left is
                // genesis (the one record GC keeps; same layout in both
                // formats) and a pure version-3 journal of counts.
                let (late, contents) = file(7);
                assert_eq!(
                    ar.put(&late, &contents).unwrap(),
                    reference.put(&late, &contents).unwrap()
                );
                let cseq = ar.checkpoint();
                for (id, block) in meta_blocks(&store) {
                    let BlockId::Meta(meta) = id else {
                        unreachable!()
                    };
                    // (The ping-pong slot this checkpoint did not write
                    // still holds the superseded pointer.)
                    let superseded = meta.is_pointer()
                        && MetaRecord::decode(meta.seq(), block.as_slice())
                            != Ok(MetaRecord::Pointer {
                                checkpoint: cseq,
                                parts: 1,
                            });
                    let genesis = !meta.is_pointer() && meta.seq() == 0;
                    if !genesis && !superseded {
                        assert_eq!(version(&block), FORMAT_VERSION, "{ctx}: {id}");
                    }
                }
                let part0 = store.get(meta_copy_id(cseq, 0)).unwrap();
                let Ok(MetaRecord::Checkpoint {
                    parts: 1, chunk, ..
                }) = MetaRecord::decode(cseq, part0.as_slice())
                else {
                    panic!("{ctx}: one-part checkpoint expected");
                };
                let folded = CheckpointPayload::decode(&chunk).unwrap();
                assert_eq!(
                    folded.stored,
                    StoredIds::Count(reference.stored_ids().len() as u32)
                );
                assert_eq!(folded.data, reference.blocks_written());
                drop(ar);
                let mut ar = Archive::open(build(), Arc::clone(&store)).expect(&ctx);
                assert_eq!(ar.replayed_records(), 0, "{ctx}");
                assert_eq!(ar.stored_ids(), reference.stored_ids(), "{ctx}");
                assert_eq!(ar.seal().unwrap(), reference.seal().unwrap(), "{ctx}");
                for &id in reference.stored_ids() {
                    assert_eq!(store.get(id), reference.store.get(id), "{ctx}: {id}");
                }
            }
        }
    }

    /// Hostile bytes at the archive level: every byte of every live record
    /// of a real journal (multi-part checkpoint, pointer, suffix), set to
    /// four other values with the checksum re-sealed so the mutation gets
    /// past the CRC and into replay. `open` must answer `Ok` or a typed
    /// error — and whatever opens must serve reads without panicking.
    #[test]
    fn one_mutated_byte_in_a_real_journal_never_panics_open() {
        let store = Arc::new(MemStore::new());
        let cfg = MetaConfig {
            copies: 3,
            checkpoint_every: Some(3),
            segment_bytes: 60,
        };
        let mut ar = Archive::with_scheme_meta(ae_scheme(), 64, Arc::clone(&store), cfg);
        for i in 0..5u8 {
            ar.put(&format!("f{i}"), &payload(70 * i as usize, i))
                .unwrap();
        }
        assert!(ar.checkpoint_seq().is_some() && ar.live_meta_records() > 4);
        drop(ar);
        let mut records: Vec<(MetaId, Block)> = meta_blocks(&store)
            .into_iter()
            .filter_map(|(id, block)| match id {
                BlockId::Meta(meta) if meta.copy() == 0 => Some((meta, block)),
                _ => None,
            })
            .collect();
        records.sort_by_key(|(meta, _)| *meta);
        let (mut opened, mut refused) = (0, 0);
        for (meta, block) in records {
            let body = block.len() - 4;
            for at in 0..body {
                for flip in [0x01, 0x80, 0xFF, block.as_slice()[at]] {
                    // (the last one zeroes the byte)
                    let mut bytes = block.as_slice().to_vec();
                    bytes[at] ^= flip;
                    if bytes[at] == block.as_slice()[at] {
                        continue;
                    }
                    let crc = crc32(&bytes[..body]);
                    bytes[body..].copy_from_slice(&crc.to_le_bytes());
                    let hostile = copy_of(&store);
                    for copy in 0..3 {
                        let id = if meta.is_pointer() {
                            pointer_id(meta.seq(), copy)
                        } else {
                            meta_copy_id(meta.seq(), copy)
                        };
                        hostile.put(id, Block::from_vec(bytes.clone()));
                    }
                    match Archive::open(ae_scheme(), hostile) {
                        Ok(ar) => {
                            opened += 1;
                            for name in ar.names() {
                                let _ = ar.get(name);
                            }
                            assert!(ar.stored_ids().len() <= 4 * ar.blocks_written() as usize);
                        }
                        Err(err) => {
                            refused += 1;
                            assert!(!err.to_string().is_empty());
                        }
                    }
                }
            }
        }
        assert!(
            opened > 0 && refused > opened,
            "{opened} opened, {refused} refused"
        );
    }

    /// What is prefetched costs nothing to ask again — an absence no less
    /// than a block — and a closed view never reaches the backend at all.
    #[test]
    fn prefetched_answers_cost_no_round_trips_negative_ones_included() {
        use ae_aio::{Clock, LatencyStore, LinkSpec, Runtime};
        let link = LinkSpec::rtt(std::time::Duration::from_millis(1));
        let inner = Arc::new(MemStore::new());
        inner.put(data_id(1), Block::from_vec(vec![9]));
        inner.put(data_id(3), Block::from_vec(vec![7]));
        let net = LatencyStore::uniform(inner, Runtime::new(Clock::virtual_time()), link, 1);
        let net = net.into_sync();
        let now = || net.runtime().now();
        let mut known = Prefetched::new(&net, false);
        known.fill([data_id(1)]);
        // A network away, what a sweep read stays too.
        known.sweep([data_id(2)].into_iter(), |_, read| assert!(read.is_err()));
        let filled = now();
        assert!(filled > 0, "the batches themselves crossed the link");
        assert_eq!(known.fetch(data_id(1)).unwrap().as_slice(), &[9]);
        assert_eq!(
            known.read(data_id(2)),
            Err(StoreError::NotFound(data_id(2)))
        );
        assert!(known.has(data_id(1)) && !known.has(data_id(2)));
        known.fill([data_id(2), data_id(1)]);
        assert_eq!(
            now(),
            filled,
            "answers — the absent one too — are not re-asked"
        );
        // Anything else reads through, one round trip a call…
        assert_eq!(known.fetch(data_id(3)).unwrap().as_slice(), &[7]);
        assert!(now() > filled);
        // …until the view is closed: what it does not hold is absent.
        known.closed = true;
        let closed = now();
        assert!(known.fetch(data_id(3)).is_none());
        assert_eq!(now(), closed);
    }
}
