//! A scrub over a plain backend is one pass: the sweep reads every
//! stored block once, and rebuilds each block it found lost from the
//! blocks it has just verified — a window of its last few runs — so a
//! repair costs the backend one `store` and nothing else: no `fetch`, no
//! `has`. What the window cannot serve (a tuple member lost too, or out
//! of its reach) is repaired in rounds over the backend after the sweep.
//!
//! The backend counts every call in a wrapper whose `read_many` is the
//! trait's default, so each id of a run is one `read`. Metadata calls
//! are the journal's heal and are left out.

use aecodes::api::{BlockSink, BlockSource, StoreError};
use aecodes::blocks::{Block, BlockId};
use aecodes::lattice::Config;
use aecodes::sim::Scheme;
use aecodes::store::archive::Archive;
use aecodes::store::{FaultyStore, MemStore};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const BLOCK: usize = 64;
const BLOCKS_PER_FILE: usize = 16;
const FILES: usize = 24;

fn ae() -> Scheme {
    Scheme::Ae(Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration"))
}

fn roster() -> [Scheme; 3] {
    [
        ae(),
        Scheme::Rs { k: 10, m: 4 },
        Scheme::Replication { n: 3 },
    ]
}

fn payload(file: usize) -> Vec<u8> {
    (0..BLOCK * BLOCKS_PER_FILE)
        .map(|i| (i * 13 + file * 29) as u8)
        .collect()
}

fn name(file: usize) -> String {
    format!("f{file:02}")
}

/// A backend wrapper that logs every call on a scheme block — op tag and
/// id, in arrival order.
struct Counting<S> {
    calls: Mutex<Vec<(u8, BlockId)>>,
    inner: S,
}

impl<S> Counting<S> {
    fn new(inner: S) -> Self {
        Counting {
            calls: Mutex::new(Vec::new()),
            inner,
        }
    }

    fn log(&self, op: u8, id: BlockId) {
        if !matches!(id, BlockId::Meta(_)) {
            self.calls.lock().unwrap().push((op, id));
        }
    }

    /// The calls since the last call of this.
    fn take(&self) -> Vec<(u8, BlockId)> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl<S: BlockSource> BlockSource for Counting<S> {
    fn fetch(&self, id: BlockId) -> Option<Block> {
        self.log(b'f', id);
        self.inner.fetch(id)
    }

    fn has(&self, id: BlockId) -> bool {
        self.log(b'h', id);
        self.inner.has(id)
    }

    fn read(&self, id: BlockId) -> Result<Block, StoreError> {
        self.log(b'r', id);
        self.inner.read(id)
    }
}

impl<S: BlockSink> BlockSink for Counting<S> {
    fn store(&self, id: BlockId, block: Block) {
        self.log(b's', id);
        self.inner.store(id, block)
    }

    fn remove(&self, id: BlockId) -> bool {
        self.log(b'x', id);
        self.inner.remove(id)
    }
}

type Backend = Counting<FaultyStore<MemStore>>;

/// A sealed archive of `FILES` files over a fresh counted backend that
/// can garble blocks.
fn filled(s: &Scheme) -> (Archive<Backend>, Arc<Backend>) {
    let store = Arc::new(Counting::new(FaultyStore::new(Arc::new(MemStore::new()))));
    let mut ar = Archive::with_scheme(Arc::from(s.build(BLOCK)), BLOCK, Arc::clone(&store));
    for f in 0..FILES {
        ar.put(&name(f), &payload(f)).expect("fresh name");
    }
    ar.seal().expect("seal");
    store.take();
    (ar, store)
}

/// The ids of calls tagged `op`, in order.
fn ids(calls: &[(u8, BlockId)], op: u8) -> Vec<BlockId> {
    let tagged = calls.iter().filter(|&&(tag, _)| tag == op);
    tagged.map(|&(_, id)| id).collect()
}

/// The files whose read fails.
fn unreadable(ar: &Archive<Backend>) -> Vec<usize> {
    let fails = |&f: &usize| ar.get(&name(f)).ok() != Some(payload(f));
    (0..FILES).filter(fails).collect()
}

#[test]
fn a_scrub_reads_each_block_once_and_stores_each_victim_once() {
    for s in roster() {
        let (mut ar, store) = filled(&s);
        let stored = ar.stored_ids().to_vec();
        let last = stored.len() - 1;
        assert!(last > 4 * 64, "{s}: the sweep must move a window past");
        // One victim per 20 positions, and both sides of a run boundary.
        let mut positions: BTreeSet<usize> = (10..stored.len()).step_by(20).collect();
        positions.extend([0, 63, 64, 127, last]);
        let victims: Vec<BlockId> = positions.iter().map(|&k| stored[k]).collect();
        for &v in &victims {
            assert!(store.inner.remove(v), "{s}: {v} was stored");
        }
        store.take();
        assert_eq!(ar.scrub(), victims.len() as u64, "{s}");
        let calls = store.take();
        assert_eq!(ids(&calls, b'r'), stored, "{s}: one read per block");
        assert_eq!(ids(&calls, b's'), victims, "{s}: one store per victim");
        assert_eq!(calls.len(), stored.len() + victims.len(), "{s}: no more");
        assert!(unreadable(&ar).is_empty(), "{s}");
        assert_eq!(ar.scrub(), 0, "{s}: idempotent");
    }
}

#[test]
fn a_lost_tuple_is_repaired_in_rounds_after_the_sweep() {
    // A data block and its three output parities, past the first lap of
    // the window (their slots hold older blocks): each parity has its
    // right tuple in the window, the data block none until they are back.
    let s = ae();
    let (mut ar, store) = filled(&s);
    let stored = ar.stored_ids().to_vec();
    let first = (600..stored.len())
        .find(|&k| stored[k].is_data())
        .expect("a data block past the first window");
    let victims = &stored[first..first + 4];
    for &v in victims {
        assert!(store.inner.remove(v), "{v} was stored");
    }
    assert_eq!(ar.scrub(), 4);
    let calls = store.take();
    let stores: BTreeSet<BlockId> = ids(&calls, b's').into_iter().collect();
    assert_eq!(stores, victims.iter().copied().collect(), "one store each");
    // The rounds plan on memory and fetch what they name, once each: the
    // data block's input parities, none of them in the window the sweep
    // ends with (its last four runs of 64).
    assert!(ids(&calls, b'h').is_empty(), "no probe of the backend");
    let fetched = ids(&calls, b'f');
    let once: BTreeSet<BlockId> = fetched.iter().copied().collect();
    assert!(!fetched.is_empty(), "the data block is rebuilt in rounds");
    assert_eq!(once.len(), fetched.len(), "each id fetched at most once");
    let held = &stored[stored.len() - 4 * 64..];
    assert!(fetched
        .iter()
        .all(|id| !held.contains(id) && !victims.contains(id)));
    assert!(unreadable(&ar).is_empty());
}

#[test]
fn a_tampered_block_is_removed_and_then_restored() {
    for s in roster() {
        let (mut ar, store) = filled(&s);
        let stored = ar.stored_ids().to_vec();
        let (tampered, lost) = (stored[100], stored[130]);
        store.inner.corrupt(tampered);
        assert!(store.inner.remove(lost));
        assert_eq!(ar.scrub(), 2, "{s}");
        let calls = store.take();
        let on = |id| -> Vec<u8> {
            let mine = calls.iter().filter(|&&(_, at)| at == id);
            mine.map(|&(op, _)| op).collect()
        };
        assert_eq!(on(tampered), b"rxs", "{s}: read, removed, re-stored");
        assert_eq!(on(lost), b"rs", "{s}");
        assert_eq!(calls.len(), stored.len() + 3, "{s}: nothing else");
        assert!(unreadable(&ar).is_empty(), "{s}");
    }
}

#[test]
fn an_unrepairable_tampered_block_stays_removed() {
    // Every copy of one data block gone, one of them garbled instead:
    // the garbled copy is quarantined and stays so; a victim elsewhere
    // is restored all the same.
    let s = Scheme::Replication { n: 3 };
    let (mut ar, store) = filled(&s);
    let stored = ar.stored_ids().to_vec();
    // (Position 3j is data block j, and 3j + 1, 3j + 2 its copies; past
    // the first lap of the window, their slots hold older blocks.)
    let (copies, other) = (&stored[390..393], stored[500]);
    assert_eq!(ar.data_ids().nth(130), Some(copies[0]));
    store.inner.corrupt(copies[0]);
    for &id in &copies[1..] {
        assert!(store.inner.remove(id));
    }
    assert!(store.inner.remove(other));
    assert_eq!(ar.scrub(), 1, "only the other victim is repairable");
    assert_eq!(ids(&store.take(), b'x'), [copies[0]], "quarantined once");
    for &id in copies {
        assert!(!store.inner.has(id), "{id} stays lost");
    }
    assert!(store.inner.has(other));
    // Data block 130 is file 8's third.
    assert_eq!(ar.entry(&name(8)).map(|e| e.first_block), Some(128));
    assert_eq!(unreadable(&ar), [8]);
}
