//! Systematic Reed-Solomon codes over GF(2^8).
//!
//! RS(k, m) encodes `k` data shards into `k + m` total shards such that any
//! `k` suffice to reconstruct everything (maximum distance separable). The
//! generator is `[I_k; C]` with `C` an m×k Cauchy matrix, whose every square
//! submatrix is invertible — the textbook construction used by storage
//! systems (Plank's tutorial, reference \[2\] of the paper; Backblaze's
//! open-source encoder, reference \[32\]).
//!
//! One formula encodes and repairs: member `j` of a stripe is
//! `Σ_c (G_j · S⁻¹)[c] · survivor_c`, over `k` survivors whose generator
//! rows are `S`. Encoding is the case `S = I` (the survivors are the data
//! blocks), so rebuilding one member costs `k` multiply-accumulates.
//!
//! The paper's cost model (§I, Table IV): repairing a single lost shard
//! requires reading `k` surviving shards and moving `k · B` bytes — this is
//! what AE codes beat with their fixed two-block repairs.

use ae_blocks::Block;
use ae_gf::{field, Gf256, Matrix};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on memoized decode matrices; when full the cache is reset.
///
/// The bound only matters under adversarial erasure-pattern churn: one
/// entry costs k·k bytes plus the key, and a (k, m) code has at most
/// C(k+m, k) distinct patterns. A reset (rather than LRU bookkeeping) keeps
/// the lock hold time constant.
pub const DEFAULT_DECODE_CACHE_MAX: usize = 128;

/// Errors from building a Reed-Solomon code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// k and m must be positive and k + m ≤ 256 (GF(2^8) field size).
    InvalidParameters {
        /// Requested data shards.
        k: usize,
        /// Requested parity shards.
        m: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RsError::InvalidParameters { k, m } = self;
        write!(
            f,
            "invalid RS parameters k={k}, m={m} (need k,m >= 1, k+m <= 256)"
        )
    }
}

impl std::error::Error for RsError {}

/// A systematic RS(k, m) erasure code, driven through its
/// [`RedundancyScheme`](ae_api::RedundancyScheme) implementation.
///
/// # Examples
///
/// ```
/// use ae_api::BlockMap;
/// use ae_baselines::{RedundancyScheme, ReedSolomon};
/// use ae_blocks::{Block, BlockId, NodeId, ShardId};
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// let store = BlockMap::new();
/// let data: Vec<Block> = (0..4).map(|i| Block::from_vec(vec![i as u8; 16])).collect();
/// rs.encode_batch(&data, &store).unwrap(); // one full stripe: 2 parity shards
///
/// // Lose any two members: each rebuilds from k = 4 survivors.
/// let lost = [
///     BlockId::Data(NodeId(2)),
///     BlockId::Shard(ShardId { stripe: 0, index: 1 }),
/// ];
/// for id in &lost {
///     store.remove(id);
/// }
/// assert_eq!(rs.repair_block(&store, lost[0], 4).unwrap(), data[1]);
/// assert!(rs.repair_missing(&store, &lost, 4).fully_recovered());
/// ```
#[derive(Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// Full generator `[I_k; C]`, (k+m) × k.
    generator: Matrix,
    /// Streaming-encoder state — the write counter and the buffered
    /// partial stripe — behind one lock, so an instance can be shared
    /// (`Arc<dyn RedundancyScheme>`) between writers and repair workers.
    pub(crate) enc: Mutex<RsEncoderState>,
    /// Inverted decode submatrices memoized per erasure pattern (keyed by
    /// the k surviving generator rows selected for the solve). Steady-state
    /// repair traffic repeats a handful of patterns — a single lost shard
    /// in particular always selects the same rows — so repairs after the
    /// first skip the O(k³) Gauss-Jordan inversion entirely.
    decode_cache: Mutex<HashMap<Vec<usize>, Arc<Matrix>>>,
    /// Lookups served from `decode_cache`.
    cache_hits: AtomicU64,
    /// Lookups that had to run the O(k³) inversion.
    cache_misses: AtomicU64,
}

/// The mutable half of a streaming [`ReedSolomon`] encoder.
#[derive(Debug, Clone, Default)]
pub(crate) struct RsEncoderState {
    /// Data blocks written through the scheme API.
    pub(crate) written: u64,
    /// Buffered data blocks of the current (incomplete) stripe.
    pub(crate) pending: Vec<Block>,
}

impl Clone for ReedSolomon {
    fn clone(&self) -> Self {
        ReedSolomon {
            k: self.k,
            m: self.m,
            generator: self.generator.clone(),
            enc: Mutex::new(self.enc.lock().clone()),
            decode_cache: Mutex::new(self.decode_cache.lock().clone()),
            cache_hits: AtomicU64::new(self.cache_hits.load(Ordering::Relaxed)),
            cache_misses: AtomicU64::new(self.cache_misses.load(Ordering::Relaxed)),
        }
    }
}

impl ReedSolomon {
    /// Builds an RS(k, m) code.
    ///
    /// # Errors
    ///
    /// Fails unless `k ≥ 1`, `m ≥ 1` and `k + m ≤ 256`.
    pub fn new(k: usize, m: usize) -> Result<Self, RsError> {
        if k == 0 || m == 0 || k + m > 256 {
            return Err(RsError::InvalidParameters { k, m });
        }
        let generator = Matrix::identity(k)
            .stack(&Matrix::cauchy(m, k))
            .expect("identity and Cauchy share k columns");
        Ok(ReedSolomon {
            k,
            m,
            generator,
            enc: Mutex::new(RsEncoderState::default()),
            decode_cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        })
    }

    /// Decode-cache effectiveness counters as `(hits, misses)`.
    ///
    /// Hits served the inverted decode matrix from the per-pattern memo;
    /// misses ran the O(k³) Gauss-Jordan inversion. Counters are
    /// monotonic over the instance's lifetime (clones inherit a snapshot).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The inverted k×k decode submatrix for the given surviving rows,
    /// memoized per erasure pattern.
    ///
    /// The inversion runs outside the lock: a concurrent miss on the same
    /// pattern duplicates the work once but never serializes repairs
    /// behind an O(k³) critical section.
    pub(crate) fn cached_decode_matrix(&self, rows: &[usize]) -> Arc<Matrix> {
        if let Some(inv) = self.decode_cache.lock().get(rows) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(inv);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let sub = self.generator.select_rows(rows);
        let inv = Arc::new(
            sub.inverse()
                .expect("every k x k generator submatrix is invertible"),
        );
        let mut cache = self.decode_cache.lock();
        if cache.len() >= DEFAULT_DECODE_CACHE_MAX {
            cache.clear();
        }
        cache.insert(rows.to_vec(), Arc::clone(&inv));
        inv
    }

    /// Memoized decode matrices currently cached (exposed for tests).
    #[cfg(test)]
    fn decode_cache_len(&self) -> usize {
        self.decode_cache.lock().len()
    }

    /// Data shards per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity shards per stripe.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Additional storage as a percentage of the original data:
    /// `m/k · 100` (Table IV).
    pub fn storage_overhead_pct(&self) -> f64 {
        self.m as f64 / self.k as f64 * 100.0
    }

    /// Members `rows` (generator rows) of a stripe of `len`-byte blocks,
    /// in one pass over the survivors: member `j` is
    /// `Σ_c (G_j · S⁻¹)[c] · survivor_c`, with `inv` the inverse of the
    /// survivors' generator rows `S` — `None` for `S = I`, the data blocks.
    /// A `None` survivor, and any past the end of `survivors`, is a virtual
    /// all-zero block: it adds nothing.
    pub(crate) fn members(
        &self,
        rows: &[usize],
        inv: Option<&Matrix>,
        survivors: &[Option<&Block>],
        len: usize,
    ) -> Vec<Block> {
        let srcs: Vec<&[u8]> = survivors.iter().flatten().map(|b| b.as_slice()).collect();
        let mut coeffs = Vec::with_capacity(rows.len() * srcs.len());
        for &j in rows {
            let g = self.generator.row(j);
            for (c, _) in survivors.iter().enumerate().filter(|(_, s)| s.is_some()) {
                coeffs.push(match inv {
                    // (A data row of G is a unit vector: one term.)
                    Some(inv) => g
                        .iter()
                        .enumerate()
                        .filter(|(_, gi)| !gi.is_zero())
                        .fold(Gf256::ZERO, |acc, (i, &gi)| acc + gi * inv[(i, c)]),
                    None => g[c],
                });
            }
        }
        Block::write_many(len, rows.len(), |outs| {
            field::mul_rows(&coeffs, &srcs, outs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_api::{BlockMap, RedundancyScheme, RepairError};
    use ae_blocks::{BlockId, NodeId};

    /// RS(k, m) over `n` 64-byte data blocks, encoded and sealed.
    fn sealed(k: usize, m: usize, n: usize) -> (ReedSolomon, BlockMap) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let store = BlockMap::new();
        let data: Vec<Block> = (0..n)
            .map(|i| {
                Block::from_vec(
                    (0..64)
                        .map(|b| ((i * 37 + b * 11 + 5) % 251) as u8)
                        .collect(),
                )
            })
            .collect();
        rs.encode_batch(&data, &store).unwrap();
        rs.seal(&store).unwrap();
        (rs, store)
    }

    /// Loses the members of stripe `t` at `erase` (stripe order: data,
    /// then parity), checks each `repair_block` against the original, then
    /// that `repair_missing` restores them all.
    fn roundtrip(rs: &ReedSolomon, store: &BlockMap, t: u64, erase: &[usize]) {
        let (n, name) = (rs.data_written(), rs.scheme_name());
        let members: Vec<BlockId> = rs.stripe_members(t).collect();
        let lost: Vec<BlockId> = erase.iter().map(|&e| members[e]).collect();
        let originals: Vec<Block> = lost.iter().map(|id| store.remove(id).unwrap()).collect();
        for (id, original) in lost.iter().zip(&originals) {
            let repaired = rs.repair_block(store, *id, n);
            assert_eq!(repaired.as_ref(), Ok(original), "{id} of {name}");
        }
        assert!(rs.repair_missing(store, &lost, n).fully_recovered());
        for (id, original) in lost.iter().zip(&originals) {
            assert_eq!(store.get(id).as_ref(), Some(original), "{id} of {name}");
        }
    }

    #[test]
    fn paper_settings_roundtrip() {
        // All four settings from Table IV, erasing a mix of data and
        // parity, in full stripes and in virtual-padded final ones.
        let (rs, store) = sealed(10, 4, 23);
        roundtrip(&rs, &store, 0, &[0, 3, 11, 13]);
        roundtrip(&rs, &store, 2, &[0, 2, 10, 13]); // 3 stored data blocks
        let (rs, store) = sealed(8, 2, 16);
        roundtrip(&rs, &store, 1, &[7, 9]);
        let (rs, store) = sealed(5, 5, 7);
        roundtrip(&rs, &store, 0, &[0, 1, 2, 3, 4]); // all data lost, parity survives
        roundtrip(&rs, &store, 1, &[0, 1, 5, 6, 9]);
        let (rs, store) = sealed(4, 12, 4);
        roundtrip(&rs, &store, 0, &[0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]); // m losses
    }

    #[test]
    fn tolerates_any_m_erasures_exhaustively_small() {
        // RS(3,2): every double erasure of the full stripe, and of the
        // stored members of the padded one (data 6 is virtual).
        let (rs, store) = sealed(3, 2, 5);
        for (t, stored) in [(0, vec![0, 1, 2, 3, 4]), (1, vec![0, 1, 3, 4])] {
            for (i, &a) in stored.iter().enumerate() {
                for &b in &stored[i + 1..] {
                    roundtrip(&rs, &store, t, &[a, b]);
                }
            }
        }
    }

    #[test]
    fn more_than_m_erasures_fail() {
        let (rs, store) = sealed(4, 2, 4);
        let lost: Vec<BlockId> = (1..=3).map(|i| BlockId::Data(NodeId(i))).collect();
        for id in &lost {
            store.remove(id);
        }
        // 3 of 6 members left, k = 4 needed: the error names the others.
        assert_eq!(
            rs.repair_block(&store, lost[0], 4),
            Err(RepairError::NoCompleteTuple {
                target: lost[0],
                missing: lost[1..].to_vec(),
            })
        );
        assert_eq!(rs.repair_missing(&store, &lost, 4).unrecovered, lost);
        assert_eq!(rs.decode_cache_stats(), (0, 0), "no solve was attempted");
    }

    #[test]
    fn members_disagreeing_on_length_are_typed() {
        // A torn member: typed, never a panic in the GF kernel.
        let (rs, store) = sealed(4, 2, 4);
        let (d1, d2) = (BlockId::Data(NodeId(1)), BlockId::Data(NodeId(2)));
        store.remove(&d1);
        let whole = store.get(&d2).unwrap();
        store.insert(d2, Block::from_vec(whole.as_slice()[..32].to_vec()));
        assert_eq!(
            rs.repair_block(&store, d1, 4),
            Err(RepairError::NoCompleteTuple {
                target: d1,
                missing: Vec::new(),
            })
        );
        assert_eq!(rs.repair_missing(&store, &[d1], 4).unrecovered, [d1]);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 57).is_err());
        assert!(ReedSolomon::new(200, 56).is_ok());
    }

    #[test]
    fn nothing_missing_is_a_noop() {
        let (rs, store) = sealed(2, 2, 3);
        let before = store.clone();
        let summary = rs.repair_missing(&store, &rs.block_ids(3), 3);
        assert!(summary.rounds.is_empty() && summary.fully_recovered());
        assert_eq!(summary.blocks_read, 0);
        assert_eq!(store, before);
        assert_eq!(rs.decode_cache_stats(), (0, 0));
    }

    #[test]
    fn costs_match_table_iv() {
        for (k, m, overhead) in [(10, 4, 40.0), (8, 2, 25.0), (5, 5, 100.0), (4, 12, 300.0)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            assert!(
                (rs.storage_overhead_pct() - overhead).abs() < 1e-9,
                "RS({k},{m})"
            );
            let reads = rs.repair_cost().single_failure_reads;
            assert_eq!(reads as usize, k, "SF cost of RS({k},{m})");
        }
    }

    #[test]
    fn decode_matrix_is_memoized_per_erasure_pattern() {
        let (rs, store) = sealed(4, 2, 4);
        assert_eq!(rs.decode_cache_len(), 0);

        // Same erasure pattern twice: one cache entry, correct repairs.
        for _ in 0..2 {
            roundtrip(&rs, &store, 0, &[1]);
            assert_eq!(rs.decode_cache_len(), 1);
        }

        // A different pattern adds a second entry and still repairs.
        roundtrip(&rs, &store, 0, &[0, 5]);
        assert_eq!(rs.decode_cache_len(), 2);

        // Every pattern of RS(5,5), 252 of them: the memo resets at its
        // cap rather than grow past it.
        let wide = ReedSolomon::new(5, 5).unwrap();
        for mask in 0u32..1 << 10 {
            if mask.count_ones() == 5 {
                let rows: Vec<usize> = (0..10).filter(|r| mask >> r & 1 == 1).collect();
                wide.cached_decode_matrix(&rows);
                assert!(wide.decode_cache_len() <= DEFAULT_DECODE_CACHE_MAX);
            }
        }
        assert_eq!(wide.decode_cache_stats(), (0, 252));
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let (rs, store) = sealed(4, 2, 4);
        let lose = |row: usize| {
            let id = rs.stripe_members(0).nth(row).unwrap();
            let original = store.remove(&id).unwrap();
            assert_eq!(rs.repair_block(&store, id, 4).as_ref(), Ok(&original));
            store.insert(id, original);
        };
        lose(1);
        lose(1);
        lose(1);
        lose(2);
        // Pattern {1} misses once then hits twice; pattern {2} misses once.
        assert_eq!(rs.decode_cache_stats(), (2, 2));
        // Clones inherit a snapshot and count independently from there.
        let twin = rs.clone();
        assert_eq!(twin.decode_cache_stats(), (2, 2));
        lose(2);
        assert_eq!(rs.decode_cache_stats(), (3, 2));
        assert_eq!(twin.decode_cache_stats(), (2, 2));
    }

    #[test]
    fn xor_parity_structure_for_m1() {
        // With one parity row of a Cauchy matrix, coefficients are nonzero.
        let rs = ReedSolomon::new(4, 1).unwrap();
        for c in 0..4 {
            assert!(!rs.generator[(4, c)].is_zero());
        }
    }
}
