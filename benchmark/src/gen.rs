//! Seed-determined inputs: payload bytes and damage victims.
//!
//! Everything the program under test sees is generated here from the
//! `--seed` argument through [`ae_api::mix64`]; the program itself never
//! sees the seed.

use ae_api::mix64;
use ae_blocks::BlockId;

/// Stored scheme blocks per damage window: exactly one victim falls in
/// each run of this many consecutive write-order positions (5 % damage).
/// RS(10,4) stripes are 14 wide, so no stripe ever loses more than two
/// shards; AE(3,2,5) and 3-way replication repair far denser damage.
pub const DAMAGE_WINDOW: usize = 20;

/// Positions of a window fall into this many *lanes* (`offset % LANES`).
/// AE(3,2,5) writes a data block and its three parities at a stride of
/// four, so a lane is a block kind there: data, horizontal, right- or
/// left-handed parity.
pub const LANES: usize = 4;

/// `len` pseudo-random bytes for file `index` under `seed` (a SplitMix64
/// stream keyed by both, so files differ and cycles repeat).
pub fn payload(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut state = mix64(index, seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out.extend_from_slice(&mix64(state, seed).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One payload per file, `len` bytes each.
pub fn payloads(seed: u64, files: usize, len: usize) -> Vec<Vec<u8>> {
    (0..files as u64).map(|i| payload(seed, i, len)).collect()
}

/// Picks the damage victims among `stored` (an archive's write-order id
/// log): one per complete window of `window` consecutive positions. The
/// victim's lane cycles with the window index and the seed picks among
/// the window's positions of that lane:
/// `offset = LANES * (mix64(w, seed) % (window / LANES)) + w % LANES`.
/// So the seed moves every victim, but how many victims each lane — each
/// block kind, under AE — loses, and which files they fall in, is the
/// same for every seed: the runs of a workload do the same amount of
/// work whatever their seed. The trailing partial window is left alone,
/// and so is any window whose pick is not a scheme block — `Meta` ids
/// are never victims.
///
/// The newest complete window is skipped when `spare_tail` is set: a
/// scheme that buffers redundancy (the RS partial stripe) has not
/// protected its newest blocks until the archive is sealed.
///
/// # Panics
///
/// Panics unless `window` is a positive multiple of [`LANES`].
pub fn victims(stored: &[BlockId], seed: u64, window: usize, spare_tail: bool) -> Vec<BlockId> {
    assert!(
        window > 0 && window.is_multiple_of(LANES),
        "windows hold whole lanes"
    );
    let mut windows = stored.len() / window;
    if spare_tail {
        windows = windows.saturating_sub(1);
    }
    let per_lane = (window / LANES) as u64;
    (0..windows)
        .map(|w| {
            let offset = LANES * (mix64(w as u64, seed) % per_lane) as usize + w % LANES;
            stored[w * window + offset]
        })
        .filter(|id| !id.is_meta())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::{MetaId, NodeId};

    fn ids(n: u64) -> Vec<BlockId> {
        (1..=n).map(|i| BlockId::Data(NodeId(i))).collect()
    }

    #[test]
    fn payloads_are_seeded_and_distinct() {
        assert_eq!(payload(7, 3, 100), payload(7, 3, 100));
        assert_ne!(payload(7, 3, 100), payload(8, 3, 100));
        assert_ne!(payload(7, 3, 100), payload(7, 4, 100));
        assert_eq!(payload(7, 3, 13).len(), 13);
        assert_eq!(payload(7, 3, 13), payload(7, 3, 100)[..13]);
        assert_eq!(payloads(1, 5, 64).len(), 5);
    }

    #[test]
    fn exactly_one_victim_per_complete_window() {
        for seed in 0..50 {
            let stored = ids(1010);
            let picked = victims(&stored, seed, DAMAGE_WINDOW, false);
            // 1010 positions hold 50 complete windows; the last 10
            // positions are never touched.
            assert_eq!(picked.len(), 50);
            for (w, id) in picked.iter().enumerate() {
                let pos = stored.iter().position(|s| s == id).unwrap();
                assert_eq!(pos / DAMAGE_WINDOW, w, "seed {seed}");
            }
            let spared = victims(&stored, seed, DAMAGE_WINDOW, true);
            assert_eq!(spared[..], picked[..49]);
        }
    }

    #[test]
    fn every_seed_damages_each_lane_equally() {
        // Under AE's stride of four, lane 0 is the data blocks: whatever
        // the seed, every fourth window loses one.
        let stored = ids(4000);
        for seed in 0..30 {
            let picked = victims(&stored, seed, DAMAGE_WINDOW, false);
            for lane in 0..LANES {
                let in_lane = picked
                    .iter()
                    .filter(|id| (id.as_data().unwrap().0 as usize - 1) % LANES == lane)
                    .count();
                assert_eq!(in_lane, 50, "seed {seed} lane {lane}");
            }
        }
    }

    #[test]
    fn victims_move_with_the_seed_and_never_name_meta() {
        let mut stored = ids(400);
        // Poison every other position with a Meta id: a pick that lands
        // on one is dropped, never returned.
        for (i, slot) in stored.iter_mut().enumerate() {
            if i % 2 == 1 {
                *slot = BlockId::Meta(MetaId::record(i as u64, 0));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let picked = victims(&stored, seed, DAMAGE_WINDOW, false);
            assert!(picked.len() <= 20);
            assert!(picked.iter().all(|id| !id.is_meta()));
            seen.insert(picked);
        }
        assert!(seen.len() > 30, "offsets depend on the seed");
        assert!(victims(&ids(19), 1, DAMAGE_WINDOW, false).is_empty());
    }
}
