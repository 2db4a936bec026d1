//! Entangled-mirror reliability Monte Carlo (§IV.B.1).
//!
//! The paper (citing the authors' earlier entangled-mirror work) states
//! that full-partition entangled arrays cut the 5-year probability of data
//! loss versus mirroring by ~90% (open chains) and ~98% (closed chains).
//! This module reproduces the comparison's *shape* with a documented model:
//!
//! Drives fail independently; a trial samples the set of drives that are
//! simultaneously dead during a repair window (each drive dead with
//! probability `q`). An array loses data when the dead set is fatal:
//!
//! * **Mirroring** — some data drive and its mirror are both dead.
//! * **Entangled, open chain** — the dead set contains an irrecoverable
//!   pattern of the α = 1 drive chain `d_1 p_1 d_2 p_2 …` (primitive forms
//!   of Fig 6, or the open tail).
//! * **Entangled, closed chain** — same, but the chain is tangled through
//!   `d_1` once more, eliminating the tail weakness.
//!
//! The chain decoder here is drive-granular: node `i` repairs from parities
//! `p_{i−1}, p_i`; parity `i` from `(d_i, p_{i−1})` or `(d_{i+1}, p_{i+1})`,
//! with ring wraparound when closed.

use ae_api::SplitMix64;

/// Array organisations compared by the Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// Classic mirroring: data drive i paired with mirror drive i.
    Mirroring,
    /// Full-partition simple entanglement, open chain.
    EntangledOpen,
    /// Full-partition simple entanglement, closed chain.
    EntangledClosed,
}

impl ArrayKind {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            ArrayKind::Mirroring => "mirroring",
            ArrayKind::EntangledOpen => "entangled (open)",
            ArrayKind::EntangledClosed => "entangled (closed)",
        }
    }
}

/// Whether a dead-drive pattern loses data for the given organisation.
///
/// `data_dead[i]` / `parity_dead[i]` describe the i-th data and parity
/// drive (0-based) of an array with `n` drives per tier.
pub fn loses_data(kind: ArrayKind, data_dead: &[bool], parity_dead: &[bool]) -> bool {
    let n = data_dead.len();
    assert_eq!(n, parity_dead.len(), "equal tiers");
    match kind {
        ArrayKind::Mirroring => (0..n).any(|i| data_dead[i] && parity_dead[i]),
        ArrayKind::EntangledOpen => !chain_recovers(data_dead, parity_dead, false),
        ArrayKind::EntangledClosed => !chain_recovers(data_dead, parity_dead, true),
    }
}

/// Fixpoint decoder for the drive chain; returns whether every dead drive
/// is eventually repairable.
fn chain_recovers(data_dead: &[bool], parity_dead: &[bool], closed: bool) -> bool {
    let n = data_dead.len();
    let mut d: Vec<bool> = data_dead.to_vec(); // true = still dead
    let mut p: Vec<bool> = parity_dead.to_vec();
    loop {
        let mut progress = false;
        for i in 0..n {
            // d_i = p_{i-1} XOR p_i (p_{-1} is the virtual zero for open
            // chains; the last parity for closed rings).
            if d[i] {
                let prev_ok = if i == 0 {
                    if closed {
                        !p[n - 1]
                    } else {
                        true
                    }
                } else {
                    !p[i - 1]
                };
                if prev_ok && !p[i] {
                    d[i] = false;
                    progress = true;
                }
            }
            // p_i = d_i XOR p_{i-1}, or d_{i+1} XOR p_{i+1}.
            if p[i] {
                let left_prev_ok = if i == 0 {
                    if closed {
                        !p[n - 1]
                    } else {
                        true
                    }
                } else {
                    !p[i - 1]
                };
                let left = !d[i] && left_prev_ok;
                let right = if i + 1 < n {
                    !d[i + 1] && !p[i + 1]
                } else if closed {
                    // Ring: p_{n-1}'s right neighbours are d_0 and p_0.
                    !d[0] && !p[0]
                } else {
                    false // open tail: no right tuple
                };
                if left || right {
                    p[i] = false;
                    progress = true;
                }
            }
        }
        if !progress {
            return d.iter().all(|&x| !x) && p.iter().all(|&x| !x);
        }
    }
}

/// Monte Carlo estimate of the probability of data loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorOutcome {
    /// Organisation simulated.
    pub kind: ArrayKind,
    /// Trials run.
    pub trials: u64,
    /// Trials that lost data.
    pub losses: u64,
}

impl MirrorOutcome {
    /// Estimated loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.losses as f64 / self.trials as f64
    }
}

/// Runs `trials` independent trials of an array with `drives` data drives
/// (and as many parity/mirror drives), each drive dead with probability
/// `q`.
pub fn monte_carlo(
    kind: ArrayKind,
    drives: usize,
    q: f64,
    trials: u64,
    seed: u64,
) -> MirrorOutcome {
    assert!((0.0..=1.0).contains(&q), "death probability in [0,1]");
    let mut rng = SplitMix64::new(seed);
    let mut losses = 0;
    let mut data_dead = vec![false; drives];
    let mut parity_dead = vec![false; drives];
    for _ in 0..trials {
        for v in data_dead.iter_mut().chain(parity_dead.iter_mut()) {
            *v = rng.unit_f64() < q;
        }
        if loses_data(kind, &data_dead, &parity_dead) {
            losses += 1;
        }
    }
    MirrorOutcome {
        kind,
        trials,
        losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead(n: usize, idx: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &i in idx {
            v[i] = true;
        }
        v
    }

    #[test]
    fn mirroring_dies_on_matched_pair_only() {
        let n = 8;
        assert!(loses_data(
            ArrayKind::Mirroring,
            &dead(n, &[3]),
            &dead(n, &[3])
        ));
        assert!(!loses_data(
            ArrayKind::Mirroring,
            &dead(n, &[3]),
            &dead(n, &[4])
        ));
        assert!(!loses_data(
            ArrayKind::Mirroring,
            &dead(n, &[0, 1, 2]),
            &dead(n, &[])
        ));
    }

    #[test]
    fn entangled_survives_what_kills_mirroring() {
        // Data drive 3 and parity drive 3 dead: mirroring loses d3; the
        // chain repairs d3 from p2/p3... p3 dead — via rounds: p3 from
        // d4,p4; then d3 from p2,p3.
        let n = 8;
        assert!(!loses_data(
            ArrayKind::EntangledOpen,
            &dead(n, &[3]),
            &dead(n, &[3])
        ));
    }

    #[test]
    fn primitive_form_kills_both_chains() {
        // d3, d4 and the shared parity p3 (0-based: parity 3 sits between
        // them): Fig 6 form I at drive granularity.
        let n = 8;
        for kind in [ArrayKind::EntangledOpen, ArrayKind::EntangledClosed] {
            assert!(
                loses_data(kind, &dead(n, &[3, 4]), &dead(n, &[3])),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn tail_pair_kills_open_but_not_closed() {
        let n = 8;
        // Last data drive + last parity drive: the open chain's extremity.
        assert!(loses_data(
            ArrayKind::EntangledOpen,
            &dead(n, &[7]),
            &dead(n, &[7])
        ));
        assert!(!loses_data(
            ArrayKind::EntangledClosed,
            &dead(n, &[7]),
            &dead(n, &[7])
        ));
    }

    #[test]
    fn monte_carlo_reproduces_the_papers_ordering() {
        // 5-year-style comparison: entangled open ≪ mirroring, closed even
        // lower. Shape target: ≥ ~80% and ~90% reductions.
        let (drives, q, trials, seed) = (16, 0.03, 200_000, 9);
        let mirror = monte_carlo(ArrayKind::Mirroring, drives, q, trials, seed);
        let open = monte_carlo(ArrayKind::EntangledOpen, drives, q, trials, seed);
        let closed = monte_carlo(ArrayKind::EntangledClosed, drives, q, trials, seed);
        let (pm, po, pc) = (
            mirror.loss_probability(),
            open.loss_probability(),
            closed.loss_probability(),
        );
        assert!(pm > 0.0, "mirroring must lose sometimes at q=3%");
        assert!(po < pm * 0.25, "open {po} vs mirroring {pm}");
        assert!(pc < po, "closed {pc} vs open {po}");
        assert!(pc < pm * 0.15, "closed {pc} vs mirroring {pm}");
    }

    #[test]
    fn monte_carlo_losses_are_pinned_per_seed() {
        // `ablation_chains`' configuration: the exact counts, so a change of
        // generator or of draw order shows up here.
        let losses = |kind| monte_carlo(kind, 16, 0.03, 20_000, 5).losses;
        assert_eq!(losses(ArrayKind::Mirroring), 298);
        assert_eq!(losses(ArrayKind::EntangledOpen), 27);
        assert_eq!(losses(ArrayKind::EntangledClosed), 13);
    }

    #[test]
    fn zero_death_probability_never_loses() {
        let out = monte_carlo(ArrayKind::Mirroring, 8, 0.0, 1000, 1);
        assert_eq!(out.losses, 0);
        assert_eq!(out.loss_probability(), 0.0);
    }
}
