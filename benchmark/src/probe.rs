//! Reference probes: three fixed, benchmark-owned loops sampled between
//! cycles, so a run knows how fast the machine was while it measured.
//!
//! This VM shares its host's memory system, and the host's load drifts:
//! the same binary measures 10–25 % slower for minutes at a time, with
//! no steal time to show for it. The fast decile filters what comes and
//! goes within a run; nothing inside a run can filter what lasts longer
//! than the run. So every end-to-end time of a workload that computes
//! (all but `ae_wan`, which sleeps on round trips) is divided by the
//! run's *speed factor*: the geometric mean of the three probes' fast
//! deciles over [`REFERENCE_MS`], their value on the recording host when
//! it is quiet. A streaming loop, an arithmetic loop and a pointer chase
//! stress the memory bandwidth, the core and the memory latency; the
//! program under test is a mix of the three. The probes are this
//! directory's code, so no change to the repository moves them.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words per streaming buffer (8 MiB each).
const STREAM_WORDS: usize = 1 << 20;
/// Words in the pointer-chase table (32 MiB).
const CHASE_WORDS: usize = 1 << 22;
/// Dependent loads per chase sample.
const CHASE_STEPS: usize = 50_000;
/// Multiply-xorshift steps per arithmetic sample.
const ALU_STEPS: u64 = 1_000_000;
/// Least time between two samples.
const PERIOD: Duration = Duration::from_millis(250);
/// Geometric mean of the three probes' fast deciles, in ms, on the
/// recording host (2-vCPU Xeon @ 2.1 GHz Firecracker VM) when quiet:
/// stream 2.90, alu 2.50, chase 7.90.
pub const REFERENCE_MS: f64 = 3.855;

/// The probes' buffers and the samples taken so far.
pub struct Probes {
    a: Vec<u64>,
    b: Vec<u64>,
    chase: Vec<u32>,
    last: Option<Instant>,
    stream_ns: Vec<f64>,
    alu_ns: Vec<f64>,
    chase_ns: Vec<f64>,
}

impl Default for Probes {
    fn default() -> Self {
        Self::new()
    }
}

impl Probes {
    /// Allocates and touches the buffers.
    pub fn new() -> Self {
        // One random cycle through the table (Sattolo's shuffle), so the
        // chase visits every slot and no prefetcher can follow it.
        let mut chase: Vec<u32> = (0..CHASE_WORDS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_WORDS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            chase.swap(i, (state % i as u64) as usize);
        }
        Probes {
            a: vec![1; STREAM_WORDS],
            b: vec![2; STREAM_WORDS],
            chase,
            last: None,
            stream_ns: Vec::new(),
            alu_ns: Vec::new(),
            chase_ns: Vec::new(),
        }
    }

    /// Takes one sample of each probe unless one was taken within the
    /// last quarter second.
    pub fn sample(&mut self) {
        if self.last.is_some_and(|at| at.elapsed() < PERIOD) {
            return;
        }
        let start = Instant::now();
        for (a, b) in self.a.iter_mut().zip(&self.b) {
            *a ^= b.wrapping_mul(3);
        }
        for (b, a) in self.b.iter_mut().zip(&self.a) {
            *b = b.wrapping_add(*a);
        }
        self.stream_ns.push(start.elapsed().as_nanos() as f64);

        let start = Instant::now();
        let mut x = black_box(1u64);
        for i in 0..ALU_STEPS {
            x = (x ^ (x >> 30))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        black_box(x);
        self.alu_ns.push(start.elapsed().as_nanos() as f64);

        let start = Instant::now();
        let mut at = black_box(0u32);
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        black_box(at);
        self.chase_ns.push(start.elapsed().as_nanos() as f64);

        self.last = Some(Instant::now());
    }

    /// How much slower than the reference this run's machine was: the
    /// geometric mean of the probes' fast deciles over [`REFERENCE_MS`].
    /// 1 before any sample.
    pub fn speed_factor(&self) -> f64 {
        let (stream, alu, chase) = self.fast_ms();
        if stream == 0.0 {
            return 1.0;
        }
        (stream * alu * chase).cbrt() / REFERENCE_MS
    }

    /// Fast decile of each probe in ms: `(stream, alu, chase)`.
    pub fn fast_ms(&self) -> (f64, f64, f64) {
        let fast = |samples: &[f64]| {
            if samples.is_empty() {
                return 0.0;
            }
            stats::fast(&mut samples.to_vec()) / 1e6
        };
        (
            fast(&self.stream_ns),
            fast(&self.alu_ns),
            fast(&self.chase_ns),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_rate_limited_and_positive() {
        let mut probes = Probes::new();
        assert_eq!(probes.fast_ms(), (0.0, 0.0, 0.0));
        assert_eq!(probes.speed_factor(), 1.0);
        probes.sample();
        probes.sample();
        assert_eq!(probes.stream_ns.len(), 1);
        let (stream, alu, chase) = probes.fast_ms();
        assert!(stream > 0.0 && alu > 0.0 && chase > 0.0);
        assert!(probes.speed_factor() > 0.0);
    }
}
