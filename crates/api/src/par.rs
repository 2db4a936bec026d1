//! Shared repair-parallelism knobs.
//!
//! Round-based repair — both the byte-plane
//! [`crate::RedundancyScheme::repair_missing`] default and the
//! availability-plane round loop in `ae_sim` — plans each round against an
//! immutable snapshot, so the planning fans out across scoped threads and
//! commits sequentially. This module owns the one decision they share: how
//! many planner threads to use.

use std::sync::OnceLock;

/// Number of threads round-based repair planning fans out across.
///
/// Resolution order:
///
/// 1. the `AE_REPAIR_THREADS` environment variable, if it parses to a
///    positive integer (read once per process);
/// 2. [`std::thread::available_parallelism`].
///
/// Planners treat 1 as "plan inline, spawn nothing", so single-core hosts
/// and `AE_REPAIR_THREADS=1` — the reference configuration CI's second
/// leg runs the whole suite under — take the exact sequential code path.
pub fn repair_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("AE_REPAIR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Applies `f` to contiguous chunks of `items` across up to `threads`
/// scoped threads, concatenating the chunk results in chunk order — so
/// the output is identical to `f(items)` whenever `f` is element-wise.
///
/// Below `min_items` (or with one thread) the whole slice is processed
/// inline: scoped-thread spawn overhead beats the win on small rounds.
/// This is the one fan-out primitive behind both repair planners (the
/// byte-plane worklist and the availability plane's round scans).
pub fn par_chunks<T, R, F>(items: &[T], threads: usize, min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Send + Sync + Copy,
{
    let threads = threads.min(items.len());
    if threads <= 1 || items.len() < min_items {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("repair planner thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_preserves_order_for_any_thread_count() {
        let items: Vec<u32> = (0..50).collect();
        let square_odds = |chunk: &[u32]| -> Vec<u32> {
            chunk
                .iter()
                .filter(|&&x| x % 2 == 1)
                .map(|&x| x * x)
                .collect()
        };
        let inline = square_odds(&items);
        for threads in [1usize, 2, 3, 7, 64] {
            assert_eq!(
                par_chunks(&items, threads, 1, square_odds),
                inline,
                "{threads} threads"
            );
        }
        // Below the parallel threshold the slice is processed inline.
        assert_eq!(par_chunks(&items, 8, 1_000, square_odds), inline);
        assert!(par_chunks(&[] as &[u32], 4, 0, square_odds).is_empty());
    }

    #[test]
    fn repair_threads_is_positive_and_stable() {
        let n = repair_threads();
        assert!(n >= 1);
        assert_eq!(n, repair_threads(), "memoized");
    }
}
