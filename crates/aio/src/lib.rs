//! Async block I/O: latency-faithful network backends with pipelined,
//! bounded-in-flight block operations.
//!
//! The paper's repair story is fundamentally about *remote* blocks — §V
//! measures entanglement repair against backends that are a network away
//! — but the sync [`ae_api::BlockSource`] family completes every
//! operation at call time, so a naive port pays `blocks × RTT` for any
//! multi-block operation. This crate supplies the missing layer in three
//! pieces, all vendored (zero external dependencies beyond the
//! workspace):
//!
//! * **Executor + timer wheel** ([`Runtime`], [`Clock`], [`Sleep`]): a
//!   minimal `block_on` executor that drives one future on the calling
//!   thread, over a time source that is either real (benchmarks) or
//!   virtual (tests). On the virtual clock the runtime advances time
//!   *exactly* to the next timer deadline whenever nothing is runnable
//!   and panics on a deadlocked future instead of hanging.
//! * **Latency model** ([`LatencyStore`], [`LinkSpec`], [`Tiering`],
//!   [`RetryPolicy`]): wraps any sync backend behind simulated per-tier
//!   links — RTT and seeded jitter — with typed timeout/retry/backoff so
//!   a dead remote degrades to [`ae_api::StoreError::TimedOut`] (or
//!   `None`/`false`), never a hang.
//!   Composes with `ae_store::FaultyStore` for flaky *and* distant.
//! * **Bounded-in-flight pipelining** ([`windowed`], [`windowed_map`],
//!   [`OrderedWindow`]): at most [`in_flight_window`] operations in
//!   flight, results collected in issue order.
//!
//! [`BlockOn`] closes the loop: it adapts a natively-async backend back
//! into the sync family and advertises the async interior through
//! [`ae_api::BlockSource::as_async`], which is how the archive discovers
//! that its batches — the writes of `put`, `seal` and `checkpoint`, the
//! probes of `open`, the reads of `get` and `scrub` — can move through
//! the window instead of paying one round trip per call. The unmodified
//! sync repair algorithms run against such a backend as plan →
//! fetch(window) → apply: the archive names a read set, moves it through
//! the window, and hands the scheme the answers (`ae_store::archive`,
//! "Dependent reads").
//!
//! # Determinism contract
//!
//! Runs are reproducible when three conditions hold, and every test in
//! this subsystem relies on them:
//!
//! 1. **Virtual clock** ([`Clock::virtual_time`]): time is a counter the
//!    executor advances to exact timer deadlines; wall-clock never leaks
//!    in.
//! 2. **Single-threaded driving** ([`Runtime`] has no other mode): the
//!    thread inside `block_on` interleaves all futures, so polling order
//!    is a pure function of deadlines and issue order.
//! 3. **Eager planning** (the latency model): every operation's RTT and
//!    per-attempt jitter draws are fixed at *future creation* from the
//!    seeded generator, so issue order alone pins the random stream;
//!    planned read sets are issued in sorted-id order and planners only
//!    ever see memory, so even the parallel repair planner's thread
//!    interleaving cannot perturb issue order.
//!
//! Under the contract, a pipelined repair is byte-identical to its
//! serial counterpart and every simulated timestamp replays exactly;
//! with a real clock the same code measures genuine wall time.
//!
//! ## Writes
//!
//! The contract covers the write side the same way, with one asymmetry
//! the latency model introduces: reads sample the backend at *issue*,
//! writes and removes apply to it at *completion* (a write to a dead
//! remote is swallowed, not teleported past the network).
//!
//! * **Issue order** is the order of the batch handed to the window —
//!   the order a serial loop would have made the calls in — and alone
//!   fixes every plan and jitter draw, as for reads.
//! * **Completion order** within a batch is whatever the link makes it:
//!   under jitter, writes land on the backend out of order, and with a
//!   window of `w` up to `w` of them are in flight when a crash cuts the
//!   stream. A batch may therefore only hold calls whose *relative*
//!   order does not matter to recovery.
//! * **Barriers** carry the order that does matter. Driving a batch to
//!   completion ([`ae_api::AsyncHandle::run`] returning) acknowledges
//!   every call in it, so whatever is issued next is ordered after all
//!   of it. The archive relies on exactly three: a put's blocks before
//!   its journal record; every checkpoint part (each journal record a
//!   batch of its own) before the pointer; the pointer before any GC
//!   remove.
//!
//! With window 1 (`AE_AIO_WINDOW=1`) issue order *is* completion order
//! and every batch degenerates to the serial loop: that configuration is
//! the reference the parity suites and the round-trip budget
//! (`tests/wan_rtt_budget.rs`) compare against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod latency;
mod pipeline;
mod time;

pub use exec::Runtime;
pub use latency::{BlockOn, LatencyStore, LinkSpec, RetryPolicy, Tier, Tiering};
pub use pipeline::{windowed, windowed_map, OpFactory, OrderedWindow};
pub use time::{Clock, Sleep};

/// The bounded in-flight window for pipelined block operations.
///
/// Defaults to 8; overridden by the `AE_AIO_WINDOW` environment variable
/// (read on every call, so benchmarks can vary it per case).
/// `AE_AIO_WINDOW=1` is the serial reference: CI's second leg runs the
/// whole suite under it to prove the pipelined and serial paths agree.
pub fn in_flight_window() -> usize {
    std::env::var("AE_AIO_WINDOW")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_default_env_and_feature_pinning() {
        // Serialize env mutation against other tests via a lock.
        static ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV.lock().unwrap();
        let before = std::env::var_os("AE_AIO_WINDOW");
        std::env::remove_var("AE_AIO_WINDOW");
        assert_eq!(in_flight_window(), 8);
        std::env::set_var("AE_AIO_WINDOW", "32");
        assert_eq!(in_flight_window(), 32, "env var read per call");
        std::env::set_var("AE_AIO_WINDOW", "0");
        assert_eq!(in_flight_window(), 8, "zero falls back to default");
        // Hand the rest of this test binary the window the run asked for.
        match before {
            Some(v) => std::env::set_var("AE_AIO_WINDOW", v),
            None => std::env::remove_var("AE_AIO_WINDOW"),
        }
    }
}
