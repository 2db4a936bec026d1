//! The vendored executor: [`Runtime`] — `block_on` on the calling thread
//! — over the [`crate::time`] clock and timer wheel.
//!
//! # Determinism contract
//!
//! Everything runs inside `block_on`, on the thread that called it; the
//! driven future interleaves its own sub-futures (a [`crate::windowed`]
//! window). With a **virtual clock** execution is fully
//! deterministic: the only source of time is the timer wheel, the clock
//! advances exactly to the next registered deadline whenever nothing is
//! runnable, and if the driven future is pending with no timers the
//! runtime **panics** (a deadlock would otherwise hang a test forever).
//! This is the configuration the latency-model parity tests run under —
//! seeded jitter + virtual time + one driver thread means every run
//! replays the identical schedule.
//!
//! With a **real clock** the same `block_on` parks the driving thread
//! until the next deadline (or until a waker from another thread unparks
//! it), so benchmarks measure genuine wall-clock.

use crate::time::{Clock, Sleep, Timers};
use ae_api::{BlockOnDriver, BoxFuture};
use std::future::Future;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Duration;

/// Wakes the `block_on` driver thread.
struct RootSignal {
    thread: Thread,
    woken: AtomicBool,
}

impl Wake for RootSignal {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// The vendored runtime: a clock, a timer wheel and the `block_on` loop
/// that ties them together. Cheap to clone (shared handle); see the
/// [crate docs](crate) for the determinism contract.
#[derive(Clone, Debug)]
pub struct Runtime {
    clock: Arc<Clock>,
    timers: Arc<Timers>,
}

impl Runtime {
    /// A runtime over `clock`, driven by whichever thread is inside
    /// [`Runtime::block_on`].
    pub fn new(clock: Clock) -> Self {
        Runtime {
            clock: Arc::new(clock),
            timers: Arc::new(Timers::new()),
        }
    }

    /// The runtime's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Nanoseconds since the runtime's clock was created.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// A future resolving when the clock reaches absolute nanosecond
    /// `deadline`.
    pub fn sleep_until(&self, deadline: u64) -> Sleep {
        Sleep::new(deadline, Arc::clone(&self.clock), Arc::clone(&self.timers))
    }

    /// A future resolving after `d` of clock time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now().saturating_add(d.as_nanos() as u64))
    }

    /// Drives `fut` to completion on the calling thread, firing timers
    /// while it is pending. On a virtual clock, idleness advances time to
    /// the next deadline; a pending future with no timers panics
    /// (deterministic deadlock detection). On a real clock, idleness
    /// parks until the next deadline or an external wake.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let mut fut = Box::pin(fut);
        let signal = Arc::new(RootSignal {
            thread: std::thread::current(),
            woken: AtomicBool::new(true),
        });
        let waker = Waker::from(Arc::clone(&signal));
        let mut cx = Context::from_waker(&waker);
        loop {
            self.timers.fire_due(self.clock.now());
            if signal.woken.swap(false, Ordering::AcqRel) {
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    return v;
                }
                continue;
            }
            // Idle: the future is waiting on a wake.
            match self.timers.next_deadline() {
                Some(deadline) => {
                    if self.clock.is_virtual() {
                        self.clock.advance_to(deadline);
                    } else {
                        let now = self.clock.now();
                        if deadline > now {
                            std::thread::park_timeout(Duration::from_nanos(deadline - now));
                        }
                    }
                }
                None => {
                    if self.clock.is_virtual() {
                        // Re-check the signal: a wake may have landed
                        // between the swap above and here.
                        if signal.woken.load(Ordering::Acquire) {
                            continue;
                        }
                        panic!(
                            "ae-aio executor stalled: the driven future is pending \
                             with no timers \
                             (deterministic deadlock detection on the virtual clock)"
                        );
                    }
                    std::thread::park();
                }
            }
        }
    }
}

impl BlockOnDriver for Runtime {
    fn drive(&self, fut: BoxFuture<'_, ()>) {
        self.block_on(fut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{windowed, OpFactory};
    use parking_lot::Mutex;

    #[test]
    fn block_on_returns_ready_values() {
        let rt = Runtime::new(Clock::virtual_time());
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn virtual_sleep_advances_the_clock_exactly() {
        let rt = Runtime::new(Clock::virtual_time());
        rt.block_on(async {
            rt.sleep(Duration::from_millis(10)).await;
            rt.sleep(Duration::from_micros(1)).await;
        });
        assert_eq!(rt.now(), 10_001_000, "advanced to exact deadlines");
    }

    #[test]
    fn nested_sleeps_interleave_deterministically() {
        let rt = Runtime::new(Clock::virtual_time());
        let order = Mutex::new(Vec::new());
        let sleeper = |ms: u64, label: &'static str| -> OpFactory<'_, ()> {
            let (rt, order) = (&rt, &order);
            Box::new(move || {
                Box::pin(async move {
                    rt.sleep(Duration::from_millis(ms)).await;
                    order.lock().push(label);
                })
            })
        };
        // Both in one window: the later-issued, shorter sleep lands first.
        rt.block_on(windowed(vec![sleeper(5, "late"), sleeper(2, "early")], 2));
        assert_eq!(*order.lock(), vec!["early", "late"]);
        assert_eq!(rt.now(), 5_000_000);
    }

    #[test]
    fn real_clock_sleep_takes_wall_time() {
        let rt = Runtime::new(Clock::real());
        let start = std::time::Instant::now();
        rt.block_on(rt.sleep(Duration::from_millis(5)));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "executor stalled")]
    fn virtual_deadlock_panics_instead_of_hanging() {
        let rt = Runtime::new(Clock::virtual_time());
        rt.block_on(std::future::pending::<()>());
    }
}
