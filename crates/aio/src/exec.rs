//! The vendored executor: [`Runtime`] — `block_on` and `spawn` on the
//! calling thread — over the [`crate::time`] clock and timer wheel.
//!
//! # Determinism contract
//!
//! Everything runs inside `block_on`, on the thread that called it. With
//! a **virtual clock** execution is fully deterministic: the only source
//! of time is the timer wheel, the clock advances exactly to the next
//! registered deadline whenever nothing is runnable, and if the driven
//! future is pending with no timers and no queued tasks the runtime
//! **panics** (a deadlock would otherwise hang a test forever). This is
//! the configuration the latency-model parity tests run under — seeded
//! jitter + virtual time + one driver thread means every run replays the
//! identical schedule.
//!
//! With a **real clock** the same `block_on` parks the driving thread
//! until the next deadline (or until a waker from another thread unparks
//! it), so benchmarks measure genuine wall-clock.

use crate::time::{Clock, Sleep, Timers};
use ae_api::{BlockOnDriver, BoxFuture};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Duration;

/// Shared state of one runtime: clock, timer wheel, ready queue.
#[derive(Debug)]
struct Core {
    clock: Arc<Clock>,
    timers: Arc<Timers>,
    queue: Mutex<VecDeque<Arc<Task>>>,
    /// The thread currently inside `block_on`, to unpark on wakes.
    driver: Mutex<Option<Thread>>,
}

impl Core {
    fn enqueue(&self, task: Arc<Task>) {
        self.queue.lock().push_back(task);
        if let Some(t) = self.driver.lock().as_ref() {
            t.unpark();
        }
    }

    fn pop_task(&self) -> Option<Arc<Task>> {
        self.queue.lock().pop_front()
    }

    fn has_tasks(&self) -> bool {
        !self.queue.lock().is_empty()
    }
}

/// One spawned task: its future, re-queued by its waker.
struct Task {
    future: Mutex<Option<BoxFuture<'static, ()>>>,
    core: Weak<Core>,
    /// Guards against double-queuing between wake and poll.
    queued: AtomicBool,
}

impl Task {
    /// Polls the task's future once, with the task itself as the waker.
    fn run(self: &Arc<Self>) {
        self.queued.store(false, Ordering::Release);
        let Some(mut fut) = self.future.lock().take() else {
            return; // already completed
        };
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        if fut.as_mut().poll(&mut cx).is_pending() {
            *self.future.lock() = Some(fut);
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return; // already queued
        }
        if let Some(core) = self.core.upgrade() {
            core.enqueue(self);
        }
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task").finish_non_exhaustive()
    }
}

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

/// Completion slot shared between a spawned task and its [`JoinHandle`].
#[derive(Debug)]
struct JoinShared<T> {
    slot: Mutex<Option<T>>,
    waker: Mutex<Option<Waker>>,
}

/// A future resolving to a spawned task's output — await it (typically
/// via [`Runtime::block_on`]) to collect the result.
#[derive(Debug)]
pub struct JoinHandle<T> {
    shared: Arc<JoinShared<T>>,
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished (its output may already be taken).
    pub fn is_finished(&self) -> bool {
        self.shared.slot.lock().is_some() || Arc::strong_count(&self.shared) == 1
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.shared.slot.lock().take() {
            return Poll::Ready(v);
        }
        *self.shared.waker.lock() = Some(cx.waker().clone());
        // Re-check to close the race with a completion between the first
        // check and the waker registration.
        match self.shared.slot.lock().take() {
            Some(v) => Poll::Ready(v),
            None => Poll::Pending,
        }
    }
}

/// The vendored runtime: a clock, a timer wheel, a ready queue and the
/// `block_on` loop that ties them together. Cheap to clone (shared
/// handle); see the [crate docs](crate) for the determinism contract.
#[derive(Clone, Debug)]
pub struct Runtime {
    core: Arc<Core>,
}

impl Runtime {
    /// A single-threaded runtime over `clock`: spawned tasks run on
    /// whichever thread is inside [`Runtime::block_on`].
    pub fn new(clock: Clock) -> Self {
        Runtime {
            core: Arc::new(Core {
                clock: Arc::new(clock),
                timers: Arc::new(Timers::new()),
                queue: Mutex::new(VecDeque::new()),
                driver: Mutex::new(None),
            }),
        }
    }

    /// The runtime's clock.
    pub fn clock(&self) -> &Clock {
        &self.core.clock
    }

    /// Nanoseconds since the runtime's clock was created.
    pub fn now(&self) -> u64 {
        self.core.clock.now()
    }

    /// A future resolving when the clock reaches absolute nanosecond
    /// `deadline`.
    pub fn sleep_until(&self, deadline: u64) -> Sleep {
        Sleep::new(
            deadline,
            Arc::clone(&self.core.clock),
            Arc::clone(&self.core.timers),
        )
    }

    /// A future resolving after `d` of clock time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now().saturating_add(d.as_nanos() as u64))
    }

    /// Spawns a task onto the runtime; it runs during any `block_on`.
    /// Await the handle for the output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let shared = Arc::new(JoinShared {
            slot: Mutex::new(None),
            waker: Mutex::new(None),
        });
        let out = Arc::clone(&shared);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(async move {
                let v = fut.await;
                *out.slot.lock() = Some(v);
                if let Some(w) = out.waker.lock().take() {
                    w.wake();
                }
            }))),
            core: Arc::downgrade(&self.core),
            queued: AtomicBool::new(true),
        });
        self.core.enqueue(Arc::clone(&task));
        JoinHandle { shared }
    }

    /// Drives `fut` to completion on the calling thread, running queued
    /// tasks and firing timers while it is pending. On a virtual clock,
    /// idleness advances time to the next deadline; a pending future with
    /// no timers and no tasks panics (deterministic deadlock detection).
    /// On a real clock, idleness parks until the next deadline or an
    /// external wake.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let mut fut = Box::pin(fut);
        let signal = Arc::new(RootSignal {
            thread: std::thread::current(),
            woken: AtomicBool::new(true),
        });
        let waker = Waker::from(Arc::clone(&signal));
        let mut cx = Context::from_waker(&waker);
        let prev_driver = self.core.driver.lock().replace(std::thread::current());
        let out = loop {
            // Run everything currently runnable.
            while let Some(task) = self.core.pop_task() {
                task.run();
            }
            self.core.timers.fire_due(self.core.clock.now());
            if signal.woken.swap(false, Ordering::AcqRel) {
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    break v;
                }
                continue;
            }
            if self.core.has_tasks() {
                continue;
            }
            // Idle: the root future and every task are waiting on wakes.
            match self.core.timers.next_deadline() {
                Some(deadline) => {
                    if self.core.clock.is_virtual() {
                        self.core.clock.advance_to(deadline);
                    } else {
                        let now = self.core.clock.now();
                        if deadline > now {
                            std::thread::park_timeout(Duration::from_nanos(deadline - now));
                        }
                    }
                }
                None => {
                    if self.core.clock.is_virtual() {
                        // Re-check the signal: a wake may have landed
                        // between the swap above and here.
                        if signal.woken.load(Ordering::Acquire) {
                            continue;
                        }
                        panic!(
                            "ae-aio executor stalled: the driven future is pending \
                             with no timers and no queued tasks \
                             (deterministic deadlock detection on the virtual clock)"
                        );
                    }
                    std::thread::park();
                }
            }
        };
        *self.core.driver.lock() = prev_driver;
        out
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
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let rt1 = rt.clone();
        let rt2 = rt.clone();
        let h1 = rt.spawn(async move {
            rt1.sleep(Duration::from_millis(5)).await;
            o1.lock().push("late");
        });
        let h2 = rt.spawn(async move {
            rt2.sleep(Duration::from_millis(2)).await;
            o2.lock().push("early");
        });
        rt.block_on(async {
            h1.await;
            h2.await;
        });
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

    #[test]
    fn join_handle_reports_completion() {
        let rt = Runtime::new(Clock::virtual_time());
        let rt2 = rt.clone();
        let h = rt.spawn(async move {
            rt2.sleep(Duration::from_millis(1)).await;
            7
        });
        assert_eq!(rt.block_on(h), 7);
    }
}
