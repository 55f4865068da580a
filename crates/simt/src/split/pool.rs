//! The process-wide helper threads that run a split's parts after the
//! first, and the one `unsafe` block of the workspace.
//!
//! A caller takes idle helpers from a free list, spawning one only when
//! none is idle, hands each one a boxed job, runs its own part, waits for
//! every job on a completion latch, and returns the helpers to the list.
//! Between jobs a helper blocks in its channel's `recv`, so a parked pool
//! takes no CPU.
//!
//! A job borrows the caller's frame — its part, the part's result slot and
//! the shared `run` — but a helper's channel carries only `'static` boxes,
//! so the one `unsafe` block erases the job's lifetime. That is sound
//! because the caller neither returns nor unwinds until every job it
//! handed out has run and been dropped: its own part runs under
//! `catch_unwind`, a guard waits on the latch in its `Drop` on any path
//! out of the frame, and a helper counts the latch down only after the
//! job's box has been consumed.
//!
//! Helpers are never joined: they live until the process exits. No panic
//! is lost with them, since every job catches its part's panic and hands
//! the payload to the caller. A helper keeps its thread-locals from job to
//! job: a traced worker's tid (`trace`) stays the same across splits, and
//! a part that sets a schedule policy leaves none behind, since
//! `grid::with_schedule` restores the previous one even on a panic.

use super::host_threads;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, SendError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// A part of a split, boxed with its result slot, as a helper receives it.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// An idle helper: the sending end of its job channel.
type Helper = Sender<(Job, Arc<Latch>)>;

/// Helpers not running a job. A caller pops the helpers it needs and
/// pushes them back once its parts are done. Every update is one `push`,
/// `pop` or `extend` of whole senders, so a poisoned lock still guards a
/// valid list.
static IDLE: Mutex<Vec<Helper>> = Mutex::new(Vec::new());

/// Counts a caller's outstanding jobs and wakes the caller when the last
/// one is done.
struct Latch {
    remaining: AtomicUsize,
    caller: Thread,
}

impl Latch {
    /// Counts one more job out, before it is sent. Only the caller adds,
    /// and it reads the count only after its last add.
    fn add_job(&self) {
        self.remaining.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one job done. `done`'s `Acquire` load of zero synchronizes
    /// with every `Release` decrement before it (they are read-modify-
    /// writes of one atomic), so every job's write to its result slot
    /// happens before the caller reads it. A caller that already saw zero
    /// and went on gets only a spare park token, and every `park` here
    /// rechecks its condition.
    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.caller.unpark();
        }
    }

    fn done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// Blocks its thread in `drop` until the latch reaches zero, so no path
/// out of [`run_with_helpers`]'s frame — return or unwind — leaves a job
/// holding a borrow of it.
struct WaitForJobs<'a>(&'a Latch);

impl Drop for WaitForJobs<'_> {
    fn drop(&mut self) {
        while !self.0.done() {
            thread::park();
        }
    }
}

/// An idle helper, or a new one when none is idle.
fn take_helper() -> Helper {
    let idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
    idle.unwrap_or_else(|| {
        let (jobs, queue) = channel::<(Job, Arc<Latch>)>();
        thread::Builder::new()
            .name("tsv-split-helper".into())
            .spawn(move || {
                for (job, latch) in queue {
                    // The call consumes the box: the job and every borrow
                    // it holds are dropped before the latch counts down.
                    job();
                    latch.count_down();
                }
            })
            .expect("the OS refused a split helper thread");
        jobs
    })
}

/// Runs `first` on the caller and each of `rest` on a helper, and returns
/// the results in part order; [`super::run_parts`]'s path for two or more
/// parts. A panic in any part reaches the caller with its payload once
/// every part has finished: the first part's if it panicked, otherwise the
/// first panicking helper part's.
pub(super) fn run_with_helpers<P: Send, R: Send>(
    first: P,
    rest: impl Iterator<Item = P>,
    run: &(impl Fn(P) -> R + Sync),
) -> Vec<R> {
    let start = Instant::now();
    let rest: Vec<P> = rest.collect();
    // Every helper is in hand before any job leaves, so a failed spawn
    // unwinds while no job borrows this frame.
    let helpers: Vec<Helper> = rest.iter().map(|_| take_helper()).collect();
    let latch = Arc::new(Latch {
        remaining: AtomicUsize::new(0),
        caller: thread::current(),
    });
    let mut slots: Vec<Option<thread::Result<R>>> = rest.iter().map(|_| None).collect();
    let wait = WaitForJobs(&latch);
    let mut busy = Vec::with_capacity(helpers.len());
    for ((helper, slot), part) in helpers.into_iter().zip(&mut slots).zip(rest) {
        let job: Box<dyn FnOnce() + Send + '_> =
            Box::new(move || *slot = Some(catch_unwind(AssertUnwindSafe(|| run(part)))));
        // SAFETY: the job borrows `run`, its slot in `slots` and its part,
        // which live in this frame or the caller's, so erasing its lifetime
        // is sound only if the job is gone before they are. It is: `latch`
        // counts the job before it is sent, and a helper (or the fallback
        // below) consumes the box, which drops the job, before it counts
        // the latch down. This frame cannot be left, by return or unwind,
        // without dropping `wait` first (it is declared after `slots` and
        // `latch`), and that drop blocks until the latch reads zero. A
        // panic in the caller's own part is caught, and resumed only after
        // that wait. The two types are the same boxed trait object and
        // differ only in its lifetime bound.
        let job: Job = unsafe { std::mem::transmute(job) };
        latch.add_job();
        match helper.send((job, Arc::clone(&latch))) {
            Ok(()) => busy.push(helper),
            // A helper whose thread has gone: run its part here instead.
            Err(SendError((job, latch))) => {
                job();
                latch.count_down();
            }
        }
    }
    let first = catch_unwind(AssertUnwindSafe(|| run(first)));
    // The caller waits for the other parts runnable, yielding, before it
    // blocks. A caller that blocks is woken on the CPU the last part ran
    // on, and moving it after every split slowed perfbench's
    // single-threaded fem set-ups (`setup_s` ~0.15 s against ~0.11 s). The
    // parts are equal in size, and in those runs every other part finished
    // within 2.6 times the caller's part time, so the caller yields for at
    // most twice its part time more. With more parts than hardware threads
    // it blocks at once: the parts then wait for a CPU, and a spinning
    // caller would hold one.
    let spin = if busy.len() < host_threads() {
        start.elapsed().saturating_mul(2)
    } else {
        Duration::ZERO
    };
    let waiting = Instant::now();
    while !latch.done() && waiting.elapsed() < spin {
        thread::yield_now();
    }
    drop(wait);
    IDLE.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extend(busy);
    let mut results = Vec::with_capacity(slots.len() + 1);
    results.push(first.unwrap_or_else(|e| resume_unwind(e)));
    for slot in slots {
        let result = slot.expect("a job fills its slot before its latch counts down");
        results.push(result.unwrap_or_else(|e| resume_unwind(e)));
    }
    results
}
