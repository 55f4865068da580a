//! Host-thread splits: the one copy of the code that runs independent
//! parts of a job on the calling thread and on helper threads.
//!
//! Two kinds of work split here. A `native:N` kernel launch whose work
//! estimate reaches [`crate::SPLIT_WORK`] runs its warps in `N` parts
//! ([`crate::backend`]). A set-up layer — MatrixMarket ingest, the CSR
//! build and the tile conversions — whose input reaches [`SETUP_SPLIT`]
//! entries runs in [`host_threads`] parts of rows or bytes
//! ([`setup_parts`]). Either way [`run_parts`] runs the parts: the first
//! on the caller and every other one on a process-wide helper thread that
//! is parked between splits (the `pool` submodule), so a split spawns a
//! thread only when no helper is idle.

#[allow(unsafe_code)]
mod pool;

use std::sync::OnceLock;

/// The host's hardware threads, read once per process: what `native`
/// without a count splits a launch over, and how many parts a set-up
/// layer above [`SETUP_SPLIT`] runs in.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The input size, in matrix entries, at which a set-up layer splits over
/// [`host_threads`] parts: the entries a MatrixMarket header declares
/// (ingest), the COO entries (CSR build) and the CSR entries (tile
/// conversions). Every smaller input is set up on the calling thread.
///
/// The gate was timed when a split spawned a thread per part and cost
/// 0.1–0.2 ms on a 2-core host (the spawns, the caller's wait, and merging
/// the parts' outputs), so it paid only once a layer took a few ms. One
/// part against two on banded and web matrices of 2^12 to 2^18 entries,
/// ingest broke even near 2^15 entries, tile conversion near 2^16 and the
/// CSR build, the cheapest layer per entry, near 2^17. At 2^17 every layer
/// is at least as fast split (ingest 1.6×, tiles 1.3×, CSR 1.0×) and the
/// gains grow from there; the test corpora and the CLI's demo specs stay
/// below it. On parked helper threads a two-part CSR build or tile
/// conversion of 4 k entries costs 7–18 µs more than one part, against
/// 39–84 µs with spawned threads, so the gate may now sit too high; it
/// has not been timed again.
pub const SETUP_SPLIT: usize = 1 << 17;

/// The parts a set-up layer whose input holds `entries` entries runs in:
/// [`host_threads`] from [`SETUP_SPLIT`] up, one below it.
pub fn setup_parts(entries: usize) -> usize {
    if entries >= SETUP_SPLIT {
        host_threads()
    } else {
        1
    }
}

/// Runs `run` over each of `parts` and returns the results in part order.
/// The first part runs on the calling thread and every other one on a
/// helper thread of its own; a single part touches no helper. The call
/// returns, or unwinds, only once every part has finished, so the parts
/// may borrow the caller's data. A panic in any part reaches the caller
/// with its payload.
///
/// Never inlined, so the split's code stays out of its callers' inline
/// paths, which every small launch and set-up runs.
#[inline(never)]
pub fn run_parts<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    run: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut parts = parts.into_iter().peekable();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.peek().is_none() {
        return vec![run(first)];
    }
    pool::run_with_helpers(first, parts, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::catch_unwind;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Barrier, Mutex};
    use std::thread;

    #[test]
    fn parts_run_once_each_and_return_in_order() {
        for n in 0..5 {
            let ran = Mutex::new(HashSet::new());
            let out = run_parts(0..n, |p| {
                ran.lock().unwrap().insert(std::thread::current().id());
                p * 10
            });
            assert_eq!(out, (0..n).map(|p| p * 10).collect::<Vec<_>>());
            let threads = ran.into_inner().unwrap();
            assert_eq!(threads.len(), n, "one thread per part");
            if n > 0 {
                assert!(threads.contains(&std::thread::current().id()));
            }
        }
    }

    #[test]
    fn parts_own_disjoint_mutable_slices() {
        let mut out = vec![0u32; 10];
        let (a, b) = out.split_at_mut(4);
        run_parts([(0, a), (4, b)], |(base, part): (u32, &mut [u32])| {
            for (i, v) in part.iter_mut().enumerate() {
                *v = base + i as u32;
            }
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn setup_splits_only_at_the_gate() {
        assert_eq!(setup_parts(SETUP_SPLIT - 1), 1);
        assert_eq!(setup_parts(SETUP_SPLIT), host_threads());
        assert_eq!(setup_parts(0), 1);
    }

    #[test]
    fn a_panic_in_a_spawned_part_reaches_the_caller() {
        let err = std::panic::catch_unwind(|| {
            run_parts(0..2, |p| assert_ne!(p, 1, "part {p} failed on purpose"));
        })
        .expect_err("the spawned part's panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("part 1 failed on purpose"), "{msg}");
    }

    /// A caught panic's message.
    fn panic_text(err: &(dyn std::any::Any + Send)) -> String {
        match err.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => err.downcast_ref::<String>().cloned().unwrap_or_default(),
        }
    }

    #[test]
    fn a_panic_in_the_caller_part_waits_for_the_helper_parts() {
        // Part 1 borrows `log` from this frame and blocks until part 0,
        // running on the caller, has panicked: part 0 holds the only
        // sender of part 1's release channel, and its unwind drops it. So
        // part 1 still runs while part 0 unwinds, and `run_parts` must not
        // unwind into this frame before part 1 is done.
        let log = Mutex::new(Vec::new());
        let (started, part_1_started) = channel::<()>();
        let (release, part_1_released) = channel::<()>();
        let part_1_started = Mutex::new(part_1_started);
        let part_1_released = Mutex::new(part_1_released);
        let err = catch_unwind(|| {
            run_parts([Some(release), None], |release: Option<Sender<()>>| {
                if let Some(_release) = release {
                    part_1_started.lock().unwrap().recv().unwrap();
                    log.lock().unwrap().push("part 0 panics");
                    panic!("part 0 failed on purpose");
                }
                started.send(()).unwrap();
                assert!(part_1_released.lock().unwrap().recv().is_err());
                log.lock().unwrap().push("part 1 done");
            })
        })
        .expect_err("part 0's panic must propagate");
        log.lock().unwrap().push("caller resumed");
        assert!(panic_text(&*err).contains("part 0 failed on purpose"));
        assert_eq!(
            log.into_inner().unwrap(),
            ["part 0 panics", "part 1 done", "caller resumed"]
        );
    }

    #[test]
    fn a_split_nested_in_a_part_completes() {
        // The barrier holds both outer parts in flight, so each nested
        // split runs while the outer split's helper is busy.
        let barrier = Barrier::new(2);
        let out = run_parts(0..2, |p| {
            barrier.wait();
            run_parts(0..2, |q| 10 * p + q)
        });
        assert_eq!(out, [[0, 1], [10, 11]]);
    }

    #[test]
    fn concurrent_callers_get_their_own_results_in_order() {
        const CALLERS: usize = 4;
        const PARTS: usize = 3;
        // Every part of every caller waits at one barrier, so all four
        // splits hold their helpers at once.
        let barrier = Barrier::new(CALLERS * PARTS);
        let outs: Vec<Vec<(usize, usize)>> = thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        run_parts(0..PARTS, |p| {
                            barrier.wait();
                            (c, p)
                        })
                    })
                })
                .collect();
            callers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (c, out) in outs.into_iter().enumerate() {
            assert_eq!(out, (0..PARTS).map(|p| (c, p)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_helper_panic_leaves_the_pool_usable() {
        for round in 0..3 {
            let err = catch_unwind(|| {
                run_parts(0..3, |p| {
                    assert_ne!(p, 2, "round {round}: part {p} failed on purpose");
                })
            })
            .expect_err("the helper part's panic must propagate");
            let msg = panic_text(&*err);
            assert!(
                msg.contains(&format!("round {round}: part 2 failed")),
                "{msg}"
            );
            assert_eq!(run_parts(0..3, |p| p * 2), [0, 2, 4]);
        }
    }

    #[test]
    fn helpers_are_reused_across_splits() {
        // Other tests split at the same time and may hold some helpers,
        // but never more than their own parts at once.
        let helpers: HashSet<thread::ThreadId> = (0..200)
            .map(|_| run_parts(0..2, |_| thread::current().id())[1])
            .collect();
        assert!(
            helpers.len() < 64,
            "{} helpers ran 200 splits",
            helpers.len()
        );
    }
}
