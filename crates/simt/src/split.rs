//! Host-thread splits: the one copy of the code that runs independent
//! parts of a job on the calling thread and on scoped threads.
//!
//! Two kinds of work split here. A `native:N` kernel launch whose work
//! estimate reaches [`crate::SPLIT_WORK`] runs its warps in `N` parts
//! ([`crate::backend`]). A set-up layer — MatrixMarket ingest, the CSR
//! build and the tile conversions — whose input reaches [`SETUP_SPLIT`]
//! entries runs in [`host_threads`] parts of rows or bytes
//! ([`setup_parts`]). Either way [`run_parts`] runs the parts: the first
//! on the caller and every other one on a thread of a
//! [`std::thread::scope`], so no thread outlives the call that spawned it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

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
/// A split costs 0.1–0.2 ms on a 2-core host (the spawned threads, the
/// caller's wait, and merging the parts' outputs), so it pays only once a
/// layer takes a few ms. Timed one part against two on banded and web
/// matrices of 2^12 to 2^18 entries, ingest broke even near 2^15 entries,
/// tile conversion near 2^16 and the CSR build, the cheapest layer per
/// entry, near 2^17. At 2^17 every layer is at least as fast split (ingest
/// 1.6×, tiles 1.3×, CSR 1.0×) and the gains grow from there; the test
/// corpora and the CLI's demo specs stay below it.
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
/// scoped thread of its own; a single part spawns nothing. A panic in any
/// part reaches the caller with its payload.
///
/// Never inlined, so the spawning code stays out of its callers' inline
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
    let run = &run;
    std::thread::scope(|s| {
        let start = Instant::now();
        let spawned: Vec<_> = parts.map(|p| s.spawn(move || run(p))).collect();
        let mut results = Vec::with_capacity(spawned.len() + 1);
        results.push(run(first));
        // The caller waits for the other parts runnable, yielding, before
        // it blocks in `join`. A caller blocked in `join` is woken on the
        // CPU the joined thread ran on, and moving it after every split
        // slowed perfbench's single-threaded fem set-ups (`setup_s` ~0.15 s
        // against ~0.11 s). The parts are equal in size, and in those runs
        // every spawned part finished within 2.6 times the caller's part
        // time, so the caller yields for at most twice its part time more.
        // With more parts than hardware threads it blocks at once: the
        // parts then wait for a CPU, and a spinning caller would hold one.
        let spin = if spawned.len() < host_threads() {
            2 * start.elapsed()
        } else {
            Duration::ZERO
        };
        let deadline = Instant::now() + spin;
        for h in spawned {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            results.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

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
}
