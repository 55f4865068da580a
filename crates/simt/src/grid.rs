//! Warp schedules: the order a launch submits its warps in, and the
//! replay harness that runs a kernel under several of them.
//!
//! The launches themselves are [`crate::backend::ExecCtx`]'s, run by
//! [`crate::backend::ExecBackend`]'s loops; they read the calling thread's
//! policy before a launch splits over threads, and each part runs its
//! share of the submission order in that order.

use std::cell::Cell;

/// In which order a launch submits its warps.
///
/// GPU warp schedulers give no ordering guarantee, so a correct kernel must
/// produce the same result under any execution order. The emulator runs
/// most launches on one thread, in submission order, and a split launch
/// runs each part in order too — which can hide schedule dependence. The
/// policy permutes the submission order deterministically so
/// [`replay_check`] can explore distinct orders reproducibly.
///
/// Warp ids are always the *logical* ids (the chunk or warp index):
/// permutation changes when a warp runs, never which work it owns, so any
/// warp-ordered merge downstream is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Submission order = logical order (the default; zero-overhead path).
    InOrder,
    /// Logical order reversed — the cheapest "maximally different" order.
    Reversed,
    /// A seeded Fisher-Yates shuffle of the logical order.
    Seeded(u64),
}

thread_local! {
    // The policy is per *calling* thread: each launch reads it once before
    // it splits. A split's helper threads keep their thread-locals from job
    // to job, but never set a policy themselves (`with_schedule` restores
    // the previous one even on a panic), so they see the default, InOrder
    // (so would a launch nested in a warp body; none exist today).
    static SCHEDULE: Cell<SchedulePolicy> = const { Cell::new(SchedulePolicy::InOrder) };
}

/// The schedule policy launches issued from this thread will use.
fn current_schedule() -> SchedulePolicy {
    SCHEDULE.with(Cell::get)
}

/// Runs `f` with `policy` governing every launch issued from this thread,
/// restoring the previous policy afterwards (also on panic).
pub fn with_schedule<R>(policy: SchedulePolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(SchedulePolicy);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCHEDULE.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCHEDULE.with(|s| s.replace(policy)));
    f()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The submission permutation for `n` warps under the current policy, or
/// `None` for the in-order zero-allocation path.
pub(crate) fn schedule_order(n: usize) -> Option<Vec<usize>> {
    match current_schedule() {
        SchedulePolicy::InOrder => None,
        SchedulePolicy::Reversed => Some((0..n).rev().collect()),
        SchedulePolicy::Seeded(seed) => {
            let mut order: Vec<usize> = (0..n).collect();
            let mut state = seed;
            for i in (1..n).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            Some(order)
        }
    }
}

/// Reorders `items` (in logical order) into submission order:
/// `result[pos] = items[order[pos]]`.
pub(crate) fn apply_order<T>(items: Vec<T>, order: &[usize]) -> Vec<T> {
    debug_assert_eq!(items.len(), order.len());
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    order
        .iter()
        .map(|&i| slots[i].take().expect("order is a permutation"))
        .collect()
}

/// Outcome of a [`replay_check`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Total executions, including the in-order reference.
    pub runs: usize,
    /// Which non-reference runs disagreed with the reference, by
    /// description (e.g. `"reversed"`, `"seeded(3)"`).
    pub mismatched: Vec<String>,
}

impl ReplayReport {
    /// True when every permuted run matched the in-order reference.
    pub fn all_match(&self) -> bool {
        self.mismatched.is_empty()
    }
}

/// Runs `run` once in order (the reference), once reversed, and under
/// `n_seeded` seeded permutations derived from `seed`, comparing every
/// permuted output to the reference with `eq`.
///
/// `eq` encodes the determinism contract being certified: bit-for-bit
/// comparison proves *bitwise* determinism (the PlusTimes guarantee),
/// while a semantic comparison (same support, values equal
/// under the semiring's tolerance) proves the weaker *semantic*
/// determinism appropriate for MinPlus/OrAnd.
///
/// This certifies schedule independence only over the orders actually
/// tried — it is a replay fuzzer, not a proof; pair it with the
/// [`crate::sanitize`] conflict detector, which reasons about *all*
/// interleavings of the accesses one execution performs.
pub fn replay_check<O>(
    n_seeded: usize,
    seed: u64,
    mut run: impl FnMut() -> O,
    mut eq: impl FnMut(&O, &O) -> bool,
) -> ReplayReport {
    let reference = with_schedule(SchedulePolicy::InOrder, &mut run);
    let mut report = ReplayReport {
        runs: 1,
        mismatched: Vec::new(),
    };
    let mut check = |policy: SchedulePolicy, desc: String, run: &mut dyn FnMut() -> O| {
        let out = with_schedule(policy, &mut *run);
        report.runs += 1;
        if !eq(&reference, &out) {
            report.mismatched.push(desc);
        }
    };
    check(SchedulePolicy::Reversed, "reversed".to_string(), &mut run);
    for k in 0..n_seeded {
        let mut state = seed ^ (k as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
        let perm_seed = splitmix64(&mut state);
        check(
            SchedulePolicy::Seeded(perm_seed),
            format!("seeded({k})"),
            &mut run,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicWords;
    use crate::backend::{backends, ExecBackend, SPLIT_WORK};
    use std::sync::Mutex;
    use std::thread;

    fn all_policies() -> [SchedulePolicy; 4] {
        [
            SchedulePolicy::InOrder,
            SchedulePolicy::Reversed,
            SchedulePolicy::Seeded(7),
            SchedulePolicy::Seeded(0xdead_beef),
        ]
    }

    /// Every policy, on an inline launch and on one at the split gate.
    fn policies_and_work() -> impl Iterator<Item = (SchedulePolicy, usize)> {
        all_policies()
            .into_iter()
            .flat_map(|p| [(p, 0), (p, SPLIT_WORK)])
    }

    #[test]
    fn every_policy_runs_every_warp_once_with_logical_ids() {
        for backend in backends() {
            for (policy, work) in policies_and_work() {
                with_schedule(policy, || {
                    let hits = AtomicWords::zeroed(2);
                    let stats = backend.launch(None, 128, work, |w| {
                        hits.fetch_or(w.warp_id / 64, 1 << (w.warp_id % 64));
                    });
                    assert_eq!(stats.warps, 128, "{backend:?} {policy:?} {work}");
                    assert_eq!(hits.load(0), u64::MAX, "{backend:?} {policy:?} {work}");
                    assert_eq!(hits.load(1), u64::MAX, "{backend:?} {policy:?} {work}");
                });
            }
        }
    }

    #[test]
    fn every_policy_keeps_chunk_ownership() {
        let mut reference: Option<Vec<u32>> = None;
        for backend in backends() {
            for (policy, work) in policies_and_work() {
                with_schedule(policy, || {
                    let mut out = vec![0u32; 100];
                    backend.launch_over_chunks(
                        None,
                        "test/sched-chunks",
                        &mut out,
                        10,
                        work,
                        |w, chunk| {
                            for v in chunk.iter_mut() {
                                *v = w.warp_id as u32 + 1;
                            }
                        },
                    );
                    match &reference {
                        None => reference = Some(out),
                        Some(r) => assert_eq!(&out, r, "{backend:?} {policy:?} {work}"),
                    }
                });
            }
        }
    }

    #[test]
    fn an_owned_pool_runs_warps_in_the_callers_policy_order() {
        // Each part runs its share of the submission order in order, so
        // listing each thread's warps, the caller's first, gives back the
        // permutation the launch submitted, inline and split alike. A
        // policy read on a helper thread would submit in order.
        for (threads, work) in [(1, SPLIT_WORK), (2, 0), (2, SPLIT_WORK), (3, SPLIT_WORK)] {
            let backend = ExecBackend::native(Some(threads));
            for policy in all_policies() {
                let expected = with_schedule(policy, || schedule_order(16))
                    .unwrap_or_else(|| (0..16).collect());
                let ran = Mutex::new(Vec::new());
                let record = |w: usize| ran.lock().unwrap().push((thread::current().id(), w));
                with_schedule(policy, || {
                    backend.launch(None, 16, work, |w| record(w.warp_id))
                });
                let got = by_thread(ran.into_inner().unwrap(), &expected);
                assert_eq!(got, expected, "launch {threads} {work} {policy:?}");
                let ran = Mutex::new(Vec::new());
                let record = |w: usize| ran.lock().unwrap().push((thread::current().id(), w));
                let mut out = vec![0u8; 16];
                with_schedule(policy, || {
                    backend.launch_over_chunks(
                        None,
                        "test/sched-order",
                        &mut out,
                        1,
                        work,
                        |w, _| record(w.warp_id),
                    )
                });
                let got = by_thread(ran.into_inner().unwrap(), &expected);
                assert_eq!(got, expected, "chunks {threads} {work} {policy:?}");
            }
        }
    }

    /// The warps of `ran`, grouped by the thread that ran them: the calling
    /// thread's first, then the others' in the order `expected` puts their
    /// first warps.
    fn by_thread(ran: Vec<(thread::ThreadId, usize)>, expected: &[usize]) -> Vec<usize> {
        let mut groups: Vec<(thread::ThreadId, Vec<usize>)> =
            vec![(thread::current().id(), Vec::new())];
        for (t, w) in ran {
            match groups.iter_mut().find(|g| g.0 == t) {
                Some(g) => g.1.push(w),
                None => groups.push((t, vec![w])),
            }
        }
        let pos = |w: usize| expected.iter().position(|&e| e == w);
        groups[1..].sort_by_key(|g| pos(g.1[0]));
        groups.into_iter().flat_map(|g| g.1).collect()
    }

    #[test]
    fn with_schedule_restores_the_previous_policy() {
        assert_eq!(current_schedule(), SchedulePolicy::InOrder);
        with_schedule(SchedulePolicy::Reversed, || {
            assert_eq!(current_schedule(), SchedulePolicy::Reversed);
            with_schedule(SchedulePolicy::Seeded(1), || {
                assert_eq!(current_schedule(), SchedulePolicy::Seeded(1));
            });
            assert_eq!(current_schedule(), SchedulePolicy::Reversed);
        });
        assert_eq!(current_schedule(), SchedulePolicy::InOrder);
        // Restored even when the body panics.
        let _ = std::panic::catch_unwind(|| {
            with_schedule(SchedulePolicy::Reversed, || panic!("boom"));
        });
        assert_eq!(current_schedule(), SchedulePolicy::InOrder);
    }

    #[test]
    fn seeded_orders_differ_by_seed_and_repeat_by_seed() {
        let order_of = |policy| with_schedule(policy, || schedule_order(64));
        let a = order_of(SchedulePolicy::Seeded(1)).unwrap();
        let b = order_of(SchedulePolicy::Seeded(1)).unwrap();
        let c = order_of(SchedulePolicy::Seeded(2)).unwrap();
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "different seed, different order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "a true permutation");
        assert_ne!(a, (0..64).collect::<Vec<_>>(), "not the identity");
    }

    /// Order-independent: disjoint chunk writes.
    fn replay_chunks(backend: &ExecBackend) -> Vec<u64> {
        let mut out = vec![0u64; 320];
        backend.launch_over_chunks(None, "test/replay", &mut out, 10, SPLIT_WORK, |w, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (w.warp_id * 100 + i) as u64;
            }
        });
        out
    }

    #[test]
    fn replay_check_passes_schedule_independent_kernels() {
        for backend in [ExecBackend::model(), ExecBackend::native(Some(4))] {
            let report = replay_check(8, 42, || replay_chunks(&backend), |a, b| a == b);
            assert_eq!(report.runs, 10, "reference + reversed + 8 seeded");
            assert!(
                report.all_match(),
                "{backend:?} mismatched: {:?}",
                report.mismatched
            );
        }
    }

    #[test]
    fn replay_check_reports_schedule_dependent_outputs() {
        // A "kernel" whose output is the schedule itself: every permuted
        // run must disagree with the in-order reference, and the report
        // names each one.
        let report = replay_check(3, 9, || schedule_order(16), |a, b| a == b);
        assert_eq!(report.runs, 5);
        assert!(!report.all_match());
        assert_eq!(
            report.mismatched,
            vec!["reversed", "seeded(0)", "seeded(1)", "seeded(2)"]
        );
    }
}
