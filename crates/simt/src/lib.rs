//! SIMT execution substrate.
//!
//! The paper's kernels are CUDA warp programs on NVIDIA Ampere GPUs. This
//! crate is the substitution that lets the whole system run and be measured
//! without a GPU:
//!
//! * [`backend`] — kernel launches: a grid of *warps* run on the calling
//!   thread or, when a launch's work estimate reaches [`SPLIT_WORK`] on a
//!   `native:N` backend, split over the caller and `N − 1` helper
//!   threads. A warp is the paper's minimum scheduling unit (one warp per
//!   row tile / per frontier chunk), so parallel structure and load
//!   balancing behave like the CUDA code. [`ExecCtx`] launches them, each launch in one epoch of its
//!   optional [`sanitize`] checker.
//! * [`grid`] — the warp schedule a launch submits in, and the replay
//!   harness that permutes it.
//! * [`warp`] — the per-warp context a kernel body runs in: its warp id,
//!   the work counters it adds to, and the sanitizer it logs its global
//!   accesses on. The bodies walk their lanes in lane order, which keeps
//!   the lock-step semantics of the CUDA code.
//! * [`split`] — the one copy of the code that runs a job's parts on the
//!   calling thread and on process-wide helper threads, parked between
//!   splits: split launches, and the set-up layers (ingest, CSR build,
//!   tile conversion) whose input reaches [`SETUP_SPLIT`] entries. Its
//!   helper pool holds the crate's only `unsafe` block, which is why the
//!   crate denies unsafe code rather than forbidding it.
//! * [`atomic`] — the `atomicOr` of the paper's Algorithms 5–7 over a
//!   plain word vector.
//! * [`stats`] — per-kernel work counters (global memory traffic, flops,
//!   atomics, warp count) aggregated across the grid.
//! * [`device`] + [`model`] — the two GPUs of the paper (RTX 3060 / 3090) as
//!   analytic roofline configurations, turning counted work into an
//!   estimated device time. Figure 7's cross-device comparison uses this.
//!
//! Wall-clock time of the CPU execution and modeled device time are both
//! reported by the harness; relative orderings between algorithms come from
//! the counted work either way.
//!
//! [`analyze`] is the plan-time counterpart to the dynamic [`sanitize`]
//! layer: symbolic per-warp access footprints extracted from launch plans,
//! with race-freedom and merge-determinism obligations discharged before
//! any kernel runs.

#![deny(unsafe_code)]

pub mod analyze;
pub mod atomic;
pub mod backend;
pub mod device;
pub mod grid;
pub mod json;
pub mod metrics;
pub mod model;
pub mod profile;
pub mod sanitize;
pub mod split;
pub mod stats;
pub mod trace;
pub mod warp;

pub use analyze::{
    AccessMode, AtomicKind, BufferUse, Footprint, LaunchSummary, MergeSpec, Obligation,
    ObligationKind, PlanError, PlanReport, Verdict,
};
pub use backend::{ExecBackend, ExecCtx, SPLIT_WORK};
pub use device::{DeviceConfig, RTX_3060, RTX_3090};
pub use grid::{replay_check, with_schedule, ReplayReport, SchedulePolicy};

/// Poisons `m`: a scoped thread panics while holding its lock. The
/// recorders' poisoned-lock tests start from this.
#[cfg(test)]
pub(crate) fn poison<T: Send>(m: &std::sync::Mutex<T>) {
    std::thread::scope(|s| {
        let held = s.spawn(|| {
            let _guard = m.lock();
            panic!("poisoning the lock on purpose");
        });
        assert!(held.join().is_err());
    });
    assert!(m.is_poisoned());
}
pub use profile::Profile;
pub use sanitize::Sanitizer;
pub use split::{host_threads, run_parts, setup_parts, SETUP_SPLIT};
pub use stats::KernelStats;
pub use trace::Tracer;
pub use warp::{WarpCtx, WARP_SIZE};
