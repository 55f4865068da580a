//! The launch substrate: a grid of warps run as one unit the way a CUDA
//! grid launch is, on the calling thread or split over helper threads.
//!
//! [`ExecCtx`] holds the only public launch API. Each of its two launch
//! shapes — a plain grid ([`ExecCtx::launch`]) and a grid over exclusive
//! output chunks ([`ExecCtx::launch_over_chunks`]) — takes the kernel's
//! label and the driver's estimate of the launch's work, opens the
//! [`crate::sanitize`] epoch of that label, runs the warps, and closes the
//! epoch, so a launch is one unit to the race checker just as it is one
//! footprint to the static verifier in [`crate::analyze`]. Every
//! [`WarpCtx`] carries its launch's sanitizer, and kernel bodies log their
//! global accesses through it.
//!
//! [`ExecBackend`] holds the one copy of each launch loop, and the only
//! thing it varies is how many threads run the warps:
//!
//! * `model` — every launch runs on the calling thread;
//! * `native:N` — a launch whose work estimate reaches [`SPLIT_WORK`] is
//!   cut into `N` parts of its submission order. The caller runs the first
//!   part and `N − 1` of [`crate::split`]'s process-wide helper threads,
//!   parked between splits, run the others. Every smaller launch runs on
//!   the caller.
//!
//! Either way the calling thread's [`crate::grid::SchedulePolicy`]
//! permutation applies, and every warp's work counters feed the roofline
//! time model.
//!
//! Determinism does not depend on the split: chunk launches hand each warp
//! an exclusive `&mut` slice, scatter kernels buffer `(index, value)`
//! pairs per warp and merge them *after* the launch in logical warp order,
//! warp ids are logical (the chunk or warp index), and the counters are
//! integer sums. PlusTimes output is therefore bit-identical across
//! backends and thread counts.

use crate::grid::{apply_order, schedule_order};
use crate::sanitize::Sanitizer;
use crate::split::{host_threads, run_parts};
use crate::stats::KernelStats;
use crate::trace::Tracer;
use crate::warp::WarpCtx;
use std::sync::Arc;

/// The work estimate at which a `native:N` launch splits over threads;
/// every launch below it runs on the calling thread.
///
/// The unit is a stored tile entry the row kernel is expected to visit,
/// about 3.3 ns on a 2-vCPU host when the caches are cold. An SpMSpV
/// tile launch estimates the column tiles its lanes' `x` opens at the
/// matrix's average entries per tile. The side-COO pass weighs each
/// extracted entry it visits by its measured cost in the same unit
/// (`tsv_core`'s `coo_pass_work`), so this one constant gates both. BFS
/// launches pass no estimate (0) and so never split: every BFS launch
/// timed split ran slower than inline.
///
/// A split runs its parts after the first on parked helper threads. An
/// empty one costs 5–11 µs on that host when splits follow each other,
/// and 23–35 µs right after a few ms of single-threaded work, as a
/// benchmark query meets it, mostly the second vCPU waking to run the
/// helper. Two threads there give 1.4–1.8× one core, so only launches of
/// about 0.1 ms or more pay for a split. 2^16 (~0.2 ms of row-kernel work)
/// splits the row-tile launches of density-0.1 and 0.01 queries on
/// 32 768-row web and banded matrices and a density-0.1 lane's COO pass,
/// which all measured faster split, and leaves the push launches of
/// sparser queries, which measured slower split, on the caller (DESIGN §10
/// has the measurements).
pub const SPLIT_WORK: usize = 1 << 16;

/// How a kernel launch runs its warps: all on the calling thread
/// ([`ExecBackend::model`], the default), or split over `N` threads when
/// the launch's work reaches [`SPLIT_WORK`] ([`ExecBackend::native`]).
#[derive(Clone, Default)]
pub struct ExecBackend {
    /// `None` for `model`; otherwise the threads a split launch runs on.
    threads: Option<usize>,
}

impl std::fmt::Debug for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ExecBackend")
            .field(&self.describe())
            .finish()
    }
}

impl ExecBackend {
    /// Every launch runs on the calling thread — the default everywhere.
    pub fn model() -> Self {
        Self { threads: None }
    }

    /// Launches whose work reaches [`SPLIT_WORK`] split over `threads`
    /// threads (`None`: one per hardware thread, [`host_threads`]).
    pub fn native(threads: Option<usize>) -> Self {
        let threads = threads.filter(|&t| t > 0).unwrap_or_else(host_threads);
        Self {
            threads: Some(threads),
        }
    }

    /// `"model"` or `"native:N"` — the CLI spelling that reproduces this
    /// backend, used in reports and telemetry.
    pub fn describe(&self) -> String {
        match self.threads {
            None => "model".to_string(),
            Some(t) => format!("native:{t}"),
        }
    }

    /// The parts a launch of `n_warps` warps and estimated `work` runs in:
    /// one, on the caller, unless this backend is native and the work
    /// reaches [`SPLIT_WORK`].
    fn parts(&self, n_warps: usize, work: usize) -> usize {
        match self.threads {
            Some(t) if work >= SPLIT_WORK => t.min(n_warps).max(1),
            _ => 1,
        }
    }

    /// Runs `n_warps` warps of `body`, each logging on `san`. Returns the
    /// summed work counters. See [`ExecCtx::launch`].
    pub(crate) fn launch<F>(
        &self,
        san: Option<&Sanitizer>,
        n_warps: usize,
        work: usize,
        body: F,
    ) -> KernelStats
    where
        F: Fn(&mut WarpCtx<'_>) + Sync,
    {
        let run = |warp_id: usize| {
            let mut ctx = WarpCtx::new(warp_id, san);
            body(&mut ctx);
            ctx.stats
        };
        // The policy is the calling thread's, not the helper threads'
        // (theirs stays the in-order default), so it is read before the
        // split.
        let order = schedule_order(n_warps);
        let parts = self.parts(n_warps, work);
        match (order, parts) {
            (None, 1) => (0..n_warps).map(run).sum(),
            (order, _) => {
                let order = order.unwrap_or_else(|| (0..n_warps).collect());
                run_split(order.chunks(n_warps.div_ceil(parts).max(1)), |part| {
                    part.iter().map(|&w| run(w)).sum()
                })
            }
        }
    }

    /// Runs one warp of `body` per `chunk_len` piece of `output`, warp `i`
    /// owning piece `i`, each logging on `san`. See
    /// [`ExecCtx::launch_over_chunks`] for the size contract.
    pub(crate) fn launch_over_chunks<T, F>(
        &self,
        san: Option<&Sanitizer>,
        label: &str,
        output: &mut [T],
        chunk_len: usize,
        work: usize,
        body: F,
    ) -> KernelStats
    where
        T: Send,
        F: Fn(&mut WarpCtx<'_>, &mut [T]) + Sync,
    {
        check_chunked(label, output.len(), chunk_len);
        let run = |warp_id: usize, chunk: &mut [T]| {
            let mut ctx = WarpCtx::new(warp_id, san);
            body(&mut ctx, chunk);
            ctx.stats
        };
        let n_warps = output.len() / chunk_len;
        let order = schedule_order(n_warps);
        let parts = self.parts(n_warps, work);
        let chunks = output.chunks_mut(chunk_len).enumerate();
        match (order, parts) {
            (None, 1) => chunks.map(|(w, c)| run(w, c)).sum(),
            (order, _) => {
                let mut chunks: Vec<(usize, &mut [T])> = chunks.collect();
                if let Some(order) = order {
                    chunks = apply_order(chunks, &order);
                }
                run_split(chunks.chunks_mut(n_warps.div_ceil(parts).max(1)), |part| {
                    part.iter_mut().map(|(w, c)| run(*w, c)).sum()
                })
            }
        }
    }
}

/// Runs `run` over each of `parts` through [`run_parts`] and sums the
/// counters. A panic in any part reaches the caller with its payload.
///
/// Never inlined, so the split's code stays out of the launch loops'
/// inline path, which every small launch runs.
#[inline(never)]
fn run_split<P: Send>(
    parts: impl Iterator<Item = P>,
    run: impl Fn(P) -> KernelStats + Sync,
) -> KernelStats {
    run_parts(parts, run).into_iter().sum()
}

/// Where a launch runs and what watches it: the execution backend plus
/// the optional tracer and race sanitizer. Every driver receives one, and
/// the engines hold one. `Default` is the modeled backend with neither a
/// tracer nor a sanitizer attached.
///
/// Its two launch shapes are the only public way to run warps. Each runs
/// inside one epoch of the attached sanitizer, named by the launch's
/// label, so conflicts are attributed to the launch that made them and no
/// launch can run outside an epoch.
///
/// With a tracer attached, each driver phase boundary reads the clock
/// once; without one, the drivers read no clock at all. A driver records
/// each launch once, as its trace event: the per-kernel table is
/// [`Profile::from_events`](crate::profile::Profile::from_events) over
/// the ring, and the Prometheus exposition is
/// [`prometheus_text`](crate::metrics::prometheus_text) over it.
#[derive(Debug, Default)]
pub struct ExecCtx {
    /// The execution substrate every kernel launch runs on.
    pub backend: ExecBackend,
    /// Span recorder for phases, kernel launches and BFS iterations.
    pub tracer: Option<Arc<Tracer>>,
    /// Race sanitizer; each launch runs inside one of its epochs.
    pub sanitizer: Option<Arc<Sanitizer>>,
}

impl ExecCtx {
    /// Launches `n_warps` warps of kernel `label`, each running `body`.
    /// Returns the summed work counters.
    ///
    /// This is the CPU analog of `kernel<<<grid, block>>>`. The body
    /// communicates results through the atomic views in [`crate::atomic`]
    /// or through pre-partitioned output — see
    /// [`launch_over_chunks`](Self::launch_over_chunks) for the common
    /// row-tile-owns-output pattern.
    ///
    /// `work` is the driver's estimate of the entries or edges the launch
    /// visits; a native backend splits the launch over threads only when
    /// it reaches [`SPLIT_WORK`]. A launch with no estimate passes 0 and
    /// runs on the calling thread.
    pub fn launch<F>(&self, label: &str, n_warps: usize, work: usize, body: F) -> KernelStats
    where
        F: Fn(&mut WarpCtx<'_>) + Sync,
    {
        let san = self.open_epoch(label);
        let stats = self.backend.launch(san, n_warps, work, body);
        close_epoch(san);
        stats
    }

    /// Launches one warp of kernel `label` per output chunk: `output` is
    /// split into disjoint `chunk_len`-sized pieces and warp `i` gets
    /// exclusive mutable access to piece `i`.
    ///
    /// This matches the paper's row-tile kernels, where a warp owns the
    /// `nt` output rows of its row tile and therefore needs no atomics on
    /// y.
    ///
    /// `output.len()` must be a multiple of `chunk_len`: every caller owns
    /// a padded buffer (`m_tiles * nt` for the tile kernels), and a short
    /// tail chunk would mean a mis-sized buffer silently corrupting the
    /// last tile. The assertion's message names the kernel by `label`.
    ///
    /// `work` is the launch's work estimate, as for [`launch`](Self::launch).
    pub fn launch_over_chunks<T, F>(
        &self,
        label: &str,
        output: &mut [T],
        chunk_len: usize,
        work: usize,
        body: F,
    ) -> KernelStats
    where
        T: Send,
        F: Fn(&mut WarpCtx<'_>, &mut [T]) + Sync,
    {
        let san = self.open_epoch(label);
        let stats = self
            .backend
            .launch_over_chunks(san, label, output, chunk_len, work, body);
        close_epoch(san);
        stats
    }

    /// Opens the epoch of launch `label` on the attached sanitizer, when it
    /// is enabled, and returns it for the warps to log on.
    fn open_epoch(&self, label: &str) -> Option<&Sanitizer> {
        let san = self.sanitizer.as_deref().filter(|s| s.is_enabled())?;
        san.begin_launch(label);
        Some(san)
    }
}

/// Closes the epoch [`ExecCtx::open_epoch`] opened: runs conflict
/// detection over the launch's accesses.
fn close_epoch(san: Option<&Sanitizer>) {
    if let Some(s) = san {
        s.end_launch();
    }
}

/// Asserts the chunked-launch size contract: `chunk_len` positive and
/// `len` an exact multiple of it, naming the launching kernel (`label`)
/// and both sizes otherwise.
fn check_chunked(label: &str, len: usize, chunk_len: usize) {
    assert!(chunk_len > 0, "{label}: chunk_len must be positive");
    assert_eq!(
        len % chunk_len,
        0,
        "{label}: output length {} is not a multiple of chunk_len {} \
         ({} whole chunks + {} trailing elements); pad the buffer",
        len,
        chunk_len,
        len / chunk_len,
        len % chunk_len
    );
}

#[cfg(test)]
pub(crate) fn backends() -> Vec<ExecBackend> {
    vec![
        ExecBackend::model(),
        ExecBackend::native(Some(1)),
        ExecBackend::native(Some(4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicWords;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// An unwatched context on `backend`.
    fn on(backend: ExecBackend) -> ExecCtx {
        ExecCtx {
            backend,
            ..ExecCtx::default()
        }
    }

    #[test]
    fn identity_reports_describe_and_a_cloned_backend() {
        let m = ExecBackend::model();
        assert_eq!(m.describe(), "model");
        assert_eq!(
            format!("{:?}", ExecBackend::default()),
            "ExecBackend(\"model\")"
        );
        let n = ExecBackend::native(Some(3));
        let cloned = n.clone();
        assert_eq!(n.describe(), "native:3");
        assert_eq!(cloned.describe(), "native:3", "a clone splits alike");
        assert_eq!(
            ExecBackend::native(None).describe(),
            format!("native:{}", host_threads())
        );
    }

    /// The threads that ran the warps of one launch of `n` warps and
    /// estimated `work` on `backend`, plain and chunked.
    fn launch_threads(backend: ExecBackend, n: usize, work: usize) -> [HashSet<ThreadId>; 2] {
        let ctx = on(backend);
        let ran = Mutex::new(HashSet::new());
        ctx.launch("test/threads", n, work, |_| {
            ran.lock().unwrap().insert(std::thread::current().id());
        });
        let plain = ran.into_inner().unwrap();
        let ran = Mutex::new(HashSet::new());
        let mut out = vec![0u8; n];
        ctx.launch_over_chunks("test/threads", &mut out, 1, work, |_, _| {
            ran.lock().unwrap().insert(std::thread::current().id());
        });
        [plain, ran.into_inner().unwrap()]
    }

    #[test]
    fn a_native_launch_splits_only_at_the_work_gate() {
        let caller = HashSet::from([std::thread::current().id()]);
        for threads in launch_threads(ExecBackend::native(Some(2)), 64, SPLIT_WORK) {
            assert_eq!(threads.len(), 2, "two distinct threads");
            assert!(threads.is_superset(&caller), "the caller runs a part");
        }
        for threads in launch_threads(ExecBackend::native(Some(2)), 64, SPLIT_WORK - 1) {
            assert_eq!(threads, caller, "below the gate: inline");
        }
        for threads in launch_threads(ExecBackend::model(), 64, usize::MAX) {
            assert_eq!(threads, caller, "model: always inline");
        }
        // Never more parts than warps.
        for threads in launch_threads(ExecBackend::native(Some(4)), 1, SPLIT_WORK) {
            assert_eq!(threads, caller, "one warp, one part");
        }
    }

    #[test]
    fn a_panic_in_a_spawned_part_reaches_the_caller_with_its_payload() {
        // Two warps in two parts: warp 1 runs on the spawned thread.
        let ctx = on(ExecBackend::native(Some(2)));
        let caller = std::thread::current().id();
        let err = std::panic::catch_unwind(|| {
            ctx.launch("test/spawned-panic", 2, SPLIT_WORK, |w| {
                if w.warp_id == 1 {
                    assert_ne!(std::thread::current().id(), caller);
                    panic!("warp {} failed on purpose", w.warp_id);
                }
            })
        })
        .expect_err("the spawned part's panic must propagate");
        let msg = err.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("warp 1 failed on purpose"));
    }

    #[test]
    fn a_spawned_part_still_running_after_the_spin_is_joined() {
        // The caller's part is instant, so it stops yielding at once and
        // blocks in `join` while the spawned part sleeps.
        let ctx = on(ExecBackend::native(Some(2)));
        let stats = ctx.launch("test/slow-part", 2, SPLIT_WORK, |w| {
            if w.warp_id == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                w.stats.flop(1);
            }
        });
        assert_eq!((stats.warps, stats.flops), (2, 1));
    }

    #[test]
    fn every_backend_runs_every_warp_once() {
        for b in backends() {
            for work in [0, SPLIT_WORK] {
                let hits = AtomicWords::zeroed(2);
                let stats = on(b.clone()).launch("test/every-warp", 128, work, |w| {
                    hits.fetch_or(w.warp_id / 64, 1 << (w.warp_id % 64));
                });
                assert_eq!(stats.warps, 128, "{b:?} {work}");
                assert_eq!(hits.load(0), u64::MAX, "{b:?} {work}");
                assert_eq!(hits.load(1), u64::MAX, "{b:?} {work}");
            }
        }
    }

    #[test]
    fn launch_zero_warps_is_empty() {
        for b in backends() {
            for work in [0, SPLIT_WORK] {
                let stats =
                    on(b.clone()).launch("test/empty", 0, work, |_| panic!("no warp should run"));
                assert_eq!(stats.warps, 0, "{b:?}");
                let stats = on(b.clone()).launch_over_chunks(
                    "test/empty",
                    &mut [0u8; 0],
                    4,
                    work,
                    |_, _| panic!("no warp should run"),
                );
                assert_eq!(stats.warps, 0, "{b:?}");
            }
        }
    }

    #[test]
    fn launch_sums_stats() {
        for b in backends() {
            for work in [0, SPLIT_WORK] {
                let stats = on(b.clone()).launch("test/sums", 37, work, |w| {
                    w.stats.read(8);
                    w.stats.flop(2);
                });
                assert_eq!(stats.warps, 37, "{b:?}");
                assert_eq!(stats.gmem_read_bytes, 37 * 8, "{b:?}");
                assert_eq!(stats.flops, 37 * 2, "{b:?}");
            }
        }
    }

    #[test]
    fn every_backend_keeps_chunk_ownership_bit_identical() {
        let expected: Vec<u32> = (0..100).map(|i| (i / 10 * 100 + i % 10) as u32).collect();
        for b in backends() {
            for work in [0, SPLIT_WORK] {
                let mut out = vec![0u32; 100];
                let stats = on(b.clone()).launch_over_chunks(
                    "test/backend-chunks",
                    &mut out,
                    10,
                    work,
                    |w, chunk| {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = (w.warp_id * 100 + i) as u32;
                        }
                    },
                );
                assert_eq!(stats.warps, 10, "{b:?}");
                assert_eq!(out, expected, "{b:?}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn each_launch_is_one_epoch_of_its_label() {
        for b in backends() {
            for work in [0, SPLIT_WORK] {
                let san = Arc::new(Sanitizer::new());
                let ctx = ExecCtx {
                    backend: b.clone(),
                    sanitizer: Some(Arc::clone(&san)),
                    ..ExecCtx::default()
                };
                // Every warp stores to one element: a conflict in each launch.
                ctx.launch("test/grid", 4, work, |w| w.write("y", 3, 0));
                let mut out = vec![0u8; 4];
                ctx.launch_over_chunks("test/chunks", &mut out, 1, work, |w, _| w.write("y", 3, 0));
                // Even a launch with no warps is an epoch.
                ctx.launch("test/empty", 0, work, |_| {});
                let s = san.summary();
                assert_eq!((s.launches, s.accesses, s.violations), (3, 8, 2), "{b:?}");
                let kernels: Vec<String> = san.violations().into_iter().map(|v| v.kernel).collect();
                assert_eq!(kernels, ["test/grid", "test/chunks"], "{b:?}");
                // A disabled sanitizer opens no epoch.
                san.set_enabled(false);
                ctx.launch("test/off", 4, work, |w| w.write("y", 3, 0));
                assert_eq!(san.summary(), s, "{b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of chunk_len")]
    fn chunks_reject_ragged_tail() {
        // A short tail chunk means the caller mis-sized its padded buffer;
        // fail loudly instead of corrupting the last tile.
        let mut out = vec![0u8; 25];
        ExecCtx::default().launch_over_chunks("test/ragged", &mut out, 10, 0, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "not a multiple of chunk_len")]
    fn native_chunks_reject_ragged_tail() {
        let mut out = vec![0u8; 25];
        on(ExecBackend::native(Some(2))).launch_over_chunks(
            "test/native-ragged",
            &mut out,
            10,
            SPLIT_WORK,
            |_, _| {},
        );
    }

    #[test]
    fn ragged_tail_panic_names_the_kernel_and_sizes() {
        // Regression: the divisibility assert used to omit the launching
        // kernel, which made a mis-sized buffer painful to attribute.
        let err = std::panic::catch_unwind(|| {
            let mut out = vec![0u8; 25];
            ExecCtx::default().launch_over_chunks("spmspv/row-tile", &mut out, 10, 0, |_, _| {});
        })
        .expect_err("ragged tail must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("spmspv/row-tile"), "kernel label: {msg}");
        assert!(msg.contains("25"), "total length: {msg}");
        assert!(msg.contains("chunk_len 10"), "chunk size: {msg}");
        assert!(msg.contains("2 whole chunks"), "unit count: {msg}");
    }
}
