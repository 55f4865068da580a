//! Run telemetry: a low-overhead span/event recorder with Chrome Trace
//! Format export.
//!
//! The [`Tracer`] is a shared, thread-safe ring buffer of completed spans.
//! Call sites are written against `Option<&Tracer>` through the free helpers
//! [`enabled`], [`phase`], [`kernel`] and [`iteration`]; with no tracer (or a
//! disabled one) each helper costs a single branch, so the hot engine paths
//! stay unperturbed when telemetry is off.
//!
//! Events are recorded at span *end* from a caller-measured `(start,
//! duration)` pair — the caller reads its clock once per boundary and may
//! keep the reading as a result of its own; there is no open-span
//! bookkeeping on the recording side. The
//! ring overwrites its oldest entry when full and counts the evictions in
//! [`Tracer::dropped`], so a long run can always be traced; the tail is
//! what survives.
//!
//! [`chrome_trace_json`] turns the recorded events into a Chrome Trace
//! Format document (loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>) with one track per recording thread plus a
//! synthetic *modeled-device* track that lays the analytic-model duration
//! of every kernel launch end to end. [`validate_chrome_trace`] is the
//! structural checker used by both the unit tests and the `repro trace`
//! smoke step. [`Profile::from_events`](crate::profile::Profile::from_events)
//! sums the same events into the per-kernel table and
//! [`prometheus_text`](crate::metrics::prometheus_text) renders them as a
//! Prometheus exposition, so each launch is recorded once and every
//! document is a view of it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::device::DeviceConfig;
use crate::json::{self, JsonValue};
use crate::model::kernel_time;
use crate::stats::KernelStats;

/// Track id reserved for the synthetic modeled-device timeline.
pub const MODELED_TID: u64 = 0;

/// Default ring capacity (events), enough for ~65k spans.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Event category for kernel launches (carries [`KernelStats`]).
pub const CAT_KERNEL: &str = "kernel";
/// Event category for engine phases (tiling, compression, compaction...).
pub const CAT_PHASE: &str = "phase";
/// Event category for per-iteration BFS records (carries [`IterationInfo`]).
pub const CAT_BFS: &str = "bfs";

// Worker tids start at 1; 0 is the modeled-device track. Each thread takes
// a dense id the first time it records, so traces show "worker-1..k"
// rather than opaque OS thread ids. A split's helper threads outlive their
// jobs, so a helper keeps its id, and its trace track, from split to split.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Per-iteration traversal context attached to BFS events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationInfo {
    /// 1-based BFS level the iteration discovered.
    pub level: u32,
    /// Frontier size entering the iteration.
    pub frontier: usize,
    /// Vertices discovered by the iteration.
    pub discovered: usize,
    /// Vertices still unvisited entering the iteration.
    pub unvisited: usize,
    /// `frontier / n` — the density the kernel policy saw.
    pub density: f64,
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span label, e.g. `"spmspv/row-tile"` or `"bfs/push-csc"`.
    pub name: Cow<'static, str>,
    /// One of [`CAT_KERNEL`], [`CAT_PHASE`], [`CAT_BFS`].
    pub cat: &'static str,
    /// Dense per-thread track id (≥ 1; 0 is the modeled track).
    pub tid: u64,
    /// Span start, nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Span wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Work counters for kernel launches.
    pub stats: Option<KernelStats>,
    /// Traversal context for BFS iterations.
    pub iteration: Option<IterationInfo>,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
}

/// Thread-safe span recorder. Cheap to share (`Arc<Tracer>`); disabled
/// recording costs one atomic load.
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    enabled: AtomicBool,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An enabled tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose ring holds `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch: Instant::now(),
            capacity,
            enabled: AtomicBool::new(true),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
            }),
        }
    }

    /// Whether recording is on. The single branch every call site pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Already-recorded events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds from this tracer's epoch to `t` (0 for instants taken
    /// before the tracer existed).
    #[inline]
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one completed span on the calling thread's track.
    pub fn record(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        stats: Option<KernelStats>,
        iteration: Option<IterationInfo>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let ev = TraceEvent {
            name: name.into(),
            cat,
            tid: current_tid(),
            ts_ns,
            dur_ns,
            stats,
            iteration,
        };
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % self.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events currently held, oldest first (by recording order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buf
            .len()
    }

    /// True when nothing has been recorded (or everything cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discards all recorded events and the eviction count.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.buf.clear();
        ring.head = 0;
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// Whether `tracer` is attached and recording. The `None`/disabled path is
/// the one branch per span that disabled tracing costs; callers read the
/// clock only when this says so, unless they need the time themselves.
#[inline]
pub fn enabled(tracer: Option<&Tracer>) -> bool {
    tracer.is_some_and(Tracer::is_enabled)
}

// The recording helpers below take a span measured by the caller's
// clock: `start` is placed on the tracer's timeline and `dur` is taken as
// given, so one measurement can feed the tracer and the caller's own
// result (a BFS iteration's wall time) without a second clock read.

/// Records a phase span that started at `start` and lasted `dur`.
#[inline]
pub fn phase(
    tracer: Option<&Tracer>,
    name: impl Into<Cow<'static, str>>,
    start: Instant,
    dur: Duration,
) {
    if let Some(t) = tracer.filter(|t| t.is_enabled()) {
        let ts = t.ns_at(start);
        t.record(name, CAT_PHASE, ts, dur.as_nanos() as u64, None, None);
    }
}

/// Records a kernel-launch span, attaching its work counters.
#[inline]
pub fn kernel(
    tracer: Option<&Tracer>,
    name: impl Into<Cow<'static, str>>,
    stats: KernelStats,
    start: Instant,
    dur: Duration,
) {
    if let Some(t) = tracer.filter(|t| t.is_enabled()) {
        let ts = t.ns_at(start);
        t.record(
            name,
            CAT_KERNEL,
            ts,
            dur.as_nanos() as u64,
            Some(stats),
            None,
        );
    }
}

/// Records a BFS-iteration span, attaching the traversal context (and
/// kernel counters when the iteration maps to a single launch).
#[inline]
pub fn iteration(
    tracer: Option<&Tracer>,
    name: impl Into<Cow<'static, str>>,
    stats: Option<KernelStats>,
    info: IterationInfo,
    start: Instant,
    dur: Duration,
) {
    if let Some(t) = tracer.filter(|t| t.is_enabled()) {
        let ts = t.ns_at(start);
        t.record(name, CAT_BFS, ts, dur.as_nanos() as u64, stats, Some(info));
    }
}

// ------------------------------------------------------------------
// Chrome Trace Format export
// ------------------------------------------------------------------

struct Span {
    tid: u64,
    name: String,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
    args: String,
}

fn stats_args(out: &mut String, stats: &KernelStats, device: &DeviceConfig) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"modeled_ms\":{},\"gmem_read_bytes\":{},\"gmem_write_bytes\":{},\
         \"gmem_scattered_bytes\":{},\"atomics\":{},\"flops\":{},\"bitops\":{},\
         \"warps\":{},\"lane_steps\":{}",
        json::number(kernel_time(stats, device) * 1e3),
        stats.gmem_read_bytes,
        stats.gmem_write_bytes,
        stats.gmem_scattered_bytes,
        stats.atomics,
        stats.flops,
        stats.bitops,
        stats.warps,
        stats.lane_steps,
    );
}

fn iteration_args(out: &mut String, info: &IterationInfo) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"level\":{},\"frontier\":{},\"discovered\":{},\"unvisited\":{},\"density\":{}",
        info.level,
        info.frontier,
        info.discovered,
        info.unvisited,
        json::number(info.density),
    );
}

/// Renders recorded events as a Chrome Trace Format JSON document with one
/// track per recording thread and a synthetic modeled-device track (tid 0)
/// laying the analytic-model duration of each kernel launch end to end.
///
/// Guarantees: globally non-decreasing `ts` over the `B`/`E` stream, and
/// properly nested `B`/`E` pairs on every track.
pub fn chrome_trace_json(events: &[TraceEvent], device: &DeviceConfig) -> String {
    use std::fmt::Write as _;

    let mut spans: Vec<Span> = Vec::with_capacity(events.len() * 2);
    for ev in events {
        let mut args = format!("\"wall_ms\":{}", json::number(ev.dur_ns as f64 / 1e6));
        if let Some(s) = &ev.stats {
            stats_args(&mut args, s, device);
        }
        if let Some(i) = &ev.iteration {
            iteration_args(&mut args, i);
        }
        spans.push(Span {
            tid: ev.tid,
            name: ev.name.to_string(),
            cat: ev.cat,
            start_ns: ev.ts_ns,
            end_ns: ev.ts_ns + ev.dur_ns.max(1),
            args,
        });
    }

    // Modeled-device track: each kernel launch (including BFS iterations,
    // which are one launch each), at its analytic-model duration, placed
    // sequentially (the model assumes the device runs one kernel at a
    // time). Launch order follows wall-clock start times.
    let mut kernels: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| (e.cat == CAT_KERNEL || e.cat == CAT_BFS) && e.stats.is_some())
        .collect();
    kernels.sort_by_key(|e| e.ts_ns);
    let mut cursor = 0u64;
    for ev in &kernels {
        let stats = ev.stats.as_ref().expect("filtered on stats");
        let dur = ((kernel_time(stats, device) * 1e9) as u64).max(1);
        let start = cursor.max(ev.ts_ns);
        cursor = start + dur;
        let mut args = format!("\"modeled_ms\":{}", json::number(dur as f64 / 1e6));
        let _ = write!(
            args,
            ",\"wall_ms\":{}",
            json::number(ev.dur_ns as f64 / 1e6)
        );
        spans.push(Span {
            tid: MODELED_TID,
            name: ev.name.to_string(),
            cat: "modeled",
            start_ns: start,
            end_ns: start + dur,
            args,
        });
    }

    // Normalize so the trace starts at ts 0.
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    for s in &mut spans {
        s.start_ns -= t0;
        s.end_ns -= t0;
    }

    // Emit as a single sorted B/E stream. Sorting B's by (start, longest
    // first) puts enclosing spans before the spans they contain; the sweep
    // then closes every open span whose end has passed before opening the
    // next one, which keeps `ts` globally non-decreasing and every track's
    // B/E stream properly nested (per-track open stacks are popped
    // top-first, and nested spans always sit above their parents).
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns), i));

    fn sep(body: &mut String, first: &mut bool) {
        if !std::mem::take(first) {
            body.push(',');
        }
    }

    let mut body = String::new();
    let mut first = true;

    // Metadata: process name plus one thread_name record per track.
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    sep(&mut body, &mut first);
    body.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"tilespmspv\"}}",
    );
    for &tid in &tids {
        let label = if tid == MODELED_TID {
            format!("modeled-{}", device.name)
        } else {
            format!("worker-{tid}")
        };
        sep(&mut body, &mut first);
        let _ = write!(
            body,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(&label)
        );
    }

    let us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);

    // Per-track stacks of open spans: (end_ns, span index). Nesting means
    // each stack's ends weakly decrease toward the top, so the top is
    // always the track's earliest-closing open span.
    let mut open: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    let close_until = |body: &mut String,
                       open: &mut BTreeMap<u64, Vec<(u64, usize)>>,
                       limit: u64,
                       first: &mut bool| {
        loop {
            let mut best: Option<(u64, u64)> = None; // (end, tid)
            for (&tid, stack) in open.iter() {
                if let Some(&(end, _)) = stack.last() {
                    if end <= limit && best.is_none_or(|(be, _)| end < be) {
                        best = Some((end, tid));
                    }
                }
            }
            let Some((end, tid)) = best else { break };
            let stack = open.get_mut(&tid).expect("tid present");
            let (_, idx) = stack.pop().expect("non-empty");
            if stack.is_empty() {
                open.remove(&tid);
            }
            let s: &Span = &spans[idx];
            if !std::mem::take(first) {
                body.push(',');
            }
            let _ = write!(
                body,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                json::escape(&s.name),
                s.cat,
                us(end),
                tid,
            );
        }
    };

    for &i in &order {
        close_until(&mut body, &mut open, spans[i].start_ns, &mut first);
        let s = &spans[i];
        if !std::mem::take(&mut first) {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\
             \"tid\":{},\"args\":{{{}}}}}",
            json::escape(&s.name),
            s.cat,
            us(s.start_ns),
            s.tid,
            s.args,
        );
        open.entry(s.tid).or_default().push((s.end_ns, i));
    }
    close_until(&mut body, &mut open, u64::MAX, &mut first);

    format!("{{\"traceEvents\":[{body}],\"displayTimeUnit\":\"ms\"}}")
}

/// Structural facts established by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total `B`/`E` events (metadata excluded).
    pub events: usize,
    /// `B` events with category `"kernel"`.
    pub kernel_spans: usize,
    /// Distinct track ids carrying spans.
    pub tracks: usize,
}

/// Validates a Chrome Trace Format document structurally: it must parse,
/// `ts` must be globally non-decreasing over the `B`/`E` stream, and every
/// track's `B`/`E` events must pair up with stack discipline (matching
/// names, nothing left open).
pub fn validate_chrome_trace(doc: &str) -> Result<TraceCheck, String> {
    let root = json::parse(doc)?;
    let events = root
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;

    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut check = TraceCheck {
        events: 0,
        kernel_spans: 0,
        tracks: 0,
    };
    let mut tracks: Vec<u64> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if ph != "B" && ph != "E" {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < last_ts {
            return Err(format!("event {i}: ts {ts} < previous {last_ts}"));
        }
        last_ts = ts;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        check.events += 1;
        if !tracks.contains(&tid) {
            tracks.push(tid);
        }
        if ph == "B" {
            if ev.get("cat").and_then(JsonValue::as_str) == Some(CAT_KERNEL) {
                check.kernel_spans += 1;
            }
            stacks.entry(tid).or_default().push(name.to_string());
        } else {
            let top = stacks
                .get_mut(&tid)
                .and_then(Vec::pop)
                .ok_or_else(|| format!("event {i}: E with no open span on tid {tid}"))?;
            if !name.is_empty() && top != name {
                return Err(format!(
                    "event {i}: E name {name:?} does not close B name {top:?} on tid {tid}"
                ));
            }
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} span(s) left open", stack.len()));
        }
    }
    check.tracks = tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RTX_3060;

    fn some_stats() -> KernelStats {
        let mut s = KernelStats::default();
        s.read(4096);
        s.write(512);
        s.flop(1000);
        s.warps = 4;
        s.lane_steps = 128;
        s
    }

    #[test]
    fn a_poisoned_ring_still_records_and_reports() {
        let t = Tracer::new();
        crate::poison(&t.ring);
        let t0 = Instant::now();
        kernel(Some(&t), "k", some_stats(), t0, t0.elapsed());
        phase(Some(&t), "p", t0, t0.elapsed());
        assert_eq!(t.len(), 2);
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.set_enabled(false);
        assert!(!enabled(Some(&t)));
        let t0 = Instant::now();
        kernel(Some(&t), "k", some_stats(), t0, t0.elapsed());
        phase(Some(&t), "p", t0, t0.elapsed());
        assert!(t.is_empty());
        assert!(!enabled(None));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        for i in 0..6u64 {
            t.record(format!("ev{i}"), CAT_PHASE, i * 100, 10, None, None);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let names: Vec<String> = t.events().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["ev2", "ev3", "ev4", "ev5"]);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn span_helpers_record_wall_time_and_payloads() {
        let t = Tracer::new();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        kernel(Some(&t), "spmspv/row-tile", some_stats(), t0, t0.elapsed());
        let info = IterationInfo {
            level: 3,
            frontier: 40,
            discovered: 120,
            unvisited: 500,
            density: 0.04,
        };
        let t1 = Instant::now();
        let dur = Duration::from_nanos(1234);
        iteration(Some(&t), "bfs/push-csr", Some(some_stats()), info, t1, dur);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cat, CAT_KERNEL);
        assert!(
            evs[0].dur_ns >= 1_000_000,
            "slept 2ms, got {}ns",
            evs[0].dur_ns
        );
        assert_eq!(evs[0].stats, Some(some_stats()));
        assert_eq!(evs[1].iteration, Some(info));
        assert!(evs[1].ts_ns >= evs[0].ts_ns);
        // The caller's measurement is recorded as given.
        assert_eq!(evs[1].dur_ns, 1234);
        assert_eq!(evs[1].ts_ns, t.ns_at(t1));
    }

    #[test]
    fn chrome_export_is_structurally_valid() {
        let t = Tracer::new();
        // Nested phases around two kernels on this thread.
        let outer = Instant::now();
        let k0 = Instant::now();
        kernel(Some(&t), "spmspv/row-tile", some_stats(), k0, k0.elapsed());
        let k1 = Instant::now();
        kernel(Some(&t), "spmspv/col-tile", some_stats(), k1, k1.elapsed());
        phase(Some(&t), "spmspv/outer", outer, outer.elapsed());

        let doc = chrome_trace_json(&t.events(), &RTX_3060);
        let check = validate_chrome_trace(&doc).expect("valid trace");
        // 3 wall spans + 2 modeled spans, each a B/E pair.
        assert_eq!(check.events, 10);
        assert_eq!(check.kernel_spans, 2);
        // This thread's track plus the modeled-device track.
        assert_eq!(check.tracks, 2);
        assert!(doc.contains("modeled-NVIDIA GeForce RTX 3060"));
        assert!(doc.contains("thread_name"));
    }

    #[test]
    fn chrome_export_keeps_parallel_tracks_separate() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for w in 0..3 {
                let tr = &t;
                s.spawn(move || {
                    for i in 0..5 {
                        let t0 = Instant::now();
                        std::hint::black_box(w * i);
                        kernel(Some(tr), "spmspv/row-tile", some_stats(), t0, t0.elapsed());
                    }
                });
            }
        });
        assert_eq!(t.len(), 15);
        let doc = chrome_trace_json(&t.events(), &RTX_3060);
        let check = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(check.kernel_spans, 15);
        // 3 worker tracks plus the modeled track. (Each spawned thread gets
        // a fresh dense tid.)
        assert_eq!(check.tracks, 4);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Unsorted ts.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // E without B.
        let bad = r#"{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Left open.
        let bad = r#"{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Mismatched names.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn modeled_track_durations_follow_the_analytic_model() {
        let t = Tracer::new();
        let t0 = Instant::now();
        kernel(Some(&t), "k", some_stats(), t0, t0.elapsed());
        let doc = chrome_trace_json(&t.events(), &RTX_3060);
        let root = json::parse(&doc).unwrap();
        let events = root.get("traceEvents").unwrap().as_array().unwrap();
        let modeled_b = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("B")
                    && e.get("tid").and_then(JsonValue::as_u64) == Some(MODELED_TID)
            })
            .expect("modeled B event");
        let modeled_ms = modeled_b
            .get("args")
            .and_then(|a| a.get("modeled_ms"))
            .and_then(JsonValue::as_f64)
            .expect("modeled_ms arg");
        let want = kernel_time(&some_stats(), &RTX_3060) * 1e3;
        assert!(
            (modeled_ms - want).abs() <= want * 1e-3 + 1e-6,
            "modeled {modeled_ms} vs analytic {want}"
        );
    }
}
