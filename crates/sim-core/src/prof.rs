//! `dylect-profile`: the host wall-clock side of DyLeCT's dual-clock
//! observability model.
//!
//! Everything else in this workspace measures the *simulated* machine in
//! picoseconds ([`crate::Time`]). This module measures the *simulator*
//! itself: where host wall-clock nanoseconds go while the model executes —
//! the data ROADMAP item 1 needs to decompose "the remaining cost is the
//! microarchitectural model" into an actionable work-list.
//!
//! The two clocks must never mix. Wall-clock readings are write-only
//! telemetry about the process; nothing recorded here may feed back into
//! simulated state, report fields, or the standard telemetry exports.
//! `tests/determinism.rs` pins that invariant by asserting byte-identical
//! reports and exports with profiling on and off.
//!
//! Design constraints (DESIGN.md, "Dual-clock self-profiling"):
//!
//! - **Zero cost when off.** Every instrumentation site is gated on a
//!   single relaxed atomic load, so `system_step_1000_ops` runs at the
//!   same speed as an uninstrumented build with `DYLECT_PROF` unset.
//! - **<2% overhead when on.** At ~70 ns/op there is no budget for an
//!   `Instant::now()` pair per retired op. The hot path is therefore timed
//!   at batch granularity (exact scopes, a few per 256-op batch) and the
//!   per-event model phases (cache hierarchy, scheme, DRAM, page walks)
//!   are period-sampled ([`SAMPLE_PERIOD`]); [`report`] scales the sampled
//!   sums back up into estimates.
//! - **Mergeable across threads.** Accumulators are global atomics, so
//!   the writeback drain and the runner's workers record into the same
//!   registry with no per-thread state to reconcile at the end.
//!
//! Phases form a hierarchy, not a partition: `mem_access` covers the whole
//! shared cache hierarchy and everything below it, so `scheme_access` and
//! `dram_access` time is (statistically) also inside it. Consumers render
//! them as attribution categories, not as summands of wall-clock.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Every instrumented host phase. `idx()` values are dense array indices
/// into the global registries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostPhase {
    /// The `System` retirement loop: workload generation of one run
    /// (`BATCH_OPS` ops on single-core runs, one op otherwise).
    BatchFill,
    /// The `System` retirement loop: SoA core stepping of one run.
    BatchStep,
    /// `SharedMemory::drain_pending`, whole call (every MC's queue).
    DrainWriteback,
    /// Shared cache hierarchy and below (`MemoryBackend::access`), sampled.
    MemAccess,
    /// Scheme directory / free-space work (`mc_access`), sampled.
    SchemeAccess,
    /// DRAM scheduler (`Dram::access_detailed` / `access_batch`), sampled.
    DramAccess,
    /// Page-table walks (`Core::do_walk`), sampled.
    TlbWalk,
    /// Runner report-cache reads.
    CacheRead,
    /// Runner report-cache writes.
    CacheWrite,
    /// Checkpoint snapshot reads (warm start).
    CheckpointRead,
    /// Checkpoint snapshot writes (cold run).
    CheckpointWrite,
    /// `dylect-serve` request handling (read + route + respond).
    ServeRequest,
    /// Telemetry export (`Telemetry::export_to`).
    Export,
}

/// Number of phases; registries are `[_; NPHASES]` indexed by `idx()`.
pub const NPHASES: usize = 13;

/// Sampling period for the per-event phases: one in `SAMPLE_PERIOD` events
/// is timed; [`report`] multiplies the recorded sums back up.
pub const SAMPLE_PERIOD: u32 = 128;

impl HostPhase {
    /// All phases in registry order.
    pub const ALL: [HostPhase; NPHASES] = [
        HostPhase::BatchFill,
        HostPhase::BatchStep,
        HostPhase::DrainWriteback,
        HostPhase::MemAccess,
        HostPhase::SchemeAccess,
        HostPhase::DramAccess,
        HostPhase::TlbWalk,
        HostPhase::CacheRead,
        HostPhase::CacheWrite,
        HostPhase::CheckpointRead,
        HostPhase::CheckpointWrite,
        HostPhase::ServeRequest,
        HostPhase::Export,
    ];

    /// Dense registry index.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in `.prof.jsonl`, `/metrics`, and the
    /// `dylect-stats` summary tables.
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::BatchFill => "batch_fill",
            HostPhase::BatchStep => "batch_step",
            HostPhase::DrainWriteback => "drain_writeback",
            HostPhase::MemAccess => "mem_access",
            HostPhase::SchemeAccess => "scheme_access",
            HostPhase::DramAccess => "dram_access",
            HostPhase::TlbWalk => "tlb_walk",
            HostPhase::CacheRead => "cache_read",
            HostPhase::CacheWrite => "cache_write",
            HostPhase::CheckpointRead => "checkpoint_read",
            HostPhase::CheckpointWrite => "checkpoint_write",
            HostPhase::ServeRequest => "serve_request",
            HostPhase::Export => "export",
        }
    }

    /// Whether the phase is recorded through [`sampled_scope`] (period
    /// sampled) rather than [`scope`] (exact).
    pub fn is_sampled(self) -> bool {
        matches!(
            self,
            HostPhase::BatchFill
                | HostPhase::BatchStep
                | HostPhase::MemAccess
                | HostPhase::SchemeAccess
                | HostPhase::DramAccess
                | HostPhase::TlbWalk
        )
    }
}

/// Worker pools whose per-worker busy time is tracked, so runner
/// (`DYLECT_JOBS`) utilization and drain busy time are visible.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkerKind {
    /// The writeback drain (`SharedMemory::drain_pending`), always worker 0.
    Drain,
    /// Runner job-pool workers (`Runner::run_jobs`).
    Runner,
}

impl WorkerKind {
    /// Stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            WorkerKind::Drain => "drain",
            WorkerKind::Runner => "runner",
        }
    }
}

/// Upper bound on tracked worker ids per pool; higher ids clamp to the
/// last slot rather than being dropped.
pub const MAX_WORKERS: usize = 32;

/// Cap on retained host spans for the dual-clock Chrome trace; beyond it
/// spans are counted in `spans_dropped` instead of stored.
const MAX_SPANS: usize = 16_384;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NS: [AtomicU64; NPHASES] = [const { AtomicU64::new(0) }; NPHASES];
static CALLS: [AtomicU64; NPHASES] = [const { AtomicU64::new(0) }; NPHASES];
static WORKER_NS: [[AtomicU64; MAX_WORKERS]; 2] =
    [const { [const { AtomicU64::new(0) }; MAX_WORKERS] }; 2];
static WORKER_ITEMS: [[AtomicU64; MAX_WORKERS]; 2] =
    [const { [const { AtomicU64::new(0) }; MAX_WORKERS] }; 2];
static SPANS_DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn spans() -> &'static Mutex<Vec<HostSpan>> {
    static SPANS: OnceLock<Mutex<Vec<HostSpan>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide origin for span timestamps. Initialized on first use,
/// so spans recorded before/after [`reset`] share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Per-phase sampling tick counters (process-wide; see [`sampled_scope`]).
static TICKS: [AtomicU32; NPHASES] = [const { AtomicU32::new(0) }; NPHASES];

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
}

/// Is host profiling on? One relaxed load: this is the entire cost of an
/// instrumentation site when profiling is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off programmatically (benches and tests; binaries
/// go through [`init_from_env`]).
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the timeline origin before the first span
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Strict `DYLECT_PROF` parser ([`crate::env::parse_flag`]).
pub fn parse_prof(raw: Option<&str>) -> Result<bool, String> {
    crate::env::parse_flag("DYLECT_PROF", raw)
}

/// Reads `DYLECT_PROF` without applying it.
pub fn prof_from_env() -> Result<bool, String> {
    parse_prof(std::env::var("DYLECT_PROF").ok().as_deref())
}

/// Reads `DYLECT_PROF` and applies it; returns the resulting state so
/// callers can branch on it.
pub fn init_from_env() -> Result<bool, String> {
    let on = prof_from_env()?;
    set_enabled(on);
    Ok(on)
}

/// Zeroes every accumulator and drops retained spans. Used by benches to
/// attribute a measurement window, and by tests.
pub fn reset() {
    for i in 0..NPHASES {
        NS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
        TICKS[i].store(0, Ordering::Relaxed);
    }
    for pool in &WORKER_NS {
        for w in pool {
            w.store(0, Ordering::Relaxed);
        }
    }
    for pool in &WORKER_ITEMS {
        for w in pool {
            w.store(0, Ordering::Relaxed);
        }
    }
    SPANS_DROPPED.store(0, Ordering::Relaxed);
    spans().lock().expect("prof spans lock").clear();
}

/// RAII phase timer. Inert (no clock read at all) when profiling is off or
/// the sampler skipped this event.
pub struct Scope {
    phase: HostPhase,
    start: Option<Instant>,
    span: bool,
}

/// Exact scope: times every call, and retains a host span for the
/// dual-clock Chrome trace. Use only at batch/IO/request granularity —
/// never per simulated event.
#[inline]
pub fn scope(phase: HostPhase) -> Scope {
    let start = enabled().then(Instant::now);
    Scope {
        phase,
        start,
        span: true,
    }
}

/// Sampled scope: times one in [`SAMPLE_PERIOD`] calls process-wide, and
/// retains a host span for the timed calls only. Safe on per-event and
/// per-batch paths. The tick is a relaxed `fetch_add` on a per-phase
/// global — cheaper than thread-local state on hosts with dynamic-model
/// TLS, and each call still draws a unique tick so the
/// 1-in-`SAMPLE_PERIOD` rate holds across threads.
#[inline]
pub fn sampled_scope(phase: HostPhase) -> Scope {
    let start = if enabled() {
        let ticks = TICKS[phase.idx()]
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1);
        ticks.is_multiple_of(SAMPLE_PERIOD).then(Instant::now)
    } else {
        None
    };
    Scope {
        phase,
        start,
        span: true,
    }
}

impl Drop for Scope {
    /// Inlined so an inert scope costs one branch at its call site, not a
    /// call into this crate.
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.record(start);
        }
    }
}

impl Scope {
    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let i = self.phase.idx();
        NS[i].fetch_add(ns, Ordering::Relaxed);
        CALLS[i].fetch_add(1, Ordering::Relaxed);
        // Timed phases also feed the always-armed flight recorder, so a
        // crash dump interleaves host phases with the sim-event stream.
        crate::blackbox::record(crate::blackbox::EventKind::HostPhase, i as u64, ns);
        if self.span {
            record_span(self.phase, start, ns);
        }
    }
}

fn record_span(phase: HostPhase, start: Instant, dur_ns: u64) {
    let start_ns = start
        .checked_duration_since(epoch())
        .unwrap_or_default()
        .as_nanos() as u64;
    let tid = TID.with(|t| *t);
    let mut spans = spans().lock().expect("prof spans lock");
    if spans.len() >= MAX_SPANS {
        SPANS_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    spans.push(HostSpan {
        phase,
        tid,
        start_ns,
        dur_ns,
    });
}

/// Records one worker's contribution to a pool: `busy_ns` of wall-clock
/// spent working and `items` units processed. Ids at or above
/// [`MAX_WORKERS`] clamp to the last slot.
pub fn worker_busy(kind: WorkerKind, wid: usize, busy_ns: u64, items: u64) {
    let k = kind as usize;
    let w = wid.min(MAX_WORKERS - 1);
    WORKER_NS[k][w].fetch_add(busy_ns, Ordering::Relaxed);
    WORKER_ITEMS[k][w].fetch_add(items, Ordering::Relaxed);
}

/// One host span, for the dual-clock Chrome trace. Timestamps are
/// nanoseconds since the process profiling epoch.
#[derive(Clone, Debug)]
pub struct HostSpan {
    pub phase: HostPhase,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One phase's accumulated totals. For sampled phases `ns`/`calls` are the
/// recorded (sampled) sums and `est_ns`/`est_calls` scale them by
/// [`SAMPLE_PERIOD`]; for exact phases the pairs are equal.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    pub phase: HostPhase,
    pub sampled: bool,
    pub ns: u64,
    pub calls: u64,
    pub est_ns: u64,
    pub est_calls: u64,
}

/// One worker's busy accounting.
#[derive(Clone, Debug)]
pub struct WorkerRow {
    pub kind: WorkerKind,
    pub wid: usize,
    pub busy_ns: u64,
    pub items: u64,
}

/// A consistent-enough snapshot of the whole registry (individual counters
/// are read relaxed; profiling is observability, not accounting).
#[derive(Clone, Debug, Default)]
pub struct ProfReport {
    pub phases: Vec<PhaseRow>,
    pub workers: Vec<WorkerRow>,
    pub spans: Vec<HostSpan>,
    pub spans_dropped: u64,
}

/// Snapshots every phase (zero rows included, so exporters always emit the
/// full series set), every active worker slot, and the retained spans.
pub fn report() -> ProfReport {
    let mut phases = Vec::with_capacity(NPHASES);
    for phase in HostPhase::ALL {
        let i = phase.idx();
        let ns = NS[i].load(Ordering::Relaxed);
        let calls = CALLS[i].load(Ordering::Relaxed);
        let (est_ns, est_calls) = if phase.is_sampled() {
            (
                ns.saturating_mul(SAMPLE_PERIOD as u64),
                calls.saturating_mul(SAMPLE_PERIOD as u64),
            )
        } else {
            (ns, calls)
        };
        phases.push(PhaseRow {
            phase,
            sampled: phase.is_sampled(),
            ns,
            calls,
            est_ns,
            est_calls,
        });
    }
    let mut workers = Vec::new();
    for kind in [WorkerKind::Drain, WorkerKind::Runner] {
        let k = kind as usize;
        for wid in 0..MAX_WORKERS {
            let busy_ns = WORKER_NS[k][wid].load(Ordering::Relaxed);
            let items = WORKER_ITEMS[k][wid].load(Ordering::Relaxed);
            if busy_ns != 0 || items != 0 {
                workers.push(WorkerRow {
                    kind,
                    wid,
                    busy_ns,
                    items,
                });
            }
        }
    }
    let spans = spans().lock().expect("prof spans lock").clone();
    ProfReport {
        phases,
        workers,
        spans,
        spans_dropped: SPANS_DROPPED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiling state is process-global; tests that toggle it serialize
    /// here so they cannot observe each other's windows.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_prof_accepts_the_strict_grammar_only() {
        assert_eq!(parse_prof(None), Ok(false));
        assert_eq!(parse_prof(Some("")), Ok(false));
        assert_eq!(parse_prof(Some("0")), Ok(false));
        assert_eq!(parse_prof(Some("false")), Ok(false));
        assert_eq!(parse_prof(Some("1")), Ok(true));
        assert_eq!(parse_prof(Some("true")), Ok(true));
        assert_eq!(parse_prof(Some(" 1 ")), Ok(true));
        for bad in ["yes", "2", "on", "TRUE", "0x1"] {
            let err = parse_prof(Some(bad)).expect_err(bad);
            assert!(err.contains("DYLECT_PROF"), "{err}");
        }
    }

    #[test]
    fn phase_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, phase) in HostPhase::ALL.iter().enumerate() {
            assert_eq!(phase.idx(), i);
            assert!(names.insert(phase.name()), "dup name {}", phase.name());
        }
        assert_eq!(names.len(), NPHASES);
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _a = scope(HostPhase::Export);
            let _b = sampled_scope(HostPhase::DramAccess);
        }
        let rep = report();
        assert!(rep.phases.iter().all(|p| p.ns == 0 && p.calls == 0));
        assert!(rep.spans.is_empty());
    }

    #[test]
    fn enabled_exact_scope_records_ns_calls_and_a_span() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _a = scope(HostPhase::Export);
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        let rep = report();
        let row = &rep.phases[HostPhase::Export.idx()];
        assert_eq!(row.calls, 1);
        assert_eq!(row.est_calls, 1);
        assert!(!row.sampled);
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].phase, HostPhase::Export);
        reset();
    }

    #[test]
    fn sampled_scope_records_once_per_period_and_scales_estimates() {
        let _g = lock();
        set_enabled(true);
        reset();
        for _ in 0..(SAMPLE_PERIOD * 3) {
            let _s = sampled_scope(HostPhase::TlbWalk);
        }
        set_enabled(false);
        let rep = report();
        let row = &rep.phases[HostPhase::TlbWalk.idx()];
        assert_eq!(row.calls, 3);
        assert_eq!(row.est_calls, 3 * SAMPLE_PERIOD as u64);
        assert!(row.sampled);
        // Sampled scopes retain spans only for the timed 1-in-period calls.
        assert_eq!(rep.spans.len(), 3);
        reset();
    }

    #[test]
    fn worker_busy_accumulates_and_clamps_wide_ids() {
        let _g = lock();
        set_enabled(false);
        reset();
        worker_busy(WorkerKind::Drain, 1, 100, 4);
        worker_busy(WorkerKind::Drain, 1, 50, 2);
        worker_busy(WorkerKind::Runner, MAX_WORKERS + 7, 9, 1);
        let rep = report();
        let drain: Vec<_> = rep
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Drain)
            .collect();
        assert_eq!(drain.len(), 1);
        assert_eq!(
            (drain[0].wid, drain[0].busy_ns, drain[0].items),
            (1, 150, 6)
        );
        let runner: Vec<_> = rep
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Runner)
            .collect();
        assert_eq!(runner.len(), 1);
        assert_eq!(runner[0].wid, MAX_WORKERS - 1);
        reset();
    }

    #[test]
    fn reset_clears_every_registry() {
        let _g = lock();
        set_enabled(true);
        {
            let _a = scope(HostPhase::CacheRead);
        }
        worker_busy(WorkerKind::Drain, 0, 7, 1);
        set_enabled(false);
        reset();
        let rep = report();
        assert!(rep.phases.iter().all(|p| p.ns == 0 && p.calls == 0));
        assert!(rep.workers.is_empty());
        assert!(rep.spans.is_empty());
        assert_eq!(rep.spans_dropped, 0);
    }
}
