//! Host-side self-profile of the simulator itself: where do the
//! wall-clock nanoseconds per simulated op go?
//!
//! This is the dual-clock figure. Every other figure reports *simulated*
//! time (picoseconds inside the modeled machine); this one runs the
//! shared three-scheme benchmark matrix with the host profiler
//! (`DYLECT_PROF=1`) armed and reports *host* time: wall-clock spent in
//! batch fill vs. step, the sampled per-event subsystems (memory access,
//! scheme directory, DRAM, TLB walks), writeback-drain busy time,
//! and runner/export IO. It answers ROADMAP item 1 — which host-side
//! phase owns the remaining ns/op after batching.
//!
//! Two artifact classes land under `--out DIR` (default
//! `results/selfprofile`):
//!
//! - the standard deterministic telemetry exports per scheme
//!   (`<benchmark>-<scheme>.{series.jsonl,events.jsonl,latency.jsonl,
//!   trace.json}`) — byte-identical whether profiling is on or off,
//!   which `tools/verify.sh` pins by running this binary twice and
//!   diffing;
//! - when `DYLECT_PROF=1`: `selfprofile.prof.jsonl` (phase/worker rows
//!   for `dylect-stats summary`) and `<benchmark>-dylect.dual.trace.json`
//!   (Chrome trace with the simulated clock on pid 0 and host wall-clock
//!   spans on pid 1). These are host-nondeterministic by nature and are
//!   never diffed.
//!
//! Profiling state is process-global and would be polluted by report-cache
//! hits (a cached job records no phases), so these jobs bypass the report
//! cache (`cache_name: None`) like `fig_shadow`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dylect_bench::runner::{Job, Runner};
use dylect_bench::{print_table, warmup_for, Mode, RunKey};
use dylect_sim::{SchemeKind, System};
use dylect_sim_core::env::or_usage_exit;
use dylect_sim_core::probe::SpanRecord;
use dylect_sim_core::prof;
use dylect_telemetry::export::{chrome_trace_dual, prof_jsonl};
use dylect_telemetry::{EventJournal, TelemetryConfig};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// What one run hands back beside its report.
struct SchemeOutput {
    report_row: Vec<String>,
    export_paths: Vec<PathBuf>,
    /// Simulated-event data for the dual-clock trace (dylect only).
    trace_data: Option<(EventJournal, Vec<SpanRecord>)>,
    total_ops: u64,
}

fn main() {
    let mode = Mode::from_env();
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let bench = flag("--bench").unwrap_or_else(|| "omnetpp".to_owned());
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "results/selfprofile".to_owned()));
    let spec = BenchmarkSpec::by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench}");
        std::process::exit(2);
    });
    let setting = CompressionSetting::High;
    let span_sample = or_usage_exit(TelemetryConfig::span_sample_from_env());

    // from_env() strict-parses DYLECT_PROF (exit 2 on garbage) and arms
    // the profiler before any job runs.
    let runner = Runner::from_env();
    prof::reset();

    let outputs: Arc<Mutex<BTreeMap<String, SchemeOutput>>> = Arc::default();
    let mut jobs = Vec::new();
    for scheme in [
        SchemeKind::tmcc(),
        SchemeKind::NaiveDynamic,
        SchemeKind::dylect(),
    ] {
        let key = RunKey::new(spec.clone(), scheme, setting, mode);
        let label = key.scheme.label();
        let stem = out_dir.join(format!("{}-{label}", spec.name));
        let want_trace = key.scheme == SchemeKind::dylect();
        let outputs = outputs.clone();
        jobs.push(Job {
            label: format!("{}/{label}/selfprofile", spec.name),
            // A cache hit skips execution, so the profiler would record
            // nothing — bypass the report cache unconditionally.
            cache_name: None,
            work: Box::new(move || {
                let warmup = warmup_for(&key.spec, key.mode);
                let mut sys = System::new(key.config(), &key.spec);
                sys.enable_telemetry(TelemetryConfig {
                    span_sample,
                    ..TelemetryConfig::default()
                });
                let report = sys.run(warmup, key.mode.measure_ops);
                let telemetry = sys.take_telemetry().expect("enabled above");
                let trace_data = want_trace.then(|| {
                    (
                        telemetry.journal().clone(),
                        telemetry.attribution().spans().to_vec(),
                    )
                });
                let mut out = SchemeOutput {
                    report_row: vec![
                        label.clone(),
                        report.instructions.to_string(),
                        report.mem_ops.to_string(),
                        format!("{:.4}", report.tlb_miss_rate),
                        report.l3_misses.to_string(),
                        format!("{:.1}", report.l3_miss_latency_ns),
                    ],
                    export_paths: Vec::new(),
                    trace_data,
                    total_ops: warmup + key.mode.measure_ops,
                };
                match telemetry.export_to(&stem) {
                    Ok(paths) => out.export_paths = paths,
                    Err(e) => eprintln!("[fig_selfprofile] export failed: {e}"),
                }
                outputs.lock().unwrap().insert(label.clone(), out);
                report
            }),
        });
    }
    let wall = Instant::now();
    runner.run_jobs(jobs);
    let wall_ns = wall.elapsed().as_nanos() as f64;

    let outputs = outputs.lock().unwrap();
    let report_rows: Vec<Vec<String>> = outputs.values().map(|o| o.report_row.clone()).collect();
    print_table(
        &format!("Per-scheme run summary ({}, high compression)", spec.name),
        &[
            "scheme",
            "instructions",
            "mem_ops",
            "tlb_miss_rate",
            "l3_misses",
            "l3_lat_ns",
        ],
        &report_rows,
    );
    for out in outputs.values() {
        for p in &out.export_paths {
            println!("wrote {}", p.display());
        }
    }

    if !prof::enabled() {
        println!("DYLECT_PROF not set: host-profiling artifacts skipped");
        return;
    }
    let host = prof::report();
    let total_ops: u64 = outputs.values().map(|o| o.total_ops).sum();
    let meta = vec![
        ("wall_ns".to_owned(), wall_ns),
        ("measure_ops".to_owned(), total_ops as f64),
    ];
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("[fig_selfprofile] cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let prof_path = out_dir.join("selfprofile.prof.jsonl");
    match std::fs::write(&prof_path, prof_jsonl(&host, &meta)) {
        Ok(()) => println!("wrote {}", prof_path.display()),
        Err(e) => eprintln!("[fig_selfprofile] write failed: {e}"),
    }
    if let Some((journal, spans)) = outputs.values().find_map(|o| o.trace_data.as_ref()) {
        let dual_path = out_dir.join(format!("{}-dylect.dual.trace.json", spec.name));
        match std::fs::write(&dual_path, chrome_trace_dual(journal, spans, &host)) {
            Ok(()) => println!("wrote {}", dual_path.display()),
            Err(e) => eprintln!("[fig_selfprofile] write failed: {e}"),
        }
    }
    println!(
        "host profile: {} phases, {} spans retained ({} dropped); \
         inspect with `dylect-stats summary {}`",
        host.phases.iter().filter(|p| p.calls > 0).count(),
        host.spans.len(),
        host.spans_dropped,
        prof_path.display()
    );
}
