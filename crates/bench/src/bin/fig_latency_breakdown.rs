//! Per-access latency attribution: where do the cycles of a memory access
//! go, and how do the latency distributions differ by translation outcome?
//!
//! The paper's headline claim is about *translation* latency: DyLeCT's
//! short CTEs make the common case as cheap as a huge-page system, while
//! TMCC pays a metadata fetch on every CTE-cache miss. The mean latencies
//! of Figure 21 hide both the tail and the composition. This binary runs
//! the shared benchmark configuration with latency attribution enabled and
//! prints, per scheme:
//!
//! - the top-down "where cycles go" table (cycle-conservative: component
//!   cycles sum exactly to end-to-end latency, see
//!   `dylect_telemetry::Attribution`);
//! - p50/p95/p99/p999 of end-to-end latency per (class, memory level,
//!   translation path) histogram.
//!
//! Span sampling rides along: set `DYLECT_SPAN_SAMPLE=N` to emit begin/end
//! trace spans for every N-th demand L3 miss; they land in the
//! `.trace.json` export (Perfetto / `chrome://tracing`).
//!
//! Exports land under `--out DIR` (default `results/latency`) as
//! `<benchmark>-<scheme>.{series,events,latency}.jsonl` + `.trace.json`,
//! consumed by `dylect-stats` (and diffed with zero tolerance by the
//! `tools/verify.sh` telemetry smoke step). Attribution output cannot be
//! reconstructed from a cached `RunReport`, so these jobs bypass the
//! report cache (`cache_name: None`) while still using the worker pool.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dylect_bench::runner::{Job, Runner};
use dylect_bench::{print_table, warmup_for, Mode, RunKey};
use dylect_sim::{SchemeKind, System};
use dylect_sim_core::env::or_usage_exit;
use dylect_sim_core::probe::AccessScope;
use dylect_telemetry::TelemetryConfig;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// What one run hands back beside its report: the rendered cycles table
/// and one percentile row per latency histogram.
struct SchemeOutput {
    cycles_table: String,
    hist_rows: Vec<Vec<String>>,
    spans_retained: usize,
    export_paths: Vec<PathBuf>,
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
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "results/latency".to_owned()));
    let spec = BenchmarkSpec::by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench}");
        std::process::exit(2);
    });
    let setting = CompressionSetting::High;
    let span_sample = or_usage_exit(TelemetryConfig::span_sample_from_env());

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
        let outputs = outputs.clone();
        jobs.push(Job {
            label: format!("{}/{label}/latency", spec.name),
            // Attribution histograms are not part of RunReport, so a cache
            // hit would skip exactly the data this figure exists for.
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
                let attribution = telemetry.attribution();

                let mut hist_rows = Vec::new();
                for (&(scope, class, level, path), hist) in attribution.histograms() {
                    if scope != AccessScope::Mem {
                        continue;
                    }
                    hist_rows.push(vec![
                        label.clone(),
                        class.name().to_owned(),
                        level.name().to_owned(),
                        path.name().to_owned(),
                        hist.count().to_string(),
                        hist.mean().to_string(),
                        hist.percentile(0.50).to_string(),
                        hist.percentile(0.95).to_string(),
                        hist.percentile(0.99).to_string(),
                        hist.percentile(0.999).to_string(),
                    ]);
                }
                let mut out = SchemeOutput {
                    cycles_table: attribution.cycles_table(),
                    hist_rows,
                    spans_retained: attribution.spans().len(),
                    export_paths: Vec::new(),
                };
                drop(attribution);
                match telemetry.export_to(&stem) {
                    Ok(paths) => out.export_paths = paths,
                    Err(e) => eprintln!("[fig_latency_breakdown] export failed: {e}"),
                }
                outputs.lock().unwrap().insert(label.clone(), out);
                report
            }),
        });
    }
    Runner::from_env().run_jobs(jobs);

    let outputs = outputs.lock().unwrap();
    let mut rows = Vec::new();
    for (label, out) in outputs.iter() {
        println!("== {} / {label} ==", spec.name);
        print!("{}", out.cycles_table);
        if span_sample > 0 {
            println!(
                "spans: 1-in-{span_sample} demand misses sampled, {} retained",
                out.spans_retained
            );
        }
        for p in &out.export_paths {
            println!("wrote {}", p.display());
        }
        println!();
        rows.extend(out.hist_rows.iter().cloned());
    }
    print_table(
        &format!(
            "End-to-end latency percentiles by access outcome ({}, high compression, mem scope)",
            spec.name
        ),
        &[
            "scheme", "class", "level", "path", "count", "mean", "p50", "p95", "p99", "p999",
        ],
        &rows,
    );
}
