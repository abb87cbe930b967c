//! Counterfactual CTE-cache analysis: what would a bigger or ideal CTE
//! cache have bought each scheme, and why do the real caches miss?
//!
//! The paper's core argument is a counterfactual: short-CTE pre-gathering
//! multiplies per-block reach, so the *same* cache covers far more memory
//! — i.e. DyLeCT's misses should look compulsory-bound where TMCC's are
//! capacity-bound. This binary runs the shared benchmark configuration
//! with shadow probing enabled and prints, per scheme:
//!
//! - the 3C miss classification of the real CTE cache (compulsory /
//!   capacity / conflict — the classes provably sum to the real miss
//!   count, which is asserted on every run);
//! - the shadow hit-rate sweep: the real geometry vs fully-associative,
//!   2× size, 4× size, 2× associativity, and infinite shadows replaying
//!   the identical lookup stream under the scheme's own fill policy;
//! - the page-lifetime summary: ML0/ML1/ML2 dwell (in retired ops),
//!   ping-ponging pages, and the top round-tripping pages.
//!
//! Exports land under `--out DIR` (default `results/shadow`) as
//! `<benchmark>-<scheme>.shadow.jsonl` (plus the standard telemetry
//! exports), consumed by `dylect-stats` and diffed byte-for-byte by the
//! `tools/verify.sh` shadow smoke step. Shadow state cannot be
//! reconstructed from a cached `RunReport`, so these jobs bypass the
//! report cache (`cache_name: None`) while still using the worker pool.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dylect_bench::runner::{Job, Runner};
use dylect_bench::{print_table, warmup_for, Mode, RunKey};
use dylect_sim::{SchemeKind, System};
use dylect_sim_core::env::or_usage_exit;
use dylect_sim_core::probe::CteBlockKind;
use dylect_telemetry::TelemetryConfig;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// What one run hands back beside its report.
struct SchemeOutput {
    class_rows: Vec<Vec<String>>,
    config_rows: Vec<Vec<String>>,
    life_rows: Vec<Vec<String>>,
    pingpong_line: String,
    top_rows: Vec<Vec<String>>,
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
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "results/shadow".to_owned()));
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
            label: format!("{}/{label}/shadow", spec.name),
            // Shadow/provenance state is not part of RunReport, so a cache
            // hit would skip exactly the data this figure exists for.
            cache_name: None,
            work: Box::new(move || {
                let warmup = warmup_for(&key.spec, key.mode);
                let mut sys = System::new(key.config(), &key.spec);
                sys.enable_telemetry(TelemetryConfig {
                    shadow: true,
                    span_sample,
                    ..TelemetryConfig::default()
                });
                let report = sys.run(warmup, key.mode.measure_ops);
                let telemetry = sys.take_telemetry().expect("enabled above");
                let shadow = telemetry.shadow();
                let prov = telemetry.provenance();

                let mut class_rows = Vec::new();
                let mut kinds: Vec<(&str, _)> = CteBlockKind::ALL
                    .iter()
                    .map(|&k| (k.name(), shadow.classes(k)))
                    .collect();
                kinds.push(("total", shadow.classes_total()));
                for (kind, c) in &kinds {
                    // The acceptance invariant: the three classes partition
                    // the real cache's misses exactly.
                    assert_eq!(
                        c.compulsory + c.capacity + c.conflict,
                        c.real_misses,
                        "{label}/{kind}: 3C classes must sum to real misses"
                    );
                    class_rows.push(vec![
                        label.clone(),
                        (*kind).to_owned(),
                        c.real_hits.to_string(),
                        c.real_misses.to_string(),
                        c.compulsory.to_string(),
                        c.capacity.to_string(),
                        c.conflict.to_string(),
                    ]);
                }
                let config_rows = shadow
                    .config_rows()
                    .iter()
                    .map(|r| {
                        let cap = if r.capacity_bytes == u64::MAX {
                            "inf".to_owned()
                        } else {
                            format!("{}", r.capacity_bytes / 1024)
                        };
                        let ways = if r.ways == 0 {
                            "full".to_owned()
                        } else {
                            r.ways.to_string()
                        };
                        vec![
                            label.clone(),
                            r.label.to_owned(),
                            cap,
                            ways,
                            r.tally.hits.to_string(),
                            r.tally.lookups.to_string(),
                            format!("{:.4}", r.tally.hit_rate()),
                        ]
                    })
                    .collect();
                let life_rows = prov
                    .level_rows()
                    .iter()
                    .map(|r| {
                        vec![
                            label.clone(),
                            r.level.name().to_owned(),
                            r.dwell_ops.to_string(),
                            r.resident_pages.to_string(),
                            r.entries.to_string(),
                        ]
                    })
                    .collect();
                let top_rows = prov
                    .top_pingpong(8)
                    .iter()
                    .map(|r| {
                        vec![
                            label.clone(),
                            r.mc.to_string(),
                            r.page.to_string(),
                            r.trips.to_string(),
                            r.pingpong_events.to_string(),
                            r.promotions.to_string(),
                            r.demotions.to_string(),
                        ]
                    })
                    .collect();
                let mut out = SchemeOutput {
                    class_rows,
                    config_rows,
                    life_rows,
                    pingpong_line: format!(
                        "{label}: {} pages tracked, {} ping-ponging",
                        prov.pages_tracked(),
                        prov.pingpong_pages()
                    ),
                    top_rows,
                    export_paths: Vec::new(),
                };
                drop(shadow);
                drop(prov);
                match telemetry.export_to(&stem) {
                    Ok(paths) => out.export_paths = paths,
                    Err(e) => eprintln!("[fig_shadow] export failed: {e}"),
                }
                outputs.lock().unwrap().insert(label.clone(), out);
                report
            }),
        });
    }
    Runner::from_env().run_jobs(jobs);

    let outputs = outputs.lock().unwrap();
    let mut class_rows = Vec::new();
    let mut config_rows = Vec::new();
    let mut life_rows = Vec::new();
    let mut top_rows = Vec::new();
    for (_, out) in outputs.iter() {
        class_rows.extend(out.class_rows.iter().cloned());
        config_rows.extend(out.config_rows.iter().cloned());
        life_rows.extend(out.life_rows.iter().cloned());
        top_rows.extend(out.top_rows.iter().cloned());
    }
    print_table(
        &format!(
            "Real CTE-cache miss classification ({}, high compression)",
            spec.name
        ),
        &[
            "scheme",
            "cte_kind",
            "hits",
            "misses",
            "compulsory",
            "capacity",
            "conflict",
        ],
        &class_rows,
    );
    print_table(
        &format!(
            "Shadow CTE-cache hit-rate sweep ({}, same stream + fill policy)",
            spec.name
        ),
        &[
            "scheme",
            "config",
            "capacity_kib",
            "ways",
            "hits",
            "lookups",
            "hit_rate",
        ],
        &config_rows,
    );
    print_table(
        &format!(
            "Page lifetime by managed level ({}, retired ops)",
            spec.name
        ),
        &["scheme", "level", "dwell_ops", "resident_pages", "entries"],
        &life_rows,
    );
    for (_, out) in outputs.iter() {
        println!("{}", out.pingpong_line);
    }
    if !top_rows.is_empty() {
        print_table(
            &format!("Top ping-pong pages ({}, by round trips)", spec.name),
            &[
                "scheme",
                "mc",
                "page",
                "trips",
                "pingpong_evts",
                "promotions",
                "demotions",
            ],
            &top_rows,
        );
    }
    for (_, out) in outputs.iter() {
        for p in &out.export_paths {
            println!("wrote {}", p.display());
        }
    }
}
