//! Multi-tenant co-scheduling: per-tenant slowdown versus solo baselines,
//! and where the interference comes from.
//!
//! The paper evaluates one process per machine; datacenter deployments
//! co-schedule. This binary runs each tenant alone (cached through the
//! report cache) and then the co-scheduled machine — one ASID-tagged
//! core per tenant, footprints placed side by side in machine-physical
//! memory, all tenants interleaved across the same memory controllers —
//! and reports, per scheme:
//!
//! - each tenant's slowdown (solo IPS / co-run IPS; > 1 means the co-run
//!   hurt it) and the spread between the best- and worst-treated tenant
//!   (the fairness gap);
//! - interference findings: the shared CTE-cache hit-rate delta
//!   (co-tenants evict each other's translation entries) and the DRAM
//!   queue delta (mean demand L3-miss latency).
//!
//! The tenant mix comes from `--tenants a,b,...` (default
//! `omnetpp,mcf`), or — including nested walks and scheduled events —
//! from a full `DYLECT_SCENARIO` spec, which takes precedence. All
//! tenants run at one shared footprint scale (the most demanding
//! tenant's effective scale), so each solo baseline simulates exactly
//! the footprint its tenant has in the co-run.
//!
//! Per-tenant rows land in `--out DIR` (default `results`) as
//! `fig_tenants.<scheme>.tenants.jsonl`, consumed by `dylect-serve`
//! (`/metrics` exports them as `dylect_tenant_slowdown`). Co-run jobs
//! bypass the report cache (`cache_name: None`): the artifact is the
//! point, and a cache hit would skip writing it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dylect_bench::runner::{Job, Runner};
use dylect_bench::{print_table, Mode};
use dylect_scenario::{scenario_from_env, ScenarioOutcome, ScenarioSpec};
use dylect_sim::{SchemeKind, System, SystemConfig};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

fn main() {
    let mode = Mode::from_env();
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "results".to_owned()));
    let scenario = scenario_from_env().unwrap_or_else(|| {
        let tenants = flag("--tenants").unwrap_or_else(|| "omnetpp,mcf".to_owned());
        ScenarioSpec::parse(&format!("tenants={tenants}")).unwrap_or_else(|e| {
            eprintln!("usage: --tenants: {e}");
            std::process::exit(2);
        })
    });
    let tenants = scenario.resolve();
    let setting = CompressionSetting::High;
    // One shared machine scale: the most demanding tenant's effective
    // scale, so solo baselines simulate the same per-tenant footprints
    // as the co-run.
    let scale = tenants
        .iter()
        .map(|t| dylect_bench::effective_scale(t, mode))
        .min()
        .expect("at least one tenant");
    let warmup = |specs: &[BenchmarkSpec]| -> u64 {
        mode.warmup_ops
            .max(specs.iter().map(|t| t.footprint_pages(scale)).sum::<u64>() * 12)
    };
    let solo_cfg = |t: &BenchmarkSpec, scheme: SchemeKind| -> SystemConfig {
        let mut cfg = SystemConfig::paper(t, scheme.clone(), setting);
        cfg.scale = scale;
        cfg.cores = 1;
        // `paper()` sized DRAM at its own default scale; resize for the
        // shared machine scale.
        cfg.dram_bytes = match scheme {
            SchemeKind::NoCompression => t.dram_bytes_no_compression(scale),
            _ => t.dram_bytes(setting, scale),
        };
        cfg
    };

    let schemes = [SchemeKind::tmcc(), SchemeKind::dylect()];
    let outcomes: Arc<Mutex<BTreeMap<String, ScenarioOutcome>>> = Arc::default();
    let mut jobs = Vec::new();
    // Solo baselines first (cached), then one uncached co-run per scheme;
    // `solo_slots[scheme][tenant]` indexes the returned report list.
    let mut solo_slots: Vec<Vec<usize>> = Vec::new();
    for scheme in &schemes {
        let mut slots = Vec::new();
        for t in &tenants {
            let cfg = solo_cfg(t, scheme.clone());
            let warm = warmup(std::slice::from_ref(t));
            let label = format!("{}/{}/solo", t.name, scheme.label());
            let fp_input = format!("{cfg:?};warm{};measure{}", warm, mode.measure_ops);
            let t = t.clone();
            slots.push(jobs.len());
            jobs.push(Job::custom(label, &fp_input, move || {
                System::new(cfg, &t).run(warm, mode.measure_ops)
            }));
        }
        solo_slots.push(slots);

        let base = solo_cfg(&tenants[0], scheme.clone());
        let cfg = scenario.configure(base, setting);
        let warm = warmup(&tenants);
        let spec = scenario.clone();
        let outcomes = outcomes.clone();
        let scheme_label = scheme.label();
        jobs.push(Job {
            label: format!("{}/{}/coschedule", scenario.tenants.join("+"), scheme_label),
            // Per-tenant summaries are not part of RunReport; a cache hit
            // would skip exactly the data this figure exists for.
            cache_name: None,
            work: Box::new(move || {
                let mut sys = spec.build_system(cfg);
                let outcome = spec.run(&mut sys, warm, mode.measure_ops);
                let report = outcome.report.clone();
                outcomes.lock().unwrap().insert(scheme_label, outcome);
                report
            }),
        });
    }
    let reports = Runner::from_env().run_jobs(jobs);

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    });
    let outcomes = outcomes.lock().unwrap();
    let mut rows = Vec::new();
    for (si, scheme) in schemes.iter().enumerate() {
        let label = scheme.label();
        let outcome = &outcomes[&label];
        let solo: Vec<&dylect_sim::RunReport> =
            solo_slots[si].iter().map(|&i| &reports[i]).collect();
        let solo_ips: Vec<f64> = solo.iter().map(|r| r.ips()).collect();
        let slowdowns = outcome.slowdowns(&solo_ips);

        let path = out_dir.join(format!("fig_tenants.{label}.tenants.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }));
        for ((t, s), solo) in outcome.tenants.iter().zip(&slowdowns).zip(&solo) {
            writeln!(
                file,
                "{{\"artifact\":\"fig_tenants\",\"scheme\":\"{label}\",\"tenant\":\"{}\",\
                 \"asid\":{},\"solo_ips\":{:.3},\"co_ips\":{:.3},\"slowdown\":{:.6},\
                 \"tlb_miss_rate\":{:.6},\"solo_tlb_miss_rate\":{:.6}}}",
                t.tenant,
                t.asid,
                solo.ips(),
                t.ips(),
                s,
                t.tlb_miss_rate,
                solo.tlb_miss_rate,
            )
            .expect("write row");
            rows.push(vec![
                label.clone(),
                t.tenant.clone(),
                format!("{:.3e}", solo.ips()),
                format!("{:.3e}", t.ips()),
                format!("{s:.3}"),
            ]);
        }

        // Interference findings: the co-run shares one CTE cache and one
        // DRAM queue across tenants; compare against footprint-weighted
        // solo expectations.
        let co = &outcome.report;
        let weight: Vec<f64> = {
            let total: u64 = tenants.iter().map(|t| t.footprint_pages(scale)).sum();
            tenants
                .iter()
                .map(|t| t.footprint_pages(scale) as f64 / total as f64)
                .collect()
        };
        let solo_cte: f64 = solo
            .iter()
            .zip(&weight)
            .map(|(r, w)| r.mc.cte_hit_rate() * w)
            .sum();
        let solo_l3_ns: f64 = solo
            .iter()
            .zip(&weight)
            .map(|(r, w)| r.l3_miss_latency_ns * w)
            .sum();
        writeln!(
            file,
            "{{\"artifact\":\"fig_tenants\",\"scheme\":\"{label}\",\
             \"finding\":\"cte_contention\",\"solo_cte_hit_rate\":{:.6},\
             \"co_cte_hit_rate\":{:.6},\"delta\":{:.6}}}",
            solo_cte,
            co.mc.cte_hit_rate(),
            co.mc.cte_hit_rate() - solo_cte,
        )
        .expect("write finding");
        writeln!(
            file,
            "{{\"artifact\":\"fig_tenants\",\"scheme\":\"{label}\",\
             \"finding\":\"dram_queue\",\"solo_l3_miss_ns\":{:.3},\
             \"co_l3_miss_ns\":{:.3},\"delta_ns\":{:.3}}}",
            solo_l3_ns,
            co.l3_miss_latency_ns,
            co.l3_miss_latency_ns - solo_l3_ns,
        )
        .expect("write finding");
        drop(file);
        // Stderr with the other progress lines: stdout is the
        // deterministic table, byte-compared by the verify smoke, and
        // the path embeds the run-specific out dir.
        eprintln!("wrote {}", path.display());

        let spread = slowdowns.iter().cloned().fold(f64::MIN, f64::max)
            / slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        eprintln!(
            "[fig_tenants] {label}: cte hit {:.3} -> {:.3}, l3-miss {:.1} -> {:.1} ns, \
             fairness spread {spread:.3}",
            solo_cte,
            co.mc.cte_hit_rate(),
            solo_l3_ns,
            co.l3_miss_latency_ns,
        );
    }

    print_table(
        &format!(
            "Per-tenant slowdown under co-scheduling ({}, high compression, scale 1/{scale})",
            scenario.tenants.join("+")
        ),
        &["scheme", "tenant", "solo_ips", "co_ips", "slowdown"],
        &rows,
    );
}
