//! Determinism guarantees of the simulator and the experiment runner.
//!
//! The parallel runner is only allowed to exist because every simulation
//! is a pure function of its `RunKey`: these tests pin (1) run-to-run
//! determinism of `System::run`, (2) byte-equality of parallel vs
//! sequential matrix execution, and (3) exact report round-tripping
//! through the on-disk cache format.

use dylect_bench::{Mode, RunKey, Runner};
use dylect_sim::{RunReport, SchemeKind, System, SystemConfig};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// A tiny mode so the whole file runs in seconds.
fn tiny_mode() -> Mode {
    Mode {
        scale: 512,
        cores: 1,
        warmup_ops: 20_000,
        measure_ops: 5_000,
    }
}

/// A 2x2 matrix (scheme x setting) on one benchmark.
fn tiny_matrix() -> Vec<RunKey> {
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mut keys = Vec::new();
    for setting in [CompressionSetting::Low, CompressionSetting::High] {
        for scheme in [SchemeKind::tmcc(), SchemeKind::dylect()] {
            keys.push(RunKey::new(spec.clone(), scheme, setting, tiny_mode()));
        }
    }
    keys
}

#[test]
fn identical_runs_produce_identical_reports() {
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let run = || {
        let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
        System::new(cfg, &spec).run(mode.warmup_ops, mode.measure_ops)
    };
    assert_eq!(run(), run(), "System::run must be deterministic");
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // Telemetry is observation-only: a run with sampling, event probes,
    // per-access latency attribution, and span sampling all enabled must
    // produce the byte-identical RunReport of a run without any of them.
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let run = |telemetry: bool| {
        let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
        let mut sys = System::new(cfg, &spec);
        if telemetry {
            sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
                epoch_ops: 1_000, // sample aggressively to maximize exposure
                span_sample: 16,  // sample spans aggressively too
                ..dylect_telemetry::TelemetryConfig::default()
            });
        }
        sys.run(mode.warmup_ops, mode.measure_ops)
    };
    let plain = run(false);
    let observed = run(true);
    assert_eq!(
        plain.to_cache_text(),
        observed.to_cache_text(),
        "telemetry changed the simulated run"
    );
}

#[test]
fn shadow_probing_does_not_perturb_the_simulation() {
    // Shadow CTE caches, miss classification, and page provenance are all
    // counterfactual bookkeeping: turning them on must leave the simulated
    // run byte-identical.
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let run = |shadow: bool| {
        let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
        let mut sys = System::new(cfg, &spec);
        if shadow {
            sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
                shadow: true,
                span_sample: 16,
                ..dylect_telemetry::TelemetryConfig::default()
            });
        }
        sys.run(mode.warmup_ops, mode.measure_ops)
    };
    assert_eq!(
        run(false).to_cache_text(),
        run(true).to_cache_text(),
        "shadow probing changed the simulated run"
    );
}

#[test]
fn shadow_exports_are_deterministic() {
    // Two identical runs with shadows + provenance enabled must write
    // byte-identical telemetry exports — the property `tools/verify.sh`
    // smoke-checks end-to-end via `dylect-stats diff`.
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let export = || {
        let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
        let mut sys = System::new(cfg, &spec);
        sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
            shadow: true,
            span_sample: 16,
            ..dylect_telemetry::TelemetryConfig::default()
        });
        sys.run(mode.warmup_ops, mode.measure_ops);
        let telemetry = sys.take_telemetry().expect("enabled above");
        let files: Vec<(String, String)> = telemetry
            .artifacts()
            .into_iter()
            .map(|(suffix, text)| (suffix.to_owned(), text))
            .collect();
        assert!(
            files.iter().any(|(suffix, _)| suffix == ".shadow.jsonl"),
            "shadow export missing"
        );
        files
    };
    let a = export();
    let b = export();
    assert_eq!(a.len(), b.len());
    for ((name_a, body_a), (name_b, body_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(body_a, body_b, "{name_a} differs between identical runs");
    }
}

#[test]
fn snapshot_restore_pins_reports_and_exports_for_every_scheme() {
    // The checkpoint/restore contract: warming up, snapshotting, and
    // resuming the measurement on a *fresh* system must be byte-identical
    // to the straight-through run — in the report cache text AND in every
    // exported telemetry artifact (.jsonl, .shadow.jsonl) — for all three
    // compressing schemes on two memory controllers.
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let telemetry_cfg = dylect_telemetry::TelemetryConfig {
        shadow: true,
        span_sample: 16,
        ..dylect_telemetry::TelemetryConfig::default()
    };
    let export = |mut sys: System| -> Vec<(String, String)> {
        let telemetry = sys.take_telemetry().expect("enabled");
        telemetry
            .artifacts()
            .into_iter()
            .map(|(suffix, text)| (suffix.to_owned(), text))
            .collect()
    };
    for scheme in [
        SchemeKind::tmcc(),
        SchemeKind::dylect(),
        SchemeKind::NaiveDynamic,
    ] {
        let label = scheme.label();
        let build = || {
            let mut cfg = SystemConfig::quick(&spec, scheme.clone(), CompressionSetting::High);
            cfg.memory_controllers = 2;
            let mut sys = System::new(cfg, &spec);
            sys.enable_telemetry(telemetry_cfg);
            sys
        };
        let mut straight = build();
        let r_straight = straight.run(mode.warmup_ops, mode.measure_ops);
        let snap = build().warm_up_and_snapshot(mode.warmup_ops);
        let mut resumed = build();
        let r_resumed = resumed
            .resume_measurement(&snap, mode.measure_ops)
            .expect("same-config restore succeeds");
        assert_eq!(
            r_straight.to_cache_text(),
            r_resumed.to_cache_text(),
            "{label}: resumed report differs from straight-through"
        );
        let e_straight = export(straight);
        let e_resumed = export(resumed);
        assert_eq!(
            e_straight.len(),
            e_resumed.len(),
            "{label}: export sets differ"
        );
        for ((name_a, body_a), (name_b, body_b)) in e_straight.iter().zip(&e_resumed) {
            assert_eq!(name_a, name_b, "{label}");
            assert_eq!(body_a, body_b, "{label}: {name_a} differs after restore");
        }
    }
}

#[test]
fn host_profiling_never_leaks_into_reports_or_exports() {
    // The dual-clock invariant: the host self-profiler reads wall clocks
    // and writes only its own global registry, so running with profiling
    // armed must be byte-identical to running with it off — in the report
    // cache text AND in every exported telemetry artifact (.jsonl,
    // .shadow.jsonl) — for all three compressing schemes on two memory
    // controllers. Profiling is toggled programmatically (not via
    // DYLECT_PROF) so the test owns no environment state.
    use dylect_sim_core::prof;
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let telemetry_cfg = dylect_telemetry::TelemetryConfig {
        shadow: true,
        span_sample: 16,
        ..dylect_telemetry::TelemetryConfig::default()
    };
    let export = |mut sys: System| -> Vec<(String, String)> {
        let telemetry = sys.take_telemetry().expect("enabled");
        telemetry
            .artifacts()
            .into_iter()
            .map(|(suffix, text)| (suffix.to_owned(), text))
            .collect()
    };
    for scheme in [
        SchemeKind::tmcc(),
        SchemeKind::dylect(),
        SchemeKind::NaiveDynamic,
    ] {
        let label = scheme.label();
        let run_with = |prof_on: bool| {
            let mut cfg = SystemConfig::quick(&spec, scheme.clone(), CompressionSetting::High);
            cfg.memory_controllers = 2;
            let mut sys = System::new(cfg, &spec);
            sys.enable_telemetry(telemetry_cfg);
            prof::set_enabled(prof_on);
            if prof_on {
                prof::reset();
            }
            let report = sys.run(mode.warmup_ops, mode.measure_ops);
            prof::set_enabled(false);
            (report.to_cache_text(), export(sys))
        };
        let (r_off, e_off) = run_with(false);
        let (r_on, e_on) = run_with(true);
        assert_eq!(
            r_off, r_on,
            "{label}: profiling changed the report cache text"
        );
        assert_eq!(e_off.len(), e_on.len(), "{label}: export sets differ");
        for ((name_a, body_a), (name_b, body_b)) in e_off.iter().zip(&e_on) {
            assert_eq!(name_a, name_b, "{label}");
            assert_eq!(
                body_a, body_b,
                "{label}: {name_a} differs with profiling armed"
            );
        }
    }
}

#[test]
fn zero_op_snapshot_round_trips_and_resumes_exactly() {
    // Degenerate checkpoint: snapshot after *zero* warmup ops. The wire
    // format must still round-trip through SnapReader (cold caches, empty
    // FIFOs, zeroed stats), and resuming the measurement from it must be
    // byte-identical to a straight run with no warmup.
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let build = || {
        let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
        System::new(cfg, &spec)
    };
    let snap = build().warm_up_and_snapshot(0);
    assert!(!snap.is_empty(), "zero-op snapshot still carries state");
    let r_resumed = build()
        .resume_measurement(&snap, mode.measure_ops)
        .expect("zero-op snapshot restores");
    let r_straight = build().run(0, mode.measure_ops);
    assert_eq!(
        r_straight.to_cache_text(),
        r_resumed.to_cache_text(),
        "zero-op resume differs from a straight no-warmup run"
    );
}

#[test]
fn state_digests_never_leak_into_reports_or_exports() {
    // Digest capture hashes every state component through its `Snapshot`
    // traversal at window boundaries — reads only, so running with
    // digests armed must be byte-identical to running with them off, in
    // the report cache text AND in every exported telemetry artifact
    // (.jsonl, .shadow.jsonl), for all three compressing schemes on two
    // memory controllers. The window is shrunk per system so the
    // tiny runs actually cross boundaries (the capture path runs, not
    // just the tick), and capture is toggled programmatically (not via
    // DYLECT_DIGEST) so the test owns no environment state.
    use dylect_sim_core::digest;
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let telemetry_cfg = dylect_telemetry::TelemetryConfig {
        shadow: true,
        span_sample: 16,
        ..dylect_telemetry::TelemetryConfig::default()
    };
    let export = |mut sys: System| -> Vec<(String, String)> {
        let telemetry = sys.take_telemetry().expect("enabled");
        telemetry
            .artifacts()
            .into_iter()
            .map(|(suffix, text)| (suffix.to_owned(), text))
            .collect()
    };
    for scheme in [
        SchemeKind::tmcc(),
        SchemeKind::dylect(),
        SchemeKind::NaiveDynamic,
    ] {
        let label = scheme.label();
        let run_with = |digest_on: bool| {
            let mut cfg = SystemConfig::quick(&spec, scheme.clone(), CompressionSetting::High);
            cfg.memory_controllers = 2;
            let mut sys = System::new(cfg, &spec);
            sys.set_digest_window(4096);
            sys.enable_telemetry(telemetry_cfg);
            digest::set_enabled(digest_on);
            let report = sys.run(mode.warmup_ops, mode.measure_ops);
            digest::set_enabled(false);
            let digests = sys.take_digests();
            if digest_on {
                assert!(
                    !digests.is_empty(),
                    "{label}: no windows captured — the pin would be vacuous"
                );
            } else {
                assert!(digests.is_empty(), "{label}: captured while disabled");
            }
            (report.to_cache_text(), export(sys))
        };
        let (r_off, e_off) = run_with(false);
        let (r_on, e_on) = run_with(true);
        assert_eq!(
            r_off, r_on,
            "{label}: digests changed the report cache text"
        );
        assert_eq!(e_off.len(), e_on.len(), "{label}: export sets differ");
        for ((name_a, body_a), (name_b, body_b)) in e_off.iter().zip(&e_on) {
            assert_eq!(name_a, name_b, "{label}");
            assert_eq!(
                body_a, body_b,
                "{label}: {name_a} differs with digests armed"
            );
        }
    }
}

#[test]
fn attribution_conserves_cycles_for_every_scheme() {
    // Aggregate conservation: for each scheme and each scope, the summed
    // per-component cycle totals must equal the summed end-to-end latency
    // across all histograms (every record's components sum to its total,
    // so the aggregates must match exactly). Also pins that spans were
    // actually sampled and attribution saw traffic.
    use dylect_sim_core::probe::{AccessComponent, AccessScope};
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    for scheme in [
        SchemeKind::NoCompression,
        SchemeKind::tmcc(),
        SchemeKind::NaiveDynamic,
        SchemeKind::dylect(),
    ] {
        let label = scheme.label();
        let cfg = SystemConfig::quick(&spec, scheme, CompressionSetting::High);
        let mut sys = System::new(cfg, &spec);
        sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
            span_sample: 16,
            ..dylect_telemetry::TelemetryConfig::default()
        });
        sys.run(mode.warmup_ops, mode.measure_ops);
        let telemetry = sys.take_telemetry().expect("enabled above");
        let a = telemetry.attribution();
        assert!(!a.is_empty(), "{label}: no accesses attributed");
        for scope in AccessScope::ALL {
            let components_ps: u64 = AccessComponent::ALL
                .iter()
                .map(|&c| a.component_total(scope, c).as_ps())
                .sum();
            let hists_ps: u64 = a
                .histograms()
                .iter()
                .filter(|((s, ..), _)| *s == scope)
                .map(|(_, h)| h.sum().as_ps())
                .sum();
            assert_eq!(
                components_ps,
                hists_ps,
                "{label}/{}: component totals diverge from histogram totals",
                scope.name()
            );
        }
        assert!(
            !a.spans().is_empty(),
            "{label}: span sampling produced nothing"
        );
    }
}

#[test]
fn parallel_matrix_matches_sequential() {
    // No cache dir: both runners simulate everything from scratch.
    let parallel = Runner::with(4, None, false).run_matrix(tiny_matrix());
    let sequential = Runner::with(1, None, false).run_matrix(tiny_matrix());
    assert_eq!(parallel.len(), sequential.len());
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(p, s, "run {i} differs between parallel and sequential");
    }
}

#[test]
fn cache_text_round_trip_is_exact() {
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let report = RunKey::new(spec, SchemeKind::dylect(), CompressionSetting::High, mode).execute();
    let decoded =
        RunReport::from_cache_text(&report.to_cache_text()).expect("cache text parses back");
    assert_eq!(decoded, report, "cache round trip must be bit-exact");
}

#[test]
fn cached_rerun_reuses_reports_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("dylect-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = Runner::with(2, Some(dir.clone()), true).run_matrix(tiny_matrix());
    let entries = std::fs::read_dir(&dir).expect("cache dir created").count();
    assert_eq!(entries, cold.len(), "one cache file per distinct run");

    let warm = Runner::with(2, Some(dir.clone()), true).run_matrix(tiny_matrix());
    assert_eq!(cold, warm, "cache hits must reproduce the cold run exactly");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_runs_are_deterministic_across_jobs_and_resume() {
    // The datacenter scenario subsystem inherits every determinism
    // guarantee: a multi-tenant run — with and without 2D nested walks,
    // with phase-churn and memory-pressure events firing mid-window —
    // on two memory controllers must be byte-identical under
    // snapshot→restore resume (events re-fire at the same boundaries),
    // including every exported telemetry artifact.
    use dylect_scenario::ScenarioSpec;
    let mode = tiny_mode();
    let telemetry_cfg = dylect_telemetry::TelemetryConfig {
        shadow: true,
        span_sample: 16,
        ..dylect_telemetry::TelemetryConfig::default()
    };
    let export = |mut sys: System| -> Vec<(String, String)> {
        let telemetry = sys.take_telemetry().expect("enabled");
        telemetry
            .artifacts()
            .into_iter()
            .map(|(suffix, text)| (suffix.to_owned(), text))
            .collect()
    };
    for nested in [false, true] {
        let raw = format!(
            "tenants=omnetpp,canneal;nested={};phase@1024=theta:0.2,hot:0.8;pressure@2048=128",
            nested as u8
        );
        let scenario = ScenarioSpec::parse(&raw).expect("valid spec");
        let build = || {
            let first = BenchmarkSpec::by_name("omnetpp").expect("in suite");
            let base = SystemConfig::quick(&first, SchemeKind::dylect(), CompressionSetting::High);
            let mut cfg = scenario.configure(base, CompressionSetting::High);
            cfg.memory_controllers = 2;
            let mut sys = scenario.build_system(cfg);
            sys.enable_telemetry(telemetry_cfg);
            sys
        };
        let label = format!("nested={nested}");

        let mut s1 = build();
        let o1 = scenario.run(&mut s1, mode.warmup_ops, mode.measure_ops);

        let snap = build().warm_up_and_snapshot(mode.warmup_ops);
        let mut sr = build();
        let or = scenario
            .resume(&mut sr, &snap, mode.measure_ops)
            .expect("scenario snapshot restores");
        assert_eq!(o1, or, "{label}: resumed scenario differs from straight");
        assert_eq!(
            o1.report.to_cache_text(),
            or.report.to_cache_text(),
            "{label}: cache text differs after restore"
        );

        let e1 = export(s1);
        let er = export(sr);
        assert_eq!(e1.len(), er.len(), "{label}: export sets differ");
        for (a, b) in e1.iter().zip(&er) {
            assert_eq!(a.0, b.0, "{label}");
            assert_eq!(a.1, b.1, "{label}: {} differs after restore", a.0);
        }
    }
}

#[test]
fn solo_scenario_run_matches_the_plain_single_process_run() {
    // With one tenant, no events, and nested off, the scenario path must
    // construct and run exactly the machine `System::new` builds — same
    // seeds, layout, scheme — so turning the subsystem "off" provably
    // changes nothing.
    use dylect_scenario::ScenarioSpec;
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let mode = tiny_mode();
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let plain = System::new(cfg.clone(), &spec).run(mode.warmup_ops, mode.measure_ops);
    let scenario = ScenarioSpec::solo("omnetpp").expect("in suite");
    let outcome = scenario.run(
        &mut scenario.build_system(cfg),
        mode.warmup_ops,
        mode.measure_ops,
    );
    assert_eq!(
        plain.to_cache_text(),
        outcome.report.to_cache_text(),
        "solo scenario must reproduce the plain run byte-identically"
    );
}
