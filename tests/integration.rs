//! End-to-end integration tests across the whole workspace: cores + TLBs +
//! caches + scheme + DRAM, driven by the synthetic benchmarks.

use dylect_sim::{SchemeKind, System, SystemConfig};
use dylect_sim_core::Time;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

fn quick(bench: &str, scheme: SchemeKind, setting: CompressionSetting) -> System {
    let spec = BenchmarkSpec::by_name(bench).expect("benchmark in suite");
    let cfg = SystemConfig::quick(&spec, scheme, setting);
    System::new(cfg, &spec)
}

/// Like `quick`, but at a scale small enough that the DRAM floor (8 MiB)
/// does not erase the compression pressure.
fn pressured(bench: &str, scheme: SchemeKind, setting: CompressionSetting) -> System {
    let spec = BenchmarkSpec::by_name(bench).expect("benchmark in suite");
    let mut cfg = SystemConfig::quick(&spec, scheme.clone(), setting);
    cfg.scale = 16;
    cfg.dram_bytes = match scheme {
        SchemeKind::NoCompression => spec.dram_bytes_no_compression(16),
        _ => spec.dram_bytes(setting, 16),
    };
    System::new(cfg, &spec)
}

#[test]
fn every_scheme_runs_every_small_benchmark() {
    for bench in ["omnetpp", "canneal"] {
        for scheme in [
            SchemeKind::NoCompression,
            SchemeKind::tmcc(),
            SchemeKind::dylect(),
            SchemeKind::NaiveDynamic,
        ] {
            let mut sys = quick(bench, scheme.clone(), CompressionSetting::High);
            let r = sys.run(20_000, 20_000);
            assert!(r.instructions > 0, "{bench}/{scheme:?}");
            assert!(r.elapsed > Time::ZERO, "{bench}/{scheme:?}");
        }
    }
}

#[test]
fn full_runs_are_bit_deterministic() {
    let run = || {
        let mut sys = quick("canneal", SchemeKind::dylect(), CompressionSetting::High);
        sys.run(50_000, 50_000)
    };
    let a = run();
    let b = run();
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.dram.total_blocks(), b.dram.total_blocks());
    assert_eq!(a.mc.cte_lookups(), b.mc.cte_lookups());
    assert_eq!(a.occupancy, b.occupancy);
}

#[test]
fn page_census_is_conserved() {
    // Whatever churn happens, every OS page is always in exactly one level.
    let spec = BenchmarkSpec::by_name("omnetpp").unwrap();
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let footprint = spec.footprint_pages(cfg.scale);
    let mut sys = System::new(cfg, &spec);
    for _ in 0..5 {
        sys.execute(20_000);
        let o = sys.shared().scheme().occupancy();
        assert!(o.ml0_pages + o.ml1_pages + o.ml2_pages >= footprint);
    }
}

#[test]
fn compression_pressure_keeps_pages_compressed() {
    let mut sys = pressured("omnetpp", SchemeKind::tmcc(), CompressionSetting::High);
    let r = sys.run(50_000, 50_000);
    assert!(
        r.occupancy.ml2_pages > r.occupancy.ml1_pages,
        "high compression should keep most pages in ML2: {:?}",
        r.occupancy
    );
}

#[test]
fn low_pressure_decompresses_more_than_high() {
    let low = pressured("canneal", SchemeKind::dylect(), CompressionSetting::Low)
        .run(80_000, 20_000)
        .occupancy;
    let high = pressured("canneal", SchemeKind::dylect(), CompressionSetting::High)
        .run(80_000, 20_000)
        .occupancy;
    assert!(
        low.ml0_pages + low.ml1_pages > high.ml0_pages + high.ml1_pages,
        "low {low:?} vs high {high:?}"
    );
}

#[test]
fn cte_traffic_exists_only_for_compressed_schemes() {
    use dylect_dram::RequestClass;
    let nc = quick(
        "omnetpp",
        SchemeKind::NoCompression,
        CompressionSetting::High,
    )
    .run(20_000, 20_000);
    assert_eq!(nc.dram.class_blocks(RequestClass::CteFetch), 0);
    let tm = quick("omnetpp", SchemeKind::tmcc(), CompressionSetting::High).run(20_000, 20_000);
    assert!(tm.dram.class_blocks(RequestClass::CteFetch) > 0);
}

#[test]
fn energy_accumulates_with_time() {
    let r = quick("omnetpp", SchemeKind::tmcc(), CompressionSetting::High).run(20_000, 40_000);
    assert!(r.energy.total() > 0.0);
    assert!(r.energy.background > 0.0);
    assert!(r.energy_per_instruction_nj() > 0.0);
}

#[test]
fn tlb_misses_are_rare_under_huge_pages() {
    let r = quick(
        "canneal",
        SchemeKind::NoCompression,
        CompressionSetting::Low,
    )
    .run(100_000, 100_000);
    assert!(
        r.tlb_miss_rate < 0.05,
        "huge pages should nearly eliminate TLB misses: {}",
        r.tlb_miss_rate
    );
}

#[test]
fn report_ratios_are_consistent() {
    let r = quick("omnetpp", SchemeKind::dylect(), CompressionSetting::High).run(30_000, 30_000);
    let hit = r.mc.cte_hit_rate();
    assert!((0.0..=1.0).contains(&hit));
    let split = r.mc.pregathered_hit_rate() + r.mc.unified_hit_rate();
    assert!((split - hit).abs() < 1e-9, "split {split} != hit {hit}");
    assert!(r.bus_utilization() <= 1.0 + 1e-9);
}

/// A figure whose `--out` cannot be created fails before it simulates,
/// with exit status 1 and an error naming the path.
#[test]
fn an_unwritable_out_dir_fails_the_figure_run() {
    let tmp = std::env::temp_dir().join(format!("dylect-out-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let file = tmp.join("file");
    std::fs::write(&file, "a regular file").expect("temp file");
    let out = file.join("out");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_fig_warmup"))
        .args(["--quick", "--out"])
        .arg(&out)
        .env("DYLECT_CACHE_DIR", tmp.join("cache"))
        .env("DYLECT_PROGRESS_DIR", tmp.join("progress"))
        .output()
        .expect("fig_warmup runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&out.display().to_string()), "{stderr}");
    assert!(
        !stderr.contains("[runner]"),
        "simulated before failing: {stderr}"
    );
    std::fs::remove_dir_all(&tmp).ok();
}
