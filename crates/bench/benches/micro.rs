//! Microbenchmarks of the simulator's hot paths, on a dependency-free
//! harness (manual warmup, median of timed batches, `std::hint::black_box`).
//!
//! These are engineering benchmarks (simulator throughput), not paper
//! reproductions — the paper's tables and figures live in `src/bin/`.
//! Compiled with `harness = false`, so `cargo bench` runs `main` directly;
//! `cargo bench -- <filter>` runs the benchmarks whose name contains the
//! filter string.

use std::hint::black_box;
use std::time::Instant;

use dylect_cache::{CacheConfig, SetAssocCache};
use dylect_compression::{bdi, fpc};
use dylect_core::GroupMap;
use dylect_dram::{Dram, DramConfig, DramOp, RequestClass};
use dylect_memctl::FreeSpace;
use dylect_sim::{SchemeKind, System, SystemConfig};
use dylect_sim_core::rng::{Rng, Zipf};
use dylect_sim_core::{digest, prof};
use dylect_sim_core::{
    DramPageId, MachineAddr, PageId, Time, BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES,
};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// Batches per sample; the reported time is the median over samples, which
/// is robust to scheduler noise without criterion's outlier machinery.
const SAMPLES: usize = 15;
const WARMUP_BATCHES: usize = 3;

/// Times `iters`-iteration batches of `f` and prints the median
/// per-iteration time with min/max spread.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    if let Some(filter) = std::env::args().nth(1) {
        if !filter.starts_with('-') && !name.contains(&filter) {
            return;
        }
    }
    for _ in 0..WARMUP_BATCHES {
        for _ in 0..iters {
            f();
        }
    }
    let mut per_iter_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[SAMPLES / 2];
    let (min, max) = (per_iter_ns[0], per_iter_ns[SAMPLES - 1]);
    println!("{name:<24} {median:>12.1} ns/iter  (min {min:.1}, max {max:.1}, {SAMPLES} samples x {iters} iters)");
}

fn main() {
    bench_cte_cache();
    bench_dram_access();
    bench_short_cte_hash();
    bench_compressors();
    bench_freespace();
    bench_zipf();
    bench_end_to_end();
    bench_prof_overhead();
    bench_digest_overhead();
}

fn bench_cte_cache() {
    let mut cache: SetAssocCache = SetAssocCache::new(CacheConfig::lru(128 * 1024, 8, 64));
    let mut rng = Rng::new(7);
    bench("cte_cache_lookup_fill", 100_000, || {
        let key = rng.next_below(1 << 16);
        if !cache.access(black_box(key)) {
            cache.fill(key, false, ());
        }
    });
}

fn bench_dram_access() {
    let mut dram = Dram::new(DramConfig::paper(1 << 30, 8));
    let mut t = Time::ZERO;
    let mut rng = Rng::new(3);
    bench("dram_single_access", 100_000, || {
        let addr = MachineAddr::new(rng.next_below(1 << 30) / 64 * 64);
        t = dram.access(t, black_box(addr), DramOp::Read, RequestClass::Demand);
    });
    // One 4 KB page as a 64-block batch, the shape of `transfer::read_page`.
    let mut dram = Dram::new(DramConfig::paper(1 << 30, 8));
    let mut t = Time::ZERO;
    bench("dram_page_batch", 10_000, || {
        let base = rng.next_below(1 << 30) / PAGE_BYTES * PAGE_BYTES;
        let blocks =
            (0..BLOCKS_PER_PAGE).map(|i| (MachineAddr::new(base + i * BLOCK_BYTES), DramOp::Read));
        t = dram.access_batch(t, black_box(blocks), RequestClass::Migration);
    });
}

fn bench_short_cte_hash() {
    let groups = GroupMap::new(1 << 22, 3);
    let mut rng = Rng::new(5);
    bench("short_cte_mapping", 1_000_000, || {
        let p = PageId::new(rng.next_below(1 << 24));
        black_box(groups.hash(black_box(p)));
    });
}

fn bench_compressors() {
    let mut block = [0u8; 64];
    for (i, b) in block.iter_mut().enumerate() {
        *b = (i % 7) as u8;
    }
    bench("bdi_compress_64b", 500_000, || {
        black_box(bdi::compressed_bytes(black_box(&block)));
    });
    let mut page = vec![0u8; 4096];
    for (i, b) in page.iter_mut().enumerate() {
        *b = ((i / 3) % 11) as u8;
    }
    bench("fpc_compress_4k", 20_000, || {
        black_box(fpc::compressed_bytes(black_box(&page)));
    });
}

fn bench_freespace() {
    let mut fs = FreeSpace::new();
    for i in 0..256 {
        fs.add_page(DramPageId::new(i));
    }
    let mut rng = Rng::new(11);
    let mut live = Vec::new();
    bench("freespace_alloc_free", 100_000, || {
        if live.len() < 128 {
            let len = (rng.next_below(3840) + 256) as u32;
            if let Some(s) = fs.alloc_span(len) {
                live.push(s);
            }
        } else {
            let idx = rng.next_below(live.len() as u64) as usize;
            fs.free_span(live.swap_remove(idx));
        }
    });
}

fn bench_zipf() {
    let zipf = Zipf::new(1 << 20, 0.99);
    let mut rng = Rng::new(13);
    bench("zipf_sample", 1_000_000, || {
        black_box(zipf.sample(&mut rng));
    });
}

fn bench_end_to_end() {
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let mut sys = System::new(cfg, &spec);
    sys.run(50_000, 1);
    bench("system_step_1000_ops", 50, || {
        sys.execute(1000);
        black_box(&sys);
    });

    // Same workload with shadow CTE caches + provenance attached, so the
    // observation overhead is a one-line diff against the baseline above.
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let mut sys = System::new(cfg, &spec);
    sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
        shadow: true,
        ..dylect_telemetry::TelemetryConfig::default()
    });
    sys.run(50_000, 1);
    bench("system_step_1000_shadow", 50, || {
        sys.execute(1000);
        black_box(&sys);
    });

    // The same workload split across two memory controllers: dirty L3
    // victims queue per MC and drain every `BATCH_OPS` ops.
    let mut cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    cfg.memory_controllers = 2;
    let mut sys = System::new(cfg, &spec);
    sys.run(50_000, 1);
    bench("system_step_1000_2mc", 50, || {
        sys.execute(1000);
        black_box(&sys);
    });

    // Two-tenant co-schedule: one ASID-tagged core per tenant driving the
    // same memory side. The delta against `system_step_1000_ops` is the
    // cost of multi-core scheduling plus the second trace generator.
    let scenario =
        dylect_scenario::ScenarioSpec::parse("tenants=omnetpp,canneal").expect("valid spec");
    let base = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let cfg = scenario.configure(base, CompressionSetting::High);
    let mut sys = scenario.build_system(cfg);
    sys.run(50_000, 1);
    bench("system_step_1000_tenants", 50, || {
        sys.execute(1000);
        black_box(&sys);
    });

    // Checkpoint restore cost: snapshot the warmed system once, then each
    // iteration rewinds to that snapshot and advances the same 1000 ops.
    // The delta against `system_step_1000_ops` is the per-resume restore
    // overhead.
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let mut sys = System::new(cfg, &spec);
    let snap = sys.warm_up_and_snapshot(50_000);
    bench("system_restore_1000_ops", 50, || {
        sys.restore(black_box(&snap))
            .expect("own snapshot restores");
        sys.execute(1000);
        black_box(&sys);
    });
}

/// The same hot loop as `system_step_1000_ops` with the host self-profiler
/// armed, measured as *interleaved* prof-off / prof-on batch pairs so slow
/// clock-speed drift cancels out of the overhead estimate. The paired
/// overhead (median over per-pair deltas) is printed as a
/// `prof_overhead_pct` line (budget: <2%); the accumulated phase table
/// follows as `prof_phase` lines.
fn bench_prof_overhead() {
    // Mirror bench()'s filter so an excluded run leaves the global
    // profiler untouched and prints no prof_phase lines.
    if let Some(filter) = std::env::args().nth(1) {
        if !filter.starts_with('-') && !"system_step_1000_prof".contains(&filter) {
            return;
        }
    }
    // Each sample alternates prof-off / prof-on every single execute
    // (~80µs), accumulating total time per side. Multi-millisecond
    // scheduler-steal bursts then span many alternation segments and land
    // on both sides near-evenly, so they cancel out of the per-sample
    // delta — batch-vs-batch timing (the plain benches' shape) cannot
    // resolve a sub-2% overhead on a noisy host. The reported overhead is
    // the median per-sample delta.
    const PAIRS: u64 = 200;
    // More samples than the plain benches: the overhead estimate resolves
    // a fraction of a percent, so the median needs the extra support.
    const PROF_SAMPLES: usize = 31;
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let mut sys = System::new(cfg, &spec);
    sys.run(50_000, 1);
    prof::set_enabled(false);
    for _ in 0..WARMUP_BATCHES {
        for _ in 0..PAIRS {
            sys.execute(1000);
            black_box(&sys);
        }
    }
    prof::reset();
    let mut off_ns = Vec::with_capacity(PROF_SAMPLES);
    let mut on_ns = Vec::with_capacity(PROF_SAMPLES);
    for _ in 0..PROF_SAMPLES {
        let mut off_total = 0u128;
        let mut on_total = 0u128;
        for pair in 0..PAIRS {
            // Alternate which side goes first: per-execute cost drifts as
            // the simulated state evolves, and a fixed order would bias
            // the second side high.
            for step in 0..2 {
                let on = (pair + step) % 2 == 0;
                prof::set_enabled(on);
                let t0 = Instant::now();
                sys.execute(1000);
                black_box(&sys);
                let ns = t0.elapsed().as_nanos();
                if on {
                    on_total += ns;
                } else {
                    off_total += ns;
                }
            }
            prof::set_enabled(false);
        }
        off_ns.push(off_total as f64 / PAIRS as f64);
        on_ns.push(on_total as f64 / PAIRS as f64);
    }
    let stats = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        (v[PROF_SAMPLES / 2], v[0], v[PROF_SAMPLES - 1])
    };
    for (name, v) in [
        ("system_step_1000_prof_base", &off_ns),
        ("system_step_1000_prof", &on_ns),
    ] {
        let (median, min, max) = stats(v);
        println!("{name:<24} {median:>12.1} ns/iter  (min {min:.1}, max {max:.1}, {PROF_SAMPLES} samples x {PAIRS} iters)");
    }
    let mut deltas: Vec<f64> = off_ns
        .iter()
        .zip(&on_ns)
        .map(|(off, on)| (on - off) / off * 100.0)
        .collect();
    deltas.sort_by(|a, b| a.total_cmp(b));
    println!("prof_overhead_pct {:.2}", deltas[PROF_SAMPLES / 2]);
    for p in prof::report().phases {
        if p.calls > 0 {
            println!("prof_phase {} {} {}", p.phase.name(), p.est_ns, p.est_calls);
        }
    }
}

/// The same paired-alternation methodology as [`bench_prof_overhead`],
/// with the state-digest window clock armed instead of the profiler. With
/// digests on, every 1000-op execute advances the window clock and
/// hashes the full machine state whenever a default
/// (`digest::DEFAULT_WINDOW_OPS`) window closes. PAIRS is sized so each
/// on-side sample retires more than one full window — every sample's
/// delta therefore includes its amortized share of a full-state capture,
/// and the median measures the real steady-state cost a
/// `DYLECT_DIGEST=1` sweep pays rather than just the per-batch tick.
/// Printed as a `digest_overhead_pct` line (budget: <2%).
fn bench_digest_overhead() {
    if let Some(filter) = std::env::args().nth(1) {
        if !filter.starts_with('-') && !"system_step_1000_digest".contains(&filter) {
            return;
        }
    }
    // 1100 on-iterations x 1000 ops > one 2^20-op window per sample.
    const PAIRS: u64 = 1_100;
    const DIGEST_SAMPLES: usize = 15;
    let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
    let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
    let mut sys = System::new(cfg, &spec);
    sys.run(50_000, 1);
    digest::set_enabled(false);
    for _ in 0..WARMUP_BATCHES {
        for _ in 0..PAIRS {
            sys.execute(1000);
            black_box(&sys);
        }
    }
    let mut off_ns = Vec::with_capacity(DIGEST_SAMPLES);
    let mut on_ns = Vec::with_capacity(DIGEST_SAMPLES);
    for _ in 0..DIGEST_SAMPLES {
        let mut off_total = 0u128;
        let mut on_total = 0u128;
        for pair in 0..PAIRS {
            for step in 0..2 {
                let on = (pair + step) % 2 == 0;
                digest::set_enabled(on);
                let t0 = Instant::now();
                sys.execute(1000);
                black_box(&sys);
                let ns = t0.elapsed().as_nanos();
                if on {
                    on_total += ns;
                } else {
                    off_total += ns;
                }
            }
            digest::set_enabled(false);
            // Keep the record buffer from growing across the whole bench;
            // draining is part of the steady-state consumer protocol.
            black_box(sys.take_digests());
        }
        off_ns.push(off_total as f64 / PAIRS as f64);
        on_ns.push(on_total as f64 / PAIRS as f64);
    }
    let stats = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        (v[DIGEST_SAMPLES / 2], v[0], v[DIGEST_SAMPLES - 1])
    };
    for (name, v) in [
        ("system_step_1000_digest_base", &off_ns),
        ("system_step_1000_digest", &on_ns),
    ] {
        let (median, min, max) = stats(v);
        println!("{name:<24} {median:>12.1} ns/iter  (min {min:.1}, max {max:.1}, {DIGEST_SAMPLES} samples x {PAIRS} iters)");
    }
    let mut deltas: Vec<f64> = off_ns
        .iter()
        .zip(&on_ns)
        .map(|(off, on)| (on - off) / off * 100.0)
        .collect();
    deltas.sort_by(|a, b| a.total_cmp(b));
    println!("digest_overhead_pct {:.2}", deltas[DIGEST_SAMPLES / 2]);
}
