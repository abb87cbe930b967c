//! The step workloads: one simulated system advanced chunk by chunk.
//!
//! An untraced run times `System::execute` chunks, each between two
//! passes of the host probe (`probe.rs`), and reports the throughput of
//! its fastest-decile chunk in reference host time. A traced run advances
//! a second, plain system in lockstep with host profiling
//! (`sim-core::prof`) on during its chunks, and splits that system's host
//! time by layer from the profiler's phases. Either way every system must
//! reach, after a short prefix, the state a reference system reaches.

use std::time::Instant;

use dylect_bench::{config_for, warmup_for, Mode};
use dylect_sim::backend::SharedDigests;
use dylect_sim::{SchemeKind, System, SystemConfig};
use dylect_sim_core::digest;
use dylect_sim_core::kv::fingerprint64;
use dylect_sim_core::prof::{self, HostPhase, ProfReport, WorkerKind};
use dylect_telemetry::TelemetryConfig;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

use crate::outcome::Outcome;
use crate::probe::{self, Probe};
use crate::stats::{median, quantile};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// How long a step run is. The CLI uses [`StepWorkload::length`]; tests
/// pass tiny lengths.
#[derive(Clone, Copy, Debug)]
pub struct RunLength {
    /// Warmup ops before the measurement window opens.
    pub warmup_ops: u64,
    /// Ops per timed chunk.
    pub chunk_ops: u64,
    /// Chunks run before the correctness check; the exact counters of a
    /// traced run cover these chunks, so they repeat exactly.
    pub prefix_chunks: u64,
    /// Host seconds of chunks to measure, the prefix included.
    pub seconds: f64,
}

/// One step workload at one seed.
pub struct StepWorkload {
    /// Workload name, as on the command line.
    pub name: &'static str,
    spec: BenchmarkSpec,
    cfg: SystemConfig,
    /// Telemetry whose host cost the traced pass measures, with a system
    /// that has it on beside the plain ones. The measured systems run
    /// without it.
    telemetry: Option<TelemetryConfig>,
    warmup_ops: u64,
    chunk_ops: u64,
    /// Fingerprint of the report after the prefix at seed 0.
    pub pin: u64,
}

impl StepWorkload {
    /// The step workload `name` with inputs drawn from `seed`; seed 0 is
    /// the configuration's own seed.
    pub fn new(name: &str, seed: u64) -> Option<StepWorkload> {
        let mut w = match name {
            // The old `system_step_1000_ops` configuration: the working
            // set mostly fits the private caches, so host time goes to the
            // core model and the op generator. Shadow telemetry sends the
            // same simulated work through the per-op loop with the shadow
            // CTE tags and the probes attached; the traced pass times it.
            "step_small" => {
                let spec = BenchmarkSpec::by_name("omnetpp").expect("omnetpp is in the suite");
                StepWorkload {
                    name: "step_small",
                    cfg: SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High),
                    spec,
                    telemetry: Some(TelemetryConfig {
                        shadow: true,
                        ..TelemetryConfig::default()
                    }),
                    warmup_ops: 1 << 20,
                    chunk_ops: 1 << 17,
                    pin: 0xf160_f28f_46f5_18cd,
                }
            }
            // A footprint far beyond the caches on two memory controllers:
            // host time goes to the L3, the scheme and DRAM, and dirty L3
            // victims queue per controller until `drain_pending`. The drain
            // runs on the simulating thread, as it does in the reproduction
            // (`DYLECT_JOBS=1`).
            "step_mem" => {
                let spec = BenchmarkSpec::by_name("bfs").expect("bfs is in the suite");
                let mode = Mode::quick();
                let mut cfg =
                    config_for(&spec, SchemeKind::dylect(), CompressionSetting::High, mode);
                cfg.cores = 1;
                cfg.memory_controllers = 2;
                StepWorkload {
                    name: "step_mem",
                    warmup_ops: warmup_for(&spec, mode),
                    cfg,
                    spec,
                    telemetry: None,
                    chunk_ops: 1 << 15,
                    pin: 0xe363_55e9_27f3_7657,
                }
            }
            _ => return None,
        };
        w.cfg.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Some(w)
    }

    /// The run length the benchmark uses: `seconds` of chunks, at least a
    /// 32-chunk prefix per system.
    pub fn length(&self, seconds: f64) -> RunLength {
        RunLength {
            warmup_ops: self.warmup_ops,
            chunk_ops: self.chunk_ops,
            prefix_chunks: 32,
            seconds,
        }
    }

    /// A warmed system in its measurement window; with `telemetry`, the
    /// workload's telemetry, if it has one, is on.
    fn system(&self, warmup_ops: u64, telemetry: bool) -> System {
        let mut sys = System::new(self.cfg.clone(), &self.spec);
        if let Some(cfg) = self.telemetry.filter(|_| telemetry) {
            sys.enable_telemetry(cfg);
        }
        sys.warm_up(warmup_ops);
        sys.start_measurement();
        sys
    }
}

/// State digest of a single-core system, in the terms of
/// `sim-core::digest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StateDigest {
    core: u64,
    shared: SharedDigests,
}

impl StateDigest {
    fn of(sys: &System) -> StateDigest {
        StateDigest {
            core: digest::hash_snapshot(&sys.cores()[0]),
            shared: sys.shared().component_digests(),
        }
    }
}

/// Simulated-event counts of a single-core system since its measurement
/// window opened, read from each layer's statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    l1_misses: u64,
    l2_misses: u64,
    tlb_misses: u64,
    l3_hits: u64,
    l3_misses: u64,
    mc_requests: u64,
    cte_lookups: u64,
    cte_hits: u64,
    dram_reads: u64,
    dram_writes: u64,
    dram_row_hits: u64,
}

impl Counters {
    fn of(sys: &System) -> Counters {
        let core = &sys.cores()[0];
        let shared = sys.shared();
        let mc = shared.mc_stats();
        let dram = shared.dram_stats();
        Counters {
            l1_misses: core.stats().l1_misses.get(),
            l2_misses: core.stats().l2_misses.get(),
            tlb_misses: core.tlb().stats().misses.get(),
            l3_hits: shared.stats().l3_hits.get(),
            l3_misses: shared.stats().l3_misses.get(),
            mc_requests: mc.requests.get(),
            cte_lookups: mc.cte_lookups(),
            cte_hits: mc.cte_hits_pregathered.get() + mc.cte_hits_unified.get(),
            dram_reads: dram.reads.get(),
            dram_writes: dram.writes.get(),
            dram_row_hits: dram.row_hits.get(),
        }
    }
}

/// What the workload's system reaches after the warmup and the prefix.
/// It is the first system of the process and is dropped before anything
/// is measured, so it shares no host caches with the measured systems,
/// and its report is read without disturbing them.
struct Reference {
    digest: StateDigest,
    counters: Counters,
    /// `fingerprint64` of the report's cache text.
    fingerprint: u64,
    /// Anonymous resident memory of the process with the reference alone
    /// alive after the prefix, kB. With one thread, no second stack or
    /// allocator arena can come and go in it.
    anon_kb: u64,
}

impl Reference {
    fn of(w: &StepWorkload, len: RunLength) -> Result<Reference, String> {
        let mut sys = w.system(len.warmup_ops, false);
        for _ in 0..len.prefix_chunks {
            sys.execute(len.chunk_ops);
        }
        Ok(Reference {
            digest: StateDigest::of(&sys),
            counters: Counters::of(&sys),
            anon_kb: crate::host::anon_rss_kb(std::process::id())?,
            fingerprint: fingerprint64(&sys.finish().to_cache_text()),
        })
    }

    /// Records a problem if a system's `digest` after the prefix is not
    /// the reference's.
    fn check(&self, digest: StateDigest, what: &str, problems: &mut Vec<String>) {
        if digest != self.digest {
            problems.push(format!(
                "the {what} system's state digest differs from the reference's"
            ));
        }
    }
}

/// Host ns that `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Runs `w` for `len`; with `trace`, the traced pass. `pin`, when given,
/// is the report fingerprint the prefix must reproduce. A failed check
/// fails every chunk of the run.
pub fn run(
    w: &StepWorkload,
    len: RunLength,
    trace: bool,
    pin: Option<u64>,
) -> Result<Outcome, String> {
    assert!(
        len.prefix_chunks > 0,
        "the correctness check needs a prefix"
    );
    let reference = Reference::of(w, len)?;
    eprintln!(
        "[perf] {}: report fingerprint after the prefix {:016x}",
        w.name, reference.fingerprint
    );
    let mut problems = Vec::new();
    if pin.is_some_and(|p| p != reference.fingerprint) {
        problems.push("the report fingerprint is not the pinned one".to_owned());
    }
    let mut outcome = if trace {
        traced(w, len, &reference, &mut problems)
    } else {
        untraced(w, len, &reference, &mut problems)?
    };
    for p in &problems {
        eprintln!("[perf] {}: FAILED: {p}", w.name);
    }
    if !problems.is_empty() {
        outcome.failed = outcome.attempted;
    }
    Ok(outcome)
}

fn untraced(
    w: &StepWorkload,
    len: RunLength,
    reference: &Reference,
    problems: &mut Vec<String>,
) -> Result<Outcome, String> {
    // Made after the reference's memory is read, so its array is not in
    // `rss_mb`.
    let mut probe = Probe::new();
    // A set-up scaled by the probe's pace just before and just after it.
    let setup = |probe: &mut Probe| {
        let before = probe.ns();
        let t0 = Instant::now();
        let sys = w.system(len.warmup_ops, false);
        let ns = t0.elapsed().as_nanos() as f64;
        let pace = (before + probe.ns()) / 2.0;
        (sys, probe::scaled(ns, pace) / 1e9)
    };
    let (mut sys, first) = setup(&mut probe);
    let mut setup_s = vec![first];
    let (mut chunk_ns, mut scaled_ns) = (Vec::new(), Vec::new());
    // Probe passes run on this thread between the chunks, so each chunk is
    // scaled by the pace just before and just after it.
    let mut probe_ns = vec![probe.ns()];
    let mut measured_ns = 0.0;
    while (chunk_ns.len() as u64) < len.prefix_chunks || measured_ns < len.seconds * 1e9 {
        let ns = timed(|| sys.execute(len.chunk_ops));
        let before = probe_ns[probe_ns.len() - 1];
        let after = probe.ns();
        chunk_ns.push(ns);
        probe_ns.push(after);
        scaled_ns.push(probe::scaled(ns, (before + after) / 2.0));
        measured_ns += ns;
        if chunk_ns.len() as u64 == len.prefix_chunks {
            reference.check(StateDigest::of(&sys), "measured", problems);
        }
        // Spread over the run, so that the set-ups see the host as the
        // chunks do.
        if measured_ns >= len.seconds * 1e9 * setup_s.len() as f64 / SETUPS as f64
            && setup_s.len() < SETUPS
        {
            setup_s.push(setup(&mut probe).1);
            probe_ns.push(probe.ns());
        }
    }
    let chunks = chunk_ns.len() as u64;
    let retired = sys.finish().mem_ops;
    if retired != chunks * len.chunk_ops {
        problems.push(format!(
            "retired {retired} ops, expected {}",
            chunks * len.chunk_ops
        ));
    }
    let per_op = |ns: f64| ns / len.chunk_ops as f64;
    // Other tenants slow some chunks of nearly every run far more than
    // they slow the probe, and whole runs now and then. The fastest decile
    // of scaled chunks is the part of the run they disturbed least, and
    // far steadier from run to run than the median chunk (README.md).
    let fast_ns = quantile(&scaled_ns, 1, 10);
    eprintln!(
        "[perf] {}: {chunks} chunks; host ns/op p10 {:.1} p50 {:.1} p90 {:.1}; \
         probe us/pass p50 {:.1} (reference {}); scaled ns/op p10 {:.1} p50 {:.1}",
        w.name,
        per_op(quantile(&chunk_ns, 1, 10)),
        per_op(median(&chunk_ns)),
        per_op(quantile(&chunk_ns, 9, 10)),
        median(&probe_ns) / 1e3,
        probe::REFERENCE_NS / 1e3,
        per_op(fast_ns),
        per_op(median(&scaled_ns)),
    );
    Ok(Outcome {
        attempted: chunks,
        failed: 0,
        values: vec![
            ("mops", len.chunk_ops as f64 / (fast_ns / 1e3)),
            ("setup_s", median(&setup_s)),
            ("rss_mb", reference.anon_kb as f64 / 1024.0),
        ],
    })
}

/// Host ns of `phase` over the profiled window, scaled up from its
/// samples.
fn phase_ns(rep: &ProfReport, phase: HostPhase) -> f64 {
    rep.phases[phase.idx()].est_ns as f64
}

fn traced(
    w: &StepWorkload,
    len: RunLength,
    reference: &Reference,
    problems: &mut Vec<String>,
) -> Outcome {
    // The workload's own system runs untraced beside the traced one; with
    // the workload's telemetry, a third system runs with it on, and its
    // cost is the paired difference of that system's chunks and the
    // untraced ones.
    let mut plain = w.system(len.warmup_ops, false);
    let mut traced = w.system(len.warmup_ops, false);
    let mut observed = w.telemetry.map(|_| w.system(len.warmup_ops, true));
    let slots = if observed.is_some() { 3 } else { 2 };
    let (mut plain_ns, mut traced_ns, mut observed_ns) = (Vec::new(), Vec::new(), Vec::new());
    prof::reset();
    let start = Instant::now();
    let mut i = 0u64;
    while i < len.prefix_chunks || start.elapsed().as_secs_f64() < len.seconds {
        // Rotate which system goes first, so none always starts on host
        // caches another has just filled.
        for k in 0..slots {
            match (i as usize + k) % slots {
                0 => plain_ns.push(timed(|| plain.execute(len.chunk_ops))),
                1 => {
                    prof::set_enabled(true);
                    traced_ns.push(timed(|| traced.execute(len.chunk_ops)));
                    prof::set_enabled(false);
                }
                _ => {
                    let observed = observed.as_mut().expect("three slots");
                    observed_ns.push(timed(|| observed.execute(len.chunk_ops)));
                }
            }
        }
        i += 1;
        if i == len.prefix_chunks {
            reference.check(StateDigest::of(&plain), "untraced", problems);
            reference.check(StateDigest::of(&traced), "traced", problems);
            if let Some(observed) = &observed {
                reference.check(StateDigest::of(observed), "telemetry", problems);
            }
        }
    }
    let rep = prof::report();

    let overhead: Vec<f64> = traced_ns
        .iter()
        .zip(&plain_ns)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    let telemetry: Vec<f64> = observed_ns
        .iter()
        .zip(&plain_ns)
        .map(|(o, p)| o - p)
        .collect();

    // Phases nest: a batch's step holds the core's backend calls, a
    // backend call the scheme calls on L3 misses, a scheme call its DRAM
    // accesses. Drained writebacks reach the scheme from the drain workers,
    // whose summed busy time is the scheme and DRAM time inside the drain.
    let fill = phase_ns(&rep, HostPhase::BatchFill);
    let step = phase_ns(&rep, HostPhase::BatchStep);
    let backend = phase_ns(&rep, HostPhase::MemAccess);
    let scheme = phase_ns(&rep, HostPhase::SchemeAccess);
    let dram = phase_ns(&rep, HostPhase::DramAccess);
    let drain = phase_ns(&rep, HostPhase::DrainWriteback);
    let drain_busy: f64 = rep
        .workers
        .iter()
        .filter(|r| r.kind == WorkerKind::Drain)
        .map(|r| r.busy_ns as f64)
        .sum();
    let wall: f64 = traced_ns.iter().sum();
    let memctl = scheme + drain_busy - dram;
    let backend_calls = rep.phases[HostPhase::MemAccess.idx()].est_calls;
    let scheme_calls = Counters::of(&traced).mc_requests;

    let c = reference.counters;
    let kops = (len.prefix_chunks * len.chunk_ops) as f64 / 1e3;
    let ops = (traced_ns.len() as u64 * len.chunk_ops) as f64;
    let share = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    // With one memory controller, writebacks apply inline and nothing is
    // queued; with more, every request that is not an L3 miss is a
    // drained writeback.
    let drained = if w.cfg.memory_controllers > 1 {
        c.mc_requests - c.l3_misses
    } else {
        0
    };
    Outcome {
        attempted: i,
        failed: 0,
        values: vec![
            ("workloads.self_ns_per_op", fill / ops),
            ("cpu.self_ns_per_op", (step - backend) / ops),
            ("cpu.l1_miss_per_kop", c.l1_misses as f64 / kops),
            ("cpu.l2_miss_per_kop", c.l2_misses as f64 / kops),
            ("cpu.tlb_miss_per_kop", c.tlb_misses as f64 / kops),
            ("sim.l3.self_ns_per_op", (backend - scheme) / ops),
            ("sim.l3.ns_per_call", share(backend - scheme, backend_calls)),
            (
                "sim.l3.lookups_per_kop",
                (c.l3_hits + c.l3_misses) as f64 / kops,
            ),
            (
                "sim.l3.hit_ratio",
                share(c.l3_hits as f64, c.l3_hits + c.l3_misses),
            ),
            ("memctl.self_ns_per_op", memctl / ops),
            ("memctl.ns_per_call", share(memctl, scheme_calls)),
            ("memctl.calls_per_kop", c.mc_requests as f64 / kops),
            (
                "memctl.cte_hit_ratio",
                share(c.cte_hits as f64, c.cte_lookups),
            ),
            ("dram.self_ns_per_op", dram / ops),
            ("dram.reads_per_kop", c.dram_reads as f64 / kops),
            ("dram.writes_per_kop", c.dram_writes as f64 / kops),
            (
                "dram.row_hit_ratio",
                share(c.dram_row_hits as f64, c.dram_reads + c.dram_writes),
            ),
            ("sim.drain.self_ns_per_op", (drain - drain_busy) / ops),
            ("sim.drain.writebacks_per_kop", drained as f64 / kops),
            (
                "sim.loop.self_ns_per_op",
                (wall - fill - step - drain) / ops,
            ),
            (
                "telemetry.ns_per_op",
                if telemetry.is_empty() {
                    0.0
                } else {
                    median(&telemetry) / len.chunk_ops as f64
                },
            ),
            (
                "chunk.p90_ns_per_op",
                quantile(&plain_ns, 9, 10) / len.chunk_ops as f64,
            ),
            ("trace.overhead_pct", median(&overhead) * 100.0),
            (
                "trace.residual_pct",
                ((fill + step + drain) / plain_ns.iter().sum::<f64>() - 1.0) * 100.0,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host profiling is process-global: tests run one at a time, so no
    /// test's systems record into another's traced window.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tiny() -> RunLength {
        RunLength {
            warmup_ops: 20_000,
            chunk_ops: 4_096,
            prefix_chunks: 2,
            seconds: 0.0,
        }
    }

    /// Counts of simulated events, which repeat exactly run to run.
    const EXACT: [&str; 11] = [
        "cpu.l1_miss_per_kop",
        "cpu.l2_miss_per_kop",
        "cpu.tlb_miss_per_kop",
        "sim.l3.lookups_per_kop",
        "sim.l3.hit_ratio",
        "memctl.calls_per_kop",
        "memctl.cte_hit_ratio",
        "dram.reads_per_kop",
        "dram.writes_per_kop",
        "dram.row_hit_ratio",
        "sim.drain.writebacks_per_kop",
    ];

    #[test]
    fn traced_step_workloads_match_the_reference_with_repeatable_counters() {
        let _serial = serial();
        for name in ["step_small", "step_mem"] {
            let w = StepWorkload::new(name, 0).expect("known workload");
            let a = run(&w, tiny(), true, None).expect("runs");
            let b = run(&w, tiny(), true, None).expect("runs");
            assert!(a.attempted >= 2, "{name}: ran the prefix");
            assert_eq!(a.failed, 0, "{name}: a system left the reference");
            assert!(
                a.get("trace.residual_pct").is_some_and(f64::is_finite),
                "{name}: no residual"
            );
            for m in EXACT {
                assert!(a.get(m).is_some(), "{name}: {m} missing");
                assert_eq!(a.get(m), b.get(m), "{name}: {m} differs between runs");
            }
        }
    }

    #[test]
    fn untraced_run_fails_on_a_wrong_pin_and_matches_the_reference_at_any_seed() {
        let _serial = serial();
        let w = StepWorkload::new("step_small", 7).expect("known workload");
        let ok = run(&w, tiny(), false, None).expect("runs");
        assert_eq!(
            ok.failed, 0,
            "the reference check holds at a non-default seed"
        );
        assert!(ok.get("mops").is_some_and(|v| v > 0.0));
        let wrong = run(&w, tiny(), false, Some(0)).expect("runs");
        assert_eq!(
            wrong.failed, wrong.attempted,
            "a pin mismatch fails every chunk"
        );
    }
}
