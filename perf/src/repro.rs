//! `repro_quick`: the cold `allfigs --quick` reproduction, exactly as a
//! user runs it, executed twice side by side per run, each execution in a
//! child process with its own working directory, report cache and
//! progress directory.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dylect_bench::{config_for, warmup_for, Mode};
use dylect_sim::{RunReport, SchemeKind, System};
use dylect_sim_core::kv::fingerprint64;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

use crate::hermetic::hermetic;
use crate::host;
use crate::outcome::Outcome;
use crate::probe::{self, Probe};
use crate::stats::median;

/// `fingerprint64` (FNV-1a, 64-bit) of `allfigs --quick` stdout. The
/// reproduction's inputs are fixed, so this holds at every benchmark seed.
pub const STDOUT_FINGERPRINT: u64 = 0xea5b_a864_29a4_ae81;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Pause between the probe passes taken while the reproduction runs, so
/// that the probe takes under one percent of the reproduction's processor.
const PROBE_INTERVAL: Duration = Duration::from_millis(50);

/// The build directory cargo uses from the working directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `allfigs` from the checkout in the working directory and returns
/// its absolute path.
pub fn build_allfigs() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "dylect-bench", "--bin", "allfigs"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building allfigs failed: {status}"));
    }
    std::path::absolute(target_dir().join("release").join("allfigs"))
        .map_err(|e| format!("cannot resolve the allfigs path: {e}"))
}

/// What the runner's stderr says: each simulation's host seconds in run
/// order, from the arrival times of its `start` and `done` lines, and the
/// counts of its `N runs (C cached, D deduped, S simulated)` summary.
#[derive(Debug, Default, PartialEq)]
struct RunnerLog {
    sims: Vec<(String, f64)>,
    simulated: u64,
    deduped: u64,
}

fn parse_runner_log(lines: &[(Instant, String)]) -> RunnerLog {
    let mut log = RunnerLog::default();
    let mut started: Option<(&str, Instant)> = None;
    for (at, line) in lines {
        if let Some((_, label)) = line.split_once(" start ") {
            started = Some((label, *at));
        } else if let Some((_, rest)) = line.split_once(" done  ") {
            let label = rest.split_once(": ").map_or(rest, |(l, _)| l);
            if let Some((_, t0)) = started.take().filter(|(l, _)| *l == label) {
                log.sims
                    .push((label.to_owned(), at.duration_since(t0).as_secs_f64()));
            }
        } else if line.starts_with("[runner] ") && line.contains(" runs (") {
            let words: Vec<&str> = line.split_whitespace().collect();
            let before = |tag: &str| {
                let at = words.iter().position(|w| *w == tag)?;
                words.get(at.checked_sub(1)?)?.parse::<u64>().ok()
            };
            log.deduped = before("deduped,").unwrap_or(0);
            log.simulated = before("simulated)").unwrap_or(0);
        }
    }
    log
}

/// Simulated ops behind the reports in `cache`: each run's warmup plus
/// its measured ops.
fn simulated_ops(cache: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    let mut ops = 0;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "report") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let report = RunReport::from_cache_text(&text)
            .ok_or_else(|| format!("{}: unreadable report", path.display()))?;
        let spec = BenchmarkSpec::by_name(&report.benchmark)
            .ok_or_else(|| format!("{}: unknown benchmark", path.display()))?;
        ops += warmup_for(&spec, Mode::quick()) + report.mem_ops;
    }
    Ok(ops)
}

/// Seconds to set up one of the reproduction's own runs,
/// bfs/dylect-g3/high (build the system and warm it up), in reference
/// host time: each set-up is scaled by the probe's pace just before and
/// just after it.
fn setup_seconds(probe: &mut Probe) -> f64 {
    let spec = BenchmarkSpec::by_name("bfs").expect("bfs is in the suite");
    let mode = Mode::quick();
    let cfg = config_for(&spec, SchemeKind::dylect(), CompressionSetting::High, mode);
    let secs: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let before = probe.ns();
            let t0 = Instant::now();
            let mut sys = System::new(cfg.clone(), &spec);
            sys.warm_up(warmup_for(&spec, mode));
            sys.start_measurement();
            let ns = t0.elapsed().as_nanos() as f64;
            probe::scaled(ns, (before + probe.ns()) / 2.0) / 1e9
        })
        .collect();
    median(&secs)
}

/// One cold execution of the reproduction.
struct Execution {
    /// Exit status 0 and the pinned stdout.
    ok: bool,
    wall_s: f64,
    /// Processor seconds `allfigs` used.
    cpu_s: f64,
    /// Processor ns of each probe pass taken beside it.
    paces: Vec<f64>,
    log: RunnerLog,
    ops: Result<u64, String>,
    rss_kb: u64,
}

impl Execution {
    /// The execution's processor time in reference host seconds.
    fn scaled_s(&self) -> f64 {
        probe::scaled(self.cpu_s, median(&self.paces))
    }
}

/// Runs `allfigs --quick` once in a fresh directory `work`, hermetically
/// with one worker, its own cache and its own progress directory. On
/// processor `cpu`, if given, with a probe thread beside it.
fn execute(allfigs: &Path, work: &Path, cpu: Option<usize>) -> Result<Execution, String> {
    // Everything started from here on, `allfigs` included, runs on `cpu`,
    // so the probe sees the processor the reproduction runs on.
    if let Some(cpu) = cpu {
        host::pin_to(cpu)?;
    }
    let mut probe = Probe::new();
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let (cache, progress) = (work.join("cache"), work.join("progress"));
    let mut cmd = Command::new(allfigs);
    cmd.arg("--quick")
        .current_dir(work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    hermetic(
        &mut cmd,
        &[
            ("DYLECT_JOBS", "1".as_ref()),
            ("DYLECT_CACHE_DIR", cache.as_os_str()),
            ("DYLECT_PROGRESS_DIR", progress.as_os_str()),
        ],
    );
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start allfigs: {e}"))?;
    let pid = child.id();
    let (mut out, err) = (
        child.stdout.take().expect("piped"),
        child.stderr.take().expect("piped"),
    );
    let exited = AtomicBool::new(false);
    let (status, wall_s, stdout, stderr, (rss_kb, cpu_s), paces) = std::thread::scope(|s| {
        let stdout = s.spawn(move || {
            let mut v = Vec::new();
            out.read_to_end(&mut v).map(|_| v)
        });
        // The runner prints each line as it happens, so arrival times
        // time each simulation.
        let stderr = s.spawn(move || {
            BufReader::new(err)
                .lines()
                .map(|line| line.map(|l| (Instant::now(), l)))
                .collect::<std::io::Result<Vec<_>>>()
        });
        // Each simulation holds its memory for far longer than the poll
        // interval, so polling catches every simulation's footprint. The
        // last processor time read misses at most one interval.
        let poller = s.spawn(|| {
            let (mut peak, mut cpu_s) = (0, 0.0);
            while !exited.load(Ordering::Relaxed) {
                if let Ok(kb) = host::anon_rss_kb(pid) {
                    peak = peak.max(kb);
                }
                cpu_s = host::cpu_seconds(pid).unwrap_or(cpu_s);
                std::thread::sleep(Duration::from_millis(20));
            }
            (peak, cpu_s)
        });
        let sampler = s.spawn(|| {
            let mut paces = Vec::new();
            while !exited.load(Ordering::Relaxed) {
                paces.push(probe.cpu_ns());
                std::thread::sleep(PROBE_INTERVAL);
            }
            paces
        });
        let status = child.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        exited.store(true, Ordering::Relaxed);
        (
            status,
            wall_s,
            stdout.join().expect("stdout reader"),
            stderr.join().expect("stderr reader"),
            poller.join().expect("rss and processor time poller"),
            sampler.join().expect("probe sampler"),
        )
    });
    let status = status.map_err(|e| format!("waiting for allfigs: {e}"))?;
    let stdout = stdout.map_err(|e| format!("reading allfigs stdout: {e}"))?;
    let stderr = stderr.map_err(|e| format!("reading allfigs stderr: {e}"))?;
    let fp = fingerprint64(&String::from_utf8_lossy(&stdout));
    let ok = status.success() && fp == STDOUT_FINGERPRINT && !paces.is_empty();
    if !ok {
        eprintln!("[perf] repro_quick: FAILED: allfigs {status}, stdout fingerprint {fp:016x}");
        for (_, line) in stderr.iter().rev().take(20).rev() {
            eprintln!("{line}");
        }
    }
    Ok(Execution {
        ok,
        wall_s,
        cpu_s,
        paces,
        log: parse_runner_log(&stderr),
        ops: simulated_ops(&cache),
        rss_kb,
    })
}

/// Runs `f(0)` on a new thread and `f(1)` on this one, at once, and
/// returns both results.
fn side_by_side<T: Send>(f: impl Fn(usize) -> T + Sync) -> [T; 2] {
    std::thread::scope(|s| {
        let other = s.spawn(|| f(0));
        let this = f(1);
        [other.join().expect("an execution thread panicked"), this]
    })
}

/// One run: the reproduction, executed twice side by side, each copy on a
/// processor of its own; with `trace`, the runner's per-layer numbers.
///
/// Other tenants slow this host's processors down, each on its own and
/// for minutes at a time. Each copy is therefore timed by the processor
/// time `allfigs` used, scaled by the pace of a probe thread that runs on
/// the same processor meanwhile; the reproduction's time is the mean of
/// the two. The runner's per-layer split is read from the wall clock
/// instead: each simulation counts at the faster of its two executions,
/// from its `start` to its `done` line, and the runner's own time at the
/// smaller of the two.
pub fn run(trace: bool) -> Result<Outcome, String> {
    let allfigs = build_allfigs()?;
    let setup_s = if trace {
        0.0
    } else {
        setup_seconds(&mut Probe::new())
    };
    let work = std::path::absolute(target_dir().join("perf-work"))
        .map_err(|e| e.to_string())?
        .join(format!("repro-{}", std::process::id()));
    let cpus = host::allowed_cpus();
    let runs = side_by_side(|c| {
        let cpu = (!cpus.is_empty()).then(|| cpus[c % cpus.len()]);
        execute(&allfigs, &work.join(c.to_string()), cpu)
    });
    let _ = std::fs::remove_dir_all(&work);
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;

    let first = &runs[0].log;
    let same = runs.iter().all(|e| {
        e.log.sims.len() == first.sims.len()
            && e.log.sims.iter().zip(&first.sims).all(|(a, b)| a.0 == b.0)
    });
    let ok = same && runs.iter().all(|e| e.ok);
    if !same {
        eprintln!("[perf] repro_quick: FAILED: the executions ran different simulations");
    }
    let sim_s: f64 = (0..first.sims.len())
        .map(|k| {
            runs.iter()
                .map(|e| e.log.sims[k].1)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let overhead_s = runs
        .iter()
        .map(|e| e.wall_s - e.log.sims.iter().map(|s| s.1).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    for (c, e) in runs.iter().enumerate() {
        eprintln!(
            "[perf] repro_quick: copy {c}: {:.2} s wall, {:.2} s processor; \
             probe us/pass p50 {:.1} over {} passes (reference {}); {:.2} s scaled",
            e.wall_s,
            e.cpu_s,
            median(&e.paces) / 1e3,
            e.paces.len(),
            probe::REFERENCE_NS / 1e3,
            e.scaled_s(),
        );
    }
    let values = if trace {
        vec![
            ("runner.sims", first.simulated as f64),
            ("runner.deduped", first.deduped as f64),
            ("runner.sim_s", sim_s),
            ("runner.overhead_s", overhead_s),
        ]
    } else {
        let ops = runs[0].ops.clone()?;
        let scaled_s = runs.iter().map(Execution::scaled_s).sum::<f64>() / runs.len() as f64;
        vec![
            ("mops", ops as f64 / (scaled_s * 1e6)),
            ("setup_s", setup_s),
            (
                "rss_mb",
                runs.iter().map(|e| e.rss_kb).max().unwrap_or(0) as f64 / 1024.0,
            ),
        ]
    };
    Ok(Outcome {
        attempted: 1,
        failed: u64::from(!ok),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_log_times_each_simulation_and_reads_the_counts() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let lines: Vec<(Instant, String)> = [
            (0, "[allfigs] 84 runs submitted"),
            (10, "[runner] w00 start bfs/no-compression/low"),
            (
                260,
                "[runner] w00 done  bfs/no-compression/low: 0.2s (1/74 sims, 4.48 sims/s)",
            ),
            (270, "[runner] w00 start bfs/tmcc-4k/low"),
            (
                1770,
                "[runner] w00 done  bfs/tmcc-4k/low: 1.5s (2/74 sims, 3.76 sims/s)",
            ),
            (
                1800,
                "[runner] 84 runs (0 cached, 10 deduped, 74 simulated) in 34.3s on 1 worker(s)",
            ),
            (1900, "[matrix] low bfs nocomp: ips 1.0e9 hit 0.000"),
        ]
        .into_iter()
        .map(|(ms, l)| (at(ms), l.to_owned()))
        .collect();
        let log = parse_runner_log(&lines);
        assert_eq!((log.simulated, log.deduped), (74, 10));
        assert_eq!(
            log.sims,
            vec![
                ("bfs/no-compression/low".to_owned(), 0.25),
                ("bfs/tmcc-4k/low".to_owned(), 1.5),
            ]
        );
    }
}
