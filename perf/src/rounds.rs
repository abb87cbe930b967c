//! Interleaved rounds over every workload, each run in its own child
//! process, and the summary statistics of what they measured.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::hermetic::hermetic;
use crate::outcome::{parse_line, ResultLine};
use crate::stats::{mad, median, min, quartiles};
use crate::WORKLOADS;

/// What the rounds run.
pub struct Plan {
    /// Rounds per set; each round runs every workload once.
    pub rounds: usize,
    /// Independent sets of rounds, compared with each other.
    pub sets: usize,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Run the traced pass instead.
    pub trace: bool,
}

/// One child run of this binary; `None` when it printed no result.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Option<ResultLine>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = hermetic(&mut cmd, &[])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Ok(parse_line(line).filter(|_| out.status.success()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Git revision, available parallelism and CPU model of this host.
fn host() -> String {
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or("unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or("unknown".into());
    format!("git {rev}, nproc {nproc}, cpu {cpu}")
}

/// Runs the plan, prints its tables, and returns the exit code: 1 if a run
/// failed or the runs changed the git working tree.
pub fn run(plan: &Plan) -> Result<i32, String> {
    let tree_before = command_line("git", &["status", "--porcelain"]);
    println!("# dylect-perf: {}, {} s runs", host(), plan.seconds);
    let mut failed_runs = 0;
    if plan.trace {
        for w in WORKLOADS {
            match child(w, 0, plan.seconds, true)? {
                Some(r) => {
                    failed_runs += u64::from(!r.correct);
                    println!("\n## {w} (traced, correct: {})", r.correct);
                    for (name, unit, value) in &r.metrics {
                        println!("{name:<28} {value:>14.4} {unit}");
                    }
                }
                None => {
                    failed_runs += 1;
                    println!("\n## {w}: the run printed no result");
                }
            }
        }
    } else {
        failed_runs = rounds(plan)?;
    }
    let tree_after = command_line("git", &["status", "--porcelain"]);
    if tree_before != tree_after {
        println!(
            "\nthe runs changed the git working tree:\n{}",
            tree_after.unwrap_or_default()
        );
        return Ok(1);
    }
    Ok(i32::from(failed_runs > 0))
}

/// Values of one metric of one workload, per set.
type Samples = BTreeMap<(String, String, String), Vec<Vec<f64>>>;

fn rounds(plan: &Plan) -> Result<u64, String> {
    let mut samples: Samples = BTreeMap::new();
    let mut runs = BTreeMap::<&str, (u64, u64)>::new();
    for set in 0..plan.sets {
        for round in 0..plan.rounds {
            // Rotate the order so no workload always runs first or after
            // the same neighbour.
            for k in 0..WORKLOADS.len() {
                let w = WORKLOADS[(round + k) % WORKLOADS.len()];
                let seed = (set * plan.rounds + round) as u64;
                let result = child(w, seed, plan.seconds, false)?;
                let tally = runs.entry(w).or_default();
                tally.0 += 1;
                match result {
                    Some(r) if r.correct => {
                        for (name, unit, value) in r.metrics {
                            let per_set = samples.entry((w.to_owned(), name, unit)).or_default();
                            per_set.resize(plan.sets, Vec::new());
                            per_set[set].push(value);
                        }
                    }
                    _ => tally.1 += 1,
                }
            }
        }
    }
    println!(
        "\n{:<12} {:<8} {:<7} {:>3} {:>12} {:>12} {:>10} {:>3} {:>8} {:>8}",
        "workload", "metric", "unit", "set", "median", "min", "mad", "n", "iqr/med", "vs set1"
    );
    for ((w, name, unit), per_set) in &samples {
        let first = median(
            per_set
                .first()
                .filter(|v| !v.is_empty())
                .ok_or("no samples")?,
        );
        for (set, v) in per_set.iter().enumerate().filter(|(_, v)| !v.is_empty()) {
            let (q1, q3) = quartiles(v);
            let m = median(v);
            println!(
                "{w:<12} {name:<8} {unit:<7} {:>3} {m:>12.4} {:>12.4} {:>10.4} {:>3} {:>7.2}% {:>7.2}%",
                set + 1,
                min(v),
                mad(v),
                v.len(),
                (q3 - q1) / m * 100.0,
                (m / first - 1.0) * 100.0,
            );
        }
    }
    println!();
    let mut failed = 0;
    for (w, (attempted, bad)) in &runs {
        println!("{w:<12} failed_frac {bad}/{attempted}");
        failed += bad;
    }
    Ok(failed)
}
