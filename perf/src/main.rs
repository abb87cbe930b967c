//! `dylect-perf`: the benchmark of the DyLeCT reproduction.
//!
//! ```text
//! dylect-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dylect-perf [--rounds <n>] [--sets <n>] [--seconds <s>]
//! dylect-perf --trace [--seconds <s>]
//! ```
//!
//! The first form is one run: its last stdout line is the JSON result.
//! The second runs every workload in interleaved rounds, each run in its
//! own child process, and prints each end-to-end metric's median, min,
//! MAD and sample count. The third is the traced pass: one traced run per
//! workload, printing the per-layer metrics. See `README.md`.

mod hermetic;
mod host;
mod outcome;
mod probe;
mod repro;
mod rounds;
mod stats;
mod step;

/// Every workload, in the order the rounds start from.
pub const WORKLOADS: [&str; 3] = ["repro_quick", "step_small", "step_mem"];

/// Default measured seconds per run, as in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 12;

/// One run of one workload; prints the result line.
fn one_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    // Every run builds the reproduction binary, so the first run in a
    // fresh checkout pays the whole build whichever workload it is.
    repro::build_allfigs()?;
    let outcome = if workload == "repro_quick" {
        repro::run(trace)?
    } else {
        let w = step::StepWorkload::new(workload, seed)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let pin = (seed == 0).then_some(w.pin);
        step::run(&w, w.length(seconds as f64), trace, pin)?
    };
    println!("{}", outcome.to_json(trace));
    Ok(())
}

/// Parses the value after flag `name`.
fn value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args
        .get(at + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("bad value `{raw}` for {name}"))
}

fn cli(args: &[String]) -> Result<i32, String> {
    let valued = ["--workload", "--seed", "--seconds", "--rounds", "--sets"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            a if valued.contains(&a) => i += 2,
            // `--trace` takes 0/1 in a single run and stands alone otherwise.
            "--trace" if args.iter().any(|a| a == "--workload") => i += 2,
            "--trace" => i += 1,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = value(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    if let Some(workload) = value::<String>(args, "--workload")? {
        let seed = value(args, "--seed")?.ok_or("--seed is required with --workload")?;
        let trace = match value::<u8>(args, "--trace")? {
            Some(0) | None => false,
            Some(1) => true,
            Some(t) => return Err(format!("--trace takes 0 or 1, got {t}")),
        };
        one_run(&workload, seed, seconds, trace)?;
        return Ok(0);
    }
    let plan = rounds::Plan {
        rounds: value(args, "--rounds")?.unwrap_or(5),
        sets: value(args, "--sets")?.unwrap_or(1),
        seconds,
        trace: args.iter().any(|a| a == "--trace"),
    };
    if plan.rounds == 0 || plan.sets == 0 {
        return Err("--rounds and --sets must be positive".into());
    }
    rounds::run(&plan)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = cli(&args).unwrap_or_else(|msg| {
        eprintln!("dylect-perf: {msg}");
        2
    });
    std::process::exit(code);
}
