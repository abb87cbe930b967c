//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every `src/bin/*` binary regenerates one table or figure of the DyLeCT
//! paper. They share this harness: it builds the paper's system (Table 3)
//! for a benchmark × scheme × compression-setting combination, runs
//! warmup + measurement, and returns the [`RunReport`].
//!
//! Runs are declared as a list of [`RunKey`]s and executed by the
//! [`runner`] module: independent simulations run in parallel (one worker
//! per core, `DYLECT_JOBS=n` to override) and finished reports are cached
//! under `results/cache/` so binaries sharing matrix cells — `allfigs`
//! computes almost every cell the per-figure binaries need — never
//! re-simulate them. See [`runner`] for the cache/invalidation story.
//!
//! Two effort levels exist (the simulator is deterministic, so results are
//! exactly reproducible at either, parallel or not):
//!
//! - **full** (default): 1/4-scale footprints, 4 cores, 6 M warmup +
//!   1 M measured operations — minutes per figure;
//! - **quick** (`--quick` or `DYLECT_QUICK=1`): 1/32-scale, 2 cores,
//!   shorter windows — seconds per figure, noisier numbers.

pub mod runner;

use dylect_cpu::PageSizeMode;
use dylect_sim::{RunReport, SchemeKind, SystemConfig};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

pub use runner::{run_jobs, run_matrix, setting_label, Job, RunKey, Runner};

/// Effort level of a reproduction run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Mode {
    /// Footprint scale denominator (capped per benchmark so enough
    /// compression pressure remains — see `BenchmarkSpec::effective_scale`).
    pub scale: u64,
    /// Cores.
    pub cores: usize,
    /// Warmup operations.
    pub warmup_ops: u64,
    /// Measured operations.
    pub measure_ops: u64,
}

impl Mode {
    /// The full reproduction mode.
    pub fn full() -> Mode {
        Mode {
            scale: 4,
            cores: 4,
            warmup_ops: 6_000_000,
            measure_ops: 600_000,
        }
    }

    /// The quick smoke mode.
    pub fn quick() -> Mode {
        Mode {
            scale: 32,
            cores: 2,
            warmup_ops: 800_000,
            measure_ops: 200_000,
        }
    }

    /// Reads the mode from the CLI (`--quick`) or `DYLECT_QUICK=1`; a
    /// malformed `DYLECT_QUICK` prints a usage message and exits with
    /// status 2.
    pub fn from_env() -> Mode {
        let cli_quick = std::env::args().any(|a| a == "--quick");
        let raw = std::env::var("DYLECT_QUICK").ok();
        dylect_sim_core::env::or_usage_exit(Mode::select(cli_quick, raw.as_deref()))
    }

    /// The mode for a `--quick` flag and a raw `DYLECT_QUICK` value, which
    /// is strict-parsed by [`dylect_sim_core::env::parse_flag`].
    pub fn select(cli_quick: bool, raw_env: Option<&str>) -> Result<Mode, String> {
        let env_quick = dylect_sim_core::env::parse_flag("DYLECT_QUICK", raw_env)?;
        Ok(if cli_quick || env_quick {
            Mode::quick()
        } else {
            Mode::full()
        })
    }
}

/// Builds the paper's system configuration for one run.
pub fn config_for(
    spec: &BenchmarkSpec,
    scheme: SchemeKind,
    setting: CompressionSetting,
    mode: Mode,
) -> SystemConfig {
    let scale = effective_scale(spec, mode);
    let mut cfg = SystemConfig::paper(spec, scheme.clone(), setting);
    cfg.scale = scale;
    cfg.cores = mode.cores;
    cfg.dram_bytes = match scheme {
        SchemeKind::NoCompression => spec.dram_bytes_no_compression(scale),
        _ => spec.dram_bytes(setting, scale),
    };
    cfg
}

/// The per-benchmark scale this mode actually runs at.
pub fn effective_scale(spec: &BenchmarkSpec, mode: Mode) -> u64 {
    // Full mode demands real CTE pressure (>=24k uncompressed-capacity
    // pages); quick mode settles for less.
    let min_capacity = if mode.scale <= 4 { 24_000 } else { 3_000 };
    spec.effective_scale(mode.scale, min_capacity)
}

/// Warmup operations for a benchmark: at least the mode's base, and enough
/// for the adaptive machinery (ML0 promotion, CTE/L3 contents) to converge
/// on large footprints.
pub fn warmup_for(spec: &BenchmarkSpec, mode: Mode) -> u64 {
    mode.warmup_ops
        .max(spec.footprint_pages(effective_scale(spec, mode)) * 12)
}

/// Runs one benchmark × scheme × setting and returns the report.
///
/// This executes directly, with no pool or cache — for single ad-hoc runs
/// and tests. Binaries should declare [`RunKey`]s and use [`run_matrix`].
pub fn run_one(
    spec: &BenchmarkSpec,
    scheme: SchemeKind,
    setting: CompressionSetting,
    mode: Mode,
) -> RunReport {
    RunKey::new(spec.clone(), scheme, setting, mode).execute()
}

/// Like [`run_one`] but with an explicit page-size mode (Figure 3 compares
/// 4 KB against 2 MB pages).
pub fn run_one_with_pages(
    spec: &BenchmarkSpec,
    scheme: SchemeKind,
    setting: CompressionSetting,
    mode: Mode,
    pages: PageSizeMode,
) -> RunReport {
    RunKey::new(spec.clone(), scheme, setting, mode)
        .with_pages(pages)
        .execute()
}

/// Geometric mean of a non-empty sequence (0 if empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a TSV table with a title line (the harness output format; rows
/// paste directly into plotting scripts).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}

/// The benchmark names in the paper's presentation order. With `--all` on
/// the command line this is the full twelve-benchmark suite; otherwise the
/// reduced representative subset, keeping single-figure runs affordable
/// (the simulator is single-threaded).
pub fn suite() -> Vec<BenchmarkSpec> {
    if std::env::args().any(|a| a == "--all") {
        BenchmarkSpec::suite()
    } else {
        reduced_suite()
    }
}

/// Always the full twelve-benchmark suite.
pub fn full_suite() -> Vec<BenchmarkSpec> {
    BenchmarkSpec::suite()
}

/// A reduced subset for expensive sweeps (one representative per suite).
pub fn reduced_suite() -> Vec<BenchmarkSpec> {
    ["bfs", "mcf", "omnetpp", "canneal"]
        .iter()
        .map(|n| BenchmarkSpec::by_name(n).expect("known benchmark"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn quick_mode_is_cheaper() {
        let q = Mode::quick();
        let f = Mode::full();
        assert!(q.scale > f.scale);
        assert!(q.warmup_ops < f.warmup_ops);
    }

    #[test]
    fn quick_env_is_strict_parsed() {
        assert_eq!(Mode::select(false, None), Ok(Mode::full()));
        assert_eq!(Mode::select(false, Some("false")), Ok(Mode::full()));
        assert_eq!(Mode::select(false, Some("0")), Ok(Mode::full()));
        assert_eq!(Mode::select(false, Some("1")), Ok(Mode::quick()));
        assert_eq!(Mode::select(true, Some("false")), Ok(Mode::quick()));
        for bad in ["yes", "quick", "2"] {
            let err = Mode::select(true, Some(bad)).expect_err(bad);
            assert!(err.contains("DYLECT_QUICK"), "{err}");
        }
    }

    #[test]
    fn config_for_sizes_dram_by_scheme() {
        let spec = BenchmarkSpec::by_name("omnetpp").unwrap();
        let m = Mode::quick();
        let nc = config_for(
            &spec,
            SchemeKind::NoCompression,
            CompressionSetting::High,
            m,
        );
        let tm = config_for(&spec, SchemeKind::tmcc(), CompressionSetting::High, m);
        assert!(nc.dram_bytes > tm.dram_bytes);
    }

    #[test]
    fn reduced_suite_members() {
        assert_eq!(reduced_suite().len(), 4);
    }
}
