//! Shared experiment harness for the paper-reproduction binaries.
//!
//! The `src/bin/*` binaries regenerate the DyLeCT paper's tables and
//! figures. They share this harness: it builds the paper's system (Table 3)
//! for a benchmark × scheme × compression-setting combination, runs
//! warmup + measurement, and returns the [`RunReport`]. Every table is a
//! [`figures::Figure`], defined once in [`figures`]: each figure binary is
//! the same shim that runs its one figure, and `allfigs` prints every
//! figure of [`figures::ALLFIGS`]. The instruments `fig_divergence`,
//! `fig_selfprofile` and `fig_tenants` are binaries of their own; every
//! binary parses the one argument grammar of [`figures::Args`].
//!
//! Runs are declared as a list of [`RunKey`]s and executed by the
//! [`runner`] module: independent simulations run in parallel (one worker
//! per core, `DYLECT_JOBS=n` to override) and finished reports are cached
//! under `results/cache/`, so a per-figure binary run after `allfigs`
//! re-simulates nothing. See [`runner`] for the cache/invalidation story.
//!
//! Two effort levels exist (the simulator is deterministic, so results are
//! exactly reproducible at either, parallel or not):
//!
//! - **full** (default): 1/4-scale footprints, 4 cores, 6 M warmup +
//!   1 M measured operations — minutes per figure;
//! - **quick** (`--quick` or `DYLECT_QUICK=1`): 1/32-scale, 2 cores,
//!   shorter windows — seconds per figure, noisier numbers.
//!
//! [`RunReport`]: dylect_sim::RunReport

pub mod figures;
pub mod runner;

use dylect_sim::{SchemeKind, SystemConfig};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

pub use runner::{setting_label, Job, RunKey, Runner};

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

/// Geometric mean of a non-empty sequence (0 if empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a TSV table with a title line and a trailing blank line (the
/// harness output format; rows paste directly into plotting scripts).
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("# {title}\n{}\n", header.join("\t"));
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Prints a table in the harness output format (see [`format_table`]).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(title, header, rows));
}

/// The benchmarks in the paper's presentation order: with `all` the full
/// twelve-benchmark suite; otherwise the reduced representative subset,
/// keeping single-figure runs affordable (the simulator is
/// single-threaded).
pub fn suite(all: bool) -> Vec<BenchmarkSpec> {
    if all {
        BenchmarkSpec::suite()
    } else {
        reduced_suite()
    }
}

/// The reduced representative subset (one benchmark per suite).
fn reduced_suite() -> Vec<BenchmarkSpec> {
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
