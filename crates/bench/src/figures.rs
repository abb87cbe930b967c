//! Every figure of the paper's evaluation that `allfigs` prints, defined
//! once.
//!
//! A [`Figure`] is its run keys — the product of the benchmarks, settings
//! and runs it declares, for a suite and a [`Mode`] — and its render: title,
//! header, rows and trailing `#` lines. `allfigs` submits the keys of every
//! figure in [`ALLFIGS`] as one batch (the runner dedups the runs figures
//! share) and renders them in order; each per-figure binary runs its one
//! figure alone through [`main`], so its stdout is exactly its section of
//! `allfigs`. A render reads reports through `Runs`, which panics on a
//! run the figure did not declare.

use dylect_cpu::PageSizeMode;
use dylect_dram::RequestClass;
use dylect_sim::{RunReport, SchemeKind};
use dylect_sim_core::env::or_usage_exit;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

use crate::{format_table, geomean, run_matrix, setting_label, suite, Mode, RunKey};

use CompressionSetting::{High, Low};

const SETTINGS: [CompressionSetting; 2] = [Low, High];

/// One run a figure reads, for a given benchmark and setting.
#[derive(Clone, Copy, Debug)]
enum Run {
    NoComp,
    Tmcc,
    Dylect,
    /// DyLeCT with every CTE lookup hitting (Figure 18's upper bound).
    Upper,
    /// The §IV-A3 naive dynamic-length strawman.
    Naive,
    /// No compression on 16 ranks and twice the DRAM (Figure 24's baseline).
    NoComp16,
    /// No compression on 4 KB pages (Figure 3's baseline).
    NoComp4k,
    /// TMCC with a CTE cache of this many KB.
    Cte(u64),
    /// TMCC compressing granules of this many pages.
    Granule(u64),
    /// DyLeCT with DRAM page groups of this many pages.
    Group(u64),
}

impl Run {
    fn key(self, spec: &BenchmarkSpec, setting: CompressionSetting, mode: Mode) -> RunKey {
        let scheme = match self {
            Run::NoComp | Run::NoComp16 | Run::NoComp4k => SchemeKind::NoCompression,
            Run::Tmcc => SchemeKind::tmcc(),
            Run::Dylect => SchemeKind::dylect(),
            Run::Upper => SchemeKind::DylectAlwaysHit { group_size: 3 },
            Run::Naive => SchemeKind::NaiveDynamic,
            Run::Cte(kb) => SchemeKind::Tmcc {
                granule_pages: 1,
                cte_cache_bytes: kb * 1024,
            },
            Run::Granule(g) => SchemeKind::Tmcc {
                granule_pages: g,
                cte_cache_bytes: 128 * 1024,
            },
            Run::Group(g) => SchemeKind::Dylect {
                group_size: g,
                cte_cache_bytes: 128 * 1024,
            },
        };
        let key = RunKey::new(spec.clone(), scheme, setting, mode);
        match self {
            Run::NoComp16 => key.with_ranks(16, 2),
            Run::NoComp4k => key.with_pages(PageSizeMode::Standard4K),
            _ => key,
        }
    }
}

/// One figure: the runs it reads and how it prints them.
pub struct Figure {
    /// The binaries that print this figure alone.
    bins: &'static [&'static str],
    /// The benchmarks the figure covers, given the suite.
    specs: fn(&[BenchmarkSpec]) -> Vec<BenchmarkSpec>,
    settings: &'static [CompressionSetting],
    runs: &'static [Run],
    render: fn(&Runs) -> String,
}

impl Figure {
    /// Every run the figure reads: each of its runs for each of its
    /// benchmarks and settings.
    fn keys(&self, suite: &[BenchmarkSpec], mode: Mode) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for spec in (self.specs)(suite) {
            for &setting in self.settings {
                for run in self.runs {
                    keys.push(run.key(&spec, setting, mode));
                }
            }
        }
        keys
    }

    /// The figure's section: title, header, rows and trailing `#` lines.
    /// `reports` must hold every key of `Figure::keys`; it may hold more.
    fn render(
        &self,
        suite: &[BenchmarkSpec],
        mode: Mode,
        reports: &[(RunKey, RunReport)],
    ) -> String {
        (self.render)(&Runs {
            specs: (self.specs)(suite),
            mode,
            declared: self.keys(suite, mode),
            reports,
        })
    }
}

/// What a render reads: the figure's benchmarks and the reports of the
/// runs it declared.
struct Runs<'a> {
    specs: Vec<BenchmarkSpec>,
    mode: Mode,
    declared: Vec<RunKey>,
    reports: &'a [(RunKey, RunReport)],
}

impl Runs<'_> {
    /// The report of `run` on `spec` at `setting`. Panics if the figure
    /// did not declare that run.
    fn get(&self, spec: &BenchmarkSpec, setting: CompressionSetting, run: Run) -> &RunReport {
        let key = run.key(spec, setting, self.mode);
        assert!(
            self.declared.contains(&key),
            "figure reads undeclared run {}",
            key.label()
        );
        self.reports
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("no report for {}", key.label()))
    }
}

fn whole(suite: &[BenchmarkSpec]) -> Vec<BenchmarkSpec> {
    suite.to_vec()
}

fn first_four(suite: &[BenchmarkSpec]) -> Vec<BenchmarkSpec> {
    suite.iter().take(4).cloned().collect()
}

/// The two fastest benchmarks, whatever the suite.
fn fastest_two(_: &[BenchmarkSpec]) -> Vec<BenchmarkSpec> {
    ["omnetpp", "canneal"]
        .iter()
        .map(|n| BenchmarkSpec::by_name(n).expect("known benchmark"))
        .collect()
}

/// The figures `allfigs` prints, in its order.
pub static ALLFIGS: [Figure; 13] = [
    Figure {
        bins: &["fig04_tmcc_slowdown"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::NoComp],
        render: fig04,
    },
    Figure {
        bins: &["fig18_speedup"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect, Run::Upper],
        render: fig18,
    },
    Figure {
        bins: &["fig19_hitrate"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect],
        render: fig19,
    },
    Figure {
        bins: &["fig20_breakdown"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Dylect],
        render: fig20,
    },
    Figure {
        bins: &["fig21_latency"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect],
        render: fig21,
    },
    Figure {
        bins: &["fig22_traffic", "fig23_cte_traffic"],
        specs: whole,
        settings: &[High],
        runs: &[Run::Tmcc, Run::Dylect],
        render: fig22_23,
    },
    Figure {
        bins: &["fig24_energy"],
        specs: whole,
        settings: &[High],
        runs: &[Run::NoComp16, Run::Dylect],
        render: fig24,
    },
    Figure {
        bins: &["naive_ablation"],
        specs: whole,
        settings: &[High],
        runs: &[Run::Tmcc, Run::Naive],
        render: naive,
    },
    Figure {
        bins: &["fig17_bandwidth"],
        specs: whole,
        settings: &[Low],
        runs: &[Run::NoComp],
        render: fig17,
    },
    Figure {
        bins: &["fig03_hugepages"],
        specs: whole,
        settings: &[Low],
        runs: &[Run::NoComp4k, Run::NoComp],
        render: fig03,
    },
    Figure {
        bins: &["fig05_cte_sweep"],
        specs: first_four,
        settings: &[High],
        runs: &[Run::Cte(64), Run::Cte(128), Run::Cte(256), Run::Cte(512)],
        render: fig05,
    },
    Figure {
        bins: &["fig06_granularity"],
        specs: fastest_two,
        settings: &SETTINGS,
        runs: &[
            Run::NoComp,
            Run::Granule(1),
            Run::Granule(4),
            Run::Granule(16),
            Run::Granule(32),
        ],
        render: fig06,
    },
    Figure {
        bins: &["fig25_groupsize"],
        specs: fastest_two,
        settings: &[High],
        runs: &[Run::Group(1), Run::Group(3), Run::Group(7), Run::Group(15)],
        render: fig25,
    },
];

/// The figure the binary `bin` prints.
fn by_bin(bin: &str) -> Option<&'static Figure> {
    ALLFIGS.iter().find(|f| f.bins.contains(&bin))
}

/// Checks a figure binary's arguments: `--quick`, `--all` and `--no-cache`
/// are the only ones it takes.
fn check_args(args: impl IntoIterator<Item = String>) -> Result<(), String> {
    for arg in args {
        if !matches!(arg.as_str(), "--quick" | "--all" | "--no-cache") {
            return Err(format!(
                "unknown argument {arg:?}; a figure binary takes only --quick, --all and --no-cache"
            ));
        }
    }
    Ok(())
}

/// Runs the keys of `figs` as one batch and prints each figure in order.
/// An unknown argument prints a usage message and exits with status 2.
pub fn run(figs: &[Figure]) {
    or_usage_exit(check_args(std::env::args().skip(1)));
    let mode = Mode::from_env();
    let suite = suite();
    let keys: Vec<RunKey> = figs.iter().flat_map(|f| f.keys(&suite, mode)).collect();
    let reports: Vec<(RunKey, RunReport)> =
        keys.clone().into_iter().zip(run_matrix(keys)).collect();
    for fig in figs {
        print!("{}", fig.render(&suite, mode, &reports));
    }
}

/// Entry point of a per-figure binary: runs and prints the figure that
/// lists `bin`.
pub fn main(bin: &str) {
    let fig = by_bin(bin).unwrap_or_else(|| panic!("no figure lists the binary {bin}"));
    run(std::slice::from_ref(fig));
}

fn fig04(r: &Runs) -> String {
    let mut rows = Vec::new();
    for s in SETTINGS {
        let mut xs = Vec::new();
        for spec in &r.specs {
            let v = r
                .get(spec, s, Run::Tmcc)
                .speedup_over(r.get(spec, s, Run::NoComp));
            xs.push(v);
            rows.push(vec![
                setting_label(s).into(),
                spec.name.into(),
                format!("{v:.4}"),
            ]);
        }
        rows.push(vec![
            setting_label(s).into(),
            "GEOMEAN".into(),
            format!("{:.4}", geomean(&xs)),
        ]);
    }
    format_table(
        "Figure 4: TMCC normalized to no-compression (paper: 0.86 low, 0.82 high)",
        &["setting", "benchmark", "tmcc_norm_perf"],
        &rows,
    )
}

fn fig18(r: &Runs) -> String {
    let mut rows = Vec::new();
    let mut all_speedups = Vec::new();
    for s in SETTINGS {
        let mut xs = Vec::new();
        for spec in &r.specs {
            let tmcc = r.get(spec, s, Run::Tmcc);
            let d = r.get(spec, s, Run::Dylect).speedup_over(tmcc);
            let u = r.get(spec, s, Run::Upper).speedup_over(tmcc);
            xs.push(d);
            all_speedups.push(d);
            rows.push(vec![
                setting_label(s).into(),
                spec.name.into(),
                format!("{d:.4}"),
                format!("{u:.4}"),
            ]);
        }
        rows.push(vec![
            setting_label(s).into(),
            "GEOMEAN".into(),
            format!("{:.4}", geomean(&xs)),
            String::new(),
        ]);
    }
    let mut out = format_table(
        "Figure 18: DyLeCT over TMCC + always-hit upper bound (paper: 1.11 low, 1.095 high)",
        &[
            "setting",
            "benchmark",
            "dylect_over_tmcc",
            "upper_over_tmcc",
        ],
        &rows,
    );
    out.push_str(&format!(
        "# fig18 overall geomean: {:.4}\n\n",
        geomean(&all_speedups)
    ));
    out
}

fn fig19(r: &Runs) -> String {
    let mut rows = Vec::new();
    for s in SETTINGS {
        let mut sums = [0.0f64; 4];
        for spec in &r.specs {
            let t = r.get(spec, s, Run::Tmcc).mc.cte_hit_rate();
            let d = r.get(spec, s, Run::Dylect);
            sums[0] += t;
            sums[1] += d.mc.cte_hit_rate();
            sums[2] += d.mc.pregathered_hit_rate();
            sums[3] += d.mc.unified_hit_rate();
            rows.push(vec![
                setting_label(s).into(),
                spec.name.into(),
                format!("{t:.4}"),
                format!("{:.4}", d.mc.cte_hit_rate()),
                format!("{:.4}", d.mc.pregathered_hit_rate()),
                format!("{:.4}", d.mc.unified_hit_rate()),
            ]);
        }
        let n = r.specs.len() as f64;
        rows.push(vec![
            setting_label(s).into(),
            "MEAN".into(),
            format!("{:.4}", sums[0] / n),
            format!("{:.4}", sums[1] / n),
            format!("{:.4}", sums[2] / n),
            format!("{:.4}", sums[3] / n),
        ]);
    }
    format_table(
        "Figure 19: CTE cache hit rates (paper: low 0.70->0.96, high 0.67->0.91 = 0.77pg + 0.14uni)",
        &["setting", "benchmark", "tmcc", "dylect", "pregathered", "unified"],
        &rows,
    )
}

fn fig20(r: &Runs) -> String {
    let mut rows = Vec::new();
    for s in SETTINGS {
        for spec in &r.specs {
            let o = r.get(spec, s, Run::Dylect).occupancy;
            let total = (o.ml0_pages + o.ml1_pages + o.ml2_pages) as f64;
            rows.push(vec![
                setting_label(s).into(),
                spec.name.into(),
                format!("{:.4}", o.ml0_pages as f64 / total),
                format!("{:.4}", o.ml1_pages as f64 / total),
                format!("{:.4}", o.ml2_pages as f64 / total),
                format!("{:.4}", o.ml0_fraction_of_uncompressed()),
            ]);
        }
    }
    format_table(
        "Figure 20: ML0/ML1/ML2 breakdown under DyLeCT (paper: ML0 grows at low compression; 66% of uncompressed at G=3)",
        &["setting", "benchmark", "ml0", "ml1", "ml2", "ml0_of_uncompressed"],
        &rows,
    )
}

fn fig21(r: &Runs) -> String {
    let mut rows = Vec::new();
    for s in SETTINGS {
        let mut sums = [0.0f64; 2];
        for spec in &r.specs {
            let t = r.get(spec, s, Run::Tmcc).l3_miss_overhead_ns;
            let d = r.get(spec, s, Run::Dylect).l3_miss_overhead_ns;
            sums[0] += t;
            sums[1] += d;
            rows.push(vec![
                setting_label(s).into(),
                spec.name.into(),
                format!("{t:.2}"),
                format!("{d:.2}"),
            ]);
        }
        let n = r.specs.len() as f64;
        rows.push(vec![
            setting_label(s).into(),
            "MEAN".into(),
            format!("{:.2}", sums[0] / n),
            format!("{:.2}", sums[1] / n),
        ]);
    }
    format_table(
        "Figure 21: L3-miss latency adder, ns (paper: TMCC 9.5/12.8, DyLeCT 2.9/5.8)",
        &["setting", "benchmark", "tmcc_ns", "dylect_ns"],
        &rows,
    )
}

fn fig22_23(r: &Runs) -> String {
    let mut rows = Vec::new();
    let mut r22 = Vec::new();
    let mut r23c = Vec::new();
    let mut r23t = Vec::new();
    for spec in &r.specs {
        let t = r.get(spec, High, Run::Tmcc);
        let d = r.get(spec, High, Run::Dylect);
        let per_inst = d.traffic_per_kilo_instruction() / t.traffic_per_kilo_instruction();
        let rate = |rep: &RunReport, blocks: u64| blocks as f64 / rep.elapsed.as_secs();
        let cte = rate(d, d.dram.class_blocks(RequestClass::CteFetch))
            / rate(t, t.dram.class_blocks(RequestClass::CteFetch));
        let tot = rate(d, d.dram.total_blocks()) / rate(t, t.dram.total_blocks());
        r22.push(per_inst);
        r23c.push(cte);
        r23t.push(tot);
        rows.push(vec![
            spec.name.into(),
            format!("{per_inst:.4}"),
            format!("{cte:.4}"),
            format!("{tot:.4}"),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".into(),
        format!("{:.4}", geomean(&r22)),
        format!("{:.4}", geomean(&r23c)),
        format!("{:.4}", geomean(&r23t)),
    ]);
    format_table(
        "Figures 22-23: DyLeCT/TMCC traffic at high compression (paper: per-inst 0.93, CTE < 1, total ~1.045)",
        &["benchmark", "traffic_per_inst", "cte_traffic_rate", "total_traffic_rate"],
        &rows,
    )
}

fn fig24(r: &Runs) -> String {
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    for spec in &r.specs {
        let base = r.get(spec, High, Run::NoComp16);
        let d = r.get(spec, High, Run::Dylect);
        let ratio = d.energy_per_instruction_nj() / base.energy_per_instruction_nj();
        xs.push(ratio);
        rows.push(vec![spec.name.into(), format!("{ratio:.4}")]);
    }
    rows.push(vec!["GEOMEAN".into(), format!("{:.4}", geomean(&xs))]);
    format_table(
        "Figure 24: DRAM energy/instruction, DyLeCT(8rk)/NoComp(16rk) (paper: ~0.60)",
        &["benchmark", "energy_ratio"],
        &rows,
    )
}

fn naive(r: &Runs) -> String {
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    for spec in &r.specs {
        let t = r.get(spec, High, Run::Tmcc);
        let n = r.get(spec, High, Run::Naive);
        let v = n.speedup_over(t);
        xs.push(v);
        rows.push(vec![
            spec.name.into(),
            format!("{:.4}", n.mc.cte_hit_rate()),
            format!("{v:.4}"),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".into(),
        String::new(),
        format!("{:.4}", geomean(&xs)),
    ]);
    format_table(
        "Naive dynamic-length ablation (paper: hit 0.76, perf 0.95x TMCC)",
        &["benchmark", "naive_hit", "naive_over_tmcc"],
        &rows,
    )
}

fn fig17(r: &Runs) -> String {
    let mut rows = Vec::new();
    for spec in &r.specs {
        let nocomp = r.get(spec, Low, Run::NoComp);
        rows.push(vec![
            spec.name.into(),
            format!("{:.4}", nocomp.bus_utilization()),
            format!("{:.2}", nocomp.bus_utilization() * 25.6),
        ]);
    }
    format_table(
        "Figure 17: bandwidth utilization, no compression (paper: ~10-80%)",
        &["benchmark", "utilization", "gb_per_s"],
        &rows,
    )
}

fn fig03(r: &Runs) -> String {
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    for spec in &r.specs {
        let small = r.get(spec, Low, Run::NoComp4k);
        let huge = r.get(spec, Low, Run::NoComp);
        let v = huge.speedup_over(small);
        xs.push(v);
        rows.push(vec![
            spec.name.into(),
            format!("{v:.3}"),
            format!("{:.4}", small.tlb_miss_rate),
            format!("{:.5}", huge.tlb_miss_rate),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".into(),
        format!("{:.3}", geomean(&xs)),
        String::new(),
        String::new(),
    ]);
    format_table(
        "Figure 3: 2MB over 4KB page speedup, no compression (paper: 1.75x avg)",
        &["benchmark", "speedup", "tlb_miss_4k", "tlb_miss_2m"],
        &rows,
    )
}

fn fig05(r: &Runs) -> String {
    let mut rows = Vec::new();
    for spec in &r.specs {
        let mut row = vec![spec.name.to_owned()];
        for kb in [64, 128, 256, 512] {
            let tmcc = r.get(spec, High, Run::Cte(kb));
            row.push(format!("{:.4}", 1.0 - tmcc.mc.cte_hit_rate()));
        }
        rows.push(row);
    }
    format_table(
        "Figure 5: TMCC CTE miss rate vs cache size (paper mean: 0.34@64K -> 0.24@512K)",
        &["benchmark", "64k", "128k", "256k", "512k"],
        &rows,
    )
}

fn fig06(r: &Runs) -> String {
    let mut rows = Vec::new();
    for s in SETTINGS {
        for spec in &r.specs {
            let base = r.get(spec, s, Run::NoComp);
            let mut row = vec![setting_label(s).to_owned(), spec.name.to_owned()];
            for g in [1, 4, 16, 32] {
                let tmcc = r.get(spec, s, Run::Granule(g));
                row.push(format!("{:.4}", tmcc.speedup_over(base)));
            }
            rows.push(row);
        }
    }
    format_table(
        "Figure 6: TMCC at coarse granularity vs no compression (paper low: up with g; high: down with g)",
        &["setting", "benchmark", "g4k", "g16k", "g64k", "g128k"],
        &rows,
    )
}

fn fig25(r: &Runs) -> String {
    let mut rows = Vec::new();
    for spec in &r.specs {
        let mut row = vec![spec.name.to_owned()];
        for g in [1, 3, 7, 15] {
            let dylect = r.get(spec, High, Run::Group(g));
            row.push(format!(
                "{:.4}",
                dylect.occupancy.ml0_fraction_of_uncompressed()
            ));
        }
        rows.push(row);
    }
    format_table(
        "Figure 25: ML0 fraction of uncompressed vs group size, high compression (paper: ~0.66 at G=3, flat at G=7)",
        &["benchmark", "g1", "g3", "g7", "g15"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim::System;

    /// One short simulation, standing in for the report of every run.
    fn tiny_report() -> RunReport {
        let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
        let key = RunKey::new(spec.clone(), SchemeKind::dylect(), High, Mode::quick());
        System::new(key.config(), &spec).run(2_000, 2_000)
    }

    /// `fig` rendered from a lookup holding only the runs it declared.
    fn alone(fig: &Figure, suite: &[BenchmarkSpec], report: &RunReport) -> String {
        let reports: Vec<(RunKey, RunReport)> = fig
            .keys(suite, Mode::quick())
            .into_iter()
            .map(|k| (k, report.clone()))
            .collect();
        fig.render(suite, Mode::quick(), &reports)
    }

    #[test]
    fn allfigs_prints_each_figure_as_it_renders_alone() {
        let report = tiny_report();
        for suite in [crate::reduced_suite(), BenchmarkSpec::suite()] {
            let reports: Vec<(RunKey, RunReport)> = ALLFIGS
                .iter()
                .flat_map(|f| f.keys(&suite, Mode::quick()))
                .map(|k| (k, report.clone()))
                .collect();
            let mut together = String::new();
            let mut separately = String::new();
            for fig in &ALLFIGS {
                together.push_str(&fig.render(&suite, Mode::quick(), &reports));
                let section = alone(fig, &suite, &report);
                assert!(section.starts_with("# "), "{section}");
                separately.push_str(&section);
            }
            assert_eq!(together, separately);
        }
    }

    #[test]
    #[should_panic(expected = "undeclared run")]
    fn a_render_panics_on_a_run_it_did_not_declare() {
        let report = tiny_report();
        let suite = crate::reduced_suite();
        let fig04 = by_bin("fig04_tmcc_slowdown").expect("listed");
        let reports = vec![(Run::Dylect.key(&suite[0], Low, Mode::quick()), report)];
        Runs {
            specs: suite.clone(),
            mode: Mode::quick(),
            declared: fig04.keys(&suite, Mode::quick()),
            reports: &reports,
        }
        .get(&suite[0], Low, Run::Dylect);
    }

    #[test]
    fn every_figure_binary_prints_a_figure_of_allfigs() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let bins: Vec<String> = std::fs::read_dir(&dir)
            .expect("bin dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .filter_map(|f| f.strip_suffix(".rs").map(str::to_owned))
            .filter(|b| {
                b == "naive_ablation"
                    || b.strip_prefix("fig")
                        .is_some_and(|n| n.starts_with(|c: char| c.is_ascii_digit()))
            })
            .collect();
        assert_eq!(bins.len(), 14, "{bins:?}");
        for bin in &bins {
            assert!(by_bin(bin).is_some(), "{bin} prints no figure of allfigs");
        }
        for fig in &ALLFIGS {
            for bin in fig.bins {
                assert!(bins.iter().any(|b| b == bin), "{bin} has no source file");
            }
        }
    }

    #[test]
    fn figure_arguments_are_strict() {
        let args = |a: &[&str]| check_args(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), Ok(()));
        assert_eq!(args(&["--quick", "--all", "--no-cache", "--quick"]), Ok(()));
        for bad in ["--qiuck", "quick", "-q", "--out", ""] {
            let err = args(&["--quick", bad]).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
