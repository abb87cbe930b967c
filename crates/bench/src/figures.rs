//! Every table the bench binaries print, defined once.
//!
//! A [`Figure`] is its runs — the product of the benchmarks, settings and
//! runs it declares, for a suite and a [`Mode`] — and its render: title,
//! header, rows and trailing `#` lines. [`ALLFIGS`] are the figures
//! `allfigs` prints: it submits all their runs as one batch (the runner
//! dedups the runs figures share) and renders them in order. [`STUDIES`]
//! are the tables `allfigs` does not print: Table 1, the ablations and the
//! telemetry studies. Each figure binary runs its one figure through
//! [`main`], so the stdout of an `ALLFIGS` binary is exactly its section
//! of `allfigs`. A render reads reports through `Runs`, which panics on a
//! run the figure did not declare.
//!
//! A run is a [`RunKey`] of the shared matrix, or such a key with a tuned
//! scheme (the ablation knobs [`SchemeKind`] does not expose). A figure
//! with a `Probe`, its export step, runs uncached with telemetry on and
//! writes each run's telemetry exports under `--out`. Every bench binary
//! takes the one argument grammar of [`Args`].

use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dylect_compression::CompressibilityProfile;
use dylect_core::{Dylect, DylectConfig, NaiveDynamic, NaiveDynamicConfig, ShortCacheOption};
use dylect_cpu::PageSizeMode;
use dylect_dram::{Dram, RequestClass};
use dylect_memctl::MemoryScheme;
use dylect_sim::{RunReport, SchemeKind};
use dylect_sim_core::env::or_usage_exit;
use dylect_sim_core::probe::{AccessComponent, AccessScope, CteBlockKind};
use dylect_sim_core::PAGE_BYTES;
use dylect_telemetry::{Telemetry, TelemetryConfig};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

use crate::{format_table, geomean, setting_label, suite, Job, Mode, RunKey, Runner};

use CompressionSetting::{High, Low};

const SETTINGS: [CompressionSetting; 2] = [Low, High];

/// The arguments every bench binary takes: `--quick`, `--all`,
/// `--no-cache` and `--out DIR`.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// `--quick`: the quick mode (as `DYLECT_QUICK=1`).
    pub quick: bool,
    /// `--all`: the full twelve-benchmark suite.
    pub all: bool,
    /// `--no-cache`: ignore existing report-cache entries.
    pub no_cache: bool,
    /// `--out DIR`: where exports land.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parses the arguments after the program name. An unknown argument,
    /// or `--out` without a directory, is a usage error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--all" => parsed.all = true,
                "--no-cache" => parsed.no_cache = true,
                "--out" => match args.next() {
                    Some(dir) if !dir.is_empty() && !dir.starts_with('-') => {
                        parsed.out = Some(dir.into())
                    }
                    value => return Err(format!("{arg:?} takes a directory, got {value:?}")),
                },
                _ => {
                    return Err(format!(
                        "unknown argument {arg:?}; a bench binary takes only --quick, --all, \
                         --no-cache and --out DIR"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// The process's arguments; a usage error exits with status 2.
    pub fn from_env() -> Args {
        or_usage_exit(Args::parse(std::env::args().skip(1)))
    }

    /// The effort level: quick with `--quick` or `DYLECT_QUICK=1`; a
    /// malformed `DYLECT_QUICK` exits with status 2.
    pub fn mode(&self) -> Mode {
        let raw = std::env::var("DYLECT_QUICK").ok();
        or_usage_exit(Mode::select(self.quick, raw.as_deref()))
    }

    /// The `--out` directory, else `default`, created; one that cannot be
    /// created exits with status 1, naming it.
    pub fn out_dir(&self, default: &str) -> PathBuf {
        let out = self.out.clone().unwrap_or_else(|| default.into());
        let created = std::fs::create_dir_all(&out);
        or_exit(created.map_err(|e| format!("cannot create {}: {e}", out.display())));
        out
    }
}

/// One run a figure reads, for a given benchmark and setting.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    /// DyLeCT on this many memory controllers (§IV-D).
    Mcs(usize),
    /// TMCC and DyLeCT on 4 KB pages, with flat or 2D nested walks.
    Tmcc4k,
    TmccNested,
    Dylect4k,
    DylectNested,
    /// DyLeCT with its promotion knobs tuned: counter sample rate,
    /// promotion threshold and minimum promotion count.
    Promotion(f64, u8, u8),
    /// DyLeCT caching the unified block on every miss, not only for ML1/ML2
    /// targets (§IV-C2).
    UnifiedAlways,
    /// The naive strawman with option-B (64 B sector) short-CTE lines.
    NaiveSector,
}

impl Run {
    /// The run's matrix key; a tuned run's key is the run it tunes.
    fn key(self, spec: &BenchmarkSpec, setting: CompressionSetting, mode: Mode) -> RunKey {
        let scheme = match self {
            Run::NoComp | Run::NoComp16 | Run::NoComp4k => SchemeKind::NoCompression,
            Run::Tmcc | Run::Tmcc4k | Run::TmccNested => SchemeKind::tmcc(),
            Run::Dylect
            | Run::Mcs(_)
            | Run::Dylect4k
            | Run::DylectNested
            | Run::Promotion(..)
            | Run::UnifiedAlways => SchemeKind::dylect(),
            Run::Upper => SchemeKind::DylectAlwaysHit { group_size: 3 },
            Run::Naive | Run::NaiveSector => SchemeKind::NaiveDynamic,
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
            Run::NoComp4k | Run::Tmcc4k | Run::Dylect4k => key.with_pages(PageSizeMode::Standard4K),
            Run::TmccNested | Run::DylectNested => {
                key.with_pages(PageSizeMode::Standard4K).with_nested()
            }
            Run::Mcs(n) => key.with_mcs(n),
            _ => key,
        }
    }

    fn is_tuned(self) -> bool {
        matches!(
            self,
            Run::Promotion(..) | Run::UnifiedAlways | Run::NaiveSector
        )
    }

    /// A tuned run's scheme on one memory controller.
    fn build(
        self,
        os_pages: u64,
        dram: &Dram,
        profile: CompressibilityProfile,
        seed: u64,
    ) -> Box<dyn MemoryScheme> {
        let paper = DylectConfig::paper(os_pages);
        let dylect = match self {
            Run::Promotion(sample_rate, promotion_threshold, min_promotion_count) => DylectConfig {
                sample_rate,
                promotion_threshold,
                min_promotion_count,
                ..paper
            },
            Run::UnifiedAlways => DylectConfig {
                always_cache_unified: true,
                ..paper
            },
            Run::NaiveSector => {
                let cfg = NaiveDynamicConfig {
                    short_cache: ShortCacheOption::SectorB,
                    ..NaiveDynamicConfig::paper(os_pages)
                };
                return Box::new(NaiveDynamic::new(cfg, dram, profile, seed));
            }
            _ => unreachable!("{self:?} is not tuned"),
        };
        Box::new(Dylect::new(dylect, dram, profile, seed))
    }
}

/// One run a figure declares: `run` of `spec` at `setting`.
#[derive(Clone, Debug)]
struct Cell {
    spec: BenchmarkSpec,
    setting: CompressionSetting,
    run: Run,
}

/// A figure's export step: its runs execute uncached with telemetry on,
/// the render's inputs are read off each run's telemetry on the worker (a
/// `Telemetry` is not `Send`), and each run's telemetry exports land under
/// `--out` as `<stem><suffix>`.
#[derive(Clone, Copy)]
struct Probe {
    /// Where the exports land without `--out`.
    out: &'static str,
    /// The telemetry configuration, given `DYLECT_SPAN_SAMPLE` and the
    /// run's warmup plus measured ops.
    config: fn(u64, u64) -> TelemetryConfig,
    /// What the render reads of one run.
    read: fn(&RunKey, &RunReport, &Telemetry) -> Box<dyn Any + Send>,
    /// The file stem of a run's exports.
    stem: fn(&RunKey) -> String,
}

/// What a probed run hands back beside its report: the probe's reading and
/// the telemetry exports as (file name, contents).
type Probed = (Box<dyn Any + Send>, Vec<(String, String)>);

/// Where a probed run's worker leaves its [`Probed`].
type Slot = Arc<Mutex<Option<Probed>>>;

impl Probe {
    fn job(self, key: RunKey, span_sample: u64, slot: Slot) -> Job {
        Job {
            label: format!("{}/telemetry", key.label()),
            // The figure reads telemetry, which a cached report lacks.
            cache_name: None,
            work: Box::new(move || {
                let warmup = crate::warmup_for(&key.spec, key.mode);
                let mut sys = dylect_sim::System::new(key.config(), &key.spec);
                sys.enable_telemetry((self.config)(span_sample, warmup + key.mode.measure_ops));
                let report = sys.run(warmup, key.mode.measure_ops);
                let telemetry = sys.take_telemetry().expect("enabled above");
                let stem = (self.stem)(&key);
                let exports = telemetry
                    .artifacts()
                    .into_iter()
                    .map(|(suffix, text)| (format!("{stem}{suffix}"), text))
                    .collect();
                *slot.lock().expect("no worker panicked") =
                    Some(((self.read)(&key, &report, &telemetry), exports));
                report
            }),
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
    /// The export step, for a figure that reads telemetry.
    probe: Option<Probe>,
    render: fn(&Runs) -> String,
}

impl Figure {
    /// Every run the figure reads: each of its runs for each of its
    /// benchmarks and settings.
    fn cells(&self, suite: &[BenchmarkSpec]) -> Vec<Cell> {
        let mut cells = Vec::new();
        for spec in (self.specs)(suite) {
            for &setting in self.settings {
                for &run in self.runs {
                    let spec = spec.clone();
                    cells.push(Cell { spec, setting, run });
                }
            }
        }
        cells
    }

    /// The job that produces `cell`'s report.
    fn job(&self, cell: &Cell, mode: Mode, span_sample: u64, slot: &Slot) -> Job {
        let key = cell.run.key(&cell.spec, cell.setting, mode);
        let run = cell.run;
        match self.probe {
            Some(probe) => probe.job(key, span_sample, slot.clone()),
            None if run.is_tuned() => key.tuned_job(
                &format!("{run:?}"),
                Box::new(move |os_pages, dram: &Dram, profile, seed| {
                    run.build(os_pages, dram, profile, seed)
                }),
            ),
            None => key.into_job(),
        }
    }
}

/// What a render reads: the figure's benchmarks and the reports of the
/// runs it declared, with what its probe read of each.
struct Runs<'a> {
    specs: Vec<BenchmarkSpec>,
    mode: Mode,
    cells: Vec<Cell>,
    /// One report per cell, in order.
    reports: &'a [RunReport],
    /// What the probe read of each cell, in order; empty without a probe.
    probed: Vec<Box<dyn Any + Send>>,
    /// The paths of each cell's exports, in order; empty without a probe.
    exports: Vec<Vec<PathBuf>>,
}

impl Runs<'_> {
    /// The index of `run` on `spec` at `setting`. Panics if the figure did
    /// not declare that run.
    fn index(&self, spec: &BenchmarkSpec, setting: CompressionSetting, run: Run) -> usize {
        self.cells
            .iter()
            .position(|c| c.spec.name == spec.name && c.setting == setting && c.run == run)
            .unwrap_or_else(|| {
                panic!(
                    "figure reads undeclared run {}/{run:?}/{}",
                    spec.name,
                    setting_label(setting)
                )
            })
    }

    /// The report of `run` on `spec` at `setting`.
    fn get(&self, spec: &BenchmarkSpec, setting: CompressionSetting, run: Run) -> &RunReport {
        &self.reports[self.index(spec, setting, run)]
    }

    /// What the figure's probe read of `run` on `spec` at `setting`.
    fn probed<T: 'static>(
        &self,
        spec: &BenchmarkSpec,
        setting: CompressionSetting,
        run: Run,
    ) -> &T {
        self.probed[self.index(spec, setting, run)]
            .downcast_ref()
            .expect("the probe's reading")
    }

    /// The paths the exports of `run` on `spec` at `setting` were written to.
    fn exports(&self, spec: &BenchmarkSpec, setting: CompressionSetting, run: Run) -> &[PathBuf] {
        &self.exports[self.index(spec, setting, run)]
    }
}

fn named(names: &[&str]) -> Vec<BenchmarkSpec> {
    names
        .iter()
        .map(|n| BenchmarkSpec::by_name(n).expect("known benchmark"))
        .collect()
}

fn whole(suite: &[BenchmarkSpec]) -> Vec<BenchmarkSpec> {
    suite.to_vec()
}

fn first_four(suite: &[BenchmarkSpec]) -> Vec<BenchmarkSpec> {
    suite.iter().take(4).cloned().collect()
}

/// The two fastest benchmarks, whatever the suite.
fn fastest_two(_: &[BenchmarkSpec]) -> Vec<BenchmarkSpec> {
    named(&["omnetpp", "canneal"])
}

/// The figures `allfigs` prints, in its order.
pub static ALLFIGS: [Figure; 13] = [
    Figure {
        bins: &["fig04_tmcc_slowdown"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::NoComp],
        probe: None,
        render: fig04,
    },
    Figure {
        bins: &["fig18_speedup"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect, Run::Upper],
        probe: None,
        render: fig18,
    },
    Figure {
        bins: &["fig19_hitrate"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect],
        probe: None,
        render: fig19,
    },
    Figure {
        bins: &["fig20_breakdown"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Dylect],
        probe: None,
        render: fig20,
    },
    Figure {
        bins: &["fig21_latency"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect],
        probe: None,
        render: fig21,
    },
    Figure {
        bins: &["fig22_traffic", "fig23_cte_traffic"],
        specs: whole,
        settings: &[High],
        runs: &[Run::Tmcc, Run::Dylect],
        probe: None,
        render: fig22_23,
    },
    Figure {
        bins: &["fig24_energy"],
        specs: whole,
        settings: &[High],
        runs: &[Run::NoComp16, Run::Dylect],
        probe: None,
        render: fig24,
    },
    Figure {
        bins: &["naive_ablation"],
        specs: whole,
        settings: &[High],
        runs: &[Run::Tmcc, Run::Naive],
        probe: None,
        render: naive,
    },
    Figure {
        bins: &["fig17_bandwidth"],
        specs: whole,
        settings: &[Low],
        runs: &[Run::NoComp],
        probe: None,
        render: fig17,
    },
    Figure {
        bins: &["fig03_hugepages"],
        specs: whole,
        settings: &[Low],
        runs: &[Run::NoComp4k, Run::NoComp],
        probe: None,
        render: fig03,
    },
    Figure {
        bins: &["fig05_cte_sweep"],
        specs: first_four,
        settings: &[High],
        runs: &[Run::Cte(64), Run::Cte(128), Run::Cte(256), Run::Cte(512)],
        probe: None,
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
        probe: None,
        render: fig06,
    },
    Figure {
        bins: &["fig25_groupsize"],
        specs: fastest_two,
        settings: &[High],
        runs: &[Run::Group(1), Run::Group(3), Run::Group(7), Run::Group(15)],
        probe: None,
        render: fig25,
    },
];

/// The tables `allfigs` does not print: Table 1, the ablations and the
/// telemetry studies.
pub static STUDIES: [Figure; 8] = [
    Figure {
        bins: &["table1"],
        specs: whole,
        settings: &SETTINGS,
        runs: &[Run::Tmcc, Run::Dylect],
        probe: None,
        render: table1,
    },
    Figure {
        bins: &["ablation_multimc"],
        specs: |_| named(&["canneal"]),
        settings: &[High],
        runs: &[Run::Mcs(1), Run::Mcs(2), Run::Mcs(4)],
        probe: None,
        render: multimc,
    },
    Figure {
        bins: &["ablation_promotion"],
        specs: |_| named(&["canneal"]),
        settings: &[High],
        runs: &PROMOTION.1,
        probe: None,
        render: promotion,
    },
    Figure {
        bins: &["ablation_cache_policy"],
        specs: |_| named(&["canneal"]),
        settings: &[High],
        runs: &CACHE_POLICY.1,
        probe: None,
        render: cache_policy,
    },
    Figure {
        bins: &["fig_warmup"],
        specs: |_| named(&["omnetpp"]),
        settings: &[High],
        runs: &[Run::Tmcc, Run::Dylect],
        probe: Some(Probe {
            out: "results/telemetry",
            // ~200 points across the whole run, streaming-downsampled.
            config: |_, ops| TelemetryConfig {
                epoch_ops: (ops / 200).max(1_000),
                ..TelemetryConfig::default()
            },
            read: warmup_read,
            stem: bench_scheme,
        }),
        render: warmup,
    },
    Figure {
        bins: &["fig_latency_breakdown"],
        specs: |_| named(&["omnetpp"]),
        settings: &[High],
        runs: &[Run::Dylect, Run::Naive, Run::Tmcc],
        probe: Some(Probe {
            out: "results/latency",
            config: |span_sample, _| TelemetryConfig {
                span_sample,
                ..TelemetryConfig::default()
            },
            read: latency_read,
            stem: bench_scheme,
        }),
        render: latency,
    },
    Figure {
        bins: &["fig_shadow"],
        specs: |_| named(&["omnetpp"]),
        settings: &[High],
        runs: &[Run::Dylect, Run::Naive, Run::Tmcc],
        probe: Some(Probe {
            out: "results/shadow",
            config: |span_sample, _| TelemetryConfig {
                shadow: true,
                span_sample,
                ..TelemetryConfig::default()
            },
            read: shadow_read,
            stem: bench_scheme,
        }),
        render: shadow,
    },
    Figure {
        bins: &["fig_nested"],
        specs: |_| named(&["omnetpp"]),
        settings: &[High],
        runs: &[
            Run::Tmcc4k,
            Run::TmccNested,
            Run::Dylect4k,
            Run::DylectNested,
        ],
        probe: Some(Probe {
            out: "results/nested",
            config: |_, _| TelemetryConfig::default(),
            read: nested_read,
            stem: |k| {
                let dim = if k.nested { "nested" } else { "flat" };
                format!("{}-{dim}", bench_scheme(k))
            },
        }),
        render: nested,
    },
];

/// The figure the binary `bin` prints.
fn by_bin(bin: &str) -> Option<&'static Figure> {
    ALLFIGS
        .iter()
        .chain(&STUDIES)
        .find(|f| f.bins.contains(&bin))
}

/// Runs the runs of `figs` as one batch and prints each figure in order,
/// after writing its exports. A usage error exits with status 2; an out
/// directory or export that cannot be written exits with status 1.
pub fn run(figs: &[Figure]) {
    let args = Args::from_env();
    let mode = args.mode();
    let suite = suite(args.all);
    let span_sample = or_usage_exit(TelemetryConfig::span_sample_from_env());
    let mut jobs = Vec::new();
    let mut plans = Vec::new();
    for fig in figs {
        let out = fig.probe.map(|p| args.out_dir(p.out));
        let cells = fig.cells(&suite);
        let slots: Vec<Slot> = cells.iter().map(|_| Slot::default()).collect();
        for (cell, slot) in cells.iter().zip(&slots) {
            jobs.push(fig.job(cell, mode, span_sample, slot));
        }
        plans.push((cells, slots, out));
    }
    let reports = Runner::from_env(args.no_cache).run_jobs(jobs);
    let mut rest = reports.as_slice();
    for (fig, (cells, slots, out)) in figs.iter().zip(plans) {
        let (reports, tail) = rest.split_at(cells.len());
        rest = tail;
        let mut runs = Runs {
            specs: (fig.specs)(&suite),
            mode,
            cells,
            reports,
            probed: Vec::new(),
            exports: Vec::new(),
        };
        if let Some(out) = out {
            for slot in slots {
                let (reading, exports) = slot
                    .lock()
                    .expect("no worker panicked")
                    .take()
                    .expect("probed run");
                runs.exports.push(or_exit(write_exports(&out, exports)));
                runs.probed.push(reading);
            }
        }
        print!("{}", (fig.render)(&runs));
    }
}

/// Writes each (file name, contents) under `out`; returns the paths
/// written, or an error naming the path it could not write.
pub fn write_exports(out: &Path, exports: Vec<(String, String)>) -> Result<Vec<PathBuf>, String> {
    exports
        .into_iter()
        .map(|(name, text)| {
            let path = out.join(name);
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// The value of `r`, or, on an error, a message on stderr and exit status 1.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Entry point of a figure binary: runs and prints the figure that lists
/// `bin`.
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

/// The promotion ablation's rows: the paper's knobs (the matrix run), then
/// each variant.
const PROMOTION: ([&str; 5], [Run; 5]) = (
    [
        "paper",
        "sample-1%",
        "sample-20%",
        "eager (no thresholds)",
        "conservative",
    ],
    [
        Run::Dylect,
        Run::Promotion(0.01, 2, 2),
        Run::Promotion(0.20, 2, 2),
        Run::Promotion(0.05, 0, 0),
        Run::Promotion(0.05, 8, 8),
    ],
);

/// The CTE-cache ablation's rows: each design's paper organization (its
/// matrix run), then its alternative.
const CACHE_POLICY: ([&str; 4], [Run; 4]) = (
    [
        "dylect/paper (selective)",
        "dylect/cache-unified-always",
        "naive/option-A (gathered)",
        "naive/option-B (sector)",
    ],
    [
        Run::Dylect,
        Run::UnifiedAlways,
        Run::Naive,
        Run::NaiveSector,
    ],
);

/// Effective compression ratio: OS-visible bytes over DRAM data bytes in
/// use (pages + compressed spans, excluding free space).
fn effective_ratio(spec: &BenchmarkSpec, mode: Mode, r: &RunReport) -> f64 {
    let os_bytes = (spec.footprint_pages(mode.scale) * PAGE_BYTES) as f64;
    let o = &r.occupancy;
    let used = ((o.ml0_pages + o.ml1_pages) * PAGE_BYTES) as f64
        + (o.ml2_pages as f64) * (os_bytes / spec.footprint_pages(mode.scale) as f64)
            / spec.compression_ratio;
    os_bytes / used
}

fn table1(r: &Runs) -> String {
    let mut rows = Vec::new();
    for s in SETTINGS {
        let mut speedups = Vec::new();
        let mut ratios_t = Vec::new();
        let mut ratios_d = Vec::new();
        for spec in &r.specs {
            let tmcc = r.get(spec, s, Run::Tmcc);
            let dylect = r.get(spec, s, Run::Dylect);
            speedups.push(dylect.speedup_over(tmcc));
            ratios_t.push(effective_ratio(spec, r.mode, tmcc));
            ratios_d.push(effective_ratio(spec, r.mode, dylect));
        }
        rows.push(vec![
            format!("{s:?}"),
            format!("{:.2}", geomean(&ratios_t)),
            format!("{:.2}", geomean(&ratios_d)),
            format!("{:.4}", geomean(&speedups)),
        ]);
    }
    let mut out = format_table(
        "Table 1: compression ratio and DyLeCT-vs-TMCC performance (paper: equal ratios, +10.25% perf; MC-only change)",
        &[
            "setting",
            "tmcc_effective_ratio",
            "dylect_effective_ratio",
            "dylect_speedup_over_tmcc",
        ],
        &rows,
    );
    out.push_str("# hardware changes: TMCC modifies MC + L2$; DyLeCT modifies the MC only\n");
    out
}

fn multimc(r: &Runs) -> String {
    let spec = &r.specs[0];
    let base = r.get(spec, High, Run::Mcs(1)).ips();
    let mut rows = Vec::new();
    for n in [1, 2, 4] {
        let rep = r.get(spec, High, Run::Mcs(n));
        rows.push(vec![
            n.to_string(),
            format!("{:.3e}", rep.ips()),
            format!("{:.4}", rep.ips() / base),
            format!("{:.4}", rep.mc.cte_hit_rate()),
            format!("{:.4}", rep.occupancy.ml0_fraction_of_uncompressed()),
        ]);
    }
    format_table(
        "Multi-MC ablation (canneal, high compression; paper: MC-local interleaving has minimal impact)",
        &["memory_controllers", "ips", "relative_perf", "cte_hit", "ml0_of_uncompressed"],
        &rows,
    )
}

fn promotion(r: &Runs) -> String {
    let mut rows = Vec::new();
    for (label, run) in PROMOTION.0.iter().zip(PROMOTION.1) {
        let rep = r.get(&r.specs[0], High, run);
        let migrations =
            rep.mc.promotions.get() + rep.mc.demotions.get() + rep.mc.displacements.get();
        rows.push(vec![
            (*label).to_owned(),
            format!("{:.4}", rep.mc.cte_hit_rate()),
            format!("{:.4}", rep.occupancy.ml0_fraction_of_uncompressed()),
            migrations.to_string(),
            format!("{:.3e}", rep.ips()),
        ]);
    }
    format_table(
        "Promotion-policy ablation (canneal, high compression)",
        &[
            "variant",
            "cte_hit",
            "ml0_of_uncompressed",
            "migrations",
            "ips",
        ],
        &rows,
    )
}

fn cache_policy(r: &Runs) -> String {
    let mut rows = Vec::new();
    for (label, run) in CACHE_POLICY.0.iter().zip(CACHE_POLICY.1) {
        let rep = r.get(&r.specs[0], High, run);
        rows.push(vec![
            (*label).to_owned(),
            format!("{:.4}", rep.mc.cte_hit_rate()),
            format!("{:.4}", rep.mc.pregathered_hit_rate()),
            format!("{:.3e}", rep.ips()),
        ]);
    }
    format_table(
        "CTE-cache policy / organization ablation (canneal, high compression)",
        &["variant", "cte_hit", "short_or_pregathered_hit", "ips"],
        &rows,
    )
}

/// The export stem `<benchmark>-<scheme>`.
fn bench_scheme(key: &RunKey) -> String {
    format!("{}-{}", key.spec.name, key.scheme.label())
}

/// The warmup trajectory rows of one run.
fn warmup_read(key: &RunKey, _: &RunReport, t: &Telemetry) -> Box<dyn Any + Send> {
    let hit = t.sampler().get("cte_hit_rate").expect("series");
    let ml0 = t.sampler().get("ml0_fraction").expect("series");
    let rows: Vec<Vec<String>> = hit
        .bins()
        .iter()
        .zip(ml0.bins())
        .map(|(h, m)| {
            vec![
                key.scheme.label(),
                h.x_end.to_string(),
                format!("{:.4}", h.mean()),
                format!("{:.4}", m.mean()),
            ]
        })
        .collect();
    Box::new(rows)
}

/// Warmup dynamics: the CTE hit rate and ML0 fraction against retired
/// instructions, from the telemetry time series. The runs are Figure 19's
/// cells, so the final window's hit rate is the one Figure 19 prints.
fn warmup(r: &Runs) -> String {
    let spec = &r.specs[0];
    let mut rows = Vec::new();
    for run in [Run::Tmcc, Run::Dylect] {
        rows.extend(
            r.probed::<Vec<Vec<String>>>(spec, High, run)
                .iter()
                .cloned(),
        );
    }
    format_table(
        &format!(
            "Warmup dynamics ({}, high compression): CTE hit rate and ML0 fraction vs instructions",
            spec.name
        ),
        &["scheme", "instructions", "cte_hit_rate", "ml0_fraction"],
        &rows,
    )
}

/// One run's latency attribution: the cycles table, the sampled-spans
/// line, and one percentile row per mem-scope latency histogram.
struct LatencyRun {
    cycles_table: String,
    spans: Option<String>,
    hist_rows: Vec<Vec<String>>,
}

fn latency_read(key: &RunKey, _: &RunReport, t: &Telemetry) -> Box<dyn Any + Send> {
    let a = t.attribution();
    let label = key.scheme.label();
    let mut hist_rows = Vec::new();
    for (&(scope, class, level, path), hist) in a.histograms() {
        if scope != AccessScope::Mem {
            continue;
        }
        hist_rows.push(vec![
            label.clone(),
            class.name().to_owned(),
            level.name().to_owned(),
            path.name().to_owned(),
            hist.count().to_string(),
            hist.mean().to_string(),
            hist.percentile(0.50).to_string(),
            hist.percentile(0.95).to_string(),
            hist.percentile(0.99).to_string(),
            hist.percentile(0.999).to_string(),
        ]);
    }
    let every = t.config().span_sample;
    Box::new(LatencyRun {
        cycles_table: a.cycles_table(),
        spans: (every > 0).then(|| {
            format!(
                "spans: 1-in-{every} demand misses sampled, {} retained\n",
                a.spans().len()
            )
        }),
        hist_rows,
    })
}

/// Per-access latency attribution: where the cycles of a memory access go
/// (component cycles sum exactly to end-to-end latency), and the latency
/// percentiles by translation outcome, per scheme.
fn latency(r: &Runs) -> String {
    let spec = &r.specs[0];
    let mut out = String::new();
    let mut rows = Vec::new();
    for run in [Run::Dylect, Run::Naive, Run::Tmcc] {
        let l: &LatencyRun = r.probed(spec, High, run);
        let label = run.key(spec, High, r.mode).scheme.label();
        out.push_str(&format!(
            "== {} / {label} ==\n{}",
            spec.name, l.cycles_table
        ));
        out.push_str(l.spans.as_deref().unwrap_or_default());
        for p in r.exports(spec, High, run) {
            out.push_str(&format!("wrote {}\n", p.display()));
        }
        out.push('\n');
        rows.extend(l.hist_rows.iter().cloned());
    }
    out.push_str(&format_table(
        &format!(
            "End-to-end latency percentiles by access outcome ({}, high compression, mem scope)",
            spec.name
        ),
        &[
            "scheme", "class", "level", "path", "count", "mean", "p50", "p95", "p99", "p999",
        ],
        &rows,
    ));
    out
}

/// One run's counterfactual CTE-cache analysis.
struct ShadowRun {
    class_rows: Vec<Vec<String>>,
    config_rows: Vec<Vec<String>>,
    life_rows: Vec<Vec<String>>,
    pingpong_line: String,
    top_rows: Vec<Vec<String>>,
}

fn shadow_read(key: &RunKey, _: &RunReport, t: &Telemetry) -> Box<dyn Any + Send> {
    let label = key.scheme.label();
    let shadow = t.shadow();
    let prov = t.provenance();
    let mut kinds: Vec<(&str, _)> = CteBlockKind::ALL
        .iter()
        .map(|&k| (k.name(), shadow.classes(k)))
        .collect();
    kinds.push(("total", shadow.classes_total()));
    let mut class_rows = Vec::new();
    for (kind, c) in &kinds {
        // The three classes partition the real cache's misses exactly.
        assert_eq!(
            c.compulsory + c.capacity + c.conflict,
            c.real_misses,
            "{label}/{kind}: 3C classes must sum to real misses"
        );
        class_rows.push(vec![
            label.clone(),
            (*kind).to_owned(),
            c.real_hits.to_string(),
            c.real_misses.to_string(),
            c.compulsory.to_string(),
            c.capacity.to_string(),
            c.conflict.to_string(),
        ]);
    }
    let config_rows = shadow
        .config_rows()
        .iter()
        .map(|r| {
            let cap = if r.capacity_bytes == u64::MAX {
                "inf".to_owned()
            } else {
                format!("{}", r.capacity_bytes / 1024)
            };
            let ways = if r.ways == 0 {
                "full".to_owned()
            } else {
                r.ways.to_string()
            };
            vec![
                label.clone(),
                r.label.to_owned(),
                cap,
                ways,
                r.tally.hits.to_string(),
                r.tally.lookups.to_string(),
                format!("{:.4}", r.tally.hit_rate()),
            ]
        })
        .collect();
    let life_rows = prov
        .level_rows()
        .iter()
        .map(|r| {
            vec![
                label.clone(),
                r.level.name().to_owned(),
                r.dwell_ops.to_string(),
                r.resident_pages.to_string(),
                r.entries.to_string(),
            ]
        })
        .collect();
    let top_rows = prov
        .top_pingpong(8)
        .iter()
        .map(|r| {
            vec![
                label.clone(),
                r.mc.to_string(),
                r.page.to_string(),
                r.trips.to_string(),
                r.pingpong_events.to_string(),
                r.promotions.to_string(),
                r.demotions.to_string(),
            ]
        })
        .collect();
    Box::new(ShadowRun {
        class_rows,
        config_rows,
        life_rows,
        pingpong_line: format!(
            "{label}: {} pages tracked, {} ping-ponging\n",
            prov.pages_tracked(),
            prov.pingpong_pages()
        ),
        top_rows,
    })
}

/// Counterfactual CTE-cache analysis per scheme: the 3C classification of
/// the real cache's misses, shadow caches of other geometries replaying
/// the same lookup stream, and page lifetimes by managed level.
fn shadow(r: &Runs) -> String {
    let spec = &r.specs[0];
    let runs = [Run::Dylect, Run::Naive, Run::Tmcc];
    let each: Vec<&ShadowRun> = runs.iter().map(|&run| r.probed(spec, High, run)).collect();
    let rows = |pick: fn(&ShadowRun) -> &Vec<Vec<String>>| -> Vec<Vec<String>> {
        each.iter().flat_map(|s| pick(s).iter().cloned()).collect()
    };
    let mut out = format_table(
        &format!(
            "Real CTE-cache miss classification ({}, high compression)",
            spec.name
        ),
        &[
            "scheme",
            "cte_kind",
            "hits",
            "misses",
            "compulsory",
            "capacity",
            "conflict",
        ],
        &rows(|s| &s.class_rows),
    );
    out.push_str(&format_table(
        &format!(
            "Shadow CTE-cache hit-rate sweep ({}, same stream + fill policy)",
            spec.name
        ),
        &[
            "scheme",
            "config",
            "capacity_kib",
            "ways",
            "hits",
            "lookups",
            "hit_rate",
        ],
        &rows(|s| &s.config_rows),
    ));
    out.push_str(&format_table(
        &format!(
            "Page lifetime by managed level ({}, retired ops)",
            spec.name
        ),
        &["scheme", "level", "dwell_ops", "resident_pages", "entries"],
        &rows(|s| &s.life_rows),
    ));
    for s in &each {
        out.push_str(&s.pingpong_line);
    }
    let top_rows = rows(|s| &s.top_rows);
    if !top_rows.is_empty() {
        out.push_str(&format_table(
            &format!("Top ping-pong pages ({}, by round trips)", spec.name),
            &[
                "scheme",
                "mc",
                "page",
                "trips",
                "pingpong_evts",
                "promotions",
                "demotions",
            ],
            &top_rows,
        ));
    }
    for run in runs {
        for p in r.exports(spec, High, run) {
            out.push_str(&format!("wrote {}\n", p.display()));
        }
    }
    out
}

/// One run's core-scope cycle split: `tlb_walk` and the total, in ps.
struct NestedRun {
    tlb_walk_ps: u64,
    core_total_ps: u64,
}

fn nested_read(key: &RunKey, _: &RunReport, t: &Telemetry) -> Box<dyn Any + Send> {
    let a = t.attribution();
    // Conservation must survive the 2D walk: every host-table read is
    // inside the translated_at window, so TlbWalk absorbs it exactly.
    for scope in AccessScope::ALL {
        let components: u64 = AccessComponent::ALL
            .iter()
            .map(|&c| a.component_total(scope, c).as_ps())
            .sum();
        let hists: u64 = a
            .histograms()
            .iter()
            .filter(|((s, ..), _)| *s == scope)
            .map(|(_, h)| h.sum().as_ps())
            .sum();
        assert_eq!(
            components,
            hists,
            "{}: attribution conservation violated",
            key.label()
        );
    }
    Box::new(NestedRun {
        tlb_walk_ps: a
            .component_total(AccessScope::Core, AccessComponent::TlbWalk)
            .as_ps(),
        core_total_ps: AccessComponent::ALL
            .iter()
            .map(|&c| a.component_total(AccessScope::Core, c).as_ps())
            .sum(),
    })
}

/// Virtualized translation: the `tlb_walk` cycles 2D nested walks add, per
/// scheme, on 4 KB pages (guests often cannot use huge pages).
fn nested(r: &Runs) -> String {
    let spec = &r.specs[0];
    let mut rows = Vec::new();
    for (flat_run, nested_run) in [
        (Run::Tmcc4k, Run::TmccNested),
        (Run::Dylect4k, Run::DylectNested),
    ] {
        let flat: &NestedRun = r.probed(spec, High, flat_run);
        let nested: &NestedRun = r.probed(spec, High, nested_run);
        let added = nested.tlb_walk_ps as i64 - flat.tlb_walk_ps as i64;
        let pct = |n: &NestedRun| 100.0 * n.tlb_walk_ps as f64 / n.core_total_ps as f64;
        rows.push(vec![
            flat_run.key(spec, High, r.mode).scheme.label(),
            r.get(spec, High, flat_run).walks.to_string(),
            format!("{:.3}", flat.tlb_walk_ps as f64 / 1e6),
            format!("{:.3}", nested.tlb_walk_ps as f64 / 1e6),
            format!("{:.3}", added as f64 / 1e6),
            format!("{:.1}", pct(flat)),
            format!("{:.1}", pct(nested)),
        ]);
    }
    format_table(
        &format!(
            "Nested (2D) walk cost in the tlb_walk component ({}, 4K pages, high compression)",
            spec.name
        ),
        &[
            "scheme",
            "walks",
            "flat_us",
            "nested_us",
            "added_us",
            "flat_%core",
            "nested_%core",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim::System;

    /// The binaries that are not figure shims. `allfigs` prints every
    /// figure of [`ALLFIGS`]; the others are instruments a [`Figure`]
    /// cannot express (DESIGN.md §6 says why).
    const INSTRUMENTS: [&str; 4] = [
        "allfigs",
        "fig_divergence",
        "fig_selfprofile",
        "fig_tenants",
    ];

    /// The source of a figure binary.
    const SHIM: &str =
        "fn main() {\n    dylect_bench::figures::main(env!(\"CARGO_BIN_NAME\"));\n}\n";

    /// One short simulation, standing in for the report of every run.
    fn tiny_report() -> RunReport {
        let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
        let key = RunKey::new(spec.clone(), SchemeKind::dylect(), High, Mode::quick());
        System::new(key.config(), &spec).run(2_000, 2_000)
    }

    /// What `fig` reads, with `reports` standing in for its runs' reports.
    fn runs<'a>(fig: &Figure, suite: &[BenchmarkSpec], reports: &'a [RunReport]) -> Runs<'a> {
        let cells = fig.cells(suite);
        Runs {
            specs: (fig.specs)(suite),
            mode: Mode::quick(),
            reports: &reports[..cells.len()],
            cells,
            probed: Vec::new(),
            exports: Vec::new(),
        }
    }

    /// `run` renders each figure of a batch from its own slice of the
    /// reports, so a section of `allfigs` is the figure rendered alone;
    /// each must be a well-formed section on either suite.
    #[test]
    fn allfigs_prints_each_figure_as_it_renders_alone() {
        let report = tiny_report();
        for suite in [crate::reduced_suite(), BenchmarkSpec::suite()] {
            let plain = ALLFIGS
                .iter()
                .chain(STUDIES.iter().filter(|f| f.probe.is_none()));
            for fig in plain {
                let reports = vec![report.clone(); fig.cells(&suite).len()];
                let section = (fig.render)(&runs(fig, &suite, &reports));
                assert!(section.starts_with("# "), "{section}");
                assert!(section.ends_with('\n'), "{section}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "undeclared run")]
    fn a_render_panics_on_a_run_it_did_not_declare() {
        let suite = crate::reduced_suite();
        let fig04 = by_bin("fig04_tmcc_slowdown").expect("listed");
        let reports = vec![tiny_report(); fig04.cells(&suite).len()];
        runs(fig04, &suite, &reports).get(&suite[0], Low, Run::Dylect);
    }

    #[test]
    fn every_bin_is_a_figure_shim_or_a_named_instrument() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut bins = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("bin dir") {
            let path = entry.expect("entry").path();
            let bin = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
            bins.push(bin.to_owned());
            if INSTRUMENTS.contains(&bin) {
                continue;
            }
            assert!(by_bin(bin).is_some(), "{bin} prints no figure");
            let text = std::fs::read_to_string(&path).expect("source");
            assert!(
                text.ends_with(SHIM) && text.lines().count() <= 9,
                "{bin} is not the 9-line figure shim"
            );
        }
        let figs = ALLFIGS.iter().chain(&STUDIES);
        for bin in figs.flat_map(|f| f.bins).chain(&INSTRUMENTS) {
            assert!(bins.iter().any(|b| b == bin), "{bin} has no source file");
        }
    }

    /// Each policy ablation's paper row is its matrix cell: the same key,
    /// so the same cache entry as the `allfigs` run.
    #[test]
    fn each_ablation_paper_row_is_its_matrix_cell() {
        let suite = crate::reduced_suite();
        let canneal = BenchmarkSpec::by_name("canneal").expect("in suite");
        let mode = Mode::quick();
        let slot = Slot::default();
        let mut matrix = Vec::new();
        for fig in &ALLFIGS {
            for cell in fig.cells(&suite) {
                matrix.push(fig.job(&cell, mode, 0, &slot).cache_name);
            }
        }
        for (bin, paper, scheme) in [
            ("ablation_promotion", Run::Dylect, SchemeKind::dylect()),
            ("ablation_cache_policy", Run::Dylect, SchemeKind::dylect()),
            (
                "ablation_cache_policy",
                Run::Naive,
                SchemeKind::NaiveDynamic,
            ),
        ] {
            let fig = by_bin(bin).expect("listed");
            let cells = fig.cells(&suite);
            let cell = cells
                .iter()
                .find(|c| c.run == paper)
                .unwrap_or_else(|| panic!("{bin} declares no {paper:?} row"));
            let key = cell.run.key(&cell.spec, cell.setting, mode);
            assert_eq!(key, RunKey::new(canneal.clone(), scheme, High, mode));
            let name = fig.job(cell, mode, 0, &slot).cache_name;
            assert!(name.is_some() && matrix.contains(&name), "{bin}: {name:?}");
            for tuned in cells.iter().filter(|c| c.run.is_tuned()) {
                let name = fig.job(tuned, mode, 0, &slot).cache_name;
                assert!(
                    !matrix.contains(&name),
                    "{bin}: {:?} is not a matrix run",
                    tuned.run
                );
            }
        }
    }

    #[test]
    fn figure_arguments_are_strict() {
        let args = |a: &[&str]| Args::parse(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), Ok(Args::default()));
        let all = args(&[
            "--quick",
            "--all",
            "--no-cache",
            "--quick",
            "--out",
            "res/x",
        ]);
        assert_eq!(
            all,
            Ok(Args {
                quick: true,
                all: true,
                no_cache: true,
                out: Some("res/x".into()),
            })
        );
        for bad in ["--qiuck", "quick", "-q", "", "--bench", "--tenants"] {
            let err = args(&["--quick", bad]).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        for bad in [
            &["--out"][..],
            &["--out", "--quick"],
            &["--out", "-q"],
            &["--out", ""],
            &["--quick", "--out"],
        ] {
            let err = args(bad).expect_err("--out needs a directory");
            assert!(err.contains("\"--out\""), "{err}");
        }
    }
}
