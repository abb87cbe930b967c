//! Parallel, cached execution of the paper-reproduction run matrix.
//!
//! The figure/table binaries share most of their runs: the benchmark ×
//! scheme × compression matrix. This module runs them through:
//!
//! - **[`RunKey`]**: a declarative description of one simulation (benchmark,
//!   scheme, compression setting, effort [`Mode`], plus the page-size and
//!   DRAM-rank overrides Figures 3 and 24 need). Binaries build a list of
//!   keys and get the reports back in the same order.
//! - **A worker pool**: independent keys run concurrently on
//!   `std::thread::scope` threads — one per available core by default,
//!   overridable with `DYLECT_JOBS=n`. The simulator is deterministic and
//!   each run is fully isolated, so parallel results are identical to a
//!   sequential run (asserted by `tests/determinism.rs`).
//! - **An on-disk report cache** under `results/cache/` (override with
//!   `DYLECT_CACHE_DIR`): one JSON-ish file per run key, named and versioned
//!   by a fingerprint of the *entire* resolved [`SystemConfig`] plus
//!   warmup/measure windows. Rerunning any figure binary after `allfigs`
//!   reuses the shared matrix instead of re-simulating it. Pass `--no-cache`
//!   (or `DYLECT_NO_CACHE=1`) to ignore existing entries, or delete the
//!   directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dylect_cpu::PageSizeMode;
use dylect_sim::{RunReport, SchemeBuilder, SchemeKind, System, SystemConfig};
use dylect_sim_core::digest::{self, DigestRecord};
use dylect_sim_core::env::{self, or_usage_exit};
use dylect_sim_core::{blackbox, prof};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

use crate::{config_for, warmup_for, Mode};

/// Short label for a compression setting, used in run labels, cache file
/// names, and table rows.
pub fn setting_label(s: CompressionSetting) -> &'static str {
    match s {
        CompressionSetting::Low => "low",
        CompressionSetting::High => "high",
    }
}

/// One cell of the reproduction matrix: everything needed to build the
/// paper's system for a single deterministic simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct RunKey {
    /// The benchmark to run.
    pub spec: BenchmarkSpec,
    /// The memory-controller scheme.
    pub scheme: SchemeKind,
    /// Compression pressure.
    pub setting: CompressionSetting,
    /// Effort level (scale, cores, warmup/measure windows).
    pub mode: Mode,
    /// Page-size override (Figure 3 compares 4 KB against 2 MB pages).
    pub pages: Option<PageSizeMode>,
    /// DRAM-rank override (Figure 24's 16-rank no-compression baseline).
    pub dram_ranks: Option<u32>,
    /// Multiplier on DRAM capacity, applied after [`config_for`] (Figure
    /// 24's baseline doubles capacity along with ranks).
    pub dram_bytes_factor: u64,
    /// Memory-controller count override (the §IV-D multi-MC ablation).
    pub memory_controllers: Option<usize>,
    /// 2D nested page walks (the virtualization scenario axis).
    pub nested: bool,
}

impl RunKey {
    /// A standard matrix cell with no overrides.
    pub fn new(
        spec: BenchmarkSpec,
        scheme: SchemeKind,
        setting: CompressionSetting,
        mode: Mode,
    ) -> RunKey {
        RunKey {
            spec,
            scheme,
            setting,
            mode,
            pages: None,
            dram_ranks: None,
            dram_bytes_factor: 1,
            memory_controllers: None,
            nested: false,
        }
    }

    /// Overrides the OS page size.
    pub fn with_pages(mut self, pages: PageSizeMode) -> RunKey {
        self.pages = Some(pages);
        self
    }

    /// Overrides DRAM ranks and scales DRAM capacity by `bytes_factor`.
    pub fn with_ranks(mut self, ranks: u32, bytes_factor: u64) -> RunKey {
        self.dram_ranks = Some(ranks);
        self.dram_bytes_factor = bytes_factor;
        self
    }

    /// Overrides the number of independent memory controllers.
    pub fn with_mcs(mut self, mcs: usize) -> RunKey {
        self.memory_controllers = Some(mcs);
        self
    }

    /// Turns on 2D nested page walks (guest → host → machine-physical).
    pub fn with_nested(mut self) -> RunKey {
        self.nested = true;
        self
    }

    /// Human-readable run label for progress lines and cache file names.
    pub fn label(&self) -> String {
        let mut l = format!(
            "{}/{}/{}",
            self.spec.name,
            self.scheme.label(),
            setting_label(self.setting)
        );
        match self.pages {
            Some(PageSizeMode::Standard4K) => l.push_str("/4k"),
            Some(PageSizeMode::Huge2M) => l.push_str("/2m"),
            None => {}
        }
        if let Some(r) = self.dram_ranks {
            l.push_str(&format!("/{r}rk"));
        }
        if let Some(m) = self.memory_controllers {
            l.push_str(&format!("/{m}mc"));
        }
        if self.nested {
            l.push_str("/nested");
        }
        l
    }

    /// The fully resolved system configuration for this key.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = config_for(&self.spec, self.scheme.clone(), self.setting, self.mode);
        if let Some(p) = self.pages {
            cfg.core.page_mode = p;
        }
        if let Some(r) = self.dram_ranks {
            cfg.dram_ranks = r;
        }
        if let Some(m) = self.memory_controllers {
            cfg.memory_controllers = m;
        }
        cfg.core.nested_walk |= self.nested;
        cfg.dram_bytes *= self.dram_bytes_factor;
        cfg
    }

    /// Fingerprint of everything that determines this run's report. Two
    /// keys that resolve to the same simulation (e.g. `nocomp/low` in the
    /// shared matrix and Figure 3's explicit 2 MB-page run) collapse to the
    /// same fingerprint, so they share one cache entry and one execution.
    fn fingerprint(&self) -> u64 {
        let input = format!(
            "report-v{};{};{}",
            RunReport::CACHE_FORMAT_VERSION,
            self.run_input(),
            telemetry_env_fingerprint(),
        );
        dylect_sim_core::kv::fingerprint64(&input)
    }

    /// The resolved configuration and run windows, as fingerprint input.
    fn run_input(&self) -> String {
        format!(
            "cfg{:?};spec{:?};warm{};measure{}",
            self.config(),
            self.spec,
            warmup_for(&self.spec, self.mode),
            self.mode.measure_ops,
        )
    }

    /// Fingerprint of the run's *warmup prefix*: everything that determines
    /// the simulation state at the end of warmup, and nothing else. Unlike
    /// [`RunKey::fingerprint`], this excludes the measurement window and the
    /// telemetry env (the runner never warms up with telemetry on), so
    /// every sweep bin sharing a configuration prefix — different
    /// `measure_ops`, different downstream telemetry — keys the same
    /// checkpoint.
    fn checkpoint_fingerprint(&self) -> u64 {
        let cfg = self.config();
        let input = format!(
            "checkpoint-snapv{};cfg{:?};spec{:?};warm{}",
            dylect_sim_core::snap::SNAP_VERSION,
            cfg,
            self.spec,
            warmup_for(&self.spec, self.mode),
        );
        dylect_sim_core::kv::fingerprint64(&input)
    }

    /// Executes the simulation (no report-cache involvement). With
    /// `DYLECT_CHECKPOINT_DIR` set, the warmup prefix warm-starts from (or
    /// populates) a shared on-disk snapshot keyed by
    /// [`RunKey::checkpoint_fingerprint`].
    pub fn execute(&self) -> RunReport {
        self.execute_digests().0
    }

    /// [`RunKey::execute`] plus the per-window state digests the run
    /// captured (empty unless `DYLECT_DIGEST=1`). With checkpoint
    /// warm-starting, digest windows count ops from the resume point, not
    /// from cold start — the stream is still deterministic per
    /// configuration, just relative.
    pub fn execute_digests(&self) -> (RunReport, Vec<DigestRecord>) {
        let cfg = self.config();
        let warmup = warmup_for(&self.spec, self.mode);
        let mut sys = System::new(cfg, &self.spec);
        if let Ok(Some(at)) = digest::perturb_from_env() {
            sys.arm_perturb(Some(at));
        }
        let Some(dir) = dir_from_env("DYLECT_CHECKPOINT_DIR") else {
            let report = sys.run(warmup, self.mode.measure_ops);
            return (report, sys.take_digests());
        };
        let label = self.label();
        let stem = format!(
            "{}-{:016x}",
            sanitize(&label),
            self.checkpoint_fingerprint()
        );
        let ckpt = dir.join(format!("{stem}.ckpt"));
        let read = {
            let _p = prof::scope(prof::HostPhase::CheckpointRead);
            fs::read(&ckpt)
        };
        if let Ok(bytes) = read {
            let t0 = Instant::now();
            match sys.resume_measurement(&bytes, self.mode.measure_ops) {
                Ok(report) => {
                    blackbox::record(
                        blackbox::EventKind::CheckpointRestore,
                        bytes.len() as u64,
                        self.checkpoint_fingerprint(),
                    );
                    let restore_s = t0.elapsed().as_secs_f64();
                    let saved = match checkpoint_warmup_secs(&dir, &stem) {
                        Some(w) => format!(", saving ~{:.1}s of warmup", (w - restore_s).max(0.0)),
                        None => String::new(),
                    };
                    eprintln!(
                        "[runner] {label}: warm-started from checkpoint in {restore_s:.1}s{saved}"
                    );
                    return (report, sys.take_digests());
                }
                // A stale or damaged checkpoint degrades to a cold run; the
                // failed restore left `sys` unspecified, so rebuild it.
                Err(e) => {
                    eprintln!(
                        "[runner] warning: ignoring checkpoint {}: {e}",
                        ckpt.display()
                    );
                    sys = System::new(self.config(), &self.spec);
                    if let Ok(Some(at)) = digest::perturb_from_env() {
                        sys.arm_perturb(Some(at));
                    }
                }
            }
        }
        let t0 = Instant::now();
        let snap = sys.warm_up_and_snapshot(warmup);
        let warm_secs = t0.elapsed().as_secs_f64();
        {
            let _p = prof::scope(prof::HostPhase::CheckpointWrite);
            match write_bytes_atomically(&ckpt, &snap) {
                Ok(()) => {
                    blackbox::record(
                        blackbox::EventKind::CheckpointSave,
                        snap.len() as u64,
                        self.checkpoint_fingerprint(),
                    );
                    let _ = write_atomically(
                        &dir.join(format!("{stem}.meta")),
                        &format!("warmup_secs={warm_secs:.3}\n"),
                    );
                    eprintln!(
                        "[runner] {label}: checkpoint saved ({} KB; {warm_secs:.1}s of warmup now reusable)",
                        snap.len() / 1024,
                    );
                }
                // A read-only checkout degrades to uncheckpointed, not failure.
                Err(e) => eprintln!("[runner] warning: could not write {}: {e}", ckpt.display()),
            }
        }
        sys.start_measurement();
        sys.execute(self.mode.measure_ops);
        let report = sys.finish();
        (report, sys.take_digests())
    }

    pub(crate) fn into_job(self) -> Job {
        let label = self.label();
        let cache_name = format!("{}-{:016x}", sanitize(&label), self.fingerprint());
        let digest_stem = cache_name.clone();
        Job {
            label,
            cache_name: Some(cache_name),
            work: Box::new(move || {
                let (report, digests) = self.execute_digests();
                write_digest_artifact(&digest_stem, &digests);
                report
            }),
        }
    }

    /// A job running this key's machine with each memory controller's
    /// scheme built by `build` instead of from `scheme`, for knobs
    /// [`SchemeKind`] does not expose. `tuning` names those knobs; it
    /// extends the label and the cache fingerprint.
    pub fn tuned_job(self, tuning: &str, build: Box<SchemeBuilder>) -> Job {
        let input = format!("{};{tuning}", self.run_input());
        Job::custom(format!("{}/{tuning}", self.label()), &input, move || {
            let mut sys = System::with_schemes(self.config(), &self.spec, &*build);
            sys.run(warmup_for(&self.spec, self.mode), self.mode.measure_ops)
        })
    }
}

/// Writes a run's digest stream next to its report-cache entry as
/// `<cache-stem>.digest.jsonl` (one flat-JSON record per window), where
/// `dylect-serve` and `dylect-stats bisect` pick it up. No-op when digest
/// capture was off; failures degrade to a warning, never to a failed run.
fn write_digest_artifact(stem: &str, digests: &[DigestRecord]) {
    if digests.is_empty() {
        return;
    }
    let dir = cache_dir_from_env();
    let mut body = String::new();
    for d in digests {
        body.push_str(&d.to_jsonl_line());
        body.push('\n');
    }
    let path = dir.join(format!("{stem}.digest.jsonl"));
    if let Err(e) = write_atomically(&path, &body) {
        eprintln!("[runner] warning: could not write {}: {e}", path.display());
    }
}

/// One schedulable unit of work: a label, an optional cache identity, and
/// the closure that produces the report.
///
/// Runs that are not a plain [`RunKey`] (tuned schemes, telemetry runs,
/// co-scheduled tenants) submit custom jobs and still get pooling, and
/// caching when they name a cache entry.
pub struct Job {
    /// Progress/observability label.
    pub label: String,
    /// Cache file stem (including a config fingerprint); `None` disables
    /// caching for this job.
    pub cache_name: Option<String>,
    /// Produces the report. Runs at most once, on a worker thread.
    pub work: Box<dyn FnOnce() -> RunReport + Send>,
}

/// A worker's finished run: slot index, cache name, and the report.
type FinishedRun = (usize, Option<String>, RunReport);

impl Job {
    /// A custom job cached under `label` + a fingerprint of
    /// `fingerprint_input`, which must capture *every* knob that affects
    /// the result (typically `format!("{:?}", custom_config)`).
    pub fn custom(
        label: impl Into<String>,
        fingerprint_input: &str,
        work: impl FnOnce() -> RunReport + Send + 'static,
    ) -> Job {
        let label = label.into();
        let fp = dylect_sim_core::kv::fingerprint64(&format!(
            "report-v{};{label};{fingerprint_input};{}",
            RunReport::CACHE_FORMAT_VERSION,
            telemetry_env_fingerprint(),
        ));
        Job {
            cache_name: Some(format!("{}-{fp:016x}", sanitize(&label))),
            label,
            work: Box::new(work),
        }
    }
}

/// Raw values of the telemetry-affecting environment variables, folded
/// into every cache fingerprint. Telemetry is observation-only — the
/// *report* would be identical either way — but binaries that enable it
/// also export artifacts a cache hit would silently skip, so an entry
/// produced under one telemetry configuration must never satisfy a run
/// under another.
fn telemetry_env_fingerprint() -> String {
    let get = |key: &str| std::env::var(key).unwrap_or_default();
    // `DYLECT_CHECKPOINT_DIR` rides along for the same reason: a cache hit
    // skips execution, which would silently skip populating the warmup
    // checkpoint a warm-start sweep expects to find afterwards.
    // `DYLECT_PROF` is folded in for symmetry even though profiling cannot
    // change a report: a run executed with profiling on also produces host
    // `.prof.jsonl` artifacts that a cache hit would silently skip.
    // `DYLECT_DIGEST` likewise: the report is identical with digests on
    // (asserted by tests/determinism.rs), but a digest-enabled run also
    // exports a `.digest.jsonl` stream a cache hit would skip. And a
    // `DYLECT_DIGEST_PERTURB` run is *deliberately corrupted* — its report
    // must never be served to, or taken from, an unperturbed matrix.
    // `DYLECT_SCENARIO` changes the simulation outright (tenant mix,
    // nested walks, events), so a scenario entry must never collide with
    // a plain one.
    format!(
        "span_sample={};shadow={};checkpoint_dir={};prof={};digest={};digest_perturb={};scenario={}",
        get("DYLECT_SPAN_SAMPLE"),
        get("DYLECT_SHADOW"),
        get("DYLECT_CHECKPOINT_DIR"),
        get("DYLECT_PROF"),
        get("DYLECT_DIGEST"),
        get("DYLECT_DIGEST_PERTURB"),
        get("DYLECT_SCENARIO"),
    )
}

fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '_' | '-' => c,
            _ => '_',
        })
        .collect()
}

/// Parses a `DYLECT_JOBS` value with [`env::parse_count`]: unset or blank
/// is `Ok(None)` (every core), a positive integer is the worker count, and
/// `0` or garbage is a usage error. A typo in the variable must fail
/// loudly, not silently serialize a long experiment matrix.
pub fn parse_jobs(raw: Option<&str>) -> Result<Option<usize>, String> {
    Ok(env::parse_count("DYLECT_JOBS", raw)?.map(|n| n as usize))
}

/// [`parse_jobs`] against the live environment; a malformed value prints a
/// usage message and exits with status 2.
pub fn jobs_from_env() -> Option<usize> {
    or_usage_exit(parse_jobs(std::env::var("DYLECT_JOBS").ok().as_deref()))
}

/// The directory variable `name` from the live environment, strict-parsed
/// by [`env::parse_dir`]; a blank value prints a usage message and exits
/// with status 2.
fn dir_from_env(name: &str) -> Option<PathBuf> {
    or_usage_exit(env::parse_dir(name, std::env::var(name).ok().as_deref()))
}

/// Where finished reports are cached: `DYLECT_CACHE_DIR`, by default
/// `results/cache`.
fn cache_dir_from_env() -> PathBuf {
    dir_from_env("DYLECT_CACHE_DIR").unwrap_or_else(|| PathBuf::from("results/cache"))
}

/// Reads the `warmup_secs=` sidecar written next to a checkpoint, so a
/// warm-start can log the measured wall-clock saving.
fn checkpoint_warmup_secs(dir: &Path, stem: &str) -> Option<f64> {
    let text = fs::read_to_string(dir.join(format!("{stem}.meta"))).ok()?;
    text.strip_prefix("warmup_secs=")?.trim().parse().ok()
}

/// Whether the runner skips cache reads: `--no-cache` on the command line,
/// or a `DYLECT_NO_CACHE` value that is on under the strict grammar of
/// [`dylect_sim_core::env::parse_flag`].
pub fn parse_no_cache(cli_flag: bool, raw: Option<&str>) -> Result<bool, String> {
    Ok(env::parse_flag("DYLECT_NO_CACHE", raw)? || cli_flag)
}

/// Lifecycle of one run as reflected in its progress marker. `Failed` is
/// terminal too: a marker stuck at `running` after the process exits means
/// the runner itself died (killed, OOM), not that the job's work panicked.
#[derive(Clone, Copy, Debug)]
enum ProgressState {
    Running,
    Done(f64),
    Failed(f64),
}

/// Writes one run's live-progress marker (a single flat JSON object) under
/// the progress directory, where `dylect-serve` picks it up for `/runs`
/// and `/metrics`. Failures degrade to no progress reporting, never to a
/// failed run.
fn write_progress(dir: &Option<PathBuf>, label: &str, wid: usize, state: ProgressState) {
    let Some(dir) = dir else { return };
    let escaped: String = label
        .chars()
        .map(|c| match c {
            '"' | '\\' => '_',
            c if (c as u32) < 0x20 => '_',
            c => c,
        })
        .collect();
    let body = match state {
        ProgressState::Running => {
            format!("{{\"run\":\"{escaped}\",\"state\":\"running\",\"wid\":{wid}}}\n")
        }
        ProgressState::Done(s) => {
            format!("{{\"run\":\"{escaped}\",\"state\":\"done\",\"wid\":{wid},\"secs\":{s:.3}}}\n")
        }
        ProgressState::Failed(s) => {
            format!(
                "{{\"run\":\"{escaped}\",\"state\":\"failed\",\"wid\":{wid},\"secs\":{s:.3}}}\n"
            )
        }
    };
    let path = dir.join(format!("{}.run.json", sanitize(label)));
    let _ = write_atomically(&path, &body);
}

/// Drop guard around a job's work closure: if the closure panics (unwinds
/// past the guard), the run's marker flips to its terminal `failed` state
/// instead of rotting as `running` forever.
struct FailMarker<'a> {
    dir: &'a Option<PathBuf>,
    label: &'a str,
    wid: usize,
    t0: Instant,
    armed: bool,
}

impl Drop for FailMarker<'_> {
    fn drop(&mut self) {
        if self.armed {
            let secs = self.t0.elapsed().as_secs_f64();
            write_progress(self.dir, self.label, self.wid, ProgressState::Failed(secs));
        }
    }
}

/// The parallel, cached experiment runner.
pub struct Runner {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    read_cache: bool,
    progress_dir: Option<PathBuf>,
}

impl Runner {
    /// Configures the runner from the environment:
    ///
    /// - `DYLECT_JOBS=n` — worker count (default: available parallelism);
    /// - `DYLECT_CACHE_DIR=path` — cache location (default `results/cache`);
    ///   like every directory variable here, a blank value is a usage error;
    /// - `no_cache` (the `--no-cache` flag) or `DYLECT_NO_CACHE=1` — ignore
    ///   existing cache entries (fresh results are still written,
    ///   refreshing the cache);
    /// - `DYLECT_PROF=1` — host self-profiling (see `dylect_sim_core::prof`);
    /// - `DYLECT_PROGRESS_DIR=path` — live-progress markers for
    ///   `dylect-serve` (default `results/progress`).
    pub fn from_env(no_cache: bool) -> Runner {
        or_usage_exit(prof::init_from_env());
        or_usage_exit(digest::init_from_env());
        // Any crash from here on leaves a flight-recorder dump behind.
        blackbox::install_panic_hook();
        let jobs = jobs_from_env()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let no_cache = or_usage_exit(parse_no_cache(
            no_cache,
            std::env::var("DYLECT_NO_CACHE").ok().as_deref(),
        ));
        // Workers read the checkpoint directory; reject a blank one before
        // any of them starts.
        dir_from_env("DYLECT_CHECKPOINT_DIR");
        let progress_dir = dir_from_env("DYLECT_PROGRESS_DIR")
            .unwrap_or_else(|| PathBuf::from("results/progress"));
        Runner {
            jobs,
            cache_dir: Some(cache_dir_from_env()),
            read_cache: !no_cache,
            progress_dir: Some(progress_dir),
        }
    }

    /// A fully explicit runner (used by the determinism tests): `jobs`
    /// workers, optional cache directory, optionally reading existing
    /// entries.
    pub fn with(jobs: usize, cache_dir: Option<PathBuf>, read_cache: bool) -> Runner {
        Runner {
            jobs: jobs.max(1),
            cache_dir,
            read_cache,
            // Explicit runners (tests) never litter progress markers.
            progress_dir: None,
        }
    }

    /// Runs the matrix, returning reports in key order.
    pub fn run_matrix(&self, keys: Vec<RunKey>) -> Vec<RunReport> {
        self.run_jobs(keys.into_iter().map(RunKey::into_job).collect())
    }

    /// Runs arbitrary jobs, returning reports in submission order.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> Vec<RunReport> {
        let started = Instant::now();
        let total = jobs.len();
        let mut slots: Vec<Option<RunReport>> = (0..total).map(|_| None).collect();

        // Pass 1: serve cache hits and collapse duplicate fingerprints, so
        // the pool only ever simulates distinct, unseen configurations.
        let mut misses: Vec<(usize, Job)> = Vec::new();
        let mut dup_of: Vec<(usize, usize)> = Vec::new();
        let mut seen: Vec<(String, usize)> = Vec::new();
        let mut cached = 0usize;
        for (i, job) in jobs.into_iter().enumerate() {
            if let Some(name) = &job.cache_name {
                if let Some(&(_, rep)) = seen.iter().find(|(n, _)| n == name) {
                    dup_of.push((i, rep));
                    continue;
                }
                if self.read_cache {
                    if let Some(report) = self.cache_read(name) {
                        eprintln!("[runner] {}: cached", job.label);
                        cached += 1;
                        slots[i] = Some(report);
                        continue;
                    }
                }
                seen.push((name.clone(), i));
            }
            misses.push((i, job));
        }

        // Pass 2: simulate the misses on the worker pool.
        let n_misses = misses.len();
        if n_misses > 0 {
            let workers = self.jobs.min(n_misses);
            let queue: Vec<Mutex<Option<(usize, Job)>>> =
                misses.into_iter().map(|m| Mutex::new(Some(m))).collect();
            let next = AtomicUsize::new(0);
            let done = AtomicUsize::new(0);
            let results: Vec<Mutex<Option<FinishedRun>>> =
                (0..n_misses).map(|_| Mutex::new(None)).collect();
            let (queue_ref, next_ref, done_ref, results_ref, started_ref) =
                (&queue, &next, &done, &results, &started);
            let progress_ref = &self.progress_dir;
            std::thread::scope(|scope| {
                for wid in 0..workers {
                    scope.spawn(move || loop {
                        let q = next_ref.fetch_add(1, Ordering::Relaxed);
                        if q >= n_misses {
                            break;
                        }
                        let (slot, job) =
                            queue_ref[q].lock().unwrap().take().expect("job taken once");
                        eprintln!("[runner] w{wid:02} start {}", job.label);
                        write_progress(progress_ref, &job.label, wid, ProgressState::Running);
                        blackbox::set_label(&job.label);
                        blackbox::record(
                            blackbox::EventKind::RunStart,
                            dylect_sim_core::kv::fingerprint64(&job.label),
                            wid as u64,
                        );
                        let t0 = Instant::now();
                        let mut fail = FailMarker {
                            dir: progress_ref,
                            label: &job.label,
                            wid,
                            t0,
                            armed: true,
                        };
                        let report = (job.work)();
                        fail.armed = false;
                        let job_secs = t0.elapsed().as_secs_f64();
                        blackbox::record(
                            blackbox::EventKind::RunEnd,
                            dylect_sim_core::kv::fingerprint64(&job.label),
                            wid as u64,
                        );
                        if prof::enabled() {
                            let busy = t0.elapsed().as_nanos() as u64;
                            prof::worker_busy(prof::WorkerKind::Runner, wid, busy, 1);
                        }
                        write_progress(
                            progress_ref,
                            &job.label,
                            wid,
                            ProgressState::Done(job_secs),
                        );
                        let finished = done_ref.fetch_add(1, Ordering::Relaxed) + 1;
                        let wall = started_ref.elapsed().as_secs_f64();
                        eprintln!(
                            "[runner] w{wid:02} done  {}: {job_secs:.1}s ({finished}/{n_misses} sims, {:.2} sims/s)",
                            job.label,
                            finished as f64 / wall.max(1e-9),
                        );
                        *results_ref[q].lock().unwrap() = Some((slot, job.cache_name, report));
                    });
                }
            });
            for cell in results {
                let (slot, cache_name, report) =
                    cell.into_inner().unwrap().expect("worker filled result");
                if let Some(name) = &cache_name {
                    self.cache_write(name, &report);
                }
                slots[slot] = Some(report);
            }
        }

        // Pass 3: fill duplicate keys from their representative's report.
        for (dup, rep) in dup_of {
            slots[dup] = Some(slots[rep].clone().expect("representative ran"));
        }

        if total > 1 {
            eprintln!(
                "[runner] {total} runs ({cached} cached, {} deduped, {n_misses} simulated) in {:.1}s on {} worker(s)",
                total - cached - n_misses,
                started.elapsed().as_secs_f64(),
                self.jobs.min(n_misses.max(1)),
            );
        }
        slots.into_iter().map(|s| s.expect("slot filled")).collect()
    }

    fn cache_path(&self, name: &str) -> Option<PathBuf> {
        Some(self.cache_dir.as_ref()?.join(format!("{name}.report")))
    }

    fn cache_read(&self, name: &str) -> Option<RunReport> {
        let _p = prof::scope(prof::HostPhase::CacheRead);
        let text = fs::read_to_string(self.cache_path(name)?).ok()?;
        RunReport::from_cache_text(&text)
    }

    fn cache_write(&self, name: &str, report: &RunReport) {
        let Some(path) = self.cache_path(name) else {
            return;
        };
        let _p = prof::scope(prof::HostPhase::CacheWrite);
        if let Err(e) = write_atomically(&path, &report.to_cache_text()) {
            // A read-only checkout degrades to uncached, not to failure.
            eprintln!("[runner] warning: could not write {}: {e}", path.display());
        }
    }
}

fn write_atomically(path: &Path, text: &str) -> std::io::Result<()> {
    write_bytes_atomically(path, text.as_bytes())
}

fn write_bytes_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().expect("cache path has a parent");
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    /// `DYLECT_JOBS` uses the shared `env::parse_count` grammar: unset or
    /// blank is the default, a positive integer is kept, and `0` or
    /// garbage is an error naming the variable.
    #[test]
    fn jobs_parsing_accepts_counts_and_rejects_garbage() {
        assert_eq!(parse_jobs(None), Ok(None));
        assert_eq!(parse_jobs(Some("")), Ok(None));
        assert_eq!(parse_jobs(Some("   ")), Ok(None));
        assert_eq!(parse_jobs(Some("1")), Ok(Some(1)));
        assert_eq!(parse_jobs(Some(" 8 ")), Ok(Some(8)));
        for bad in ["0", "four", "-2", "2.5", "0x10"] {
            let err = parse_jobs(Some(bad)).unwrap_err();
            assert!(err.contains("DYLECT_JOBS"), "{bad}: {err}");
        }
    }

    #[test]
    fn no_cache_env_is_strict_parsed() {
        assert_eq!(parse_no_cache(false, None), Ok(false));
        assert_eq!(parse_no_cache(false, Some("false")), Ok(false));
        assert_eq!(parse_no_cache(false, Some("0")), Ok(false));
        assert_eq!(parse_no_cache(false, Some("true")), Ok(true));
        assert_eq!(parse_no_cache(true, Some("false")), Ok(true));
        for bad in ["yes", "no", "2"] {
            let err = parse_no_cache(true, Some(bad)).expect_err(bad);
            assert!(err.contains("DYLECT_NO_CACHE"), "{err}");
        }
    }

    /// Every directory variable goes through `env::parse_dir`: unset is
    /// `None`, a path is kept, and a blank value is a typo naming the
    /// variable.
    fn assert_dir_parsing(name: &str) {
        assert_eq!(env::parse_dir(name, None), Ok(None), "{name}");
        assert_eq!(
            env::parse_dir(name, Some("results/dir")),
            Ok(Some(PathBuf::from("results/dir"))),
            "{name}"
        );
        for blank in ["", "   "] {
            let err = env::parse_dir(name, Some(blank)).expect_err("blank is a typo");
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn cache_dir_parsing_accepts_paths_and_rejects_blank() {
        assert_dir_parsing("DYLECT_CACHE_DIR");
    }

    #[test]
    fn checkpoint_dir_parsing_accepts_paths_and_rejects_blank() {
        assert_dir_parsing("DYLECT_CHECKPOINT_DIR");
    }

    #[test]
    fn progress_dir_parsing_accepts_paths_and_rejects_blank() {
        assert_dir_parsing("DYLECT_PROGRESS_DIR");
    }

    /// Progress markers are flat JSON a `parse_flat_object` consumer
    /// (dylect-serve) can read back, for both lifecycle states.
    #[test]
    fn progress_markers_round_trip_through_flat_json() {
        let dir = std::env::temp_dir().join(format!("dylect-progress-test-{}", std::process::id()));
        let dir_opt = Some(dir.clone());
        write_progress(&dir_opt, "omnetpp/dylect/high", 2, ProgressState::Running);
        let path = dir.join(format!("{}.run.json", sanitize("omnetpp/dylect/high")));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"state\":\"running\""), "{text}");
        assert!(text.contains("\"wid\":2"), "{text}");
        write_progress(&dir_opt, "omnetpp/dylect/high", 2, ProgressState::Done(1.5));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"state\":\"done\""), "{text}");
        assert!(text.contains("\"secs\":1.500"), "{text}");
        write_progress(
            &dir_opt,
            "omnetpp/dylect/high",
            2,
            ProgressState::Failed(0.25),
        );
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"state\":\"failed\""), "{text}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A job whose work panics must flip its marker to the terminal
    /// `failed` state — not leave it rotting at `running`, which the serve
    /// UI would report as live forever.
    #[test]
    fn a_panicking_job_leaves_a_failed_marker_not_a_stale_running_one() {
        let dir = std::env::temp_dir().join(format!("dylect-failmark-test-{}", std::process::id()));
        let runner = Runner {
            jobs: 1,
            cache_dir: None,
            read_cache: false,
            progress_dir: Some(dir.clone()),
        };
        let jobs = vec![Job {
            label: "boom".to_owned(),
            cache_name: None,
            work: Box::new(|| panic!("injected job failure")),
        }];
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run_jobs(jobs)));
        assert!(outcome.is_err(), "the panic propagates to the caller");
        let text = fs::read_to_string(dir.join("boom.run.json")).unwrap();
        assert!(text.contains("\"state\":\"failed\""), "{text}");
        assert!(text.contains("\"run\":\"boom\""), "{text}");
        assert!(
            text.contains("\"secs\":"),
            "terminal markers carry a duration: {text}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// Regression test: a cached report produced without profiling must not
    /// satisfy a `DYLECT_PROF=1` run (which also emits host `.prof.jsonl`
    /// artifacts a hit would skip), so the prof env var perturbs the cache
    /// fingerprint. (This test owns `DYLECT_PROF` mutation in this binary.)
    #[test]
    fn fingerprint_tracks_prof_env_var() {
        let key = RunKey::new(
            BenchmarkSpec::by_name("omnetpp").expect("in suite"),
            SchemeKind::dylect(),
            CompressionSetting::High,
            Mode::quick(),
        );
        std::env::remove_var("DYLECT_PROF");
        let base = key.fingerprint();
        let base_ckpt = key.checkpoint_fingerprint();
        let base_custom = Job::custom("p", "x", || unreachable!("job never runs")).cache_name;

        std::env::set_var("DYLECT_PROF", "1");
        assert_ne!(key.fingerprint(), base, "profiling changes the key");
        assert_eq!(
            key.checkpoint_fingerprint(),
            base_ckpt,
            "checkpoints stay shared across profiling settings"
        );
        assert_ne!(
            Job::custom("p", "x", || unreachable!("job never runs")).cache_name,
            base_custom,
            "custom jobs fingerprint DYLECT_PROF too"
        );

        std::env::remove_var("DYLECT_PROF");
        assert_eq!(key.fingerprint(), base, "restoring the env restores it");
    }

    /// Regression test: a cached report produced without checkpointing must
    /// not satisfy a warm-start sweep (which expects execution to populate
    /// the checkpoint), so `DYLECT_CHECKPOINT_DIR` perturbs the cache
    /// fingerprint — but never the *checkpoint* fingerprint, which must
    /// stay shared across measure windows and telemetry settings. (This
    /// test owns `DYLECT_CHECKPOINT_DIR` mutation in this binary.)
    #[test]
    fn fingerprint_tracks_checkpoint_env_but_checkpoint_key_does_not() {
        let key = RunKey::new(
            BenchmarkSpec::by_name("omnetpp").expect("in suite"),
            SchemeKind::dylect(),
            CompressionSetting::High,
            Mode::quick(),
        );
        std::env::remove_var("DYLECT_CHECKPOINT_DIR");
        let base = key.fingerprint();
        let base_ckpt = key.checkpoint_fingerprint();

        std::env::set_var("DYLECT_CHECKPOINT_DIR", "results/ckpt");
        assert_ne!(key.fingerprint(), base, "checkpointing changes the key");
        assert_eq!(
            key.checkpoint_fingerprint(),
            base_ckpt,
            "the checkpoint's own identity is env-independent"
        );
        std::env::remove_var("DYLECT_CHECKPOINT_DIR");
        assert_eq!(key.fingerprint(), base, "restoring the env restores it");

        // Sweep bins differing only in the measurement window share one
        // warmup checkpoint; a different warmup prefix must not.
        let mut longer = key.clone();
        longer.mode.measure_ops *= 2;
        assert_eq!(longer.checkpoint_fingerprint(), base_ckpt);
        assert_ne!(longer.fingerprint(), key.fingerprint());
        let other_scheme = RunKey::new(
            key.spec.clone(),
            SchemeKind::tmcc(),
            CompressionSetting::High,
            Mode::quick(),
        );
        assert_ne!(other_scheme.checkpoint_fingerprint(), base_ckpt);
    }

    /// A checkpoint round trip through `execute`: the first run populates
    /// the shared checkpoint, the second warm-starts from it, and both
    /// reports are byte-identical to an uncheckpointed run.
    #[test]
    fn execute_warm_starts_from_a_shared_checkpoint() {
        let key = RunKey::new(
            BenchmarkSpec::by_name("omnetpp").expect("in suite"),
            SchemeKind::dylect(),
            CompressionSetting::High,
            Mode::quick(),
        );
        let cold = key.execute();
        let dir = std::env::temp_dir().join(format!("dylect-ckpt-test-{}", std::process::id()));
        let stem = format!(
            "{}-{:016x}",
            sanitize(&key.label()),
            key.checkpoint_fingerprint()
        );
        // Drive the checkpoint path directly (no env mutation: other tests
        // in this binary read the environment concurrently).
        let warmup = warmup_for(&key.spec, key.mode);
        let mut donor = System::new(key.config(), &key.spec);
        let snap = donor.warm_up_and_snapshot(warmup);
        write_bytes_atomically(&dir.join(format!("{stem}.ckpt")), &snap).unwrap();
        donor.start_measurement();
        donor.execute(key.mode.measure_ops);
        assert_eq!(donor.finish().to_cache_text(), cold.to_cache_text());

        let mut warm = System::new(key.config(), &key.spec);
        let bytes = fs::read(dir.join(format!("{stem}.ckpt"))).unwrap();
        let resumed = warm
            .resume_measurement(&bytes, key.mode.measure_ops)
            .expect("checkpoint restores");
        assert_eq!(resumed.to_cache_text(), cold.to_cache_text());
        fs::remove_dir_all(&dir).ok();
    }

    /// Regression test: a digest-enabled run exports a `.digest.jsonl`
    /// stream a cache hit would skip, and a perturbed run's report is
    /// deliberately corrupted — both env vars must perturb the cache
    /// fingerprint. (This test owns `DYLECT_DIGEST`/`DYLECT_DIGEST_PERTURB`
    /// mutation in this binary.)
    #[test]
    fn fingerprint_tracks_digest_env_vars() {
        let key = RunKey::new(
            BenchmarkSpec::by_name("omnetpp").expect("in suite"),
            SchemeKind::dylect(),
            CompressionSetting::High,
            Mode::quick(),
        );
        std::env::remove_var("DYLECT_DIGEST");
        std::env::remove_var("DYLECT_DIGEST_PERTURB");
        let base = key.fingerprint();
        let base_ckpt = key.checkpoint_fingerprint();

        std::env::set_var("DYLECT_DIGEST", "1");
        let with_digest = key.fingerprint();
        assert_ne!(with_digest, base, "digest capture changes the key");
        std::env::set_var("DYLECT_DIGEST_PERTURB", "6400");
        assert_ne!(
            key.fingerprint(),
            with_digest,
            "perturbation changes it again"
        );
        assert_eq!(
            key.checkpoint_fingerprint(),
            base_ckpt,
            "warmup checkpoints stay shared across digest settings"
        );

        std::env::remove_var("DYLECT_DIGEST");
        std::env::remove_var("DYLECT_DIGEST_PERTURB");
        assert_eq!(key.fingerprint(), base, "restoring the env restores it");
    }

    /// Regression test: a scenario run simulates a different machine
    /// (tenant mix, nested walks, events), so `DYLECT_SCENARIO` must
    /// perturb the cache fingerprint; and the nested-walk key override
    /// must never share an entry with the flat run. (This test owns
    /// `DYLECT_SCENARIO` mutation in this binary.)
    #[test]
    fn fingerprint_tracks_scenario_env_and_nested_override() {
        let key = RunKey::new(
            BenchmarkSpec::by_name("omnetpp").expect("in suite"),
            SchemeKind::dylect(),
            CompressionSetting::High,
            Mode::quick(),
        );
        std::env::remove_var("DYLECT_SCENARIO");
        let base = key.fingerprint();

        std::env::set_var("DYLECT_SCENARIO", "tenants=omnetpp,mcf");
        assert_ne!(key.fingerprint(), base, "a scenario changes the key");
        std::env::remove_var("DYLECT_SCENARIO");
        assert_eq!(key.fingerprint(), base, "restoring the env restores it");

        let nested = key.clone().with_nested();
        assert_ne!(nested.fingerprint(), base, "2D walks change the key");
        assert!(nested.label().ends_with("/nested"));
        assert!(nested.config().core.nested_walk);
    }

    /// Regression test: a cached report produced under one telemetry
    /// configuration must not satisfy a run under another, so the
    /// telemetry env vars must perturb the cache fingerprint. (This test
    /// owns `DYLECT_SPAN_SAMPLE`/`DYLECT_SHADOW` mutation in this binary;
    /// keep it the only one touching them to avoid cross-test races.)
    #[test]
    fn fingerprint_tracks_telemetry_env_vars() {
        let key = RunKey::new(
            BenchmarkSpec::by_name("omnetpp").expect("in suite"),
            SchemeKind::dylect(),
            CompressionSetting::High,
            Mode::quick(),
        );
        std::env::remove_var("DYLECT_SPAN_SAMPLE");
        std::env::remove_var("DYLECT_SHADOW");
        let base = key.fingerprint();
        let base_custom = Job::custom("t", "x", || unreachable!("job never runs")).cache_name;

        std::env::set_var("DYLECT_SPAN_SAMPLE", "64");
        assert_ne!(key.fingerprint(), base, "span sampling changes the key");
        std::env::set_var("DYLECT_SHADOW", "1");
        let both = key.fingerprint();
        assert_ne!(both, base);
        assert_ne!(
            Job::custom("t", "x", || unreachable!("job never runs")).cache_name,
            base_custom,
            "custom jobs fingerprint the env too"
        );

        std::env::remove_var("DYLECT_SPAN_SAMPLE");
        std::env::remove_var("DYLECT_SHADOW");
        assert_eq!(key.fingerprint(), base, "restoring the env restores it");
        assert_eq!(
            Job::custom("t", "x", || unreachable!("job never runs")).cache_name,
            base_custom
        );
    }
}
