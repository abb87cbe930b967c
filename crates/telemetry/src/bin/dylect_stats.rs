//! `dylect-stats` — inspect and compare simulator telemetry exports.
//!
//! ```text
//! dylect-stats dump <file>
//! dylect-stats summary <file>
//! dylect-stats diff <a> <b> [--abs-tol X] [--rel-tol Y]
//! ```
//!
//! Two file kinds are understood:
//!
//! - `*.jsonl` telemetry exports (`<stem>.series.jsonl`,
//!   `<stem>.events.jsonl`, `<stem>.latency.jsonl`) — flat JSON objects,
//!   one per line;
//! - `*.report` run-report cache records (the `KvWriter` format used under
//!   `results/cache/`), where floats are stored as exact bit patterns.
//!
//! `summary` renders series files as per-series aggregates and latency
//! files as percentile (p50/p95/p99/p999) and component-total tables.
//!
//! `diff` compares two files of the same kind; numeric fields may differ by
//! at most the configured tolerances (`--abs-tol`, `--rel-tol`: finite and
//! non-negative, both defaulting to 0 = exact). Exit codes distinguish the
//! failure modes so CI gates can react differently to drift vs. schema
//! changes: 0 when identical within tolerance, 1 when a shared metric is
//! out of tolerance, 2 on usage or I/O errors, 3 when the only differences
//! are missing metrics/rows (present on one side only).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use dylect_telemetry::diff::{diff, fmt_value, load, outcome, Parsed, Tolerance};
use dylect_telemetry::export::FlatValue;

/// Writes one line to stdout, dying quietly with the conventional SIGPIPE
/// status when the downstream reader has gone away (`dylect-stats dump … |
/// head` must not panic).
fn outln_impl(args: std::fmt::Arguments) {
    let mut out = std::io::stdout().lock();
    if out
        .write_fmt(args)
        .and_then(|()| out.write_all(b"\n"))
        .is_err()
    {
        std::process::exit(141);
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { outln_impl(format_args!($($arg)*)) };
}

fn dump(parsed: &Parsed) {
    match parsed {
        Parsed::Jsonl(rows) => {
            for row in rows {
                let fields: Vec<String> = row
                    .iter()
                    .map(|(k, v)| format!("{k}={}", fmt_value(v)))
                    .collect();
                outln!("{}", fields.join(" "));
            }
        }
        Parsed::Report(map) => {
            for (k, v) in map {
                outln!("{k} = {v}");
            }
        }
    }
}

/// Renders latency-export rows (`"hist":"latency"` histograms and
/// `"hist":"components"` totals); returns whether anything was printed.
fn latency_summary(rows: &[BTreeMap<String, FlatValue>]) -> bool {
    let get_str = |row: &BTreeMap<String, FlatValue>, key: &str| -> String {
        row.get(key)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    };
    let get_num = |row: &BTreeMap<String, FlatValue>, key: &str| -> f64 {
        row.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    let hists: Vec<_> = rows
        .iter()
        .filter(|r| r.get("hist").and_then(|v| v.as_str()) == Some("latency"))
        .collect();
    let mut printed = false;
    if !hists.is_empty() {
        outln!(
            "{:<5} {:<10} {:<5} {:<14} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "scope",
            "class",
            "level",
            "path",
            "count",
            "mean_ns",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "p999_ns"
        );
        for row in &hists {
            outln!(
                "{:<5} {:<10} {:<5} {:<14} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
                get_str(row, "scope"),
                get_str(row, "class"),
                get_str(row, "level"),
                get_str(row, "path"),
                get_num(row, "count"),
                get_num(row, "mean_ps") / 1000.0,
                get_num(row, "p50_ps") / 1000.0,
                get_num(row, "p95_ps") / 1000.0,
                get_num(row, "p99_ps") / 1000.0,
                get_num(row, "p999_ps") / 1000.0,
            );
        }
        printed = true;
    }
    let comps: Vec<_> = rows
        .iter()
        .filter(|r| r.get("hist").and_then(|v| v.as_str()) == Some("components"))
        .collect();
    if !comps.is_empty() {
        if printed {
            outln!("");
        }
        outln!(
            "{:<5} {:<14} {:>14} {:>10}",
            "scope",
            "component",
            "total_us",
            "records"
        );
        for row in &comps {
            outln!(
                "{:<5} {:<14} {:>14.3} {:>10}",
                get_str(row, "scope"),
                get_str(row, "component"),
                get_num(row, "total_ps") / 1e6,
                get_num(row, "records"),
            );
        }
        printed = true;
    }
    if let Some(spans) = rows
        .iter()
        .find(|r| r.get("hist").and_then(|v| v.as_str()) == Some("spans"))
    {
        outln!(
            "spans: {} retained, {} dropped",
            get_num(spans, "retained"),
            get_num(spans, "dropped")
        );
        printed = true;
    }
    printed
}

/// Renders shadow-export rows (`"shadow"` miss-class/config tables and
/// `"page_life"` lifetime/ping-pong/residency tables); returns whether
/// anything was printed.
fn shadow_summary(rows: &[BTreeMap<String, FlatValue>]) -> bool {
    let get_str = |row: &BTreeMap<String, FlatValue>, key: &str| -> String {
        row.get(key)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    };
    let get_num = |row: &BTreeMap<String, FlatValue>, key: &str| -> f64 {
        row.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    let of_kind = |disc: &str, kind: &str| -> Vec<&BTreeMap<String, FlatValue>> {
        rows.iter()
            .filter(|r| r.get(disc).and_then(|v| v.as_str()) == Some(kind))
            .collect()
    };
    let mut printed = false;
    let classes = of_kind("shadow", "miss_class");
    if !classes.is_empty() {
        outln!(
            "{:<12} {:>10} {:>11} {:>11} {:>10} {:>10}",
            "cte_kind",
            "hits",
            "misses",
            "compulsory",
            "capacity",
            "conflict"
        );
        for row in &classes {
            outln!(
                "{:<12} {:>10} {:>11} {:>11} {:>10} {:>10}",
                get_str(row, "kind"),
                get_num(row, "real_hits"),
                get_num(row, "real_misses"),
                get_num(row, "compulsory"),
                get_num(row, "capacity"),
                get_num(row, "conflict"),
            );
        }
        printed = true;
    }
    let configs = of_kind("shadow", "config");
    if !configs.is_empty() {
        if printed {
            outln!("");
        }
        outln!(
            "{:<12} {:>12} {:>5} {:>11} {:>11} {:>9}",
            "config",
            "capacity_kib",
            "ways",
            "hits",
            "lookups",
            "hit_rate"
        );
        for row in &configs {
            let cap = get_num(row, "capacity_bytes");
            let cap = if cap == 0.0 {
                "inf".to_owned()
            } else {
                format!("{:.0}", cap / 1024.0)
            };
            let ways = get_num(row, "ways");
            let ways = if ways == 0.0 {
                "full".to_owned()
            } else {
                format!("{ways:.0}")
            };
            outln!(
                "{:<12} {:>12} {:>5} {:>11} {:>11} {:>9.4}",
                get_str(row, "config"),
                cap,
                ways,
                get_num(row, "hits"),
                get_num(row, "lookups"),
                get_num(row, "hit_rate"),
            );
        }
        printed = true;
    }
    let levels = of_kind("page_life", "level");
    if !levels.is_empty() {
        if printed {
            outln!("");
        }
        outln!(
            "{:<6} {:>14} {:>15} {:>10}",
            "level",
            "dwell_ops",
            "resident_pages",
            "entries"
        );
        for row in &levels {
            outln!(
                "{:<6} {:>14} {:>15} {:>10}",
                get_str(row, "level"),
                get_num(row, "dwell_ops"),
                get_num(row, "resident_pages"),
                get_num(row, "entries"),
            );
        }
        printed = true;
    }
    if let Some(pp) = of_kind("page_life", "pingpong").first() {
        outln!(
            "pages: {} tracked, {} ping-ponging",
            get_num(pp, "pages_tracked"),
            get_num(pp, "pingpong_pages")
        );
        printed = true;
    }
    let top = of_kind("page_life", "top");
    if !top.is_empty() {
        outln!(
            "{:<5} {:>4} {:>12} {:>7} {:>14} {:>11} {:>10}",
            "rank",
            "mc",
            "page",
            "trips",
            "pingpong_evts",
            "promotions",
            "demotions"
        );
        for row in &top {
            outln!(
                "{:<5} {:>4} {:>12} {:>7} {:>14} {:>11} {:>10}",
                get_num(row, "rank"),
                get_num(row, "mc"),
                get_num(row, "page"),
                get_num(row, "trips"),
                get_num(row, "pingpong_events"),
                get_num(row, "promotions"),
                get_num(row, "demotions"),
            );
        }
        printed = true;
    }
    let residency = of_kind("page_life", "residency");
    if !residency.is_empty() {
        let buckets: Vec<String> = residency
            .iter()
            .map(|r| format!("{}:{}", get_num(r, "peak"), get_num(r, "groups")))
            .collect();
        outln!("ml0 residency peaks (peak:groups): {}", buckets.join(" "));
        printed = true;
    }
    printed
}

/// Renders self-profiler rows (`"prof_phase"` timers, `"prof_worker"`
/// busy/utilization, one `"prof_summary"`); returns whether anything was
/// printed. Wall-clock percentages use the `wall_ns` meta field from the
/// summary row when present, and ns/op uses `measure_ops`.
fn prof_summary(rows: &[BTreeMap<String, FlatValue>]) -> bool {
    let get_str = |row: &BTreeMap<String, FlatValue>, key: &str| -> String {
        row.get(key)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    };
    let get_num = |row: &BTreeMap<String, FlatValue>, key: &str| -> f64 {
        row.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    let phases: Vec<_> = rows
        .iter()
        .filter(|r| r.contains_key("prof_phase"))
        .collect();
    if phases.is_empty() {
        return false;
    }
    let meta = rows.iter().find(|r| r.contains_key("prof_summary"));
    let wall_ns = meta.map_or(0.0, |m| get_num(m, "wall_ns"));
    let measure_ops = meta.map_or(0.0, |m| get_num(m, "measure_ops"));
    outln!(
        "{:<16} {:<8} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "phase",
        "kind",
        "est_calls",
        "est_ms",
        "ns/call",
        "pct_wall",
        "ns/op"
    );
    for row in &phases {
        let est_ns = get_num(row, "est_ns");
        let est_calls = get_num(row, "est_calls");
        let ns_per_call = if est_calls > 0.0 {
            est_ns / est_calls
        } else {
            0.0
        };
        let pct = if wall_ns > 0.0 {
            format!("{:.1}", 100.0 * est_ns / wall_ns)
        } else {
            "-".to_owned()
        };
        let ns_per_op = if measure_ops > 0.0 {
            format!("{:.2}", est_ns / measure_ops)
        } else {
            "-".to_owned()
        };
        outln!(
            "{:<16} {:<8} {:>12} {:>12.3} {:>10.1} {:>9} {:>9}",
            get_str(row, "prof_phase"),
            get_str(row, "kind"),
            est_calls,
            est_ns / 1e6,
            ns_per_call,
            pct,
            ns_per_op,
        );
    }
    let workers: Vec<_> = rows
        .iter()
        .filter(|r| r.contains_key("prof_worker"))
        .collect();
    if !workers.is_empty() {
        outln!("");
        outln!(
            "{:<8} {:>4} {:>12} {:>12} {:>9}",
            "pool",
            "wid",
            "busy_ms",
            "items",
            "util_pct"
        );
        for row in &workers {
            let busy_ns = get_num(row, "busy_ns");
            let util = if wall_ns > 0.0 {
                format!("{:.1}", 100.0 * busy_ns / wall_ns)
            } else {
                "-".to_owned()
            };
            outln!(
                "{:<8} {:>4} {:>12.3} {:>12} {:>9}",
                get_str(row, "prof_worker"),
                get_num(row, "wid"),
                busy_ns / 1e6,
                get_num(row, "items"),
                util,
            );
        }
    }
    if let Some(meta) = meta {
        outln!(
            "host spans: {} retained, {} dropped",
            get_num(meta, "retained"),
            get_num(meta, "dropped")
        );
    }
    true
}

fn summary(parsed: &Parsed) {
    match parsed {
        Parsed::Jsonl(rows) => {
            if shadow_summary(rows) {
                return;
            }
            if prof_summary(rows) {
                return;
            }
            if latency_summary(rows) {
                return;
            }
            // Group series bins by name; fall back to event kinds.
            let mut groups: BTreeMap<String, (u64, u64, f64, f64, f64)> = BTreeMap::new();
            for row in rows {
                let Some(name) = row.get("series").and_then(|v| v.as_str()) else {
                    continue;
                };
                let count = row.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
                let min = row.get("min").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let max = row.get("max").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let mean = row.get("mean").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let e = groups
                    .entry(name.to_string())
                    .or_insert((0, 0, f64::MAX, f64::MIN, 0.0));
                e.0 += 1;
                e.1 += count;
                e.2 = e.2.min(min);
                e.3 = e.3.max(max);
                e.4 = mean; // last bin's mean wins: the settled value
            }
            if groups.is_empty() {
                outln!("{} rows (no series records)", rows.len());
                return;
            }
            outln!(
                "{:<26} {:>6} {:>9} {:>12} {:>12} {:>12}",
                "series",
                "bins",
                "samples",
                "min",
                "max",
                "last_mean"
            );
            for (name, (bins, samples, min, max, last)) in &groups {
                outln!("{name:<26} {bins:>6} {samples:>9} {min:>12.4} {max:>12.4} {last:>12.4}");
            }
        }
        Parsed::Report(map) => {
            outln!("report record with {} keys", map.len());
            for (k, v) in map {
                outln!("{k} = {v}");
            }
        }
    }
}

const USAGE: &str = "usage:
  dylect-stats dump <file>
  dylect-stats summary <file>
  dylect-stats diff <a> <b> [--abs-tol X] [--rel-tol Y]
  dylect-stats bisect <a.digest.jsonl> <b.digest.jsonl>

diff exit codes: 0 identical within tolerance, 1 metric out of tolerance,
2 usage/IO error, 3 only missing metrics/rows

bisect compares two state-digest streams (window-level `.digest.jsonl` or
op-level `.opdigest.jsonl`) and reports the first diverging record and the
first state component inside it. Exit 0 when the streams agree, 1 on a
divergence, 3 when one stream is a strict prefix of the other";

/// The first divergence between two aligned digest streams: record index,
/// window, op (for op-level streams), diverging component, both hashes.
#[derive(Debug, PartialEq)]
struct Divergence {
    record: usize,
    window: f64,
    op: Option<f64>,
    component: String,
    a: String,
    b: String,
}

/// The state components of one digest row, in divergence-scan order:
/// per-core digests first (numerically sorted), then the shared-side
/// components in the order `DigestRecord::components` emits them.
fn digest_components(row: &BTreeMap<String, FlatValue>) -> Vec<(String, String)> {
    let mut cores: Vec<(usize, &String)> = row
        .keys()
        .filter_map(|k| {
            k.strip_prefix("core")
                .and_then(|n| n.parse().ok())
                .map(|i| (i, k))
        })
        .collect();
    cores.sort();
    let mut out: Vec<(String, String)> = Vec::with_capacity(cores.len() + 7);
    let get =
        |k: &str| -> Option<String> { row.get(k).and_then(|v| v.as_str().map(str::to_owned)) };
    for (_, k) in cores {
        if let Some(v) = get(k) {
            out.push((k.clone(), v));
        }
    }
    for k in [
        "tlb",
        "cache",
        "wb_fifos",
        "dram",
        "scheme",
        "compression",
        "telemetry",
    ] {
        if let Some(v) = get(k) {
            out.push((k.to_owned(), v));
        }
    }
    out
}

/// Scans two digest streams in lockstep for the first diverging record.
/// Rows must align by identity (`window`/`op`); misaligned streams are a
/// usage error, not a divergence.
fn first_stream_divergence(
    rows_a: &[BTreeMap<String, FlatValue>],
    rows_b: &[BTreeMap<String, FlatValue>],
) -> Result<Option<Divergence>, String> {
    let num = |row: &BTreeMap<String, FlatValue>, k: &str| row.get(k).and_then(|v| v.as_f64());
    for (i, (ra, rb)) in rows_a.iter().zip(rows_b).enumerate() {
        let (wa, wb) = (num(ra, "window"), num(rb, "window"));
        let (oa, ob) = (num(ra, "op"), num(rb, "op"));
        if wa != wb || oa != ob {
            return Err(format!(
                "record {i}: streams are misaligned (a: window {wa:?} op {oa:?}, \
                 b: window {wb:?} op {ob:?}); compare runs of the same configuration"
            ));
        }
        let (ca, cb) = (digest_components(ra), digest_components(rb));
        if ca.iter().map(|(k, _)| k).ne(cb.iter().map(|(k, _)| k)) {
            return Err(format!(
                "record {i}: streams carry different components (core-count mismatch?)"
            ));
        }
        if let Some(((name, va), (_, vb))) =
            ca.into_iter().zip(cb).find(|((_, va), (_, vb))| va != vb)
        {
            return Ok(Some(Divergence {
                record: i,
                window: wa.unwrap_or(-1.0),
                op: oa,
                component: name,
                a: va,
                b: vb,
            }));
        }
    }
    Ok(None)
}

/// `dylect-stats bisect`: loads two digest streams and reports the first
/// diverging record + component.
fn bisect(path_a: &str, path_b: &str) -> Result<u8, String> {
    let jsonl_rows = |path: &str| -> Result<Vec<BTreeMap<String, FlatValue>>, String> {
        match load(path)? {
            Parsed::Jsonl(rows) => Ok(rows
                .into_iter()
                .filter(|r| r.contains_key("digest"))
                .collect()),
            Parsed::Report(_) => Err(format!("{path}: not a digest stream (.jsonl expected)")),
        }
    };
    let rows_a = jsonl_rows(path_a)?;
    let rows_b = jsonl_rows(path_b)?;
    if rows_a.is_empty() || rows_b.is_empty() {
        return Err(format!(
            "no digest records ({path_a}: {}, {path_b}: {}); run with DYLECT_DIGEST=1",
            rows_a.len(),
            rows_b.len()
        ));
    }
    match first_stream_divergence(&rows_a, &rows_b)? {
        Some(d) => {
            let at = match d.op {
                Some(op) => format!("op {op:.0} (window {:.0})", d.window),
                None => format!("window {:.0}", d.window),
            };
            outln!(
                "first divergence: record {} at {at}, component `{}` ({} vs {})",
                d.record,
                d.component,
                d.a,
                d.b
            );
            let hint = match d.op {
                Some(_) => "this is the exact first diverging operation",
                None => {
                    "re-run both configurations with op-level digests over this window \
                     (as fig_divergence does) to name the exact op"
                }
            };
            outln!("{hint}");
            Ok(1)
        }
        None if rows_a.len() != rows_b.len() => {
            outln!(
                "streams agree on all {} shared records, but lengths differ \
                 ({} vs {})",
                rows_a.len().min(rows_b.len()),
                rows_a.len(),
                rows_b.len()
            );
            Ok(3)
        }
        None => {
            outln!("streams are identical across {} records", rows_a.len());
            Ok(0)
        }
    }
}

/// Parses `diff`'s `--abs-tol X` / `--rel-tol Y` flags. A tolerance is a
/// finite number `>= 0`: a negative one would fail identical values and a
/// NaN every value.
fn parse_tolerance(flags: &[String]) -> Result<Tolerance, String> {
    let mut tol = Tolerance::default();
    for pair in flags.chunks(2) {
        let flag = pair[0].as_str();
        let slot = match flag {
            "--abs-tol" => &mut tol.abs,
            "--rel-tol" => &mut tol.rel,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        };
        let raw = pair.get(1).ok_or_else(|| format!("{flag} needs a value"))?;
        *slot = match raw.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => v,
            _ => {
                return Err(format!(
                    "{flag} {raw}: a tolerance must be a finite number >= 0\n{USAGE}"
                ))
            }
        };
    }
    Ok(tol)
}

fn run(args: &[String]) -> Result<u8, String> {
    match args.first().map(String::as_str) {
        Some("dump") | Some("summary") if args.len() == 2 => {
            let parsed = load(&args[1])?;
            if args[0] == "dump" {
                dump(&parsed);
            } else {
                summary(&parsed);
            }
            Ok(0)
        }
        Some("bisect") if args.len() == 3 => bisect(&args[1], &args[2]),
        Some("diff") if args.len() >= 3 => {
            let tol = parse_tolerance(&args[3..])?;
            let a = load(&args[1])?;
            let b = load(&args[2])?;
            let diffs = diff(&a, &b, &tol);
            if diffs.is_empty() {
                outln!(
                    "identical within tolerance (abs {}, rel {})",
                    tol.abs,
                    tol.rel
                );
                Ok(0)
            } else {
                for d in &diffs {
                    outln!("{}", d.msg);
                }
                let missing = diffs.iter().filter(|d| d.missing).count();
                outln!(
                    "{} difference(s) ({missing} missing metric(s))",
                    diffs.len()
                );
                Ok(outcome(&diffs))
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_telemetry::diff::row_label;
    use dylect_telemetry::export::parse_flat_object;

    /// `diff`'s tolerances are finite and non-negative; anything else is a
    /// usage error (exit 2) naming the flag, raised before any file is read.
    #[test]
    fn diff_tolerances_are_strict() {
        let ok = |abs, rel| Ok(Tolerance { abs, rel });
        let cases: [(&[&str], Result<Tolerance, &str>); 12] = [
            (&[], ok(0.0, 0.0)),
            (&["--abs-tol", "0.5"], ok(0.5, 0.0)),
            (&["--rel-tol", "1e-9", "--abs-tol", "0"], ok(0.0, 1e-9)),
            (&["--abs-tol", "-0"], ok(0.0, 0.0)),
            (&["--abs-tol", "-1"], Err("--abs-tol -1")),
            (&["--rel-tol", "-0.01"], Err("--rel-tol -0.01")),
            (&["--abs-tol", "NaN"], Err("--abs-tol NaN")),
            (&["--rel-tol", "nan"], Err("--rel-tol nan")),
            (&["--abs-tol", "inf"], Err("--abs-tol inf")),
            (&["--rel-tol", "-infinity"], Err("--rel-tol -infinity")),
            (&["--abs-tol", "x"], Err("--abs-tol x")),
            (&["--abs-tol"], Err("--abs-tol needs a value")),
        ];
        for (flags, want) in cases {
            let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
            match (parse_tolerance(&flags), want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{flags:?}"),
                (Err(msg), Err(named)) => {
                    assert!(msg.starts_with(named), "{flags:?}: {msg}");
                    let mut argv = vec!["diff".to_string(), "/nonexistent/a".into(), "b".into()];
                    argv.extend(flags.iter().cloned());
                    assert_eq!(run(&argv), Err(msg), "{flags:?}: rejected before loading");
                }
                (got, want) => panic!("{flags:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn shadow_rows_render_and_label() {
        let rows = vec![
            parse_flat_object(
                r#"{"shadow":"miss_class","kind":"total","real_hits":10,"real_misses":4,"compulsory":2,"capacity":1,"conflict":1}"#,
            )
            .unwrap(),
            parse_flat_object(
                r#"{"shadow":"config","config":"x2_size","capacity_bytes":262144,"ways":8,"hits":12,"lookups":14,"hit_rate":0.857}"#,
            )
            .unwrap(),
            parse_flat_object(
                r#"{"page_life":"level","level":"ml0","dwell_ops":500,"resident_pages":3,"entries":7}"#,
            )
            .unwrap(),
            parse_flat_object(
                r#"{"page_life":"top","rank":0,"mc":0,"page":42,"trips":6,"pingpong_events":2,"promotions":7,"demotions":6}"#,
            )
            .unwrap(),
        ];
        assert!(shadow_summary(&rows), "shadow rows must render");
        let label = row_label(&rows[0], 0);
        assert!(label.contains("shadow=miss_class"), "{label}");
        assert!(label.contains("kind=total"), "{label}");
        let label = row_label(&rows[1], 1);
        assert!(label.contains("config=x2_size"), "{label}");
        let label = row_label(&rows[3], 3);
        assert!(label.contains("page_life=top"), "{label}");
        assert!(label.contains("rank=0"), "{label}");
        // Latency rows are untouched by the shadow renderer.
        let latency =
            vec![parse_flat_object(r#"{"hist":"latency","scope":"mem","count":1}"#).unwrap()];
        assert!(!shadow_summary(&latency));
    }

    #[test]
    fn prof_rows_render_and_other_rows_do_not() {
        let rows = vec![
            parse_flat_object(
                r#"{"prof_phase":"batch_step","kind":"exact","ns":1000,"calls":4,"est_ns":1000,"est_calls":4}"#,
            )
            .unwrap(),
            parse_flat_object(
                r#"{"prof_phase":"dram_access","kind":"sampled","ns":50,"calls":2,"est_ns":1600,"est_calls":64}"#,
            )
            .unwrap(),
            parse_flat_object(r#"{"prof_worker":"drain","wid":0,"busy_ns":700,"items":9}"#)
                .unwrap(),
            parse_flat_object(
                r#"{"prof_summary":"spans","retained":5,"dropped":0,"wall_ns":2000.0,"measure_ops":1000.0}"#,
            )
            .unwrap(),
        ];
        assert!(prof_summary(&rows), "prof rows must render");
        let latency =
            vec![parse_flat_object(r#"{"hist":"latency","scope":"mem","count":1}"#).unwrap()];
        assert!(!prof_summary(&latency));
    }

    fn digest_row(window: u64, op: Option<u64>, cache: &str) -> BTreeMap<String, FlatValue> {
        let kind = if op.is_some() { "op" } else { "window" };
        let op_field = op.map_or(String::new(), |o| format!("\"op\": {o}, "));
        parse_flat_object(&format!(
            "{{\"digest\": \"{kind}\", \"window\": {window}, {op_field}\
             \"ops_retired\": {}, \"core0\": \"00000000000000aa\", \
             \"tlb\": \"00000000000000bb\", \"cache\": \"{cache}\", \
             \"wb_fifos\": \"00000000000000cc\", \"dram\": \"00000000000000dd\", \
             \"scheme\": \"00000000000000ee\", \"compression\": \"00000000000000ff\", \
             \"telemetry\": \"0000000000000000\"}}",
            op.unwrap_or(window * 4096),
        ))
        .unwrap()
    }

    #[test]
    fn bisect_scan_names_the_first_diverging_record_and_component() {
        let a = vec![
            digest_row(1, None, "1111111111111111"),
            digest_row(2, None, "2222222222222222"),
        ];
        let same = first_stream_divergence(&a, &a).unwrap();
        assert_eq!(same, None, "identical streams never diverge");

        let mut b = a.clone();
        b[1].insert(
            "cache".to_owned(),
            parse_flat_object(r#"{"cache": "deaddeaddeaddead"}"#)
                .unwrap()
                .remove("cache")
                .unwrap(),
        );
        let d = first_stream_divergence(&a, &b).unwrap().expect("diverges");
        assert_eq!(d.record, 1);
        assert_eq!(d.window, 2.0);
        assert_eq!(d.op, None);
        assert_eq!(d.component, "cache");
        assert_eq!(d.a, "2222222222222222");
        assert_eq!(d.b, "deaddeaddeaddead");

        // Op-level rows surface the exact op index.
        let oa = vec![digest_row(1, Some(6399), "1111111111111111")];
        let mut ob = oa.clone();
        ob[0].insert(
            "cache".to_owned(),
            parse_flat_object(r#"{"cache": "deaddeaddeaddead"}"#)
                .unwrap()
                .remove("cache")
                .unwrap(),
        );
        let d = first_stream_divergence(&oa, &ob)
            .unwrap()
            .expect("diverges");
        assert_eq!(d.op, Some(6399.0));
        assert_eq!(d.component, "cache");

        // Misaligned identities are an error, not a divergence.
        let shifted = vec![digest_row(3, None, "1111111111111111")];
        assert!(first_stream_divergence(&a, &shifted).is_err());
    }
}
