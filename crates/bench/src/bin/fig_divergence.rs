//! First-divergence bisection demo.
//!
//! Demonstrates (and lets `tools/verify.sh` assert) the full state-digest
//! localization pipeline on a known fault: a base run and a run with a
//! single spurious L3-miss count injected at op [`PERTURB_AT`] are
//! compared window-by-window to find the first diverging window and
//! component, then re-executed with op-level digests over that window to
//! name the exact first diverging operation. Streams land under
//! `--out DIR` (default `results/divergence`) as `bisect-*.jsonl`. On a
//! divergence the always-on flight recorder dumps its ring to
//! `results/blackbox/` for post-mortem context.
//!
//! Digest capture is process-global and the streams are the artifact, so
//! these runs bypass the runner and its report cache.

use std::path::{Path, PathBuf};

use dylect_bench::{Mode, RunKey};
use dylect_sim::{SchemeKind, System};
use dylect_sim_core::blackbox;
use dylect_sim_core::digest::{self, first_difference, DigestRecord};
use dylect_sim_core::env::or_usage_exit;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// Retired-op index where the demo injects its one-bit fault. A
/// multiple of the 256-op drain batch, so the batched, per-op, and replay
/// paths all fire it at the same op count; sits inside window 2, so
/// window 1 pins the agreement prefix.
const PERTURB_AT: u64 = 6_400;

/// Digest window length for these demos: op-scale resolution matters
/// more than throughput here, so every system shrinks its window from
/// the coarse production default (`digest::DEFAULT_WINDOW_OPS`).
const FIG_WINDOW: u64 = 4_096;

fn write_stream(path: &Path, records: &[DigestRecord]) {
    let mut body = String::new();
    for r in records {
        body.push_str(&r.to_jsonl_line());
        body.push('\n');
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("[fig_divergence] write failed {}: {e}", path.display()),
    }
}

/// First diverging record between two equal-length digest streams:
/// `(index, component)`.
fn first_divergence(a: &[DigestRecord], b: &[DigestRecord]) -> Option<(usize, String)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find_map(|(i, (ra, rb))| first_difference(ra, rb).map(|c| (i, c)))
}

fn bisect(key: &RunKey, out_dir: &Path) -> u8 {
    // One agreement window, the perturbed window, and one window of
    // propagated divergence.
    let total = 3 * FIG_WINDOW;
    let run = |perturb: Option<u64>| {
        let mut sys = System::new(key.config(), &key.spec);
        sys.set_digest_window(FIG_WINDOW);
        sys.arm_perturb(perturb);
        sys.execute(total);
        sys.take_digests()
    };
    let base = run(None);
    let hurt = run(Some(PERTURB_AT));
    write_stream(&out_dir.join("bisect-base.digest.jsonl"), &base);
    write_stream(&out_dir.join("bisect-perturbed.digest.jsonl"), &hurt);

    let Some((wi, component)) = first_divergence(&base, &hurt) else {
        println!("streams are identical: the injected perturbation was not observed");
        return 1;
    };
    let window = hurt[wi].window;
    println!("first diverging window: {window} (component {component})");
    blackbox::record(blackbox::EventKind::DigestMismatch, window, 0);

    // Op-level refinement: re-execute both runs from cold up to the end
    // of the diverging window, capturing a digest after every op.
    let end = hurt[wi].ops_retired;
    let replay = |perturb: Option<u64>| {
        let mut sys = System::new(key.config(), &key.spec);
        sys.set_digest_window(FIG_WINDOW);
        sys.arm_perturb(perturb);
        sys.execute_op_digests(end, 0);
        sys.take_digests()
    };
    let base_ops = replay(None);
    let hurt_ops = replay(Some(PERTURB_AT));
    write_stream(&out_dir.join("bisect-base.opdigest.jsonl"), &base_ops);
    write_stream(&out_dir.join("bisect-perturbed.opdigest.jsonl"), &hurt_ops);

    let Some((oi, op_component)) = first_divergence(&base_ops, &hurt_ops) else {
        println!("op replay did not reproduce the window divergence");
        return 1;
    };
    let op = hurt_ops[oi].op.expect("op-level records carry op indices");
    println!("first diverging op: {op} (component {op_component})");
    // Re-record the verdict just before dumping: the op-level replay above
    // logged one ring event per captured op, which can flush the
    // window-time mismatch record out of the bounded ring.
    blackbox::record(blackbox::EventKind::DigestMismatch, window, op);
    match blackbox::dump("digest-mismatch") {
        Ok(p) => println!("flight recorder dumped to {}", p.display()),
        Err(e) => eprintln!("[fig_divergence] blackbox dump failed: {e}"),
    }

    // The demo localized the fault iff it names the injection exactly.
    if op == PERTURB_AT && op_component == "cache" {
        println!("bisect ok: localized the injected fault to op {PERTURB_AT}, component cache");
        0
    } else {
        println!(
            "bisect FAILED: expected op {PERTURB_AT} component cache, \
             got op {op} component {op_component}"
        );
        1
    }
}

fn main() {
    let mode = Mode::from_env();
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let bench = flag("--bench").unwrap_or_else(|| "omnetpp".to_owned());
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "results/divergence".to_owned()));
    let spec = BenchmarkSpec::by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench}");
        std::process::exit(2);
    });

    // Strict-parse DYLECT_DIGEST (garbage exits 2), then force capture on:
    // the digest streams *are* this binary's output.
    or_usage_exit(digest::init_from_env());
    digest::set_enabled(true);
    // Any crash from here on leaves a flight-recorder dump behind.
    blackbox::install_panic_hook();
    blackbox::set_label(&format!("fig_divergence-{bench}"));

    let key = RunKey::new(spec, SchemeKind::dylect(), CompressionSetting::High, mode);
    std::process::exit(bisect(&key, &out_dir) as i32);
}
