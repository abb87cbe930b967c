//! `dylect-digest`: the state-digest audit trail.
//!
//! Every determinism guarantee this workspace makes — batched ≡ per-op,
//! restore(n)+k ≡ n+k, prof-on ≡ prof-off — is pinned as byte-identical
//! *final* output, which says **that** two runs diverged but not **where**.
//! This module adds the "where": a rolling 64-bit digest of every mutable
//! state component, captured at fixed op-count windows by reusing the
//! [`crate::snap`] wire format as the hash traversal (no second
//! serializer — the digest of a component is the FNV-1a hash of exactly
//! the bytes its `Snapshot` impl already emits).
//!
//! Design constraints (mirroring [`crate::prof`]):
//!
//! - **Zero cost when off.** The only cost at a digest site with
//!   `DYLECT_DIGEST` unset is one relaxed atomic load.
//! - **On ≡ off.** Digests are write-only observability: nothing computed
//!   here may feed back into simulated state, reports, or the standard
//!   telemetry exports. `tests/determinism.rs` pins this byte-identically.
//! - **<2% overhead when on.** State is hashed once per digest window
//!   ([`DEFAULT_WINDOW_OPS`] retired ops by default), not per op, so the
//!   full-state serialization cost amortizes to well under a nanosecond
//!   per op. `DYLECT_DIGEST=<ops>` selects a finer window when bisection
//!   resolution matters more than throughput.
//!
//! The companion `DYLECT_DIGEST_PERTURB` hook flips one counter at a
//! chosen op boundary so `tools/verify.sh` can prove end-to-end that
//! `dylect-stats bisect` localizes an injected divergence to the exact
//! window, op index, and component.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::snap::{SnapWriter, Snapshot};

/// Default digest window length in retired ops. One full-state capture
/// costs on the order of a millisecond (it serializes every scheme's
/// directory), so the window must be long enough to amortize that under
/// the 2% overhead budget: at 2^20 ops per window the capture cost is
/// roughly 1% of execution. Tests and bisection harnesses that want op-
/// scale resolution shrink the window explicitly (`DYLECT_DIGEST=4096`
/// or [`crate::digest::set_window_ops`]).
pub const DEFAULT_WINDOW_OPS: u64 = 1 << 20;

/// Every window length must divide into the retirement loop's 256-op
/// drain batches, so runs of any length cross window boundaries at
/// identical points.
pub const WINDOW_ALIGN_OPS: u64 = 256;

static WINDOW: AtomicU64 = AtomicU64::new(DEFAULT_WINDOW_OPS);

/// The process-global digest window length (new `System`s snapshot this
/// at construction).
pub fn window_ops() -> u64 {
    WINDOW.load(Ordering::Relaxed)
}

/// Sets the process-global digest window length.
///
/// # Panics
///
/// Panics unless `ops` is a positive multiple of [`WINDOW_ALIGN_OPS`].
pub fn set_window_ops(ops: u64) {
    assert!(
        ops > 0 && ops.is_multiple_of(WINDOW_ALIGN_OPS),
        "digest window must be a positive multiple of {WINDOW_ALIGN_OPS}, got {ops}"
    );
    WINDOW.store(ops, Ordering::Relaxed);
}

/// Streaming FNV-1a 64-bit hasher (same constants as `kv::fingerprint64`,
/// kept byte-at-a-time so digests are independent of chunking).
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u64,
}

impl Hasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Hasher {
            state: Self::OFFSET,
        }
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes whatever `f` writes into a scratch [`SnapWriter`] — the bridge
/// between the snapshot traversal and the digest.
pub fn hash_with(f: impl FnOnce(&mut SnapWriter)) -> u64 {
    let mut w = SnapWriter::new();
    f(&mut w);
    let mut h = Hasher::new();
    h.write(&w.into_bytes());
    h.finish()
}

/// Digest of one component's snapshot bytes.
pub fn hash_snapshot(s: &impl Snapshot) -> u64 {
    hash_with(|w| s.write_snapshot(w))
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is digest capture on? One relaxed load: this is the entire cost of a
/// digest site when capture is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns digest capture on or off programmatically (benches and tests;
/// binaries go through [`init_from_env`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Strict `DYLECT_DIGEST` parser. Unset, empty, `0`, or `false` means
/// off; `1`/`true` means on at [`DEFAULT_WINDOW_OPS`]; a decimal op
/// count that is a positive multiple of [`WINDOW_ALIGN_OPS`] means on at
/// that window length (so bisection harnesses can trade throughput for
/// resolution). Anything else is a usage error (same spirit as
/// `DYLECT_PROF`).
pub fn parse_digest(raw: Option<&str>) -> Result<Option<u64>, String> {
    let usage = |got: &str| {
        format!(
            "DYLECT_DIGEST must be unset, 0, false, 1, true, or a window \
             length in ops (a positive multiple of {WINDOW_ALIGN_OPS}); got {got:?}"
        )
    };
    match raw {
        None => Ok(None),
        Some(s) => match s.trim() {
            "" | "0" | "false" => Ok(None),
            "1" | "true" => Ok(Some(DEFAULT_WINDOW_OPS)),
            other => match other.parse::<u64>() {
                Ok(w) if w > 0 && w.is_multiple_of(WINDOW_ALIGN_OPS) => Ok(Some(w)),
                _ => Err(usage(other)),
            },
        },
    }
}

/// Reads `DYLECT_DIGEST` without applying it: `None` off, `Some(window)`
/// on.
pub fn digest_from_env() -> Result<Option<u64>, String> {
    parse_digest(std::env::var("DYLECT_DIGEST").ok().as_deref())
}

/// Strict `DYLECT_DIGEST_PERTURB` parser: unset or empty means no
/// perturbation, otherwise a decimal op index at which the test-only
/// perturbation hook fires. The armed index is *per system*, not
/// process-global — the consumer (a bisect harness) parses the env var
/// here and arms each `System` it builds explicitly, so a test arming a
/// perturbation can never contaminate an unrelated concurrent run.
pub fn parse_perturb(raw: Option<&str>) -> Result<Option<u64>, String> {
    match raw {
        None => Ok(None),
        Some(s) => match s.trim() {
            "" => Ok(None),
            t => t.parse::<u64>().map(Some).map_err(|_| {
                format!("DYLECT_DIGEST_PERTURB must be unset or a non-negative op index; got {t:?}")
            }),
        },
    }
}

/// Reads `DYLECT_DIGEST_PERTURB` without applying it (arming is per
/// system; see [`parse_perturb`]).
pub fn perturb_from_env() -> Result<Option<u64>, String> {
    parse_perturb(std::env::var("DYLECT_DIGEST_PERTURB").ok().as_deref())
}

/// Reads `DYLECT_DIGEST` and applies it (the enabled switch and, when
/// on, the window length), and validates `DYLECT_DIGEST_PERTURB` (a typo
/// must fail loudly even though arming is per system); returns the
/// enabled state so callers can branch.
pub fn init_from_env() -> Result<bool, String> {
    let window = digest_from_env()?;
    if let Some(w) = window {
        set_window_ops(w);
    }
    set_enabled(window.is_some());
    perturb_from_env()?;
    Ok(window.is_some())
}

/// One digest capture: per-component 64-bit state digests at a window
/// boundary (or, during bisection replay, after a single op).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestRecord {
    /// Window index (ops_retired / the capturing system's digest window
    /// length at capture time).
    pub window: u64,
    /// For per-op bisection records: the op index this digest follows.
    /// `None` for ordinary window-boundary records.
    pub op: Option<u64>,
    /// Total ops retired when the digest was captured.
    pub ops_retired: u64,
    /// Per-core architectural + timing state (registers, clocks, stats).
    pub core: Vec<u64>,
    /// All cores' TLB state, folded.
    pub tlb: u64,
    /// Shared cache hierarchy (L3 tags/state + shared cache stats).
    pub cache: u64,
    /// Pending writeback FIFOs across every memory controller.
    pub wb_fifos: u64,
    /// DRAM scheduler state across every memory controller.
    pub dram: u64,
    /// Compression-scheme directory state across every memory controller.
    pub scheme: u64,
    /// Compression occupancy / free-space accounting.
    pub compression: u64,
    /// Deterministic telemetry state (0 when telemetry is off).
    pub telemetry: u64,
}

impl DigestRecord {
    /// Named scalar components in canonical order (per-core entries are
    /// `core0`, `core1`, …). This is the schema of the JSONL row and the
    /// order [`first_difference`] scans.
    pub fn components(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.core.len() + 7);
        for (i, &h) in self.core.iter().enumerate() {
            out.push((format!("core{i}"), h));
        }
        for (name, h) in [
            ("tlb", self.tlb),
            ("cache", self.cache),
            ("wb_fifos", self.wb_fifos),
            ("dram", self.dram),
            ("scheme", self.scheme),
            ("compression", self.compression),
            ("telemetry", self.telemetry),
        ] {
            out.push((name.to_owned(), h));
        }
        out
    }

    /// Renders the record as one flat-JSON line (the `.digest.jsonl`
    /// format). Hashes travel as fixed-width hex strings — they are
    /// identifiers, not quantities, and must survive f64-based JSON
    /// parsers bit-exactly.
    pub fn to_jsonl_line(&self) -> String {
        let mut line = String::with_capacity(64 + self.core.len() * 32);
        let kind = if self.op.is_some() { "op" } else { "window" };
        line.push_str(&format!(
            "{{\"digest\": \"{kind}\", \"window\": {}, ",
            self.window
        ));
        if let Some(op) = self.op {
            line.push_str(&format!("\"op\": {op}, "));
        }
        line.push_str(&format!("\"ops_retired\": {}", self.ops_retired));
        for (name, h) in self.components() {
            line.push_str(&format!(", \"{name}\": \"{h:016x}\""));
        }
        line.push('}');
        line
    }
}

/// The first component (in [`DigestRecord::components`] order) whose
/// digest differs between two captures of the same window/op, or `None`
/// if they agree everywhere.
pub fn first_difference(a: &DigestRecord, b: &DigestRecord) -> Option<String> {
    let (ca, cb) = (a.components(), b.components());
    if ca.len() != cb.len() {
        return Some("core-count".to_owned());
    }
    ca.into_iter()
        .zip(cb)
        .find(|((_, ha), (_, hb))| ha != hb)
        .map(|((name, _), _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Digest state is process-global; tests that toggle it serialize
    /// here so they cannot observe each other's windows.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record() -> DigestRecord {
        DigestRecord {
            window: 3,
            op: None,
            ops_retired: 12_288,
            core: vec![0x11, 0x22],
            tlb: 0x33,
            cache: 0x44,
            wb_fifos: 0x55,
            dram: 0x66,
            scheme: 0x77,
            compression: 0x88,
            telemetry: 0,
        }
    }

    #[test]
    fn hasher_matches_kv_fingerprint_on_utf8() {
        let mut h = Hasher::new();
        h.write("dylect".as_bytes());
        assert_eq!(h.finish(), crate::kv::fingerprint64("dylect"));
    }

    #[test]
    fn hashing_is_chunking_independent_and_input_sensitive() {
        let mut a = Hasher::new();
        a.write(b"ab");
        a.write(b"cd");
        let mut b = Hasher::new();
        b.write(b"abcd");
        assert_eq!(a.finish(), b.finish());
        let mut c = Hasher::new();
        c.write(b"abce");
        assert_ne!(b.finish(), c.finish());
    }

    #[test]
    fn hash_with_hashes_the_snapshot_bytes() {
        let h = hash_with(|w| w.u64(0xDEAD_BEEF));
        let mut expect = Hasher::new();
        expect.write(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(h, expect.finish());
        // The unit snapshot is the hash of zero bytes: the offset basis.
        assert_eq!(hash_snapshot(&()), Hasher::new().finish());
    }

    #[test]
    fn parse_digest_accepts_the_strict_grammar_only() {
        assert_eq!(parse_digest(None), Ok(None));
        assert_eq!(parse_digest(Some("")), Ok(None));
        assert_eq!(parse_digest(Some("0")), Ok(None));
        assert_eq!(parse_digest(Some("false")), Ok(None));
        assert_eq!(parse_digest(Some("1")), Ok(Some(DEFAULT_WINDOW_OPS)));
        assert_eq!(parse_digest(Some("true")), Ok(Some(DEFAULT_WINDOW_OPS)));
        assert_eq!(parse_digest(Some(" 1 ")), Ok(Some(DEFAULT_WINDOW_OPS)));
        assert_eq!(parse_digest(Some("4096")), Ok(Some(4096)));
        assert_eq!(parse_digest(Some(" 512 ")), Ok(Some(512)));
        // 2 parses as a number but is not 256-aligned; neither is 100.
        for bad in ["yes", "2", "100", "on", "TRUE", "0x1", "-256"] {
            let err = parse_digest(Some(bad)).expect_err(bad);
            assert!(err.contains("DYLECT_DIGEST"), "{err}");
        }
    }

    #[test]
    fn window_length_is_settable_but_must_stay_drain_aligned() {
        let _g = lock();
        assert_eq!(window_ops(), DEFAULT_WINDOW_OPS);
        set_window_ops(4096);
        assert_eq!(window_ops(), 4096);
        set_window_ops(DEFAULT_WINDOW_OPS);
        let err = std::panic::catch_unwind(|| set_window_ops(1000));
        assert!(err.is_err(), "unaligned window lengths must be rejected");
        assert_eq!(window_ops(), DEFAULT_WINDOW_OPS);
    }

    #[test]
    fn parse_perturb_is_unset_or_a_plain_op_index() {
        assert_eq!(parse_perturb(None), Ok(None));
        assert_eq!(parse_perturb(Some("")), Ok(None));
        assert_eq!(parse_perturb(Some("0")), Ok(Some(0)));
        assert_eq!(parse_perturb(Some(" 8192 ")), Ok(Some(8192)));
        for bad in ["-1", "1.5", "0x10", "lots"] {
            let err = parse_perturb(Some(bad)).expect_err(bad);
            assert!(err.contains("DYLECT_DIGEST_PERTURB"), "{err}");
        }
    }

    #[test]
    fn enable_round_trips() {
        let _g = lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn jsonl_rows_carry_every_component_as_fixed_width_hex() {
        let rec = record();
        let line = rec.to_jsonl_line();
        assert!(line.starts_with("{\"digest\": \"window\""), "{line}");
        assert!(line.contains("\"window\": 3"), "{line}");
        assert!(line.contains("\"ops_retired\": 12288"), "{line}");
        assert!(line.contains("\"core0\": \"0000000000000011\""), "{line}");
        assert!(line.contains("\"core1\": \"0000000000000022\""), "{line}");
        assert!(
            line.contains("\"telemetry\": \"0000000000000000\""),
            "{line}"
        );
        assert!(!line.contains("\"op\":"), "window rows carry no op field");
        let mut op_rec = rec;
        op_rec.op = Some(12345);
        let op_line = op_rec.to_jsonl_line();
        assert!(op_line.starts_with("{\"digest\": \"op\""), "{op_line}");
        assert!(op_line.contains("\"op\": 12345"), "{op_line}");
    }

    #[test]
    fn first_difference_names_the_earliest_diverging_component() {
        let a = record();
        assert_eq!(first_difference(&a, &a.clone()), None);
        let mut b = a.clone();
        b.cache ^= 1;
        b.dram ^= 1;
        assert_eq!(first_difference(&a, &b), Some("cache".to_owned()));
        let mut c = a.clone();
        c.core[1] ^= 1;
        assert_eq!(first_difference(&a, &c), Some("core1".to_owned()));
        let mut d = a.clone();
        d.core.pop();
        assert_eq!(first_difference(&a, &d), Some("core-count".to_owned()));
    }
}
