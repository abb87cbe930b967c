//! Observability for the DyLeCT simulator.
//!
//! Two complementary views of a run:
//!
//! - **Time series** ([`Sampler`]): once per *epoch* (a fixed number of
//!   memory operations) the run loop snapshots the cumulative simulator
//!   counters; the sampler differences consecutive snapshots into
//!   epoch-local series (CTE-cache hit rates split by serving block,
//!   ML0/ML1/ML2 occupancy, promotion/demotion/expansion activity, DRAM
//!   row-buffer hit rate and queue depth). Series are bounded
//!   ([`series::TimeSeries`]): adjacent bins pair-merge and the stride
//!   doubles, so memory stays O(capacity) for arbitrarily long runs.
//! - **Event journal** ([`EventJournal`]): discrete MC events (promotion,
//!   demotion, expansion, compaction, displacement) arrive through
//!   `dylect_sim_core::probe::ProbeHandle`s wired into each memory
//!   controller, tagged by controller index.
//!
//! - **Latency attribution** ([`Attribution`]): every retired access's
//!   cycles are accounted into named critical-path components and its
//!   end-to-end latency recorded into log-bucketed histograms keyed by
//!   (scope, request class, memory level, translation path). Sampled
//!   request spans (1-in-N, `DYLECT_SPAN_SAMPLE`) ride along for the
//!   Chrome-trace timeline.
//!
//! - **Shadow CTE caches + miss classification** ([`shadow::ShadowState`],
//!   `DYLECT_SHADOW=1`): counterfactual tag arrays (infinite,
//!   fully-associative, and a {2× size, 4× size, 2× assoc} sweep) replay
//!   the real CTE-cache's probe stream, and every real miss is classified
//!   compulsory/capacity/conflict — the partition is exact by
//!   construction.
//! - **Per-page provenance** ([`provenance::Provenance`], same toggle):
//!   a state machine per touched page tracks ML0/ML1/ML2 transitions with
//!   dwell in retired ops, round-trip/ping-pong detection, and per-group
//!   peak ML0 residency.
//!
//! All are observation-only: enabling telemetry never changes simulated
//! behavior (a property pinned by the workspace determinism test).
//!
//! [`Telemetry::artifacts`] renders four files per run — series JSONL,
//! event JSONL, latency JSONL, and Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) — plus a fifth, shadow JSONL, when
//! shadow probing is on; all consumed by the `dylect-stats` CLI, which can
//! dump, summarize, and diff two runs' exports with configurable
//! tolerances.

pub mod attribution;
pub mod diff;
pub mod export;
pub mod journal;
pub mod provenance;
pub mod sampler;
pub mod series;
pub mod shadow;

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use dylect_memctl::controller::CteCacheGeometry;
use dylect_sim_core::probe::ProbeHandle;
use dylect_sim_core::prof;
use dylect_sim_core::snap::{Restore as _, SnapError, SnapReader, SnapWriter, Snapshot as _};

pub use attribution::Attribution;
pub use journal::{EventJournal, JournalEntry, McProbe};
pub use provenance::{LevelRow, PingPongRow, Provenance};
pub use sampler::{SampleSnapshot, Sampler, SERIES_NAMES};
pub use series::{Bin, TimeSeries};
pub use shadow::{ConfigRow, McShadow, MissClasses, ShadowState, CONFIG_LABELS};

/// Telemetry sizing knobs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Memory operations per sampling epoch.
    pub epoch_ops: u64,
    /// Maximum bins retained per series.
    pub series_capacity: usize,
    /// Maximum journal entries retained (counts stay exact past this).
    pub journal_capacity: usize,
    /// Request-span sampling period: every `span_sample`-th demand miss
    /// emits begin/end trace spans. 0 disables span sampling.
    pub span_sample: u64,
    /// Maximum sampled spans retained (counts stay exact past this).
    pub span_capacity: usize,
    /// Enables the shadow CTE tag arrays, miss classification, and the
    /// per-page provenance tracker.
    pub shadow: bool,
    /// Round trips (ML0 → out → ML0) that must complete inside
    /// [`pingpong_window_ops`](Self::pingpong_window_ops) for a page to
    /// count as ping-ponging.
    pub pingpong_trips: u64,
    /// Ping-pong detection window, in retired ops.
    pub pingpong_window_ops: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            epoch_ops: 10_000,
            series_capacity: 512,
            journal_capacity: 1 << 16,
            span_sample: 0,
            span_capacity: 1 << 16,
            shadow: false,
            pingpong_trips: 4,
            pingpong_window_ops: 1_000_000,
        }
    }
}

impl TelemetryConfig {
    /// Parses a `DYLECT_SPAN_SAMPLE` value with
    /// [`dylect_sim_core::env::parse_count`]: unset or blank means disabled
    /// (`Ok(0)`), a positive integer is the sampling period, and `0` or
    /// garbage is an error rather than a silent default.
    pub fn parse_span_sample(raw: Option<&str>) -> Result<u64, String> {
        Ok(dylect_sim_core::env::parse_count("DYLECT_SPAN_SAMPLE", raw)?.unwrap_or(0))
    }

    /// The span-sampling period from the `DYLECT_SPAN_SAMPLE` environment
    /// variable (see [`parse_span_sample`](Self::parse_span_sample)).
    pub fn span_sample_from_env() -> Result<u64, String> {
        Self::parse_span_sample(std::env::var("DYLECT_SPAN_SAMPLE").ok().as_deref())
    }

    /// Parses a `DYLECT_SHADOW` value with the strict boolean grammar of
    /// [`dylect_sim_core::env::parse_flag`].
    pub fn parse_shadow(raw: Option<&str>) -> Result<bool, String> {
        dylect_sim_core::env::parse_flag("DYLECT_SHADOW", raw)
    }

    /// The shadow-probe toggle from the `DYLECT_SHADOW` environment
    /// variable (see [`parse_shadow`](Self::parse_shadow)).
    pub fn shadow_from_env() -> Result<bool, String> {
        Self::parse_shadow(std::env::var("DYLECT_SHADOW").ok().as_deref())
    }
}

/// One run's telemetry: the epoch sampler, the shared event journal, the
/// latency-attribution aggregator, and (when enabled) the shadow CTE
/// arrays and per-page provenance tracker.
#[derive(Clone, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    sampler: Sampler,
    journal: Rc<RefCell<EventJournal>>,
    attribution: Rc<RefCell<Attribution>>,
    shadow: Rc<RefCell<ShadowState>>,
    provenance: Rc<RefCell<Provenance>>,
    /// Retired-ops clock shared with the provenance tracker; the simulator
    /// advances it via [`ops_clock`](Self::ops_clock).
    ops_clock: Rc<Cell<u64>>,
}

impl Telemetry {
    /// Creates empty telemetry with the given sizing.
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        let ops_clock = Rc::new(Cell::new(0u64));
        Telemetry {
            sampler: Sampler::new(cfg.series_capacity),
            journal: Rc::new(RefCell::new(EventJournal::new(cfg.journal_capacity))),
            attribution: Rc::new(RefCell::new(Attribution::new(cfg.span_capacity))),
            shadow: Rc::new(RefCell::new(ShadowState::default())),
            provenance: Rc::new(RefCell::new(Provenance::new(
                ops_clock.clone(),
                cfg.pingpong_trips,
                cfg.pingpong_window_ops,
            ))),
            ops_clock,
            cfg,
        }
    }

    /// The sizing in use.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Builds the probe to install into memory controller `mc`
    /// (`MemoryScheme::set_probe`); its events land in this telemetry's
    /// journal tagged with `mc`, and any access/span records it emits land
    /// in the shared attribution aggregator. The same handle serves cores
    /// and the shared memory backend (which emit only access/span records).
    /// With `cfg.shadow` on, the handle also replays CTE records into the
    /// shadow arrays and MC events into the provenance tracker.
    pub fn probe_for_mc(&self, mc: u32) -> ProbeHandle {
        let (shadow, provenance) = if self.cfg.shadow {
            (Some(self.shadow.clone()), Some(self.provenance.clone()))
        } else {
            (None, None)
        };
        McProbe::handle(
            self.journal.clone(),
            self.attribution.clone(),
            shadow,
            provenance,
            mc,
        )
    }

    /// Installs the real CTE-cache geometry of controller `mc` so its
    /// shadow arrays and page-group histogram can be sized to match; a
    /// `None` geometry (schemes without a CTE cache) leaves that MC
    /// unshadowed. No-op unless `cfg.shadow` is set.
    pub fn configure_shadow_for_mc(&self, mc: usize, geometry: Option<CteCacheGeometry>) {
        if self.cfg.shadow {
            self.shadow.borrow_mut().configure_mc(mc, geometry);
            self.provenance.borrow_mut().configure_mc(mc, geometry);
        }
    }

    /// The retired-ops clock the provenance tracker reads; the run loop
    /// bumps it once per retired op when telemetry is enabled.
    pub fn ops_clock(&self) -> Rc<Cell<u64>> {
        self.ops_clock.clone()
    }

    /// Whether shadow probing (and provenance tracking) is enabled.
    pub fn shadow_enabled(&self) -> bool {
        self.cfg.shadow
    }

    /// The shadow CTE arrays.
    pub fn shadow(&self) -> Ref<'_, ShadowState> {
        self.shadow.borrow()
    }

    /// The per-page provenance tracker.
    pub fn provenance(&self) -> Ref<'_, Provenance> {
        self.provenance.borrow()
    }

    /// Records one epoch-boundary snapshot.
    pub fn sample(&mut self, snap: SampleSnapshot) {
        self.sampler.sample(snap);
    }

    /// The epoch sampler's series.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The shared event journal.
    pub fn journal(&self) -> Ref<'_, EventJournal> {
        self.journal.borrow()
    }

    /// The latency-attribution aggregator.
    pub fn attribution(&self) -> Ref<'_, Attribution> {
        self.attribution.borrow()
    }

    /// Serializes the whole telemetry state: the sizing config (as an
    /// identity guard), the shared ops clock, and every collector. The
    /// shadow/provenance trackers are written unconditionally — they are
    /// empty when `cfg.shadow` is off and cost a few bytes.
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        let c = &self.cfg;
        w.u64(c.epoch_ops);
        w.u64(c.series_capacity as u64);
        w.u64(c.journal_capacity as u64);
        w.u64(c.span_sample);
        w.u64(c.span_capacity as u64);
        w.bool(c.shadow);
        w.u64(c.pingpong_trips);
        w.u64(c.pingpong_window_ops);
        w.u64(self.ops_clock.get());
        self.sampler.write_snapshot(w);
        self.journal.borrow().write_snapshot(w);
        self.attribution.borrow().write_snapshot(w);
        self.shadow.borrow().write_snapshot(w);
        self.provenance.borrow().write_snapshot(w);
    }

    /// Restores telemetry state written by
    /// [`write_snapshot`](Self::write_snapshot). The receiver must have
    /// been built with the same [`TelemetryConfig`] and the same per-MC
    /// shadow configuration ([`configure_shadow_for_mc`]
    /// (Self::configure_shadow_for_mc)).
    pub fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let c = &self.cfg;
        let same = r.u64()? == c.epoch_ops
            && r.u64()? == c.series_capacity as u64
            && r.u64()? == c.journal_capacity as u64
            && r.u64()? == c.span_sample
            && r.u64()? == c.span_capacity as u64
            && r.bool()? == c.shadow
            && r.u64()? == c.pingpong_trips
            && r.u64()? == c.pingpong_window_ops;
        if !same {
            return Err(SnapError::Mismatch("telemetry config"));
        }
        self.ops_clock.set(r.u64()?);
        self.sampler.restore_snapshot(r)?;
        self.journal.borrow_mut().restore_snapshot(r)?;
        self.attribution.borrow_mut().restore_snapshot(r)?;
        self.shadow.borrow_mut().restore_snapshot(r)?;
        self.provenance.borrow_mut().restore_snapshot(r)?;
        Ok(())
    }

    /// The run's exports as (file suffix, contents): `.series.jsonl`,
    /// `.events.jsonl`, `.latency.jsonl` and `.trace.json`, plus
    /// `.shadow.jsonl` when shadow probing is enabled.
    pub fn artifacts(&self) -> Vec<(&'static str, String)> {
        // Host-profiling timer only; the exported bytes are identical with
        // profiling on or off.
        let _p = prof::scope(prof::HostPhase::Export);
        let journal = self.journal.borrow();
        let attribution = self.attribution.borrow();
        let mut outputs = vec![
            (".series.jsonl", export::series_jsonl(&self.sampler)),
            (".events.jsonl", export::events_jsonl(&journal)),
            (".latency.jsonl", export::latency_jsonl(&attribution)),
            (
                ".trace.json",
                export::chrome_trace(&journal, attribution.spans()),
            ),
        ];
        if self.cfg.shadow {
            outputs.push((
                ".shadow.jsonl",
                export::shadow_jsonl(&self.shadow.borrow(), &self.provenance.borrow()),
            ));
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim_core::probe::McEvent;
    use dylect_sim_core::Time;

    #[test]
    fn probes_feed_the_shared_journal() {
        let t = Telemetry::new(TelemetryConfig::default());
        let p0 = t.probe_for_mc(0);
        let p1 = t.probe_for_mc(1);
        p0.emit(Time::ZERO, McEvent::Promotion, 5);
        p1.emit(Time::ZERO, McEvent::Expansion, 6);
        assert_eq!(t.journal().total(), 2);
        assert_eq!(t.journal().entries()[1].mc, 1);
    }

    #[test]
    fn export_writes_four_files() {
        use dylect_sim_core::probe::{
            AccessComponent, AccessRecord, AccessScope, MemLevel, RequestClass, SpanPhase,
            SpanRecord, TranslationPath,
        };
        let mut t = Telemetry::new(TelemetryConfig::default());
        let probe = t.probe_for_mc(0);
        probe.emit(Time::from_ns(5.0), McEvent::Compaction, 9);
        probe.emit_access(&AccessRecord::new(
            AccessScope::Mem,
            RequestClass::Demand,
            MemLevel::Ml0,
            TranslationPath::ShortCteHit,
            Time::ZERO,
            Time::from_ns(80.0),
            &[(AccessComponent::DramService, Time::from_ns(50.0))],
        ));
        probe.emit_span(&SpanRecord {
            id: 0,
            mc: 0,
            phase: SpanPhase::Request,
            start: Time::ZERO,
            end: Time::from_ns(80.0),
            page: 9,
        });
        t.sample(SampleSnapshot {
            instructions: 1000,
            ..SampleSnapshot::default()
        });
        let files = t.artifacts();
        let suffixes: Vec<&str> = files.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            suffixes,
            [
                ".series.jsonl",
                ".events.jsonl",
                ".latency.jsonl",
                ".trace.json"
            ]
        );
        assert!(files[0].1.contains("\"series\":\"cte_hit_rate\""));
        let latency = &files[2].1;
        assert!(latency.contains("\"path\":\"short_cte_hit\""), "{latency}");
        let trace = &files[3].1;
        assert!(trace.contains("\"name\":\"compaction\""));
        assert!(trace.contains("\"ph\":\"B\""), "span pairs exported");
    }

    #[test]
    fn snapshot_round_trips_every_collector() {
        use dylect_sim_core::probe::{
            AccessComponent, AccessRecord, AccessScope, CteBlockKind, CteOp, CteRecord, MemLevel,
            RequestClass, SpanPhase, SpanRecord, TranslationPath,
        };

        let cfg = TelemetryConfig {
            shadow: true,
            span_sample: 16,
            ..TelemetryConfig::default()
        };
        let geom = Some(CteCacheGeometry {
            capacity_bytes: 4096,
            ways: 2,
            block_bytes: 64,
            group_size: 3,
            num_groups: 8,
        });
        let mut t = Telemetry::new(cfg);
        t.configure_shadow_for_mc(0, geom);
        let probe = t.probe_for_mc(0);
        for i in 0..200u64 {
            t.ops_clock().set(i);
            probe.emit(
                Time::from_ns(i as f64),
                McEvent::ALL[(i % 5) as usize],
                i % 17,
            );
            probe.emit_cte(&CteRecord {
                kind: CteBlockKind::ALL[(i % 2) as usize],
                op: CteOp::Lookup {
                    hit: i % 3 == 0,
                    fill_on_miss: i % 4 != 0,
                },
                key: i % 23,
            });
            probe.emit_access(&AccessRecord::new(
                AccessScope::Mem,
                RequestClass::Demand,
                MemLevel::Ml1,
                TranslationPath::LongCteHit,
                Time::ZERO,
                Time::from_ns(40.0 + i as f64),
                &[(AccessComponent::DramService, Time::from_ns(30.0))],
            ));
            probe.emit_span(&SpanRecord {
                id: i,
                mc: 0,
                phase: SpanPhase::Request,
                start: Time::ZERO,
                end: Time::from_ns(i as f64),
                page: i,
            });
        }
        t.sample(SampleSnapshot {
            instructions: 1000,
            ..SampleSnapshot::default()
        });

        let mut w = SnapWriter::new();
        t.write_snapshot(&mut w);
        let snap = w.into_bytes();

        let mut fresh = Telemetry::new(cfg);
        fresh.configure_shadow_for_mc(0, geom);
        let mut r = SnapReader::new(&snap);
        fresh.restore_snapshot(&mut r).unwrap();
        r.finish().unwrap();

        // Restore-then-resnapshot must be byte-identical (writes are
        // deterministic: all unordered containers travel sorted).
        let mut w2 = SnapWriter::new();
        fresh.write_snapshot(&mut w2);
        assert_eq!(snap, w2.into_bytes());
        assert_eq!(fresh.journal().total(), t.journal().total());
        assert_eq!(fresh.shadow().classes_total(), t.shadow().classes_total());
        assert_eq!(fresh.ops_clock().get(), t.ops_clock().get());

        // A differently-sized receiver refuses the snapshot.
        let mut other = Telemetry::new(TelemetryConfig::default());
        assert!(matches!(
            other.restore_snapshot(&mut SnapReader::new(&snap)),
            Err(SnapError::Mismatch("telemetry config"))
        ));
        // An unconfigured (shadowless) receiver with the right config
        // fails on the shadow MC set, not with a panic.
        let mut unconfigured = Telemetry::new(cfg);
        assert!(unconfigured
            .restore_snapshot(&mut SnapReader::new(&snap))
            .is_err());
        // Every truncation is an error, never a panic.
        for cut in (0..snap.len()).step_by(131) {
            let mut fresh2 = Telemetry::new(cfg);
            fresh2.configure_shadow_for_mc(0, geom);
            let mut r = SnapReader::new(&snap[..cut]);
            let res = fresh2.restore_snapshot(&mut r).and_then(|()| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn span_sample_parsing_accepts_positive_integers_only() {
        assert_eq!(TelemetryConfig::parse_span_sample(None), Ok(0));
        assert_eq!(TelemetryConfig::parse_span_sample(Some("")), Ok(0));
        assert_eq!(TelemetryConfig::parse_span_sample(Some("  ")), Ok(0));
        assert_eq!(TelemetryConfig::parse_span_sample(Some("1000")), Ok(1000));
        assert_eq!(TelemetryConfig::parse_span_sample(Some(" 64 ")), Ok(64));
        // An explicit 0 and garbage are hard errors naming the variable,
        // not silent defaults.
        let zero = TelemetryConfig::parse_span_sample(Some("0")).unwrap_err();
        assert!(
            zero.contains("DYLECT_SPAN_SAMPLE") && zero.contains("positive"),
            "{zero}"
        );
        let junk = TelemetryConfig::parse_span_sample(Some("junk")).unwrap_err();
        assert!(
            junk.contains("DYLECT_SPAN_SAMPLE") && junk.contains("\"junk\""),
            "{junk}"
        );
        for bad in ["-3", "1.5", "0x10"] {
            assert!(
                TelemetryConfig::parse_span_sample(Some(bad)).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn shadow_parsing_is_a_strict_bool() {
        assert_eq!(TelemetryConfig::parse_shadow(None), Ok(false));
        assert_eq!(TelemetryConfig::parse_shadow(Some("")), Ok(false));
        assert_eq!(TelemetryConfig::parse_shadow(Some("0")), Ok(false));
        assert_eq!(TelemetryConfig::parse_shadow(Some("false")), Ok(false));
        assert_eq!(TelemetryConfig::parse_shadow(Some("1")), Ok(true));
        assert_eq!(TelemetryConfig::parse_shadow(Some("true")), Ok(true));
        assert_eq!(TelemetryConfig::parse_shadow(Some(" true ")), Ok(true));
        let err = TelemetryConfig::parse_shadow(Some("yes")).unwrap_err();
        assert!(err.contains("DYLECT_SHADOW"), "{err}");
    }

    #[test]
    fn shadow_export_rides_along_when_enabled() {
        use dylect_memctl::controller::CteCacheGeometry;
        use dylect_sim_core::probe::{CteBlockKind, CteOp, CteRecord};

        let cfg = TelemetryConfig {
            shadow: true,
            ..TelemetryConfig::default()
        };
        let t = Telemetry::new(cfg);
        assert!(t.shadow_enabled());
        t.configure_shadow_for_mc(
            0,
            Some(CteCacheGeometry {
                capacity_bytes: 4096,
                ways: 2,
                block_bytes: 64,
                group_size: 3,
                num_groups: 8,
            }),
        );
        let probe = t.probe_for_mc(0);
        probe.emit_cte(&CteRecord {
            kind: CteBlockKind::Pregathered,
            op: CteOp::Lookup {
                hit: false,
                fill_on_miss: true,
            },
            key: 7,
        });
        probe.emit(Time::ZERO, McEvent::Promotion, 3);
        assert_eq!(t.shadow().classes_total().compulsory, 1);
        assert_eq!(t.provenance().pages_tracked(), 1);
        let files = t.artifacts();
        assert_eq!(files.len(), 5, "shadow jsonl rides along");
        let (suffix, shadow) = files.last().unwrap();
        assert_eq!(*suffix, ".shadow.jsonl");
        assert!(shadow.contains("\"shadow\":\"miss_class\""), "{shadow}");

        // Disabled: same four files as before this subsystem existed.
        let t2 = Telemetry::new(TelemetryConfig::default());
        let p2 = t2.probe_for_mc(0);
        p2.emit_cte(&CteRecord {
            kind: CteBlockKind::Unified,
            op: CteOp::Touch,
            key: 1,
        });
        assert!(!t2.shadow().is_active(), "records ignored when disabled");
        assert_eq!(t2.artifacts().len(), 4);
    }
}
