//! Synthetic workload generators for the DyLeCT reproduction.
//!
//! The paper evaluates nine GraphBig kernels, SPEC CPU2017 `mcf` and
//! `omnetpp`, and PARSEC `canneal` — all large, irregular, and
//! translation-intensive. Their memory images are not available here, so
//! each benchmark is modeled as a parameterized synthetic stream
//! ([`SyntheticWorkload`]) that reproduces the *statistics the paper's
//! results depend on* (DESIGN.md §5):
//!
//! - **footprint** (Table 2, scaled by a configurable denominator);
//! - a **hot working set** of scattered 256 KB regions (graph structures
//!   cluster hot vertices in allocation regions) visited with Zipf skew;
//! - **neighborhood bursts** within a region (adjacency exploration), which
//!   give the LLC-miss stream the page-group locality that CTE caches — and
//!   especially DyLeCT's 1 MB-reach pre-gathered blocks — exploit;
//! - **within-huge-page skew** (citation \[20\]): only a pseudo-random subset of each
//!   region's 4 KB pages is hot, the rest stay cold;
//! - a **cold trickle** (in-region and global) that keeps the compressed
//!   level alive and drives page expansions at a realistic, low rate;
//! - **pointer-chasing** (dependent accesses) and **scan** components;
//! - per-page **compressibility** calibrated to the paper's settings.

pub mod spec;
pub mod trace_io;

pub use spec::{BenchmarkSpec, CompressionSetting};

use dylect_compression::CompressibilityProfile;
use dylect_sim_core::rng::{hash2, Rng, Zipf};
use dylect_sim_core::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use dylect_sim_core::trace::{MemOp, OpBatch};
use dylect_sim_core::{VirtAddr, BLOCK_BYTES, PAGE_BYTES};

/// Pages per hot region (256 KB).
pub const REGION_PAGES: u64 = 64;

/// Tunable personality of a synthetic benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Benchmark name.
    pub name: String,
    /// Footprint in 4 KB pages.
    pub footprint_pages: u64,
    /// Fraction of the footprint belonging to hot regions.
    pub hot_fraction: f64,
    /// Fraction of each hot region's pages that are hot-eligible (the
    /// within-huge-page skew).
    pub eligible_fraction: f64,
    /// Zipf skew across hot regions.
    pub zipf_theta: f64,
    /// Mean burst length (accesses per region visit).
    pub burst_len: u32,
    /// Probability a burst access targets a cold (non-eligible) page of the
    /// region.
    pub intra_cold: f64,
    /// Fraction of accesses that go to a uniformly random page anywhere.
    pub cold_fraction: f64,
    /// Fraction of accesses from the sequential-scan component.
    pub stream_fraction: f64,
    /// Fraction of irregular accesses that depend on the previous access.
    pub dep_fraction: f64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Mean non-memory instructions per memory operation.
    pub work_per_op: u16,
    /// Recurring hot 64 B blocks per page (how much of each hot page is
    /// actually touched; larger values enlarge the byte-level working set
    /// relative to the LLC without changing page-level behavior).
    pub hot_blocks_per_page: u64,
    /// Mean compression ratio if every page were compressed.
    pub mean_compression_ratio: f64,
}

impl WorkloadParams {
    /// A small demonstration workload (64 MB footprint) for examples and
    /// tests.
    pub fn demo() -> Self {
        WorkloadParams {
            name: "demo".to_owned(),
            footprint_pages: 16 * 1024,
            hot_fraction: 0.4,
            eligible_fraction: 0.7,
            zipf_theta: 0.9,
            burst_len: 16,
            intra_cold: 0.05,
            cold_fraction: 0.01,
            stream_fraction: 0.15,
            dep_fraction: 0.6,
            write_fraction: 0.3,
            work_per_op: 4,
            hot_blocks_per_page: 4,
            mean_compression_ratio: 3.4,
        }
    }
}

/// A deterministic, infinite memory-operation stream.
///
/// # Example
///
/// ```
/// use dylect_workloads::{SyntheticWorkload, WorkloadParams};
///
/// let mut w = SyntheticWorkload::new(WorkloadParams::demo(), 42);
/// let op = w.next_op();
/// assert!(op.vaddr.page().index() < w.params().footprint_pages);
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    params: WorkloadParams,
    profile: CompressibilityProfile,
    zipf: Zipf,
    rng: Rng,
    seed: u64,
    num_regions: u64,
    hot_regions: u64,
    /// Coprime multiplier scattering hot regions across the address space.
    perm_mult: u64,
    /// Current burst: first page of the region and remaining accesses.
    burst_region_base: u64,
    burst_remaining: u32,
    /// Sequential scan cursor (block index within the footprint).
    scan_cursor: u64,
    /// Precomputed integer draw thresholds (see [`DrawThresholds`]): the
    /// generator is on the simulator's per-op hot path, so the Bernoulli
    /// knobs are folded into bit-field compares on one 64-bit draw instead
    /// of one `f64` draw each.
    thresholds: DrawThresholds,
    /// Lazily built per-region tables of hot-eligible page offsets, indexed
    /// by region. Burst accesses pick uniformly from the table instead of
    /// re-hashing candidate pages in a retry loop on every op.
    eligible_sets: Vec<EligibleSet>,
}

/// The hot-eligible pages of one region: `pages[..count]` holds the
/// in-region offsets for which [`SyntheticWorkload::is_eligible`] is true.
/// `built` marks lazy initialization (regions the bursts never reach are
/// never hashed).
#[derive(Copy, Clone, Debug)]
struct EligibleSet {
    built: bool,
    count: u8,
    pages: [u8; REGION_PAGES as usize],
}

impl Default for EligibleSet {
    fn default() -> Self {
        EligibleSet {
            built: false,
            count: 0,
            pages: [0; REGION_PAGES as usize],
        }
    }
}

/// Integer thresholds for the per-op Bernoulli draws, precomputed from
/// [`WorkloadParams`]. One `next_u64` yields a 32-bit component selector and
/// two 16-bit flag fields; a fraction `p` becomes the threshold `p * 2^k`.
#[derive(Copy, Clone, Debug)]
struct DrawThresholds {
    /// `stream_fraction` over the low 32 selector bits.
    stream: u32,
    /// `stream + (1 - stream) * cold_fraction` over the selector bits (the
    /// conditional cold draw folded into one cumulative compare).
    cold_cum: u32,
    /// `write_fraction` over 16 bits.
    write: u16,
    /// `dep_fraction` over 16 bits.
    dep: u16,
    /// `intra_cold` over 16 bits.
    intra_cold: u16,
}

impl DrawThresholds {
    fn new(p: &WorkloadParams) -> Self {
        let frac32 = |p: f64| (p.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
        let frac16 = |p: f64| (p.clamp(0.0, 1.0) * (1u64 << 16) as f64).min(u16::MAX as f64) as u16;
        let stream = frac32(p.stream_fraction);
        let cold_cum = stream + frac32((1.0 - p.stream_fraction) * p.cold_fraction);
        DrawThresholds {
            stream: stream.min(u32::MAX as u64) as u32,
            cold_cum: cold_cum.min(u32::MAX as u64) as u32,
            write: frac16(p.write_fraction),
            dep: frac16(p.dep_fraction),
            intra_cold: frac16(p.intra_cold),
        }
    }
}

/// A declarative mid-run change of workload personality (scenario phase
/// churn). Only the fields that are `Some` change; everything else keeps
/// its current value.
///
/// Deliberately excluded: `footprint_pages` and `mean_compression_ratio`
/// (and `eligible_fraction`, which feeds the same page-stable hashes) —
/// those are *construction* state shared with the memory controller's
/// sizing and compressibility profile, and changing them mid-run would
/// break the snapshot identity guards. The effective working-set size
/// shifts through `hot_fraction`, which grows or shrinks the set of
/// regions the Zipf draw can reach.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PhaseShift {
    /// New fraction of the footprint in hot regions.
    pub hot_fraction: Option<f64>,
    /// New Zipf skew across hot regions.
    pub zipf_theta: Option<f64>,
    /// New store fraction.
    pub write_fraction: Option<f64>,
    /// New sequential-scan fraction.
    pub stream_fraction: Option<f64>,
}

impl PhaseShift {
    /// Whether the shift changes nothing.
    pub fn is_empty(&self) -> bool {
        *self == PhaseShift::default()
    }
}

/// Multiply-shift map of a 16-bit field onto `0..n` (unbiased enough for
/// workload shaping; `n` is tiny).
#[inline]
fn scale16(bits: u64, n: u64) -> u64 {
    ((bits & 0xFFFF) * n) >> 16
}

/// Multiply-shift map of a 32-bit field onto `0..n`.
#[inline]
fn scale32(bits: u64, n: u64) -> u64 {
    ((bits & 0xFFFF_FFFF) * n) >> 32
}

impl SyntheticWorkload {
    /// Builds a workload from its parameters and a seed.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one region.
    pub fn new(params: WorkloadParams, seed: u64) -> Self {
        assert!(
            params.footprint_pages >= REGION_PAGES,
            "footprint smaller than one region"
        );
        let profile =
            CompressibilityProfile::with_mean_ratio(&params.name, params.mean_compression_ratio);
        let num_regions = params.footprint_pages / REGION_PAGES;
        let hot_regions = ((num_regions as f64 * params.hot_fraction) as u64).clamp(1, num_regions);
        let zipf = Zipf::new(hot_regions, params.zipf_theta);
        let mut perm_mult = 0x9E37_79B9u64 | 1;
        while gcd(perm_mult, num_regions) != 1 {
            perm_mult += 2;
        }
        SyntheticWorkload {
            zipf,
            profile,
            rng: Rng::new(seed ^ 0x5EED),
            seed,
            num_regions,
            hot_regions,
            perm_mult,
            burst_region_base: 0,
            burst_remaining: 0,
            scan_cursor: 0,
            thresholds: DrawThresholds::new(&params),
            eligible_sets: vec![EligibleSet::default(); num_regions as usize],
            params,
        }
    }

    /// The workload's parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The per-page compressibility profile.
    pub fn profile(&self) -> &CompressibilityProfile {
        &self.profile
    }

    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.params.footprint_pages * PAGE_BYTES
    }

    /// Number of hot regions.
    pub fn hot_regions(&self) -> u64 {
        self.hot_regions
    }

    /// Maps a hot-region rank to its first page (bijective scatter).
    fn region_base_of_rank(&self, rank: u64) -> u64 {
        (rank.wrapping_mul(self.perm_mult) % self.num_regions) * REGION_PAGES
    }

    /// Whether a page is hot-eligible within its region (stable per page).
    pub fn is_eligible(&self, page: u64) -> bool {
        let t = (self.params.eligible_fraction * u32::MAX as f64) as u64;
        (hash2(self.seed ^ 0xE11, page) & 0xFFFF_FFFF) < t
    }

    /// The hot-eligible page offsets of the region starting at
    /// `region_base`, hashing the region's pages on first touch.
    fn eligible_pages(&mut self, region_base: u64) -> (u8, &[u8; REGION_PAGES as usize]) {
        let idx = (region_base / REGION_PAGES) as usize;
        if !self.eligible_sets[idx].built {
            let t = (self.params.eligible_fraction * u32::MAX as f64) as u64;
            let set = &mut self.eligible_sets[idx];
            let mut n = 0u8;
            for p in 0..REGION_PAGES {
                if (hash2(self.seed ^ 0xE11, region_base + p) & 0xFFFF_FFFF) < t {
                    set.pages[n as usize] = p as u8;
                    n += 1;
                }
            }
            set.count = n;
            set.built = true;
        }
        let set = &self.eligible_sets[idx];
        (set.count, &set.pages)
    }

    /// A stable "hot block" of a page (graph vertices live at fixed
    /// offsets; each page has a few recurring blocks).
    fn block_of(&mut self, page: u64, which: u64) -> u64 {
        hash2(self.seed ^ 0xB10C, page * 64 + which) % (PAGE_BYTES / BLOCK_BYTES)
    }

    /// Builds the op at `page` from pre-drawn bits: `write`/`dep` are the
    /// already-decided flags, `jitter_bits` shapes the work jitter, and a
    /// fresh draw picks the hot block.
    fn op_at(&mut self, page: u64, write: bool, dep: bool, jitter_bits: u64) -> MemOp {
        let work_per_op = self.params.work_per_op;
        let work_jitter = scale16(jitter_bits, work_per_op as u64 + 1) as u16;
        let which = scale16(self.rng.next_u64(), self.params.hot_blocks_per_page.max(1));
        let block = self.block_of(page, which);
        MemOp {
            vaddr: VirtAddr::new(page * PAGE_BYTES + block * BLOCK_BYTES),
            write,
            work: work_per_op / 2 + work_jitter,
            dep_on_prev: dep,
        }
    }

    /// Produces the next memory operation.
    ///
    /// Hot-path note: a typical op consumes two or three 64-bit draws. The
    /// first draw packs the component selector (low 32 bits, compared
    /// against the cumulative stream/cold thresholds) with the write and
    /// dep flags (two 16-bit fields); a second shapes jitter and page
    /// choice; `op_at` draws once more for the block. The old
    /// one-`f64`-draw-per-decision layout cost nearly as much as the
    /// simulated core itself.
    pub fn next_op(&mut self) -> MemOp {
        let t = self.thresholds;
        let footprint_pages = self.params.footprint_pages;
        let r = self.rng.next_u64();
        let selector = r as u32;
        let write = ((r >> 32) as u16) < t.write;
        // Sequential scan component.
        if selector < t.stream {
            let total_blocks = footprint_pages * (PAGE_BYTES / BLOCK_BYTES);
            self.scan_cursor = (self.scan_cursor + 1) % total_blocks;
            let vaddr = VirtAddr::new(self.scan_cursor * BLOCK_BYTES);
            let work_per_op = self.params.work_per_op;
            // The dep field is unused on this path; its bits shape jitter.
            let work_jitter = scale16(r >> 48, work_per_op as u64 + 1) as u16;
            return MemOp {
                vaddr,
                write,
                work: work_per_op / 2 + work_jitter,
                dep_on_prev: false,
            };
        }
        let dep = ((r >> 48) as u16) < t.dep;
        let r2 = self.rng.next_u64();
        // Global cold trickle.
        if selector < t.cold_cum {
            let page = scale32(r2 >> 32, footprint_pages);
            return self.op_at(page, write, dep, r2);
        }
        // Hot component: bursts within Zipf-chosen hot regions.
        if self.burst_remaining == 0 {
            let rank = self.zipf.sample(&mut self.rng);
            self.burst_region_base = self.region_base_of_rank(rank);
            self.burst_remaining = 1 + self.rng.next_below(2 * self.params.burst_len as u64) as u32;
        }
        self.burst_remaining -= 1;
        let base = self.burst_region_base;
        let page = if ((r2 >> 16) as u16) < t.intra_cold {
            // Touch any page of the region, hot or cold.
            base + scale32(r2 >> 32, REGION_PAGES)
        } else {
            // A uniformly chosen hot-eligible page of the region, from the
            // precomputed per-region table (a region with no eligible
            // pages falls back to an arbitrary one).
            let (count, pages) = self.eligible_pages(base);
            if count == 0 {
                base + scale32(r2 >> 32, REGION_PAGES)
            } else {
                base + pages[scale32(r2 >> 32, count as u64) as usize] as u64
            }
        };
        let page = page.min(footprint_pages - 1);
        self.op_at(page, write, dep, r2)
    }

    /// Applies a phase shift: rebuilds the derived state (Zipf tables,
    /// draw thresholds, hot-region count) from the updated parameters and
    /// abandons any in-flight burst so the next hot access re-draws under
    /// the new skew. Deterministic — no RNG draws are consumed — so two
    /// runs applying the same shifts at the same op boundaries stay
    /// byte-identical.
    pub fn apply_phase(&mut self, shift: &PhaseShift) {
        if let Some(h) = shift.hot_fraction {
            self.params.hot_fraction = h;
        }
        if let Some(t) = shift.zipf_theta {
            self.params.zipf_theta = t;
        }
        if let Some(w) = shift.write_fraction {
            self.params.write_fraction = w;
        }
        if let Some(s) = shift.stream_fraction {
            self.params.stream_fraction = s;
        }
        self.hot_regions = ((self.num_regions as f64 * self.params.hot_fraction) as u64)
            .clamp(1, self.num_regions);
        self.zipf = Zipf::new(self.hot_regions, self.params.zipf_theta);
        self.thresholds = DrawThresholds::new(&self.params);
        self.burst_remaining = 0;
    }

    /// Fills `buf` with the next operations (convenience for batch runs).
    pub fn fill(&mut self, buf: &mut Vec<MemOp>, n: usize) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op()));
    }

    /// Clears `batch` and generates the next `n` operations into it. The
    /// batched run loop's generation phase: the arena's allocations are
    /// reused, so this never allocates in steady state.
    #[inline]
    pub fn fill_batch(&mut self, batch: &mut OpBatch, n: usize) {
        batch.clear();
        for _ in 0..n {
            let op = self.next_op();
            batch.push(op);
        }
    }
}

/// Only the stream position is state: the RNG, the current burst, and the
/// scan cursor. Everything else (Zipf tables, thresholds, the eligible-page
/// cache) is derived from the parameters and seed, which the restoring side
/// must construct identically — guarded here by the seed itself.
impl Snapshot for SyntheticWorkload {
    fn write_snapshot(&self, w: &mut SnapWriter) {
        w.u64(self.seed);
        self.rng.write_snapshot(w);
        w.u64(self.burst_region_base);
        w.u32(self.burst_remaining);
        w.u64(self.scan_cursor);
    }
}

impl Restore for SyntheticWorkload {
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.u64()? != self.seed {
            return Err(SnapError::Mismatch("workload seed"));
        }
        self.rng.restore_snapshot(r)?;
        let base = r.u64()?;
        if base >= self.params.footprint_pages || !base.is_multiple_of(REGION_PAGES) {
            return Err(SnapError::Corrupt("burst region out of footprint"));
        }
        self.burst_region_base = base;
        self.burst_remaining = r.u32()?;
        let cursor = r.u64()?;
        if cursor >= self.params.footprint_pages * (PAGE_BYTES / BLOCK_BYTES) {
            return Err(SnapError::Corrupt("scan cursor out of footprint"));
        }
        self.scan_cursor = cursor;
        Ok(())
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn demo(seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(WorkloadParams::demo(), seed)
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = demo(1);
        let mut b = demo(1);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = demo(1);
        let mut b = demo(2);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 50);
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let mut w = demo(3);
        let fp = w.params().footprint_pages;
        for _ in 0..10_000 {
            assert!(w.next_op().vaddr.page().index() < fp);
        }
    }

    #[test]
    fn hot_working_set_is_bounded() {
        let mut w = demo(4);
        let mut pages = HashSet::new();
        for _ in 0..200_000 {
            pages.insert(w.next_op().vaddr.page().index());
        }
        // The scan sweeps everything over time, but in a 200k window the
        // touched set should be well below the full footprint and above the
        // hot core.
        let fp = w.params().footprint_pages;
        assert!(pages.len() as u64 > fp / 10, "{} pages", pages.len());
    }

    #[test]
    fn region_popularity_is_skewed() {
        let mut p = WorkloadParams::demo();
        p.stream_fraction = 0.0;
        p.cold_fraction = 0.0;
        let mut w = SyntheticWorkload::new(p, 5);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for _ in 0..100_000 {
            let op = w.next_op();
            *counts
                .entry(op.vaddr.page().index() / REGION_PAGES)
                .or_default() += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).map(|&c| c as u64).sum();
        assert!(top10 > 15_000, "top-10 regions got only {top10}/100000");
    }

    #[test]
    fn bursts_have_region_locality() {
        let mut p = WorkloadParams::demo();
        p.stream_fraction = 0.0;
        p.cold_fraction = 0.0;
        p.dep_fraction = 0.0;
        let mut w = SyntheticWorkload::new(p, 6);
        // Consecutive ops should frequently share a 256 KB region.
        let mut same_region = 0;
        let mut prev = w.next_op().vaddr.page().index() / REGION_PAGES;
        let n = 10_000;
        for _ in 0..n {
            let r = w.next_op().vaddr.page().index() / REGION_PAGES;
            same_region += (r == prev) as u32;
            prev = r;
        }
        assert!(
            same_region as f64 / n as f64 > 0.7,
            "only {same_region}/{n} consecutive pairs share a region"
        );
    }

    #[test]
    fn within_region_skew_exists() {
        let w = demo(7);
        let eligible = (0..64u64).filter(|&p| w.is_eligible(p)).count();
        // ~70% of pages eligible, but not all and not none.
        assert!((20..64).contains(&eligible), "{eligible}/64 eligible");
    }

    #[test]
    fn cold_trickle_reaches_everywhere() {
        let mut p = WorkloadParams::demo();
        p.cold_fraction = 1.0;
        p.stream_fraction = 0.0;
        let mut w = SyntheticWorkload::new(p, 8);
        let mut regions = HashSet::new();
        for _ in 0..20_000 {
            regions.insert(w.next_op().vaddr.page().index() / REGION_PAGES);
        }
        // Uniform cold accesses should touch most regions.
        assert!(regions.len() as u64 > w.num_regions / 2);
    }

    #[test]
    fn dependence_and_write_fractions_hold() {
        let mut w = demo(9);
        let n = 50_000;
        let mut deps = 0;
        let mut writes = 0;
        for _ in 0..n {
            let op = w.next_op();
            deps += op.dep_on_prev as u64;
            writes += op.write as u64;
        }
        let dep_frac = deps as f64 / n as f64;
        let write_frac = writes as f64 / n as f64;
        // dep applies to the non-scan (85%) portion: 0.6 * 0.85 = 0.51.
        assert!((0.4..0.6).contains(&dep_frac), "dep {dep_frac}");
        assert!((0.25..0.35).contains(&write_frac), "writes {write_frac}");
    }

    #[test]
    fn scan_component_is_sequential() {
        let mut p = WorkloadParams::demo();
        p.stream_fraction = 1.0;
        let mut w = SyntheticWorkload::new(p, 10);
        let a = w.next_op().vaddr;
        let b = w.next_op().vaddr;
        assert_eq!(b.raw() - a.raw(), BLOCK_BYTES);
    }

    #[test]
    fn profile_matches_requested_ratio() {
        let w = demo(11);
        assert!((w.profile().mean_ratio() - 3.4).abs() < 0.3);
    }

    #[test]
    fn snapshot_resumes_the_exact_stream() {
        let mut w = demo(13);
        for _ in 0..5000 {
            w.next_op();
        }
        let mut sw = SnapWriter::new();
        w.write_snapshot(&mut sw);
        let snap = sw.into_bytes();

        let expected: Vec<MemOp> = (0..1000).map(|_| w.next_op()).collect();

        let mut fresh = demo(13);
        let mut r = SnapReader::new(&snap);
        fresh.restore_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        let resumed: Vec<MemOp> = (0..1000).map(|_| fresh.next_op()).collect();
        assert_eq!(expected, resumed);
    }

    #[test]
    fn snapshot_rejects_wrong_seed_and_garbage() {
        let w = demo(14);
        let mut sw = SnapWriter::new();
        w.write_snapshot(&mut sw);
        let snap = sw.into_bytes();

        let mut other = demo(15);
        assert!(matches!(
            other.restore_snapshot(&mut SnapReader::new(&snap)),
            Err(SnapError::Mismatch("workload seed"))
        ));

        let mut same = demo(14);
        for cut in 0..snap.len() {
            let mut r = SnapReader::new(&snap[..cut]);
            let res = same.restore_snapshot(&mut r).and_then(|()| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn phase_shifts_are_deterministic_and_change_behavior() {
        let shift = PhaseShift {
            hot_fraction: Some(0.05),
            zipf_theta: Some(1.3),
            ..PhaseShift::default()
        };
        let run = |apply: bool| {
            let mut w = demo(21);
            for _ in 0..5_000 {
                w.next_op();
            }
            if apply {
                w.apply_phase(&shift);
            }
            let mut regions = HashSet::new();
            for _ in 0..50_000 {
                regions.insert(w.next_op().vaddr.page().index() / REGION_PAGES);
            }
            regions.len()
        };
        // Deterministic: same shift at the same boundary, same stream.
        let mut a = demo(22);
        let mut b = demo(22);
        for _ in 0..1_000 {
            a.next_op();
            b.next_op();
        }
        a.apply_phase(&shift);
        b.apply_phase(&shift);
        for _ in 0..1_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        // Behavioral: shrinking the hot set shrinks the touched regions.
        assert!(run(true) < run(false));
    }

    #[test]
    fn phase_shift_keeps_snapshot_contract() {
        // Snapshot after a shift, restore onto a fresh workload with the
        // same shift re-applied: streams agree.
        let shift = PhaseShift {
            write_fraction: Some(0.9),
            ..PhaseShift::default()
        };
        let mut w = demo(23);
        for _ in 0..2_000 {
            w.next_op();
        }
        w.apply_phase(&shift);
        for _ in 0..500 {
            w.next_op();
        }
        let mut sw = SnapWriter::new();
        w.write_snapshot(&mut sw);
        let snap = sw.into_bytes();
        let expected: Vec<MemOp> = (0..500).map(|_| w.next_op()).collect();

        let mut fresh = demo(23);
        fresh.apply_phase(&shift);
        let mut r = SnapReader::new(&snap);
        fresh.restore_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        let resumed: Vec<MemOp> = (0..500).map(|_| fresh.next_op()).collect();
        assert_eq!(expected, resumed);
    }

    #[test]
    fn pages_reuse_few_blocks() {
        let mut p = WorkloadParams::demo();
        p.stream_fraction = 0.0;
        p.cold_fraction = 0.0;
        let mut w = SyntheticWorkload::new(p, 12);
        let mut blocks: HashMap<u64, HashSet<u64>> = HashMap::new();
        for _ in 0..50_000 {
            let op = w.next_op();
            blocks
                .entry(op.vaddr.page().index())
                .or_default()
                .insert(op.vaddr.block_index());
        }
        let max_blocks = blocks.values().map(HashSet::len).max().unwrap();
        assert!(
            max_blocks as u64 <= WorkloadParams::demo().hot_blocks_per_page,
            "pages should reuse at most hot_blocks_per_page blocks"
        );
    }
}
