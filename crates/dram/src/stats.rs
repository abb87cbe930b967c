//! DRAM traffic statistics.

use dylect_sim_core::kv::{KvReader, KvWriter};
use dylect_sim_core::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use dylect_sim_core::stats::{Counter, MeanAccumulator};
use dylect_sim_core::Time;

use crate::scheduler::DramOp;

// Why a request generated traffic — used to break memory traffic down the
// way the paper's Figures 22–23 do (demand vs. CTE fetches vs. page
// migration etc.). The enum itself lives in `sim-core` so the telemetry
// attribution layer can key on it without depending on this crate; it is
// re-exported here, where the rest of the workspace has always imported it
// from.
pub use dylect_sim_core::probe::RequestClass;

/// Row-buffer outcome of one request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RowOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was closed (activate only).
    Miss,
    /// Another row was open (precharge + activate).
    Conflict,
}

/// Read- and write-queue occupancy statistics — telemetry-only (sampled by
/// the observability layer, never serialized into run reports). Depth is
/// observed at each submit, so the mean depths are the same-kind queue
/// depth seen by an arriving request.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Read-class requests submitted.
    pub read_submits: u64,
    /// Sum over read submits of the read-queue depth right after enqueue.
    pub read_depth_sum: u64,
    /// Deepest read queue observed.
    pub read_max_depth: u64,
    /// Write-class requests submitted.
    pub write_submits: u64,
    /// Sum over write submits of the write-queue depth right after enqueue.
    pub write_depth_sum: u64,
    /// Deepest write queue observed.
    pub write_max_depth: u64,
}

impl QueueStats {
    pub(crate) fn on_submit_read(&mut self, depth: u64) {
        self.read_submits += 1;
        self.read_depth_sum += depth;
        self.read_max_depth = self.read_max_depth.max(depth);
    }

    pub(crate) fn on_submit_write(&mut self, depth: u64) {
        self.write_submits += 1;
        self.write_depth_sum += depth;
        self.write_max_depth = self.write_max_depth.max(depth);
    }

    /// Accounts for `n` submits of `op` into an empty queue, as `n` calls
    /// to `on_submit_read`/`on_submit_write` at depths `1..=n` would.
    pub(crate) fn on_submit_train(&mut self, op: DramOp, n: u64) {
        let (submits, depth_sum, max_depth) = match op {
            DramOp::Read => (
                &mut self.read_submits,
                &mut self.read_depth_sum,
                &mut self.read_max_depth,
            ),
            DramOp::Write => (
                &mut self.write_submits,
                &mut self.write_depth_sum,
                &mut self.write_max_depth,
            ),
        };
        *submits += n;
        *depth_sum += n * (n + 1) / 2;
        *max_depth = (*max_depth).max(n);
    }

    /// Mean read-queue depth seen by an arriving read (0 with no submits).
    pub fn mean_read_depth(&self) -> f64 {
        if self.read_submits == 0 {
            0.0
        } else {
            self.read_depth_sum as f64 / self.read_submits as f64
        }
    }

    /// Mean write-queue depth seen by an arriving write (0 with no
    /// submits).
    pub fn mean_write_depth(&self) -> f64 {
        if self.write_submits == 0 {
            0.0
        } else {
            self.write_depth_sum as f64 / self.write_submits as f64
        }
    }

    /// Folds another DRAM system's queue statistics into this one
    /// (multi-MC aggregation).
    pub fn merge(&mut self, other: &QueueStats) {
        self.read_submits += other.read_submits;
        self.read_depth_sum += other.read_depth_sum;
        self.read_max_depth = self.read_max_depth.max(other.read_max_depth);
        self.write_submits += other.write_submits;
        self.write_depth_sum += other.write_depth_sum;
        self.write_max_depth = self.write_max_depth.max(other.write_max_depth);
    }
}

/// Aggregate counters for one DRAM system.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DramStats {
    /// Total read bursts served.
    pub reads: Counter,
    /// Total write bursts served.
    pub writes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses (closed bank).
    pub row_misses: Counter,
    /// Row-buffer conflicts (wrong row open).
    pub row_conflicts: Counter,
    /// Activate commands issued.
    pub activates: Counter,
    /// Refresh commands issued (accrued as simulated time passes).
    pub refreshes: Counter,
    /// Total data-bus busy time (for bandwidth utilization).
    pub bus_busy: Time,
    /// Mean request latency (arrival to last data beat), nanoseconds.
    pub latency: MeanAccumulator,
    /// 64 B bursts per [`RequestClass`].
    per_class: [Counter; 7],
}

impl DramStats {
    pub(crate) fn record(
        &mut self,
        op: DramOp,
        class: RequestClass,
        outcome: RowOutcome,
        arrival: Time,
        done: Time,
    ) {
        match op {
            DramOp::Read => self.reads.incr(),
            DramOp::Write => self.writes.incr(),
        }
        match outcome {
            RowOutcome::Hit => self.row_hits.incr(),
            RowOutcome::Miss => self.row_misses.incr(),
            RowOutcome::Conflict => self.row_conflicts.incr(),
        }
        self.per_class[class.index()].incr();
        self.latency.record_time_ns(done.saturating_sub(arrival));
    }

    /// Records `n` row-hit bursts on the data bus back to back, the first
    /// done `t_bl` after `prev_done`, as `n` calls to `record` would: the
    /// latency samples are still folded one by one, in order.
    pub(crate) fn record_hit_train(
        &mut self,
        op: DramOp,
        class: RequestClass,
        arrival: Time,
        prev_done: Time,
        t_bl: Time,
        n: u64,
    ) {
        match op {
            DramOp::Read => self.reads.add(n),
            DramOp::Write => self.writes.add(n),
        }
        self.row_hits.add(n);
        self.per_class[class.index()].add(n);
        self.bus_busy += t_bl * n;
        let mut done = prev_done;
        for _ in 0..n {
            done += t_bl;
            self.latency.record_time_ns(done.saturating_sub(arrival));
        }
    }

    /// Folds another DRAM system's statistics into this one (multi-MC
    /// aggregation).
    pub fn merge(&mut self, other: &DramStats) {
        self.reads.merge(other.reads);
        self.writes.merge(other.writes);
        self.row_hits.merge(other.row_hits);
        self.row_misses.merge(other.row_misses);
        self.row_conflicts.merge(other.row_conflicts);
        self.activates.merge(other.activates);
        self.refreshes.merge(other.refreshes);
        self.bus_busy += other.bus_busy;
        self.latency.merge(&other.latency);
        for (i, c) in other.per_class.iter().enumerate() {
            self.per_class[i].merge(*c);
        }
    }

    /// 64 B bursts attributed to `class`.
    pub fn class_blocks(&self, class: RequestClass) -> u64 {
        self.per_class[class.index()].get()
    }

    /// Total 64 B bursts served.
    pub fn total_blocks(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }

    /// Total bytes moved over the data bus.
    pub fn total_bytes(&self) -> u64 {
        self.total_blocks() * dylect_sim_core::BLOCK_BYTES
    }

    /// Data-bus utilization over `elapsed` simulated time (0..1 per
    /// channel-count of 1).
    pub fn bus_utilization(&self, elapsed: Time) -> f64 {
        if elapsed == Time::ZERO {
            0.0
        } else {
            self.bus_busy.as_ps() as f64 / elapsed.as_ps() as f64
        }
    }

    /// Row-buffer hit rate across all requests.
    pub fn row_hit_rate(&self) -> f64 {
        self.row_hits.fraction_of(self.total_blocks())
    }

    /// Serializes every field under `prefix` into a report-cache record.
    pub fn write_kv(&self, w: &mut KvWriter, prefix: &str) {
        w.put_u64(&format!("{prefix}.reads"), self.reads.get());
        w.put_u64(&format!("{prefix}.writes"), self.writes.get());
        w.put_u64(&format!("{prefix}.row_hits"), self.row_hits.get());
        w.put_u64(&format!("{prefix}.row_misses"), self.row_misses.get());
        w.put_u64(&format!("{prefix}.row_conflicts"), self.row_conflicts.get());
        w.put_u64(&format!("{prefix}.activates"), self.activates.get());
        w.put_u64(&format!("{prefix}.refreshes"), self.refreshes.get());
        w.put_u64(&format!("{prefix}.bus_busy_ps"), self.bus_busy.as_ps());
        w.put_f64(&format!("{prefix}.latency.sum"), self.latency.sum());
        w.put_u64(&format!("{prefix}.latency.count"), self.latency.count());
        for class in RequestClass::ALL {
            w.put_u64(
                &format!("{prefix}.class.{class}"),
                self.per_class[class.index()].get(),
            );
        }
    }

    /// Inverse of [`DramStats::write_kv`]; `None` if any field is missing.
    pub fn read_kv(r: &KvReader, prefix: &str) -> Option<DramStats> {
        let counter = |name: &str| -> Option<Counter> {
            Some(Counter::from_value(r.get_u64(&format!("{prefix}.{name}"))?))
        };
        let mut per_class = [Counter::default(); 7];
        for class in RequestClass::ALL {
            per_class[class.index()] = counter(&format!("class.{class}"))?;
        }
        Some(DramStats {
            reads: counter("reads")?,
            writes: counter("writes")?,
            row_hits: counter("row_hits")?,
            row_misses: counter("row_misses")?,
            row_conflicts: counter("row_conflicts")?,
            activates: counter("activates")?,
            refreshes: counter("refreshes")?,
            bus_busy: Time::from_ps(r.get_u64(&format!("{prefix}.bus_busy_ps"))?),
            latency: MeanAccumulator::from_parts(
                r.get_f64(&format!("{prefix}.latency.sum"))?,
                r.get_u64(&format!("{prefix}.latency.count"))?,
            ),
            per_class,
        })
    }
}

impl Snapshot for QueueStats {
    fn write_snapshot(&self, w: &mut SnapWriter) {
        w.u64(self.read_submits);
        w.u64(self.read_depth_sum);
        w.u64(self.read_max_depth);
        w.u64(self.write_submits);
        w.u64(self.write_depth_sum);
        w.u64(self.write_max_depth);
    }
}

impl Restore for QueueStats {
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.read_submits = r.u64()?;
        self.read_depth_sum = r.u64()?;
        self.read_max_depth = r.u64()?;
        self.write_submits = r.u64()?;
        self.write_depth_sum = r.u64()?;
        self.write_max_depth = r.u64()?;
        Ok(())
    }
}

impl Snapshot for DramStats {
    fn write_snapshot(&self, w: &mut SnapWriter) {
        self.reads.write_snapshot(w);
        self.writes.write_snapshot(w);
        self.row_hits.write_snapshot(w);
        self.row_misses.write_snapshot(w);
        self.row_conflicts.write_snapshot(w);
        self.activates.write_snapshot(w);
        self.refreshes.write_snapshot(w);
        self.bus_busy.write_snapshot(w);
        self.latency.write_snapshot(w);
        for c in &self.per_class {
            c.write_snapshot(w);
        }
    }
}

impl Restore for DramStats {
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.reads.restore_snapshot(r)?;
        self.writes.restore_snapshot(r)?;
        self.row_hits.restore_snapshot(r)?;
        self.row_misses.restore_snapshot(r)?;
        self.row_conflicts.restore_snapshot(r)?;
        self.activates.restore_snapshot(r)?;
        self.refreshes.restore_snapshot(r)?;
        self.bus_busy.restore_snapshot(r)?;
        self.latency.restore_snapshot(r)?;
        for c in &mut self.per_class {
            c.restore_snapshot(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_accounting() {
        let mut s = DramStats::default();
        s.record(
            DramOp::Read,
            RequestClass::Demand,
            RowOutcome::Hit,
            Time::ZERO,
            Time::from_ns(30.0),
        );
        s.record(
            DramOp::Write,
            RequestClass::Migration,
            RowOutcome::Conflict,
            Time::ZERO,
            Time::from_ns(60.0),
        );
        assert_eq!(s.reads.get(), 1);
        assert_eq!(s.writes.get(), 1);
        assert_eq!(s.class_blocks(RequestClass::Demand), 1);
        assert_eq!(s.class_blocks(RequestClass::Migration), 1);
        assert_eq!(s.class_blocks(RequestClass::CteFetch), 0);
        assert_eq!(s.total_bytes(), 128);
        assert_eq!(s.latency.mean(), 45.0);
        assert_eq!(s.row_hit_rate(), 0.5);
    }

    #[test]
    fn class_display_names() {
        assert_eq!(RequestClass::CteFetch.to_string(), "cte_fetch");
        assert_eq!(RequestClass::ALL.len(), 7);
    }

    #[test]
    fn utilization_guards_zero() {
        let s = DramStats::default();
        assert_eq!(s.bus_utilization(Time::ZERO), 0.0);
    }
}
