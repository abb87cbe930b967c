//! FR-FCFS transaction scheduling with bank-state timing.
//!
//! Requests are submitted with an arrival time and scheduled in *batches*
//! ([`ChannelScheduler::drain`]): within a batch the scheduler repeatedly
//! picks, among requests that have arrived, the oldest row-buffer hit (up to
//! the configured per-bank hit cap, for fairness) or, failing that, the
//! oldest request overall — the "FR-FCFS policy with bank fairness and row
//! buffer hit cap" from the paper's Table 3. Bank-level parallelism emerges
//! from per-bank ready times; the shared data bus serializes bursts; rank
//! refresh windows block their rank for `tRFC` every `tREFI`.
//!
//! The issue order is observable output (every completion time follows
//! from it), including the tie-break: among equally old candidates the
//! lowest index in `pending` wins, and `pending` is permuted by each
//! `swap_remove`. The drain keeps that order exactly while skipping most
//! of the per-pick scans; a `#[cfg(test)]` copy of the plain quadratic
//! drain is the oracle that pins it.

use dylect_sim_core::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use dylect_sim_core::Time;

use crate::config::{DramConfig, DramTiming};
use crate::mapping::Location;
use crate::stats::{DramStats, RequestClass, RowOutcome};

/// Identifier of a submitted request, unique per [`crate::Dram`] instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub(crate) u64);

/// Read or write.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DramOp {
    /// A 64 B read burst.
    Read,
    /// A 64 B write burst.
    Write,
}

/// How one completed request spent its time: waiting on contention
/// (`queue`) versus being served by the bank/bus (`service`). `service` is
/// the *unloaded* latency of the request's command chain for its row
/// outcome (hit: CAS + burst; miss: + activate; conflict: + precharge);
/// everything else — bank-ready waits, shared-bus serialization, refresh
/// windows — is queueing delay. The split is conservative by construction:
/// `queue + service == done - arrival`. Telemetry-only — never serialized
/// into run reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CompletionDetail {
    /// Time of the last data beat.
    pub done: Time,
    /// Contention share: arrival → done minus the unloaded service time.
    pub queue: Time,
    /// Unloaded bank access plus data-bus transfer.
    pub service: Time,
}

#[derive(Copy, Clone, Debug)]
struct Pending {
    id: ReqId,
    arrival: Time,
    row: u64,
    /// Flat bank index within the channel (`rank * banks_per_rank + bank`).
    bank: u32,
    rank: u32,
    op: DramOp,
    class: RequestClass,
}

/// What a drain knows about `pending` between picks, so that most picks
/// stop scanning early. Local to one drain: requests are only submitted
/// between drains, and a drain removes one per pick.
struct Picks {
    /// The earliest arrival among pending requests.
    min_arrival: Time,
    /// How many pending requests arrived at `min_arrival`.
    at_min: usize,
    /// Pending reads; while any remain, every read outranks every write.
    reads: usize,
    /// No pending request is a row-hit candidate under the current bank
    /// state. Set by a full scan that finds none; an issue keeps it only if
    /// it leaves its bank at the hit cap, because no other bank changed.
    hit_free: bool,
}

impl Picks {
    fn new(pending: &[Pending]) -> Self {
        let mut picks = Picks {
            min_arrival: Time::MAX,
            at_min: 0,
            reads: pending.iter().filter(|p| p.op == DramOp::Read).count(),
            hit_free: false,
        };
        picks.rescan_min(pending);
        picks
    }

    fn rescan_min(&mut self, pending: &[Pending]) {
        self.min_arrival = Time::MAX;
        self.at_min = 0;
        for p in pending {
            if p.arrival < self.min_arrival {
                self.min_arrival = p.arrival;
                self.at_min = 1;
            } else if p.arrival == self.min_arrival {
                self.at_min += 1;
            }
        }
    }

    /// Accounts for `req` having left `pending`.
    fn removed(&mut self, req: &Pending, pending: &[Pending]) {
        if req.op == DramOp::Read {
            self.reads -= 1;
        }
        if req.arrival == self.min_arrival {
            self.at_min -= 1;
            if self.at_min == 0 {
                self.rescan_min(pending);
            }
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct BankState {
    open_row: Option<u64>,
    /// When the currently open row was activated (for tRAS).
    act_time: Time,
    /// Earliest time the next CAS may issue to the open row.
    ready_cas: Time,
    /// Earliest time a precharge may issue (write recovery etc.).
    ready_pre: Time,
    /// Earliest time an activate may issue (after precharge completes).
    ready_act: Time,
}

impl BankState {
    fn new() -> Self {
        BankState {
            open_row: None,
            act_time: Time::ZERO,
            ready_cas: Time::ZERO,
            ready_pre: Time::ZERO,
            ready_act: Time::ZERO,
        }
    }
}

/// One channel's scheduler state.
#[derive(Clone, Debug)]
pub(crate) struct ChannelScheduler {
    timing: DramTiming,
    row_hit_cap: u32,
    banks: Vec<BankState>,
    hit_streak: Vec<u32>,
    /// Next scheduled refresh start per rank.
    next_refresh: Vec<Time>,
    banks_per_rank: u32,
    bus_free: Time,
    sched_time: Time,
    pending: Vec<Pending>,
}

impl ChannelScheduler {
    pub fn new(cfg: &DramConfig) -> Self {
        let banks_per_rank = cfg.geometry.banks_total();
        let total_banks = (banks_per_rank * cfg.geometry.ranks) as usize;
        ChannelScheduler {
            timing: cfg.timing,
            row_hit_cap: cfg.scheduler.row_hit_cap,
            banks: vec![BankState::new(); total_banks],
            hit_streak: vec![0; total_banks],
            next_refresh: vec![cfg.timing.t_refi; cfg.geometry.ranks as usize],
            banks_per_rank,
            bus_free: Time::ZERO,
            sched_time: Time::ZERO,
            pending: Vec::new(),
        }
    }

    pub fn submit(
        &mut self,
        id: ReqId,
        arrival: Time,
        loc: Location,
        op: DramOp,
        class: RequestClass,
    ) {
        self.pending.push(Pending {
            id,
            arrival,
            row: loc.row,
            bank: loc.rank * self.banks_per_rank + loc.bank,
            rank: loc.rank,
            op,
            class,
        });
    }

    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether `p` would be a row-buffer hit the hit cap still allows.
    fn is_hit(&self, p: &Pending) -> bool {
        let bank = p.bank as usize;
        self.banks[bank].open_row == Some(p.row) && self.hit_streak[bank] < self.row_hit_cap
    }

    /// Advances the rank's refresh schedule up to `t`, counting elapsed
    /// refreshes, and returns the earliest time >= `t` outside any refresh
    /// window.
    fn refresh_adjust(&mut self, rank: u32, t: Time, stats: &mut DramStats) -> Time {
        let next = &mut self.next_refresh[rank as usize];
        let mut t = t;
        // Retire refresh windows that completed before t.
        while *next + self.timing.t_rfc <= t {
            *next += self.timing.t_refi;
            stats.refreshes.incr();
        }
        // If t falls inside the current window, wait it out.
        if t >= *next {
            t = *next + self.timing.t_rfc;
            *next += self.timing.t_refi;
            stats.refreshes.incr();
        }
        t
    }

    /// Selects the index (into `pending`) of the next request to issue among
    /// those that arrived by `t`: FR-FCFS with a row-hit cap, and — as in
    /// real controllers with buffered writes — reads take priority over
    /// writes. Ties go to the lowest index.
    ///
    /// Nothing pending arrived before `picks.min_arrival`, so the first
    /// request of the leading op (reads while any are pending) at that
    /// arrival wins outright if it is a hit, or whenever no hit is pending;
    /// the scan stops there. Otherwise it runs to the end and records
    /// whether it saw any hit candidate.
    fn select(&self, t: Time, picks: &mut Picks) -> usize {
        let lead = if picks.reads > 0 {
            DramOp::Read
        } else {
            DramOp::Write
        };
        let mut any_hit = false;
        let mut best_hit_rd: Option<(Time, usize)> = None;
        let mut best_rd: Option<(Time, usize)> = None;
        let mut best_hit_wr: Option<(Time, usize)> = None;
        let mut best_wr: Option<(Time, usize)> = None;
        for (i, p) in self.pending.iter().enumerate() {
            let is_hit = !picks.hit_free && self.is_hit(p);
            if p.arrival == picks.min_arrival && p.op == lead && (is_hit || picks.hit_free) {
                return i;
            }
            any_hit |= is_hit;
            if p.arrival > t {
                continue;
            }
            let (best_hit, best_any) = match p.op {
                DramOp::Read => (&mut best_hit_rd, &mut best_rd),
                DramOp::Write => (&mut best_hit_wr, &mut best_wr),
            };
            if is_hit && best_hit.is_none_or(|(a, _)| p.arrival < a) {
                *best_hit = Some((p.arrival, i));
            }
            if best_any.is_none_or(|(a, _)| p.arrival < a) {
                *best_any = Some((p.arrival, i));
            }
        }
        picks.hit_free = !any_hit;
        best_hit_rd
            .or(best_rd)
            .or(best_hit_wr)
            .or(best_wr)
            .map(|(_, i)| i)
            .expect("the request at min_arrival has arrived by t")
    }

    /// Schedules every pending request to completion, appending each
    /// `(id, detail)` to `out` in issue order.
    pub fn drain(&mut self, stats: &mut DramStats, out: &mut Vec<(ReqId, CompletionDetail)>) {
        let mut picks = Picks::new(&self.pending);
        while !self.pending.is_empty() {
            let t = self.sched_time.max(picks.min_arrival);
            let idx = self.select(t, &mut picks);
            let req = self.pending.swap_remove(idx);
            let detail = self.issue(t, &req, stats);
            out.push((req.id, detail));
            self.sched_time = t;
            if self.hit_streak[req.bank as usize] < self.row_hit_cap {
                picks.hit_free = false;
            }
            picks.removed(&req, &self.pending);
        }
    }

    /// Issues one request no earlier than `t`; returns its completion
    /// detail (done time plus the queue/service split) and updates
    /// bank/bus state and statistics.
    fn issue(&mut self, t: Time, req: &Pending, stats: &mut DramStats) -> CompletionDetail {
        let tm = self.timing;
        let t = t.max(req.arrival);
        let t = self.refresh_adjust(req.rank, t, stats);
        let bank_idx = req.bank as usize;
        let bank = &mut self.banks[bank_idx];

        let (cas_ready, outcome) = match bank.open_row {
            Some(row) if row == req.row => (t.max(bank.ready_cas), RowOutcome::Hit),
            Some(_) => {
                // Conflict: precharge, then activate the new row.
                let pre_at = t.max(bank.ready_pre).max(bank.act_time + tm.t_ras);
                let act_at = (pre_at + tm.t_rp).max(bank.ready_act);
                bank.act_time = act_at;
                stats.activates.incr();
                (act_at + tm.t_rcd, RowOutcome::Conflict)
            }
            None => {
                // Closed bank: activate.
                let act_at = t.max(bank.ready_act);
                bank.act_time = act_at;
                stats.activates.incr();
                (act_at + tm.t_rcd, RowOutcome::Miss)
            }
        };
        bank.open_row = Some(req.row);

        let cas_to_data = match req.op {
            DramOp::Read => tm.t_cl,
            DramOp::Write => tm.t_cwl,
        };
        // The data burst needs the shared bus; if the bus is busy the CAS is
        // effectively delayed.
        let data_start = (cas_ready + cas_to_data).max(self.bus_free);
        let cas_at = data_start - cas_to_data;
        let done = data_start + tm.t_bl;
        self.bus_free = done;

        bank.ready_cas = cas_at + tm.t_bl;
        bank.ready_pre = match req.op {
            DramOp::Read => done,
            DramOp::Write => done + tm.t_wr,
        }
        .max(bank.act_time + tm.t_ras);
        bank.ready_act = bank.ready_pre + tm.t_rp;

        // Fairness bookkeeping.
        match outcome {
            RowOutcome::Hit => self.hit_streak[bank_idx] += 1,
            _ => self.hit_streak[bank_idx] = 0,
        }

        stats.record(req.op, req.class, outcome, req.arrival, done);
        stats.bus_busy += tm.t_bl;
        let service = match outcome {
            RowOutcome::Hit => cas_to_data + tm.t_bl,
            RowOutcome::Miss => tm.t_rcd + cas_to_data + tm.t_bl,
            RowOutcome::Conflict => tm.t_rp + tm.t_rcd + cas_to_data + tm.t_bl,
        };
        CompletionDetail {
            done,
            queue: (done - req.arrival) - service,
            service,
        }
    }
}

// Snapshots are taken at window boundaries, where every submitted request
// has been drained — so `pending` is not serialized, only asserted empty. Timing/geometry
// (`timing`, `row_hit_cap`, `banks_per_rank`) is construction state.
impl Snapshot for ChannelScheduler {
    fn write_snapshot(&self, w: &mut SnapWriter) {
        debug_assert!(
            self.pending.is_empty(),
            "channel snapshot requires a drained scheduler"
        );
        w.seq(self.banks.len());
        for b in &self.banks {
            match b.open_row {
                Some(row) => {
                    w.bool(true);
                    w.u64(row);
                }
                None => w.bool(false),
            }
            b.act_time.write_snapshot(w);
            b.ready_cas.write_snapshot(w);
            b.ready_pre.write_snapshot(w);
            b.ready_act.write_snapshot(w);
        }
        for &s in &self.hit_streak {
            w.u32(s);
        }
        w.seq(self.next_refresh.len());
        for t in &self.next_refresh {
            t.write_snapshot(w);
        }
        self.bus_free.write_snapshot(w);
        self.sched_time.write_snapshot(w);
    }
}

impl Restore for ChannelScheduler {
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.fixed_seq(self.banks.len(), "bank count")?;
        for b in &mut self.banks {
            b.open_row = if r.bool()? { Some(r.u64()?) } else { None };
            b.act_time.restore_snapshot(r)?;
            b.ready_cas.restore_snapshot(r)?;
            b.ready_pre.restore_snapshot(r)?;
            b.ready_act.restore_snapshot(r)?;
        }
        for s in &mut self.hit_streak {
            *s = r.u32()?;
        }
        r.fixed_seq(self.next_refresh.len(), "rank count")?;
        for t in &mut self.next_refresh {
            t.restore_snapshot(r)?;
        }
        self.bus_free.restore_snapshot(r)?;
        self.sched_time.restore_snapshot(r)?;
        self.pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramGeometry, SchedulerConfig};
    use dylect_sim_core::check::forall;

    impl ChannelScheduler {
        /// The plain FR-FCFS drain: a min-arrival pass and a full
        /// [`reference_select`](Self::reference_select) scan per pick. The
        /// oracle for [`drain`](Self::drain).
        fn reference_drain(
            &mut self,
            stats: &mut DramStats,
            out: &mut Vec<(ReqId, CompletionDetail)>,
        ) {
            while !self.pending.is_empty() {
                let min_arrival = self
                    .pending
                    .iter()
                    .map(|p| p.arrival)
                    .min()
                    .expect("non-empty pending");
                let t = self.sched_time.max(min_arrival);
                let idx = self
                    .reference_select(t)
                    .expect("candidate exists at or after t");
                let req = self.pending.swap_remove(idx);
                let detail = self.issue(t, &req, stats);
                out.push((req.id, detail));
                self.sched_time = t;
            }
        }

        fn reference_select(&self, t: Time) -> Option<usize> {
            let mut best_hit_rd: Option<(Time, usize)> = None;
            let mut best_rd: Option<(Time, usize)> = None;
            let mut best_hit_wr: Option<(Time, usize)> = None;
            let mut best_wr: Option<(Time, usize)> = None;
            for (i, p) in self.pending.iter().enumerate() {
                if p.arrival > t {
                    continue;
                }
                let is_hit = self.is_hit(p);
                let (best_hit, best_any) = match p.op {
                    DramOp::Read => (&mut best_hit_rd, &mut best_rd),
                    DramOp::Write => (&mut best_hit_wr, &mut best_wr),
                };
                if is_hit && best_hit.is_none_or(|(a, _)| p.arrival < a) {
                    *best_hit = Some((p.arrival, i));
                }
                if best_any.is_none_or(|(a, _)| p.arrival < a) {
                    *best_any = Some((p.arrival, i));
                }
            }
            best_hit_rd
                .or(best_rd)
                .or(best_hit_wr)
                .or(best_wr)
                .map(|(_, i)| i)
        }
    }

    fn snapshot_bytes(s: &ChannelScheduler) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.write_snapshot(&mut w);
        w.into_bytes()
    }

    /// The incremental drain issues exactly what the quadratic one does —
    /// same requests in the same order with the same timing, same stats,
    /// same bank state — over random multi-round batches on a small
    /// geometry where hits, conflicts, the hit cap and the read/write
    /// split all interact, with scheduler state carried across rounds.
    #[test]
    fn drain_matches_the_quadratic_reference() {
        forall("incremental drain == reference drain", 1200, |g| {
            let cfg = DramConfig {
                geometry: DramGeometry {
                    channels: 1,
                    ranks: 2,
                    bank_groups: 1,
                    banks_per_group: 3,
                    row_bytes: 8192,
                    rows: 3,
                },
                timing: DramTiming::ddr4_3200(),
                scheduler: SchedulerConfig {
                    row_hit_cap: g.range(0, 5) as u32,
                },
            };
            let mut fast = ChannelScheduler::new(&cfg);
            let mut slow = fast.clone();
            let (mut fast_stats, mut slow_stats) = (DramStats::default(), DramStats::default());
            let mut next_id = 0;
            for round in 0..g.range(1, 4) {
                // A few distinct arrivals around the scheduler's clock:
                // some already past, some still ahead of it.
                let base = fast.sched_time;
                let arrivals: Vec<Time> = (0..g.range(1, 3))
                    .map(|_| match g.u64_below(4) {
                        0 => base.saturating_sub(Time::from_ns(20.0)),
                        1 => base,
                        k => base + Time::from_ns(7.5 * k as f64),
                    })
                    .collect();
                for _ in 0..g.range(1, 80) {
                    let loc = Location {
                        channel: 0,
                        rank: g.u64_below(2) as u32,
                        bank: g.u64_below(3) as u32,
                        row: g.u64_below(3),
                        column: 0,
                    };
                    let arrival = arrivals[g.u64_below(arrivals.len() as u64) as usize];
                    let op = if g.bool() {
                        DramOp::Read
                    } else {
                        DramOp::Write
                    };
                    for s in [&mut fast, &mut slow] {
                        s.submit(ReqId(next_id), arrival, loc, op, RequestClass::Demand);
                    }
                    next_id += 1;
                }
                let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
                fast.drain(&mut fast_stats, &mut fast_out);
                slow.reference_drain(&mut slow_stats, &mut slow_out);
                if fast_out != slow_out {
                    let at = fast_out.iter().zip(&slow_out).position(|(a, b)| a != b);
                    return Err(format!("round {round}: issue order differs at pick {at:?}"));
                }
                if fast_stats != slow_stats {
                    return Err(format!("round {round}: stats differ"));
                }
                if snapshot_bytes(&fast) != snapshot_bytes(&slow) {
                    return Err(format!("round {round}: scheduler state differs"));
                }
            }
            Ok(())
        });
    }
}
