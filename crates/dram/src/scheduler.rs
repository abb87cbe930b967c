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
//!
//! Most calls skip the drain: on an idle channel,
//! [`ChannelScheduler::issue_train`] serves a run of same-row, same-op
//! requests — a page transfer, or a single burst — in closed form, with
//! the result the drain would give; a property test pins it against the
//! drain.

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

    /// Issues the one pending request and `n - 1` more like it (same
    /// arrival, row, op and class) exactly as [`drain`](Self::drain) would
    /// issue all `n`; returns the last one's completion detail.
    ///
    /// Alone in the queue, the drain issues them one after another at one
    /// scheduling time `t`, whichever it picks. The first goes through
    /// [`issue`](Self::issue) (refresh, hit/miss/conflict, hit streak).
    /// Every later one is a row hit whose CAS waits on the one before
    /// (`ready_cas`) and whose burst starts where the one before ended
    /// (`bus_free`), so its data lands exactly `t_bl` later; and with
    /// `t_rfc < t_refi` the first issue left `t` outside any refresh window,
    /// so no later one touches the refresh schedule. That leaves the bank
    /// and bus state, the hit streak and the integer counters in closed
    /// form; only the f64 latency sum is still folded per burst, in issue
    /// order, so it stays bit-identical.
    pub fn issue_train(&mut self, n: u64, stats: &mut DramStats) -> CompletionDetail {
        debug_assert!(self.pending.len() == 1 && n > 0);
        let req = self.pending.pop().expect("one pending request");
        let (arrival, op) = (req.arrival, req.op);
        let t = self.sched_time.max(arrival);
        let head = self.issue(t, &req, stats);
        self.sched_time = t;
        let rest = n - 1;
        if rest == 0 {
            return head;
        }
        let t_bl = self.timing.t_bl;
        let done = head.done + t_bl * rest;
        let bank_idx = req.bank as usize;
        self.end_burst(bank_idx, op, done);
        self.hit_streak[bank_idx] += rest as u32;
        stats.record_hit_train(op, req.class, arrival, head.done, t_bl, rest);
        let service = self.cas_to_data(op) + t_bl;
        CompletionDetail {
            done,
            queue: (done - arrival) - service,
            service,
        }
    }

    /// CAS-to-data latency of `op`.
    fn cas_to_data(&self, op: DramOp) -> Time {
        match op {
            DramOp::Read => self.timing.t_cl,
            DramOp::Write => self.timing.t_cwl,
        }
    }

    /// Books the bus and bank `bank_idx` for a burst of `op` whose last
    /// data beat is at `done`: the next CAS may follow one burst after this
    /// one's, and the bank may precharge after write recovery, but not
    /// before `tRAS` from its activate.
    fn end_burst(&mut self, bank_idx: usize, op: DramOp, done: Time) {
        let tm = self.timing;
        let cas_to_data = self.cas_to_data(op);
        self.bus_free = done;
        let bank = &mut self.banks[bank_idx];
        bank.ready_cas = done - cas_to_data;
        bank.ready_pre = match op {
            DramOp::Read => done,
            DramOp::Write => done + tm.t_wr,
        }
        .max(bank.act_time + tm.t_ras);
        bank.ready_act = bank.ready_pre + tm.t_rp;
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

        let cas_to_data = self.cas_to_data(req.op);
        // The data burst needs the shared bus; if the bus is busy the CAS is
        // effectively delayed.
        let done = (cas_ready + cas_to_data).max(self.bus_free) + tm.t_bl;
        self.end_burst(bank_idx, req.op, done);

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
    use crate::Dram;
    use dylect_sim_core::check::{forall, Gen};
    use dylect_sim_core::MachineAddr;
    use std::cell::Cell;

    impl Dram {
        /// Forces a batch through submit + drain, whatever the scheduler's
        /// state, and returns its last completion: the oracle for the idle
        /// train.
        fn access_batch_via_drain(
            &mut self,
            arrival: Time,
            addrs: &[(MachineAddr, DramOp)],
            class: RequestClass,
        ) -> CompletionDetail {
            let first = self.next_id;
            for &(a, op) in addrs {
                self.submit(arrival, a, op, class);
            }
            self.drain();
            let ours = |id: ReqId| id.0 >= first;
            let last = self
                .completions
                .iter()
                .filter(|&&(id, _)| ours(id))
                .map(|&(_, d)| d)
                .max_by_key(|d| d.done)
                .expect("a non-empty batch");
            self.completions.retain(|&(id, _)| !ours(id));
            last
        }
    }

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

    /// The machine address of block `column` in `loc`'s row, inverting
    /// the `Ro:Ra:Ba:Co:Ch` mapping.
    fn address(g: &DramGeometry, loc: Location, column: u64) -> MachineAddr {
        let block = ((loc.row * g.ranks as u64 + loc.rank as u64) * g.banks_total() as u64
            + loc.bank as u64)
            * g.blocks_per_row()
            + column;
        MachineAddr::new((block * g.channels as u64 + loc.channel as u64) * 64)
    }

    /// An idle same-row train — every `access_batch` of one row and op and
    /// every `access_detailed` on an idle system — gives exactly what the
    /// same requests forced through submit + drain give: the returned time
    /// or detail, the stats (the f64 latency sum compared with `==`), the
    /// queue stats, the next id and the scheduler state. Trains of 1–64
    /// reads or writes meet closed banks, open-row hits and conflicts, at
    /// arrivals before, at and after the scheduler's clock, just before,
    /// inside and just after refresh windows, under every hit cap, with
    /// general drains (mixed rows, or something already pending) between.
    #[test]
    fn idle_train_matches_the_fr_fcfs_drain() {
        // First-burst outcomes and refresh stalls seen by trains (miss,
        // hit, conflict, refresh), so the cases provably cover them.
        let seen = [Cell::new(0u32), Cell::new(0), Cell::new(0), Cell::new(0)];
        forall("idle train == FR-FCFS drain", 1500, |g| {
            let cfg = DramConfig {
                geometry: DramGeometry {
                    channels: 1 << g.u64_below(2),
                    ranks: 2,
                    bank_groups: 1,
                    banks_per_group: 2,
                    row_bytes: 8192,
                    rows: 3,
                },
                timing: DramTiming {
                    // DDR4-3200's tRAS never outlasts a train of two or
                    // more bursts; a slower part's can.
                    t_ras: Time::from_ns(32.0 + 8.0 * g.u64_below(12) as f64),
                    ..DramTiming::ddr4_3200()
                },
                scheduler: SchedulerConfig {
                    row_hit_cap: g.range(0, 5) as u32,
                },
            };
            let geo = cfg.geometry;
            let tm = cfg.timing;
            let mut fast = Dram::new(cfg);
            let mut slow = fast.clone();
            let random_loc = |g: &mut Gen| Location {
                channel: g.u64_below(geo.channels as u64) as u32,
                rank: g.u64_below(geo.ranks as u64) as u32,
                bank: g.u64_below(geo.banks_total() as u64) as u32,
                row: g.u64_below(geo.rows),
                column: 0,
            };
            let random_op = |g: &mut Gen| {
                if g.bool() {
                    DramOp::Read
                } else {
                    DramOp::Write
                }
            };
            for round in 0..g.range(1, 8) {
                let mut loc = random_loc(g);
                let ch = &fast.channels[loc.channel as usize];
                let bank = &ch.banks[(loc.rank * ch.banks_per_rank + loc.bank) as usize];
                match (g.u64_below(3), bank.open_row) {
                    (0, Some(row)) => loc.row = row,
                    (1, Some(row)) => loc.row = (row + g.range(1, geo.rows - 1)) % geo.rows,
                    _ => {}
                }
                let sched = ch.sched_time;
                let refresh = ch.next_refresh[loc.rank as usize];
                let arrival = match g.u64_below(6) {
                    0 => sched.saturating_sub(Time::from_ns(20.0)),
                    1 => sched,
                    2 => sched + Time::from_ns(7.5 * g.range(1, 4) as f64),
                    3 => refresh.saturating_sub(Time::from_ps(g.range(1, 3000))),
                    4 => refresh + Time::from_ps(g.u64_below(tm.t_rfc.as_ps())),
                    _ => refresh + tm.t_rfc,
                };
                let op = random_op(g);
                let class = RequestClass::ALL[g.u64_below(7) as usize];
                let before = fast.stats.clone();
                let what = match g.u64_below(5) {
                    // A same-row batch: the train path, through
                    // `access_batch` or called directly for its detail.
                    0..=2 => {
                        let n = g.range(1, 64);
                        let start = g.u64_below(geo.blocks_per_row());
                        let addrs: Vec<_> = (0..n)
                            .map(|i| (address(&geo, loc, (start + i) % geo.blocks_per_row()), op))
                            .collect();
                        let b = slow.access_batch_via_drain(arrival, &addrs, class);
                        if g.bool() {
                            let a = fast.access_batch(arrival, addrs.iter().copied(), class);
                            if a != b.done {
                                return Err(format!(
                                    "round {round}: {n}-burst train done {a} != {b:?}"
                                ));
                            }
                        } else {
                            let a = fast.issue_train(arrival, loc, op, class, n);
                            if a != b {
                                return Err(format!(
                                    "round {round}: {n}-burst train {a:?} != {b:?}"
                                ));
                            }
                        }
                        "train"
                    }
                    // One burst: the train path with n = 1.
                    3 => {
                        let addr = address(&geo, loc, g.u64_below(geo.blocks_per_row()));
                        let a = fast.access_detailed(arrival, addr, op, class);
                        let b = slow.access_batch_via_drain(arrival, &[(addr, op)], class);
                        if a != b {
                            return Err(format!("round {round}: detail {a:?} != {b:?}"));
                        }
                        "single"
                    }
                    // A general drain, sometimes with requests already
                    // pending: a same-row batch but for one request in
                    // another channel, rank, bank or row or with the other
                    // op, or random requests.
                    _ => {
                        for _ in 0..g.u64_below(4) {
                            let (l, o) = (random_loc(g), random_op(g));
                            let addr = address(&geo, l, g.u64_below(geo.blocks_per_row()));
                            fast.submit(arrival, addr, o, class);
                            slow.submit(arrival, addr, o, class);
                        }
                        let mut reqs = vec![(loc, op); g.range(2, 12) as usize];
                        let odd = g.u64_below(reqs.len() as u64) as usize;
                        let (l, o) = &mut reqs[odd];
                        match g.u64_below(6) {
                            0 => l.channel = (l.channel + 1) % geo.channels,
                            1 => l.rank = (l.rank + 1) % geo.ranks,
                            2 => l.bank = (l.bank + 1) % geo.banks_total(),
                            3 => l.row = (l.row + 1) % geo.rows,
                            4 => *o = random_op(g),
                            _ => reqs
                                .iter_mut()
                                .for_each(|r| *r = (random_loc(g), random_op(g))),
                        }
                        let addrs: Vec<_> = reqs
                            .iter()
                            .map(|&(l, o)| (address(&geo, l, g.u64_below(geo.blocks_per_row())), o))
                            .collect();
                        let a = fast.access_batch(arrival, addrs.iter().copied(), class);
                        let b = slow.access_batch_via_drain(arrival, &addrs, class);
                        if a != b.done || fast.completions != slow.completions {
                            return Err(format!("round {round}: general drain differs"));
                        }
                        fast.completions.clear();
                        slow.completions.clear();
                        "drain"
                    }
                };
                if fast.stats != slow.stats {
                    return Err(format!("round {round} ({what}): stats differ"));
                }
                if fast.queue != slow.queue {
                    return Err(format!("round {round} ({what}): queue stats differ"));
                }
                if fast.next_id != slow.next_id {
                    return Err(format!("round {round} ({what}): next id differs"));
                }
                let bytes = |d: &Dram| {
                    let mut w = SnapWriter::new();
                    d.write_snapshot(&mut w);
                    w.into_bytes()
                };
                if bytes(&fast) != bytes(&slow) {
                    return Err(format!("round {round} ({what}): DRAM state differs"));
                }
                if what != "drain" {
                    let s = &fast.stats;
                    let outcome = if s.row_misses != before.row_misses {
                        0
                    } else if s.row_conflicts != before.row_conflicts {
                        2
                    } else {
                        1
                    };
                    seen[outcome].set(seen[outcome].get() + 1);
                    if s.refreshes != before.refreshes && arrival >= refresh {
                        seen[3].set(seen[3].get() + 1);
                    }
                }
            }
            Ok(())
        });
        let seen = seen.map(|k| k.get());
        assert!(
            seen.iter().all(|&k| k > 0),
            "trains by miss/hit/conflict/refresh stall: {seen:?}"
        );
    }
}
