//! The counting session: open per-process counters, feed it the kernel's
//! run records, read scaled values back. Models the finite PMU: only
//! `slots` events per logical CPU can count at once; a process with more
//! solo counters than that is time-multiplexed round-robin with
//! `time_enabled`/`time_running` scaling, like the Linux perf core.

use crate::events::Event;
use crate::{Error, Result};
use os_sim::kernel::KernelReport;
use os_sim::process::Pid;
use simcpu::fault::{FaultKind, FaultPlan};
use simcpu::units::Nanos;

/// What an installed [`FaultPlan`] has done to a session so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterFaultStats {
    /// Ticks during which all counters were frozen by a stall window.
    pub stalled_ticks: u64,
    /// Spurious whole-session resets fired (one per window entry).
    pub spurious_resets: u64,
    /// Ticks observed with a reduced PMU slot budget.
    pub revoked_slot_ticks: u64,
}

impl CounterFaultStats {
    /// Whether any fault actually fired.
    pub fn any(&self) -> bool {
        self.stalled_ticks > 0 || self.spurious_resets > 0 || self.revoked_slot_ticks > 0
    }

    /// Per-kind activity since `prev`, labelled with the [`FaultKind`]
    /// variant names (the same labels a fault plan's kind list carries),
    /// for runtimes that poll the stats once per monitoring tick and
    /// journal the deltas.
    pub fn delta_kinds(&self, prev: &CounterFaultStats) -> Vec<(&'static str, u64)> {
        [
            ("CounterStall", self.stalled_ticks, prev.stalled_ticks),
            ("SpuriousReset", self.spurious_resets, prev.spurious_resets),
            (
                "SlotRevocation",
                self.revoked_slot_ticks,
                prev.revoked_slot_ticks,
            ),
        ]
        .into_iter()
        .filter(|&(_, now, before)| now > before)
        .map(|(name, now, before)| (name, now - before))
        .collect()
    }
}

/// Handle to an open counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(pub u64);

/// A counter read-out with multiplexing metadata, mirroring the
/// `PERF_FORMAT_TOTAL_TIME_ENABLED|RUNNING` read format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaledValue {
    /// Events actually counted while scheduled on the PMU.
    pub raw: u64,
    /// Estimate extrapolated to the full enabled time:
    /// `raw · time_enabled / time_running`.
    pub scaled: u64,
    /// Time the counter was enabled with its target running.
    pub time_enabled: Nanos,
    /// Time the counter was actually counting on the PMU.
    pub time_running: Nanos,
}

#[derive(Debug, Clone)]
struct CounterState {
    pid: Pid,
    event: Event,
    value: u64,
    time_enabled: Nanos,
    time_running: Nanos,
}

/// What the session keeps per process with at least one open counter; it
/// goes when the pid's last counter closes, so the index stays as large
/// as the monitored set however many pids come and go.
#[derive(Debug, Clone, Default)]
struct PidCounters {
    /// In open order, which is id order.
    ids: Vec<CounterId>,
    /// Ticks this pid has run with counters open: the round-robin cursor.
    rotation: u64,
}

/// A perf session over one simulated kernel.
///
/// Counters live in a slab indexed by [`CounterId`] (ids are handed out
/// sequentially and never reused), with a per-pid index on the side so
/// [`PerfSession::observe`] only touches the counters of processes that
/// actually ran this tick — a session tracking thousands of processes
/// must not pay a full-table scan per tick.
#[derive(Debug, Clone)]
pub struct PerfSession {
    slots: usize,
    /// Voluntary cap on the slot budget (adaptive sampling sheds slots to
    /// trade multiplexing pressure for read cost); `None` = full budget.
    slot_limit: Option<usize>,
    counters: Vec<Option<CounterState>>,
    open_count: usize,
    next_id: u64,
    /// Ascending by pid.
    by_pid: Vec<(Pid, PidCounters)>,
    faults: FaultPlan,
    fault_stats: CounterFaultStats,
    in_reset_window: bool,
}

/// Ids are handed out sequentially from 1, so a counter's slab slot is
/// `id - 1`; closed counters leave a `None` hole (ids never recycle).
fn slot(counters: &[Option<CounterState>], id: CounterId) -> Option<&CounterState> {
    counters.get(id.0.checked_sub(1)? as usize)?.as_ref()
}

fn slot_mut(counters: &mut [Option<CounterState>], id: CounterId) -> Option<&mut CounterState> {
    counters.get_mut(id.0.checked_sub(1)? as usize)?.as_mut()
}

impl PerfSession {
    /// Creates a session with `slots` hardware counters per logical CPU
    /// (Sandy Bridge exposes 4 programmable + fixed counters; 4 is a
    /// realistic default).
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero.
    pub fn new(slots: usize) -> PerfSession {
        assert!(slots > 0, "a pmu needs at least one counter slot");
        PerfSession {
            slots,
            slot_limit: None,
            counters: Vec::new(),
            open_count: 0,
            next_id: 1,
            by_pid: Vec::new(),
            faults: FaultPlan::none(),
            fault_stats: CounterFaultStats::default(),
            in_reset_window: false,
        }
    }

    /// Installs a fault plan; only counter-side kinds (stall, spurious
    /// reset, slot revocation) are kept.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan.filtered(FaultKind::is_counter);
    }

    /// What the installed fault plan has done to this session so far.
    pub fn fault_stats(&self) -> CounterFaultStats {
        self.fault_stats
    }

    /// Voluntarily caps the PMU slot budget at `limit` (≥ 1). An adaptive
    /// sampler sheds slots during in-band operation: fewer events count
    /// concurrently, raising multiplexing pressure but lowering the
    /// per-tick read bill. `None` restores the full physical budget.
    /// Composes with [`FaultKind::SlotRevocation`]: the effective budget
    /// is the smaller of the two.
    pub fn set_slot_limit(&mut self, limit: Option<usize>) {
        self.slot_limit = limit.map(|l| l.clamp(1, self.slots));
    }

    /// The currently effective voluntary slot cap, if any.
    pub fn slot_limit(&self) -> Option<usize> {
        self.slot_limit
    }

    /// The physical PMU slot count this session was opened with.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Opens a solo counter for `event` attached to process `pid`,
    /// counting from the next tick the process runs.
    ///
    /// # Errors
    ///
    /// Infallible in practice; returns `Result` for parity with the real
    /// syscall.
    pub fn open(&mut self, pid: Pid, event: Event) -> Result<CounterId> {
        let id = CounterId(self.next_id);
        self.next_id += 1;
        self.counters.push(Some(CounterState {
            pid,
            event,
            value: 0,
            time_enabled: Nanos::ZERO,
            time_running: Nanos::ZERO,
        }));
        self.open_count += 1;
        let at = index_of(&self.by_pid, pid).unwrap_or_else(|at| {
            self.by_pid.insert(at, (pid, PidCounters::default()));
            at
        });
        self.by_pid[at].1.ids.push(id);
        Ok(id)
    }

    /// Closes a counter, releasing its slot demand.
    ///
    /// # Errors
    ///
    /// [`Error::BadCounter`] for unknown ids.
    pub fn close(&mut self, id: CounterId) -> Result<()> {
        let Some(slot) =
            id.0.checked_sub(1)
                .and_then(|i| self.counters.get_mut(i as usize))
        else {
            return Err(Error::BadCounter(id));
        };
        let Some(state) = slot.take() else {
            return Err(Error::BadCounter(id));
        };
        self.open_count -= 1;
        if let Ok(at) = index_of(&self.by_pid, state.pid) {
            let of_pid = &mut self.by_pid[at].1;
            of_pid.ids.retain(|&i| i != id);
            if of_pid.ids.is_empty() {
                self.by_pid.remove(at);
            }
        }
        Ok(())
    }

    /// Number of open counters.
    pub fn len(&self) -> usize {
        self.open_count
    }

    /// Whether no counters are open.
    pub fn is_empty(&self) -> bool {
        self.open_count == 0
    }

    /// Reads a counter with scaling metadata.
    ///
    /// # Errors
    ///
    /// [`Error::BadCounter`] for unknown ids.
    pub fn read(&self, id: CounterId) -> Result<ScaledValue> {
        let c = slot(&self.counters, id).ok_or(Error::BadCounter(id))?;
        let scaled = if c.time_running == Nanos::ZERO {
            0
        } else {
            (c.value as f64 * c.time_enabled.as_u64() as f64 / c.time_running.as_u64() as f64)
                as u64
        };
        Ok(ScaledValue {
            raw: c.value,
            scaled,
            time_enabled: c.time_enabled,
            time_running: c.time_running,
        })
    }

    /// Feeds one kernel tick's attribution records into the session. Call
    /// once per [`os_sim::kernel::Kernel::tick`].
    pub fn observe(&mut self, report: &KernelReport) {
        let (stalled, slot_budget) = self.tick_faults(report.now);

        // A multi-threaded process contributes the sum of its threads'
        // deltas but only one slice of wall time, so its first record
        // stands for all of them. A tick has at most one record per
        // logical CPU, so scans find the others.
        let records = &report.records;
        for (i, rec) in records.iter().enumerate() {
            if records[..i].iter().any(|r| r.pid == rec.pid) {
                continue;
            }
            // Only this pid's counters matter — the per-pid index keeps a
            // tick O(counters of processes that ran), not O(all counters).
            let Ok(at) = index_of(&self.by_pid, rec.pid) else {
                continue;
            };
            let of_pid = &mut self.by_pid[at].1;
            let mut siblings = records[i + 1..].iter().filter(|r| r.pid == rec.pid);
            let summed;
            let (delta, slice) = match siblings.next() {
                None => (&rec.delta, rec.slice),
                Some(second) => {
                    let first = (rec.delta + second.delta, rec.slice.max(second.slice));
                    summed = siblings.fold(first, |(d, s), r| (d + r.delta, s.max(r.slice)));
                    (&summed.0, summed.1)
                }
            };
            // The counters on the PMU are one cyclic window: `slot_budget`
            // of them in open order, starting `rotation` counters in. When
            // they all fit, the window covers them wherever it starts, so
            // the cursor needs no division.
            let n = of_pid.ids.len();
            let start = if slot_budget < n {
                (of_pid.rotation % n as u64) as usize
            } else {
                0
            };
            of_pid.rotation += 1;
            if stalled {
                continue;
            }
            for (k, &id) in of_pid.ids.iter().enumerate() {
                let Some(c) = slot_mut(&mut self.counters, id) else {
                    continue;
                };
                c.time_enabled += slice;
                let offset = if k >= start { k - start } else { k + n - start };
                if offset < slot_budget {
                    c.time_running += slice;
                    if let Some(target) = c.event.counter() {
                        c.value += delta.get(target);
                    }
                }
            }
        }
    }

    /// [`PerfSession::observe`] as the round-robin it replaces: records
    /// summed per pid up front, and every pid's counters scanned onto the
    /// PMU one slot each from the cursor on, until the budget runs out.
    /// What `observe` must reproduce counter for counter.
    #[cfg(test)]
    fn observe_by_round_robin(&mut self, report: &KernelReport) {
        let (stalled, slot_budget) = self.tick_faults(report.now);
        let mut ran: Vec<(Pid, simcpu::counters::ExecDelta, Nanos)> = Vec::new();
        for rec in &report.records {
            match ran.iter_mut().find(|(pid, ..)| *pid == rec.pid) {
                Some((_, delta, slice)) => {
                    *delta += rec.delta;
                    *slice = (*slice).max(rec.slice);
                }
                None => ran.push((rec.pid, rec.delta, rec.slice)),
            }
        }
        for (pid, delta, slice) in ran {
            let Ok(at) = index_of(&self.by_pid, pid) else {
                continue;
            };
            let of_pid = &mut self.by_pid[at].1;
            let running = schedule_groups(&of_pid.ids, of_pid.rotation, slot_budget);
            of_pid.rotation += 1;
            if stalled {
                continue;
            }
            for &id in &of_pid.ids {
                let Some(c) = slot_mut(&mut self.counters, id) else {
                    continue;
                };
                c.time_enabled += slice;
                if running.contains(&id) {
                    c.time_running += slice;
                    if let Some(target) = c.event.counter() {
                        c.value += delta.get(target);
                    }
                }
            }
        }
    }

    /// Applies the installed fault plan at `now`: fires a spurious reset
    /// on entering its window and tallies what is active. Returns whether
    /// counters are stalled and the tick's effective slot budget.
    fn tick_faults(&mut self, now: Nanos) -> (bool, usize) {
        // A voluntary cap composes with revocation: whichever is tighter.
        let cap = |budget: usize, limit: Option<usize>| match limit {
            Some(limit) => budget.min(limit).max(1),
            None => budget,
        };
        if self.faults.is_empty() {
            self.in_reset_window = false;
            return (false, cap(self.slots, self.slot_limit));
        }
        // Spurious reset: fires once on entering the window, zeroing every
        // counter as if PERF_EVENT_IOC_RESET raced the reader.
        let reset_active = self.faults.is_active(FaultKind::SpuriousReset, now);
        if reset_active && !self.in_reset_window {
            for c in self.counters.iter_mut().flatten() {
                c.value = 0;
                c.time_enabled = Nanos::ZERO;
                c.time_running = Nanos::ZERO;
            }
            self.fault_stats.spurious_resets += 1;
        }
        self.in_reset_window = reset_active;

        // Counter stall: the PMU hangs — values and both clocks freeze,
        // so readers see flat (zero-delta) counters rather than an error.
        // Freezing time_enabled too matters: if it kept advancing, the
        // multiplex scaling `value · enabled/running` would extrapolate
        // the frozen value upward and the stall would be invisible to
        // delta-based samplers.
        let stalled = self.faults.is_active(FaultKind::CounterStall, now);
        if stalled && !self.counters.is_empty() {
            self.fault_stats.stalled_ticks += 1;
        }

        // Slot revocation: another agent (NMI watchdog, a competing perf
        // user) grabs slots mid-interval, shrinking our budget.
        let slot_budget = match self.faults.active(FaultKind::SlotRevocation, now) {
            Some(w) if self.slots > 1 => {
                let taken = (w.magnitude.max(0.0) as usize).min(self.slots - 1);
                if taken > 0 && !self.counters.is_empty() {
                    self.fault_stats.revoked_slot_ticks += 1;
                }
                self.slots - taken
            }
            _ => self.slots,
        };
        (stalled, cap(slot_budget, self.slot_limit))
    }
}

/// Where `pid` sits in the pid-ordered index (`Err`: where it would go).
fn index_of(by_pid: &[(Pid, PidCounters)], pid: Pid) -> std::result::Result<usize, usize> {
    by_pid.binary_search_by_key(&pid, |&(p, _)| p)
}

/// Round-robin scheduling under the slot budget, one counter per slot:
/// the counters of `ids` that get onto the PMU this tick, scanned in id
/// order from `rotation` counters in, so oversubscribed counters take
/// turns. `ids` must not be empty.
#[cfg(test)]
fn schedule_groups(ids: &[CounterId], rotation: u64, slot_budget: usize) -> Vec<CounterId> {
    let mut order = ids.to_vec();
    order.sort_unstable();
    let start = (rotation as usize) % order.len();
    (0..order.len())
        .map(|i| order[(start + i) % order.len()])
        .take(slot_budget)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::PAPER_EVENTS;
    use os_sim::kernel::Kernel;
    use os_sim::task::SteadyTask;
    use simcpu::counters::HwCounter;
    use simcpu::presets;
    use simcpu::workunit::WorkUnit;

    const MS: Nanos = Nanos(1_000_000);

    fn busy_kernel() -> (Kernel, Pid) {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        (k, pid)
    }

    #[test]
    fn counts_only_target_pid() {
        let (mut k, pid) = busy_kernel();
        let other = k.spawn("idle-proc", vec![]);
        let mut s = PerfSession::new(4);
        let mine = s
            .open(pid, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        let theirs = s
            .open(other, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        for _ in 0..5 {
            let r = k.tick(MS);
            s.observe(&r);
        }
        assert!(s.read(mine).unwrap().raw > 0);
        assert_eq!(s.read(theirs).unwrap().raw, 0);
    }

    #[test]
    fn undersubscribed_session_never_scales() {
        let (mut k, pid) = busy_kernel();
        let mut s = PerfSession::new(4);
        let ids: Vec<CounterId> = PAPER_EVENTS
            .iter()
            .map(|&e| s.open(pid, e).unwrap())
            .collect();
        for _ in 0..10 {
            let r = k.tick(MS);
            s.observe(&r);
        }
        for id in ids {
            let v = s.read(id).unwrap();
            assert_eq!(v.time_enabled, v.time_running, "no multiplexing needed");
            assert_eq!(v.raw, v.scaled);
        }
    }

    #[test]
    fn oversubscription_multiplexes_and_scales() {
        // Memory-heavy work so every monitored event (incl. LLC refs)
        // retires in quantity.
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn(
            "memhog",
            vec![SteadyTask::boxed(WorkUnit::memory_intensive(65536.0, 1.0))],
        );
        // 2 slots, 4 solo counters → each runs ~half the time.
        let mut s = PerfSession::new(2);
        let events = [
            HwCounter::Instructions,
            HwCounter::Cycles,
            HwCounter::CacheReferences,
            HwCounter::BranchInstructions,
        ];
        let ids: Vec<CounterId> = events
            .iter()
            .map(|&e| s.open(pid, Event::Hardware(e)).unwrap())
            .collect();
        for _ in 0..40 {
            let r = k.tick(MS);
            s.observe(&r);
        }
        for &id in &ids {
            let v = s.read(id).unwrap();
            assert!(
                v.time_running < v.time_enabled,
                "must have been rotated out"
            );
            assert!(v.time_running > Nanos::ZERO, "must have run sometimes");
            let ratio = v.time_running.as_u64() as f64 / v.time_enabled.as_u64() as f64;
            assert!((0.35..=0.65).contains(&ratio), "fair rotation, got {ratio}");
            assert!(v.scaled > v.raw, "scaling extrapolates");
        }
        // Scaled instructions should approximate an unmultiplexed count.
        let mut full = PerfSession::new(4);
        let mut k2 = Kernel::new(presets::intel_i3_2120());
        let pid2 = k2.spawn(
            "memhog",
            vec![SteadyTask::boxed(WorkUnit::memory_intensive(65536.0, 1.0))],
        );
        let fid = full
            .open(pid2, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        for _ in 0..40 {
            let r = k2.tick(MS);
            full.observe(&r);
        }
        let truth = full.read(fid).unwrap().raw as f64;
        let est = s.read(ids[0]).unwrap().scaled as f64;
        assert!(
            (est - truth).abs() / truth < 0.15,
            "scaled {est} vs truth {truth}"
        );
    }

    #[test]
    fn close_releases_the_counter() {
        let (mut k, pid) = busy_kernel();
        let mut s = PerfSession::new(4);
        let id = s
            .open(pid, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        let r = k.tick(MS);
        s.observe(&r);
        assert!(s.read(id).unwrap().raw > 0);
        assert_eq!(s.len(), 1);
        s.close(id).unwrap();
        assert!(s.is_empty());
        assert!(matches!(s.read(id), Err(Error::BadCounter(_))));
        assert!(matches!(s.close(id), Err(Error::BadCounter(_))));
    }

    #[test]
    fn per_pid_state_goes_with_the_last_counter() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let mut s = PerfSession::new(2);
        let work = WorkUnit::cpu_intensive(1.0);
        let resident = k.spawn("resident", vec![SteadyTask::boxed(work)]);
        s.open(resident, Event::Hardware(HwCounter::Cycles))
            .unwrap();
        for round in 0..50 {
            let pid = k.spawn(format!("job{round}"), vec![SteadyTask::boxed(work)]);
            let ids: Vec<CounterId> = PAPER_EVENTS
                .iter()
                .map(|&e| s.open(pid, e).unwrap())
                .collect();
            for _ in 0..3 {
                s.observe(&k.tick(MS));
            }
            let at = index_of(&s.by_pid, pid).unwrap();
            assert!(s.by_pid[at].1.rotation > 0, "multiplexed while it ran");
            k.kill(pid).unwrap();
            for id in ids {
                s.close(id).unwrap();
            }
            assert_eq!(
                s.by_pid.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                [resident]
            );
        }
    }

    #[test]
    fn unknown_raw_event_counts_zero_but_schedules() {
        let (mut k, pid) = busy_kernel();
        let mut s = PerfSession::new(4);
        let id = s.open(pid, Event::Raw(0xbad0)).unwrap();
        for _ in 0..3 {
            let r = k.tick(MS);
            s.observe(&r);
        }
        let v = s.read(id).unwrap();
        assert_eq!(v.raw, 0);
        assert!(v.time_running > Nanos::ZERO);
    }

    #[test]
    fn counter_stall_freezes_the_whole_counter() {
        use simcpu::fault::{FaultPlan, FaultWindow};
        let (mut k, pid) = busy_kernel();
        let mut s = PerfSession::new(4);
        s.set_fault_plan(FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::CounterStall,
            start: Nanos::from_millis(5),
            end: Nanos::from_secs(100),
            magnitude: 1.0,
        }]));
        let id = s
            .open(pid, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        for _ in 0..5 {
            s.observe(&k.tick(MS));
        }
        let before = s.read(id).unwrap();
        assert!(before.raw > 0);
        for _ in 0..5 {
            s.observe(&k.tick(MS));
        }
        let after = s.read(id).unwrap();
        assert_eq!(after.raw, before.raw, "stalled counter is frozen");
        assert_eq!(after.time_running, before.time_running);
        assert_eq!(
            after.time_enabled, before.time_enabled,
            "clocks freeze too, else scaling would extrapolate the stall away"
        );
        assert_eq!(after.scaled, before.scaled, "readers see zero deltas");
        assert_eq!(
            s.fault_stats().stalled_ticks,
            6,
            "ticks ending in [5 ms, ∞)"
        );
    }

    #[test]
    fn spurious_reset_fires_once_per_window() {
        use simcpu::fault::{FaultPlan, FaultWindow};
        let (mut k, pid) = busy_kernel();
        let mut s = PerfSession::new(4);
        s.set_fault_plan(FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::SpuriousReset,
            start: Nanos::from_millis(5),
            end: Nanos::from_millis(8),
            magnitude: 1.0,
        }]));
        let id = s
            .open(pid, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        for _ in 0..4 {
            s.observe(&k.tick(MS));
        }
        let before = s.read(id).unwrap().raw;
        assert!(before > 0);
        // Tick ending at 5 ms enters the window → counters zeroed first.
        s.observe(&k.tick(MS));
        let at_reset = s.read(id).unwrap().raw;
        assert!(at_reset < before, "reset zeroed the accumulated count");
        for _ in 0..10 {
            s.observe(&k.tick(MS));
        }
        assert_eq!(s.fault_stats().spurious_resets, 1, "edge, not level");
        assert!(s.read(id).unwrap().raw > at_reset, "counting resumed");
    }

    #[test]
    fn slot_revocation_forces_multiplexing() {
        use simcpu::fault::{FaultPlan, FaultWindow};
        let (mut k, pid) = busy_kernel();
        // 4 slots fit 4 solo counters... until 3 get revoked.
        let mut s = PerfSession::new(4);
        s.set_fault_plan(FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::SlotRevocation,
            start: Nanos::ZERO,
            end: Nanos::from_secs(100),
            magnitude: 3.0,
        }]));
        let events = [
            HwCounter::Instructions,
            HwCounter::Cycles,
            HwCounter::CacheReferences,
            HwCounter::BranchInstructions,
        ];
        let ids: Vec<CounterId> = events
            .iter()
            .map(|&e| s.open(pid, Event::Hardware(e)).unwrap())
            .collect();
        for _ in 0..40 {
            s.observe(&k.tick(MS));
        }
        for &id in &ids {
            let v = s.read(id).unwrap();
            assert!(
                v.time_running < v.time_enabled,
                "one effective slot → heavy multiplexing"
            );
            assert!(v.time_running > Nanos::ZERO);
        }
        assert_eq!(s.fault_stats().revoked_slot_ticks, 40);
    }

    #[test]
    fn voluntary_slot_limit_forces_multiplexing_and_restores() {
        let (mut k, pid) = busy_kernel();
        let mut s = PerfSession::new(4);
        let events = [
            HwCounter::Instructions,
            HwCounter::Cycles,
            HwCounter::CacheReferences,
            HwCounter::BranchInstructions,
        ];
        let ids: Vec<CounterId> = events
            .iter()
            .map(|&e| s.open(pid, Event::Hardware(e)).unwrap())
            .collect();
        s.set_slot_limit(Some(2));
        assert_eq!(s.slot_limit(), Some(2));
        for _ in 0..20 {
            s.observe(&k.tick(MS));
        }
        for &id in &ids {
            let v = s.read(id).unwrap();
            assert!(v.time_running < v.time_enabled, "capped budget multiplexes");
        }
        // Lifting the cap lets all four schedule again: running catches
        // enabled delta-for-delta from here on.
        s.set_slot_limit(None);
        let before: Vec<ScaledValue> = ids.iter().map(|&id| s.read(id).unwrap()).collect();
        for _ in 0..5 {
            s.observe(&k.tick(MS));
        }
        for (&id, b) in ids.iter().zip(&before) {
            let v = s.read(id).unwrap();
            assert_eq!(
                v.time_running - b.time_running,
                v.time_enabled - b.time_enabled,
                "full budget again"
            );
        }
        // The cap clamps to [1, slots].
        s.set_slot_limit(Some(0));
        assert_eq!(s.slot_limit(), Some(1));
        s.set_slot_limit(Some(99));
        assert_eq!(s.slot_limit(), Some(4));
        assert_eq!(s.slots(), 4);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let run = |plan: Option<simcpu::fault::FaultPlan>| {
            let (mut k, pid) = busy_kernel();
            let mut s = PerfSession::new(2);
            if let Some(p) = plan {
                s.set_fault_plan(p);
            }
            let ids: Vec<CounterId> = [HwCounter::Instructions, HwCounter::Cycles]
                .iter()
                .map(|&e| s.open(pid, Event::Hardware(e)).unwrap())
                .collect();
            for _ in 0..20 {
                s.observe(&k.tick(MS));
            }
            ids.iter()
                .map(|&id| s.read(id).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(simcpu::fault::FaultPlan::none())));
    }

    #[test]
    fn multithreaded_pid_aggregates_threads() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(1.0);
        let pid = k.spawn("mt", vec![SteadyTask::boxed(w), SteadyTask::boxed(w)]);
        let mut s = PerfSession::new(4);
        let id = s
            .open(pid, Event::Hardware(HwCounter::Instructions))
            .unwrap();
        let r = k.tick(MS);
        s.observe(&r);
        let per_thread: u64 = r.records.iter().map(|x| x.delta.instructions).sum();
        assert_eq!(s.read(id).unwrap().raw, per_thread);
        // time_enabled advanced once, not twice.
        assert_eq!(s.read(id).unwrap().time_enabled, MS);
    }

    /// The cyclic window against the round-robin for every pid. Two
    /// sessions open the same counters, see the same kernel ticks and are
    /// steered alike: slot caps, revoked slots, stalls, resets, counters
    /// closed and opened mid-run. Every read agrees after every quantum.
    #[test]
    fn cyclic_window_equals_the_round_robin_every_quantum() {
        use simcpu::fault::FaultWindow;
        let window = |kind, start_ms, end_ms, magnitude| FaultWindow {
            kind,
            start: Nanos::from_millis(start_ms),
            end: Nanos::from_millis(end_ms),
            magnitude,
        };
        let plan = FaultPlan::from_windows(vec![
            window(FaultKind::SlotRevocation, 40, 90, 1.0),
            window(FaultKind::SlotRevocation, 150, 190, 2.0),
            window(FaultKind::CounterStall, 100, 120, 1.0),
            window(FaultKind::SpuriousReset, 130, 135, 1.0),
            window(FaultKind::SpuriousReset, 250, 260, 1.0),
        ]);
        let mut k = Kernel::new(presets::intel_i3_2120());
        let mem = WorkUnit::memory_intensive(16_384.0, 0.8);
        let light = WorkUnit::cpu_intensive(0.4);
        let three = k.spawn("three", vec![SteadyTask::boxed(mem)]);
        let threaded = k.spawn(
            "threaded",
            vec![SteadyTask::boxed(mem), SteadyTask::boxed(light)],
        );
        let two = k.spawn("two", vec![SteadyTask::boxed(light)]);
        let crowd = k.spawn("crowd", vec![SteadyTask::boxed(mem)]);
        let pids = [three, threaded, two, crowd];

        let mut sessions = [PerfSession::new(4), PerfSession::new(4)];
        for s in &mut sessions {
            s.set_fault_plan(plan.clone());
        }
        let events = [
            HwCounter::Instructions,
            HwCounter::Cycles,
            HwCounter::CacheMisses,
            HwCounter::BranchInstructions,
            HwCounter::BranchMisses,
            HwCounter::L1dAccesses,
            HwCounter::BusCycles,
            HwCounter::StalledCyclesBackend,
        ]
        .map(Event::Hardware);
        let open = |sessions: &mut [PerfSession; 2], pid, events: &[Event]| {
            events
                .iter()
                .map(|&e| {
                    let id = sessions[0].open(pid, e).unwrap();
                    assert_eq!(sessions[1].open(pid, e).unwrap(), id);
                    id
                })
                .collect::<Vec<_>>()
        };
        let mut ids = open(&mut sessions, three, &PAPER_EVENTS);
        ids.extend(open(&mut sessions, threaded, &events[..4]));
        ids.extend(open(&mut sessions, two, &events[4..6]));
        ids.extend(open(&mut sessions, crowd, &events[..5]));

        let mut seed = 2014u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut opened, mut closed, mut threads_together) = (0, 0, 0);
        // Per budget relation (under, at, over): the pids seen there.
        let mut seen: [Vec<Pid>; 3] = Default::default();
        for quantum in 0..400u64 {
            let limit = [None, Some(1), Some(2), Some(3), Some(4)][(quantum / 25 % 5) as usize];
            let draw = next();
            match quantum {
                200 => {
                    // Three of the threaded pid's four counters.
                    for &id in &ids[3..6] {
                        for s in &mut sessions {
                            s.close(id).unwrap();
                        }
                        closed += 1;
                    }
                }
                300 => {
                    for &id in &ids[7..9] {
                        for s in &mut sessions {
                            s.close(id).unwrap();
                        }
                        closed += 1;
                    }
                }
                // Late solo opens, each landing mid-rotation.
                _ if quantum > 100 && draw % 20 == 0 => {
                    let pid = pids[(draw >> 8) as usize % pids.len()];
                    let event = events[(draw >> 16) as usize % events.len()];
                    ids.extend(open(&mut sessions, pid, &[event]));
                    opened += 1;
                }
                _ => {}
            }
            for s in &mut sessions {
                s.set_slot_limit(limit);
            }

            let r = k.tick(MS);
            let [window, oracle] = &mut sessions;
            window.observe(&r);
            oracle.observe_by_round_robin(&r);

            for &id in &ids {
                assert_eq!(
                    window.read(id),
                    oracle.read(id),
                    "quantum {quantum}, counter {id:?}"
                );
            }
            assert_eq!(window.fault_stats(), oracle.fault_stats());
            let cursors = |s: &PerfSession| -> Vec<(Pid, u64)> {
                s.by_pid.iter().map(|(p, c)| (*p, c.rotation)).collect()
            };
            assert_eq!(cursors(window), cursors(oracle), "quantum {quantum}");

            let revoked = plan
                .active(FaultKind::SlotRevocation, r.now)
                .map_or(0, |w| w.magnitude as usize);
            let budget = limit.map_or(4 - revoked, |l: usize| l.min(4 - revoked));
            threads_together += r.records.iter().filter(|x| x.pid == threaded).count() / 2;
            for rec in &r.records {
                if let Ok(at) = index_of(&window.by_pid, rec.pid) {
                    let at = window.by_pid[at].1.ids.len().cmp(&budget) as i8 + 1;
                    if !seen[at as usize].contains(&rec.pid) {
                        seen[at as usize].push(rec.pid);
                    }
                }
            }
        }
        let [window, _] = &sessions;
        let stats = window.fault_stats();
        assert!(stats.stalled_ticks > 0 && stats.spurious_resets == 2);
        assert!(stats.revoked_slot_ticks > 0);
        assert!(
            opened > 0 && closed == 5,
            "opened {opened}, closed {closed}"
        );
        assert!(
            threads_together > 0,
            "two threads of one pid ran in one tick"
        );
        assert!(
            seen.iter().all(|pids| pids.contains(&three)),
            "one pid went under, at and over its budget: {seen:?}"
        );
    }

    #[test]
    fn delta_kinds_reports_only_advanced_counters() {
        let prev = CounterFaultStats {
            stalled_ticks: 3,
            spurious_resets: 1,
            revoked_slot_ticks: 0,
        };
        let now = CounterFaultStats {
            stalled_ticks: 7,
            spurious_resets: 1,
            revoked_slot_ticks: 2,
        };
        assert_eq!(
            now.delta_kinds(&prev),
            vec![("CounterStall", 4), ("SlotRevocation", 2)]
        );
        assert!(now.delta_kinds(&now).is_empty(), "no change, no events");
    }
}
