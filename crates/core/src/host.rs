//! The host under observation: the simulated kernel plus every
//! measurement attachment (perf session, PowerSpy meter, RAPL MSR, SMT
//! co-run tracker). [`SimHost::step`] advances simulated time;
//! [`SimHost::snapshot_frame`] atomically harvests one monitoring
//! interval as a [`TickFrame`] — for the sensor actors, the fleet
//! transport and calibration alike.
//!
//! On real hardware this role is played by the operating system itself;
//! here it is explicit so that simulated time only advances between
//! snapshots, never during one.

use crate::frame::{FrameBuilder, FramePool, TickFrame};
use crate::msg::CorunSplit;
use crate::telemetry::Telemetry;
use os_sim::kernel::{Kernel, KernelReport};
use os_sim::process::{Pid, Tid};
use perf_sim::events::Event;
use perf_sim::monitor::ProcessMonitor;
use powermeter::powerspy::{PowerSpy, PowerSpyConfig};
use powermeter::rapl::Rapl;
use simcpu::units::{MegaHertz, Nanos, Watts};
use std::sync::Arc;

/// The kernel plus its measurement harness.
pub struct SimHost {
    kernel: Kernel,
    /// The last quantum's report, kept so its records reuse their storage.
    report: KernelReport,
    monitor: ProcessMonitor,
    meter: PowerSpy,
    rapl: Option<Rapl>,
    rapl_prev: u32,
    meter_buf: Vec<(Nanos, Watts)>,
    /// The co-run split of every pid with a record since the last
    /// snapshot, in the frame's column form (pids ascending, their
    /// splits): the snapshot swaps both columns into the frame.
    corun_pids: Vec<Pid>,
    corun: Vec<CorunSplit>,
    /// Each monitored pid's utime and per-frequency residency at the
    /// last snapshot, ascending by pid: the monitor's tracked set, in its
    /// order.
    proc_prev: Vec<(Pid, Baseline)>,
    /// Monitored pids the kernel had never run when last looked at
    /// (sorted): no accounting entry, hence no time row.
    unscheduled: Vec<Pid>,
    last_snapshot: Nanos,
    telemetry: Telemetry,
    events_arc: Arc<[Event]>,
    pid_scratch: Vec<Pid>,
    /// Per-physical-core scratch for the SMT co-run pass: first tid seen
    /// this tick and whether a second, distinct tid showed up.
    core_tids: Vec<(Option<Tid>, bool)>,
}

impl SimHost {
    /// Wires a kernel to a perf session (counting `events` on a PMU with
    /// `slots` counters), a PowerSpy meter, and — where the architecture
    /// allows — a RAPL MSR.
    pub fn new(
        kernel: Kernel,
        events: Vec<Event>,
        slots: usize,
        meter_config: PowerSpyConfig,
    ) -> SimHost {
        let rapl = Rapl::open(kernel.machine().config()).ok();
        let events_arc: Arc<[Event]> = events.iter().copied().collect();
        SimHost {
            monitor: ProcessMonitor::new(slots, events),
            events_arc,
            pid_scratch: Vec::new(),
            core_tids: Vec::new(),
            meter: PowerSpy::new(meter_config),
            rapl,
            rapl_prev: 0,
            meter_buf: Vec::new(),
            corun_pids: Vec::new(),
            corun: Vec::new(),
            proc_prev: Vec::new(),
            unscheduled: Vec::new(),
            last_snapshot: kernel.machine().now(),
            telemetry: Telemetry::disabled(),
            report: KernelReport::default(),
            kernel,
        }
    }

    /// Attaches a telemetry hub: snapshot harvesting self-times into the
    /// middleware's overhead profile.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The kernel under observation.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (spawn/kill processes, change governors).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Whether the machine exposes RAPL.
    pub fn has_rapl(&self) -> bool {
        self.rapl.is_some()
    }

    /// Arms the perf session with the counter faults of `plan` (the meter
    /// faults ride in on [`PowerSpyConfig`]). Windows activate by
    /// simulated time, so arming is idempotent and order-independent.
    pub fn set_fault_plan(&mut self, plan: simcpu::fault::FaultPlan) {
        self.monitor.set_fault_plan(plan);
    }

    /// Counter-fault tallies from the perf session.
    pub fn counter_fault_stats(&self) -> perf_sim::session::CounterFaultStats {
        self.monitor.fault_stats()
    }

    /// Voluntarily caps the perf session's PMU slot budget (adaptive
    /// sampling sheds slots during in-band operation); `None` restores
    /// the full budget.
    pub fn set_slot_limit(&mut self, limit: Option<usize>) {
        self.monitor.set_slot_limit(limit);
    }

    /// The currently effective voluntary slot cap, if any.
    pub fn slot_limit(&self) -> Option<usize> {
        self.monitor.slot_limit()
    }

    /// Multiplexing pressure observed by the most recent snapshot's
    /// counter-sampling pass.
    pub fn sampling_pressure(&self) -> perf_sim::monitor::SamplePressure {
        self.monitor.last_pressure()
    }

    /// Meter-fault tallies from the PowerSpy.
    pub fn meter_fault_stats(&self) -> powermeter::powerspy::MeterFaultStats {
        self.meter.fault_stats()
    }

    /// Starts monitoring a process's counters. Its time rows start from
    /// the CPU time it has consumed so far, as its counters start from 0:
    /// the first frame after a late (or repeated) `monitor` covers the
    /// monitored span only, not everything since spawn.
    ///
    /// # Errors
    ///
    /// Propagates perf-session errors.
    pub fn monitor(&mut self, pid: Pid) -> crate::Result<()> {
        self.monitor.track(pid)?;
        let times = self.kernel.accounting().process(pid);
        if times.is_none() {
            if let Err(at) = self.unscheduled.binary_search(&pid) {
                self.unscheduled.insert(at, pid);
            }
        }
        if let Err(at) = self.proc_prev.binary_search_by_key(&pid, |&(p, _)| p) {
            let baseline = times.map_or_else(Default::default, |t| {
                (t.utime, t.utime_per_freq.as_slice().to_vec())
            });
            self.proc_prev.insert(at, (pid, baseline));
        }
        Ok(())
    }

    /// Stops monitoring a process and forgets its baselines.
    pub fn unmonitor(&mut self, pid: Pid) {
        self.monitor.untrack(pid);
        if let Ok(at) = self.proc_prev.binary_search_by_key(&pid, |&(p, _)| p) {
            self.proc_prev.remove(at);
        }
        if let Ok(at) = self.unscheduled.binary_search(&pid) {
            self.unscheduled.remove(at);
        }
    }

    /// Pids currently monitored.
    pub fn monitored(&self) -> Vec<Pid> {
        self.monitor.tracked()
    }

    /// Advances the world one scheduler quantum, feeding every attachment.
    pub fn step(&mut self, dt: Nanos) {
        self.kernel.tick_into(dt, &mut self.report);
        let report = &self.report;
        self.monitor.observe(report);

        // Meter integrates the true machine power.
        let truth = self.kernel.machine().last_power();
        let meter_buf = &mut self.meter_buf;
        self.meter
            .observe_each(truth, report.now, |s| meter_buf.push((s.at, s.power)));

        // RAPL integrates the true package power.
        if let Some(rapl) = &mut self.rapl {
            rapl.observe(report.package_power, dt);
        }

        // SMT co-run split: a record co-runs when another record shares
        // its physical core this tick. One pass marks cores that saw two
        // distinct tids; a record on such a core always has a sibling (if
        // its tid differs from the first seen, the first is the sibling;
        // if it matches, the tid that marked the core distinct is).
        let topology = self.kernel.machine().topology();
        let smt = topology.threads_per_core();
        if smt > 1 {
            self.core_tids.clear();
            self.core_tids
                .resize(topology.physical_cores(), (None, false));
            for rec in &report.records {
                let slot = &mut self.core_tids[rec.cpu.as_usize() / smt];
                match slot.0 {
                    None => slot.0 = Some(rec.tid),
                    Some(t) if t != rec.tid => slot.1 = true,
                    Some(_) => {}
                }
            }
        }
        for rec in &report.records {
            let has_sibling = smt > 1 && self.core_tids[rec.cpu.as_usize() / smt].1;
            let split = split_of(&mut self.corun_pids, &mut self.corun, rec.pid);
            if has_sibling {
                split.corun += rec.delta;
                split.corun_time += rec.busy;
            } else {
                split.solo += rec.delta;
                split.solo_time += rec.busy;
            }
        }
    }

    /// Appends the positive per-frequency deltas of `cur` against `prev`
    /// to `by_freq`, updating `prev` in place to `cur`. In steady state
    /// the frequency set is stable, so the update is a zip over the
    /// sorted pairs with no allocation; the rebuild path only runs when
    /// a new P-state shows up in the accounting (a handful of times per
    /// run).
    fn freq_deltas_into(
        prev: &mut Vec<(MegaHertz, Nanos)>,
        cur: &[(MegaHertz, Nanos)],
        by_freq: &mut Vec<(MegaHertz, Nanos)>,
    ) {
        let aligned = prev.len() == cur.len() && prev.iter().zip(cur).all(|(p, c)| p.0 == c.0);
        if aligned {
            for ((_, pv), &(f, t)) in prev.iter_mut().zip(cur) {
                let d = t.saturating_sub(*pv);
                if d > Nanos::ZERO {
                    by_freq.push((f, d));
                }
                *pv = t;
            }
        } else {
            for &(f, t) in cur {
                let before = prev
                    .iter()
                    .find(|(pf, _)| *pf == f)
                    .map(|(_, v)| *v)
                    .unwrap_or(Nanos::ZERO);
                let d = t.saturating_sub(before);
                if d > Nanos::ZERO {
                    by_freq.push((f, d));
                }
            }
            prev.clear();
            prev.extend_from_slice(cur);
        }
    }

    /// Harvests the monitoring interval since the previous snapshot as a
    /// [`TickFrame`], recycling column storage through `pool`.
    pub fn snapshot_frame(&mut self, pool: &FramePool) -> TickFrame {
        let started = self.telemetry.enabled().then(std::time::Instant::now);
        let frame = self.snapshot_frame_inner(pool, Self::time_rows);
        if let Some(t) = started {
            self.telemetry
                .overhead()
                .record_snapshot(t.elapsed().as_nanos() as u64);
        }
        frame
    }

    /// The time section: one row per tracked pid the kernel has ever run,
    /// per-frequency residency appended straight into the shared CSR
    /// column. `busy` and the residencies only move when the kernel
    /// emits a record for the pid, and `corun_pids` holds exactly the
    /// pids with a record since the last snapshot — so only those read
    /// accounting and their baselines; every other row is the zero row.
    /// `pids` is the tracked set, so it walks the baselines in step.
    fn time_rows(&mut self, pids: &[Pid], b: &mut FrameBuilder) {
        // Hosts without cgroups never tag, so the group column stays
        // absent and their wire payload carries no group section.
        let grouped = !self.kernel.cgroups().is_empty();
        let mut ran = self.corun_pids.iter().copied().peekable();
        for (&pid, (tracked, (prev_busy, prev_freq))) in pids.iter().zip(&mut self.proc_prev) {
            debug_assert_eq!(pid, *tracked, "one baseline per tracked pid");
            while ran.next_if(|&r| r < pid).is_some() {}
            if ran.next_if_eq(&pid).is_some() {
                let Some(times) = self.kernel.accounting().process(pid) else {
                    continue;
                };
                if let Ok(at) = self.unscheduled.binary_search(&pid) {
                    self.unscheduled.remove(at);
                }
                let busy = times.utime.saturating_sub(*prev_busy);
                *prev_busy = times.utime;
                b.push_time_row(pid, busy, |freqs| {
                    Self::freq_deltas_into(prev_freq, times.utime_per_freq.as_slice(), freqs);
                });
            } else if self.unscheduled.binary_search(&pid).is_ok() {
                continue;
            } else {
                b.push_time_row(pid, Nanos::ZERO, |_| {});
            }
            if grouped {
                b.set_time_group(self.kernel.cgroup_of(pid));
            }
        }
    }

    /// The time section as it was before the dirty set: accounting and
    /// baselines read for every tracked pid. What [`Self::time_rows`]
    /// must reproduce column for column.
    #[cfg(test)]
    fn time_rows_by_full_walk(&mut self, pids: &[Pid], b: &mut FrameBuilder) {
        for (&pid, (_, (prev_busy, prev_freq))) in pids.iter().zip(&mut self.proc_prev) {
            let Some(times) = self.kernel.accounting().process(pid) else {
                continue;
            };
            let busy = times.utime.saturating_sub(*prev_busy);
            *prev_busy = times.utime;
            b.push_time_row(pid, busy, |freqs| {
                Self::freq_deltas_into(prev_freq, times.utime_per_freq.as_slice(), freqs);
            });
            if !self.kernel.cgroups().is_empty() {
                b.set_time_group(self.kernel.cgroup_of(pid));
            }
        }
    }

    #[cfg(test)]
    fn snapshot_frame_by_full_walk(&mut self, pool: &FramePool) -> TickFrame {
        self.snapshot_frame_inner(pool, Self::time_rows_by_full_walk)
    }

    fn snapshot_frame_inner(
        &mut self,
        pool: &FramePool,
        time_rows: fn(&mut SimHost, &[Pid], &mut FrameBuilder),
    ) -> TickFrame {
        let now = self.kernel.machine().now();
        let interval = now - self.last_snapshot;
        self.last_snapshot = now;

        let mut b = FrameBuilder::pooled(pool);

        // hpc section: one flat sweep over the tracked set (pid order,
        // event order), no per-process allocation.
        let mut pids = std::mem::take(&mut self.pid_scratch);
        pids.clear();
        {
            let (hpc_pids, counters) = b.hpc_columns();
            self.monitor.sample_into(&mut pids, counters);
            hpc_pids.extend_from_slice(&pids);
        }
        time_rows(self, &pids, &mut b);
        self.pid_scratch = pids;

        let (corun_pids, corun) = b.corun_columns();
        std::mem::swap(corun_pids, &mut self.corun_pids);
        std::mem::swap(corun, &mut self.corun);

        std::mem::swap(b.meter_column(), &mut self.meter_buf);

        let rapl_joules = self.rapl.as_ref().map(|r| {
            let cur = r.read_raw();
            let d = Rapl::delta_joules(self.rapl_prev, cur);
            self.rapl_prev = cur;
            d
        });

        let mut frame = b.finish(now, interval, self.events_arc.clone(), rapl_joules);
        // Stamp the origin tick trace so fleet envelopes and downstream
        // journal events can join against this host's spans. The runtime
        // resolves the same (hub, timestamp) pair for its stage spans, so
        // the stamp is idempotent with the in-process pipeline's ids.
        frame.set_trace(self.telemetry.trace_for_tick(now));
        frame
    }
}

/// A monitored pid's utime and per-frequency residency at the last
/// snapshot.
type Baseline = (Nanos, Vec<(MegaHertz, Nanos)>);

/// `pid`'s split in the co-run columns (`pids` ascending, `splits` in
/// step), inserted empty the first time the pid runs in an interval.
fn split_of<'a>(
    pids: &mut Vec<Pid>,
    splits: &'a mut Vec<CorunSplit>,
    pid: Pid,
) -> &'a mut CorunSplit {
    let at = pids.binary_search(&pid).unwrap_or_else(|at| {
        pids.insert(at, pid);
        splits.insert(at, CorunSplit::default());
        at
    });
    &mut splits[at]
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost")
            .field("now", &self.kernel.machine().now())
            .field("monitored", &self.monitor.tracked().len())
            .field("rapl", &self.rapl.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use os_sim::task::SteadyTask;
    use perf_sim::events::PAPER_EVENTS;
    use simcpu::presets;
    use simcpu::workunit::WorkUnit;

    const MS: Nanos = Nanos(1_000_000);

    fn host_with(work: WorkUnit, threads: usize) -> (SimHost, Pid) {
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pid = kernel.spawn(
            "app",
            (0..threads).map(|_| SteadyTask::boxed(work)).collect(),
        );
        let mut host = SimHost::new(
            kernel,
            PAPER_EVENTS.to_vec(),
            4,
            PowerSpyConfig::default().with_sample_period(Nanos::from_millis(100)),
        );
        host.monitor(pid).unwrap();
        (host, pid)
    }

    #[test]
    fn snapshot_carries_hpc_and_time_deltas() {
        let (mut host, pid) = host_with(WorkUnit::cpu_intensive(1.0), 1);
        for _ in 0..100 {
            host.step(MS);
        }
        let snap = host.snapshot_frame(&FramePool::new());
        snap.debug_assert_consistent();
        assert_eq!(snap.interval, Nanos::from_millis(100));
        assert_eq!(snap.hpc_pid(0), pid);
        assert!(snap.hpc_row(0).iter().any(|v| *v > 0));
        assert_eq!(snap.busy(0), Nanos::from_millis(100));
        assert!(!snap.freq_slice(0).is_empty());
        assert!(!snap.meter().is_empty(), "meter sampled at 10 Hz");
        assert_eq!(snap.timestamp, Nanos::from_millis(100));
    }

    #[test]
    fn second_snapshot_is_a_fresh_interval() {
        let (mut host, _) = host_with(WorkUnit::cpu_intensive(0.5), 1);
        let pool = FramePool::new();
        for _ in 0..50 {
            host.step(MS);
        }
        let b1 = host.snapshot_frame(&pool).busy(0).as_u64() as f64;
        assert_eq!(pool.pooled(), 1, "storage recycled");
        for _ in 0..50 {
            host.step(MS);
        }
        let b2 = host.snapshot_frame(&pool).busy(0).as_u64() as f64;
        assert!((b2 / b1 - 1.0).abs() < 0.2, "deltas, not cumulative");
    }

    #[test]
    fn corun_split_detects_smt_sharing() {
        // 4 threads on a 2-core/4-thread machine: everything co-runs.
        let (mut host, pid) = host_with(WorkUnit::cpu_intensive(1.0), 4);
        for _ in 0..20 {
            host.step(MS);
        }
        let snap = host.snapshot_frame(&FramePool::new());
        assert_eq!(snap.corun_row(pid, 0), Some(0));
        let split = snap.corun_split(0);
        assert!(split.corun_time > Nanos::ZERO);
        assert!(split.corun.instructions > 0);
        assert_eq!(split.solo_time, Nanos::ZERO, "no solo time at full load");

        // 1 thread: always solo.
        let (mut host, _) = host_with(WorkUnit::cpu_intensive(1.0), 1);
        for _ in 0..20 {
            host.step(MS);
        }
        let split = host.snapshot_frame(&FramePool::new()).corun_split(0);
        assert!(split.solo_time > Nanos::ZERO);
        assert_eq!(split.corun_time, Nanos::ZERO);
    }

    #[test]
    fn rapl_present_on_sandy_bridge_absent_on_core2() {
        let (mut host, _) = host_with(WorkUnit::cpu_intensive(1.0), 1);
        assert!(host.has_rapl());
        for _ in 0..100 {
            host.step(MS);
        }
        let j = host.snapshot_frame(&FramePool::new()).rapl_joules.unwrap();
        // 100 ms of a busy i3 package: between 0.3 J (idle-ish) and 5 J.
        assert!(j > 0.3 && j < 5.0, "rapl measured {j} J");

        let kernel = Kernel::new(presets::core2duo_e6600());
        let host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
        assert!(!host.has_rapl());
    }

    #[test]
    fn unmonitor_removes_from_frames() {
        let (mut host, pid) = host_with(WorkUnit::cpu_intensive(1.0), 1);
        host.step(MS);
        host.unmonitor(pid);
        let snap = host.snapshot_frame(&FramePool::new());
        assert_eq!(snap.hpc_len(), 0);
        assert_eq!(snap.time_len(), 0);
        assert!(host.monitored().is_empty());
    }

    #[test]
    fn baselines_are_only_kept_for_monitored_pids() {
        let (mut host, resident) = host_with(WorkUnit::cpu_intensive(0.5), 1);
        let pool = FramePool::new();
        for round in 0..50 {
            let task = SteadyTask::boxed(WorkUnit::cpu_intensive(1.0));
            let pid = host.kernel_mut().spawn(format!("job{round}"), vec![task]);
            host.monitor(pid).unwrap();
            for _ in 0..5 {
                host.step(MS);
            }
            assert_eq!(host.snapshot_frame(&pool).time_len(), 2);
            host.kernel_mut().kill(pid).unwrap();
            host.unmonitor(pid);
            assert_eq!(host.monitored(), vec![resident]);
            assert_eq!(host.proc_prev.len(), 1, "round {round}");
        }
    }

    #[test]
    fn remonitored_pid_reports_only_the_monitored_span() {
        let (mut host, pid) = host_with(WorkUnit::cpu_intensive(1.0), 2);
        let pool = FramePool::new();
        host.unmonitor(pid);
        for _ in 0..300 {
            host.step(MS);
        }
        host.snapshot_frame(&pool);
        host.monitor(pid).unwrap();
        for _ in 0..10 {
            host.step(MS);
        }
        // Monitoring again mid-interval must not reset the baseline.
        host.monitor(pid).unwrap();
        for _ in 0..10 {
            host.step(MS);
        }
        let frame = host.snapshot_frame(&pool);
        assert_eq!(frame.interval, Nanos::from_millis(20));
        assert_eq!(frame.busy(0), Nanos::from_millis(40), "2 threads × 20 ms");
        let by_freq: u64 = frame.freq_slice(0).iter().map(|(_, t)| t.as_u64()).sum();
        assert_eq!(by_freq, frame.busy(0).as_u64());
    }

    #[test]
    fn meter_samples_drain_once() {
        let (mut host, _) = host_with(WorkUnit::cpu_intensive(1.0), 1);
        let pool = FramePool::new();
        for _ in 0..200 {
            host.step(MS);
        }
        assert!(!host.snapshot_frame(&pool).meter().is_empty());
        assert!(
            host.snapshot_frame(&pool).meter().is_empty(),
            "already drained"
        );
    }

    /// The co-run split as it was: a tree entry per record, after the
    /// same SMT pass. What the pid-sorted columns must reproduce.
    fn corun_by_tree(
        acc: &mut std::collections::BTreeMap<Pid, CorunSplit>,
        report: &KernelReport,
        smt: usize,
        cores: usize,
    ) {
        let mut core_tids: Vec<(Option<Tid>, bool)> = vec![(None, false); cores];
        for rec in &report.records {
            let slot = &mut core_tids[rec.cpu.as_usize() / smt];
            match slot.0 {
                None => slot.0 = Some(rec.tid),
                Some(t) if t != rec.tid => slot.1 = true,
                Some(_) => {}
            }
        }
        for rec in &report.records {
            let has_sibling = smt > 1 && core_tids[rec.cpu.as_usize() / smt].1;
            let split = acc.entry(rec.pid).or_default();
            if has_sibling {
                split.corun += rec.delta;
                split.corun_time += rec.busy;
            } else {
                split.solo += rec.delta;
                split.solo_time += rec.busy;
            }
        }
    }

    #[test]
    fn corun_columns_equal_the_tree_every_snapshot() {
        use os_sim::task::PeriodicTask;
        let mut k = Kernel::new(presets::intel_i3_2120());
        let w = |i| WorkUnit::cpu_intensive(i);
        let burst = |ms, duty| PeriodicTask::boxed(w(0.8), Nanos::from_millis(ms), duty);
        let pids = [
            k.spawn("solo", vec![SteadyTask::boxed(w(0.6))]),
            k.spawn("pair", vec![burst(9, 0.5), burst(13, 0.6)]),
            k.spawn("wide", (0..3).map(|i| burst(5 + 4 * i, 0.4)).collect()),
            k.spawn("sparse", vec![burst(40, 0.1)]),
        ];
        let mut host = SimHost::new(k, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
        host.monitor(pids[0]).unwrap();
        let (smt, cores) = (2, 2);
        let pool = FramePool::new();
        let mut tree = std::collections::BTreeMap::new();
        let (mut seed, mut shared, mut alone) = (2014u64, false, false);
        for tick in 0..300 {
            seed = crate::fleet::fault::splitmix64(seed);
            for _ in 0..seed % 6 {
                host.step(MS);
                corun_by_tree(&mut tree, &host.report, smt, cores);
            }
            let frame = host.snapshot_frame(&pool);
            for (i, pid) in pids.into_iter().enumerate() {
                let row = frame.corun_row(pid, 0);
                let split = tree.get(&pid).copied();
                assert_eq!(
                    row.map(|r| frame.corun_split(r)),
                    split,
                    "tick {tick}, {pid}"
                );
                assert!(
                    row.is_none_or(|r| r == tree.range(..pid).count()),
                    "row {i}"
                );
                shared |= split.is_some_and(|s| s.corun_time > Nanos::ZERO);
                alone |= split.is_some_and(|s| s.solo_time > Nanos::ZERO);
            }
            tree.clear();
        }
        assert!(shared && alone, "records ran beside a sibling and alone");
    }

    /// One frame of the dirty-set harvest against one of the full walk.
    fn assert_same_frame(fast: &TickFrame, full: &TickFrame, tick: usize) {
        assert_eq!(fast.time_len(), full.time_len(), "tick {tick}: time rows");
        for i in 0..full.time_len() {
            let pid = full.time_pid(i);
            assert_eq!(fast.time_pid(i), pid, "tick {tick}, row {i}");
            assert_eq!(fast.busy(i), full.busy(i), "tick {tick}, {pid}: busy");
            assert_eq!(
                fast.freq_slice(i),
                full.freq_slice(i),
                "tick {tick}, {pid}: residency"
            );
            assert_eq!(
                fast.group_of_row(i),
                full.group_of_row(i),
                "tick {tick}, {pid}: group"
            );
        }
        fast.debug_assert_consistent();
        assert_eq!(fast, full, "tick {tick}: the other sections");
    }

    #[test]
    fn dirty_set_harvest_equals_the_full_walk_every_tick() {
        use os_sim::task::{FnTask, PeriodicTask, Slice, TimedTask};

        // Two identical worlds, stepped and steered in lockstep; `fast`
        // harvests through the dirty set, `full` through the oracle.
        struct World {
            host: SimHost,
            steady: Pid,
            never: Pid,
            late_riser: Pid,
            late_monitored: Pid,
            flaky: Pid,
            killed: Pid,
        }
        fn world() -> World {
            let light = WorkUnit::cpu_intensive(0.3);
            let bursty = |period_ms, duty| {
                vec![PeriodicTask::boxed(
                    WorkUnit::cpu_intensive(0.6),
                    Nanos::from_millis(period_ms),
                    duty,
                )]
            };
            let sleep_until = |wake: Nanos, work| {
                FnTask::boxed("riser", move |now, _| match now < wake {
                    true => Slice::Sleep,
                    false => Slice::Run(work),
                })
            };
            // Ondemand governor: the light start sits at the lowest
            // P-state, the load that wakes at 150 ms drags every running
            // pid onto frequencies its baseline has never seen.
            let mut k = Kernel::new(presets::intel_i3_2120());
            k.cgroup_create("tenants/a", 1024);
            let steady = k.spawn("steady", vec![SteadyTask::boxed(light)]);
            let never = k.spawn("never", vec![FnTask::boxed("zz", |_, _| Slice::Sleep)]);
            let late_riser = k.spawn(
                "late-riser",
                vec![sleep_until(Nanos::from_millis(90), light)],
            );
            let late_monitored = k.spawn("late-monitored", bursty(40, 0.5));
            let flaky = k.spawn("flaky", bursty(25, 0.4));
            let tagged = k.spawn_in_cgroup("tagged", "tenants/a", bursty(60, 0.3));
            let killed = k.spawn_in_cgroup("killed", "tenants/a/web", bursty(30, 0.5));
            let short = k.spawn(
                "short",
                vec![TimedTask::boxed(light, Nanos::from_millis(30))],
            );
            let heavy = WorkUnit::cpu_intensive(1.0);
            let load = k.spawn(
                "load",
                (0..4)
                    .map(|_| sleep_until(Nanos::from_millis(150), heavy))
                    .collect(),
            );
            let sparse: Vec<Pid> = (0..6)
                .map(|i| k.spawn(format!("sparse{i}"), bursty(70 + 13 * i, 0.1)))
                .collect();
            let mut host = SimHost::new(
                k,
                PAPER_EVENTS.to_vec(),
                4,
                PowerSpyConfig::default().with_sample_period(Nanos::from_millis(10)),
            );
            let monitored = [
                steady, never, late_riser, flaky, tagged, killed, short, load,
            ];
            for pid in monitored.into_iter().chain(sparse) {
                host.monitor(pid).unwrap();
            }
            World {
                host,
                steady,
                never,
                late_riser,
                late_monitored,
                flaky,
                killed,
            }
        }

        let (mut fast, mut full) = (world(), world());
        let (fast_pool, full_pool) = (FramePool::new(), FramePool::new());
        let mut seed = 2014u64;
        let mut steady_freqs = Vec::new();
        let (mut mixed_groups, mut riser_absent, mut riser_appeared) = (false, false, false);
        for tick in 0..400 {
            seed = crate::fleet::fault::splitmix64(seed);
            // 0 quanta: two snapshots with no step between them.
            let quanta = seed % 5;
            for w in [&mut fast, &mut full] {
                match tick {
                    120 => w.host.monitor(w.late_monitored).unwrap(),
                    150 => w.host.unmonitor(w.flaky),
                    200 => w.host.monitor(w.flaky).unwrap(),
                    230 => w.host.kernel_mut().kill(w.killed).unwrap(),
                    _ => {}
                }
                for _ in 0..quanta {
                    w.host.step(MS);
                }
            }
            let a = fast.host.snapshot_frame(&fast_pool);
            let b = full.host.snapshot_frame_by_full_walk(&full_pool);
            assert_same_frame(&a, &b, tick);

            // The scenario reaches what it is there for.
            assert_eq!(a.time_row(fast.never, 0), None, "never ran: no time row");
            match a.time_row(fast.late_riser, 0) {
                None => riser_absent = true,
                Some(_) => riser_appeared = riser_absent,
            }
            mixed_groups |=
                a.has_groups() && (0..a.time_len()).any(|i| a.group_of_row(i).is_none());
            if let Some(row) = a.time_row(fast.steady, 0) {
                for (f, _) in a.freq_slice(row) {
                    if !steady_freqs.contains(f) {
                        steady_freqs.push(*f);
                    }
                }
            }
        }
        assert!(mixed_groups, "tagged and untagged rows shared a frame");
        assert!(
            riser_appeared,
            "a monitored pid went from never-run to running"
        );
        assert!(
            steady_freqs.len() > 1,
            "a P-state appeared after the baseline: {steady_freqs:?}"
        );
        assert_eq!(fast.host.proc_prev, full.host.proc_prev);
        assert_eq!(fast.host.unscheduled, vec![fast.never]);
    }
}
