//! Interval monitoring convenience: the PowerAPI HPC sensor samples
//! counters at its clock frequency and needs *deltas per interval*, not
//! cumulative values. [`ProcessMonitor`] wraps a [`PerfSession`] and does
//! the bookkeeping.

use crate::events::Event;
use crate::session::{CounterFaultStats, CounterId, PerfSession};
use crate::Result;
use os_sim::kernel::KernelReport;
use os_sim::process::Pid;
use simcpu::fault::FaultPlan;
use std::collections::BTreeMap;

/// Multiplexing pressure observed over one sampling pass: how many
/// counters were read and how much of their enabled time they actually
/// spent scheduled on the PMU. `time_enabled / time_running` is the
/// extrapolation factor the scaled values carry — the accuracy knob an
/// adaptive sampler trades against read cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplePressure {
    /// Counter reads performed by the pass.
    pub reads: u64,
    /// Summed `time_enabled` across the read counters.
    pub time_enabled: simcpu::units::Nanos,
    /// Summed `time_running` across the read counters.
    pub time_running: simcpu::units::Nanos,
}

impl SamplePressure {
    /// The mean extrapolation factor `time_enabled / time_running`
    /// (≥ 1.0; exactly 1.0 when nothing multiplexed or nothing ran).
    pub fn ratio(&self) -> f64 {
        if self.time_running.as_u64() == 0 {
            1.0
        } else {
            (self.time_enabled.as_u64() as f64 / self.time_running.as_u64() as f64).max(1.0)
        }
    }
}

/// Monitors a fixed event list for any number of processes.
///
/// Each tracked pid keeps its counter ids *and* the previous readings
/// inline, so taking an interval sample is a flat in-place walk — no
/// side map to rebalance per counter per tick.
#[derive(Debug, Clone)]
pub struct ProcessMonitor {
    session: PerfSession,
    events: Vec<Event>,
    tracked: BTreeMap<Pid, Vec<(CounterId, u64)>>,
    last_pressure: SamplePressure,
}

impl ProcessMonitor {
    /// Creates a monitor counting `events` on a PMU with `slots` counters.
    pub fn new(slots: usize, events: Vec<Event>) -> ProcessMonitor {
        ProcessMonitor {
            session: PerfSession::new(slots),
            events,
            tracked: BTreeMap::new(),
            last_pressure: SamplePressure::default(),
        }
    }

    /// The monitored event list.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Installs a fault plan on the underlying session (counter-side
    /// kinds only).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.session.set_fault_plan(plan);
    }

    /// What the installed fault plan has done to the session so far.
    pub fn fault_stats(&self) -> CounterFaultStats {
        self.session.fault_stats()
    }

    /// Voluntarily caps the underlying session's PMU slot budget (see
    /// [`PerfSession::set_slot_limit`]). `None` restores the full budget.
    pub fn set_slot_limit(&mut self, limit: Option<usize>) {
        self.session.set_slot_limit(limit);
    }

    /// The currently effective voluntary slot cap, if any.
    pub fn slot_limit(&self) -> Option<usize> {
        self.session.slot_limit()
    }

    /// Multiplexing pressure observed by the most recent
    /// [`ProcessMonitor::sample_into`] pass.
    pub fn last_pressure(&self) -> SamplePressure {
        self.last_pressure
    }

    /// Starts monitoring a process: one solo counter per event, so an
    /// event list longer than the PMU multiplexes instead of failing.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfSession::open`]'s errors (none in practice).
    pub fn track(&mut self, pid: Pid) -> Result<()> {
        if self.tracked.contains_key(&pid) {
            return Ok(());
        }
        let mut ids = Vec::with_capacity(self.events.len());
        for &e in &self.events {
            let id = self.session.open(pid, e)?;
            ids.push((id, 0));
        }
        self.tracked.insert(pid, ids);
        Ok(())
    }

    /// Stops monitoring a process.
    pub fn untrack(&mut self, pid: Pid) {
        if let Some(ids) = self.tracked.remove(&pid) {
            for (id, _) in ids {
                let _ = self.session.close(id);
            }
        }
    }

    /// The processes currently tracked.
    pub fn tracked(&self) -> Vec<Pid> {
        self.tracked.keys().copied().collect()
    }

    /// Feeds one kernel tick (call every tick).
    pub fn observe(&mut self, report: &KernelReport) {
        self.session.observe(report);
    }

    /// Takes the per-interval deltas for every tracked process and resets
    /// the interval baseline (call once per monitoring period): appends
    /// one pid and `events().len()` scaled deltas per tracked process, in
    /// pid order and event order, without any per-process allocation.
    /// The batched tick-frame hot path feeds struct-of-arrays frames
    /// straight from this.
    pub fn sample_into(&mut self, pids: &mut Vec<Pid>, deltas: &mut Vec<u64>) {
        pids.reserve(self.tracked.len());
        deltas.reserve(self.tracked.len() * self.events.len());
        let mut pressure = SamplePressure::default();
        for (&pid, ids) in &mut self.tracked {
            pids.push(pid);
            for (id, prev) in ids.iter_mut() {
                let now = match self.session.read(*id) {
                    Ok(v) => {
                        pressure.reads += 1;
                        pressure.time_enabled += v.time_enabled;
                        pressure.time_running += v.time_running;
                        v.scaled
                    }
                    Err(_) => 0,
                };
                let before = std::mem::replace(prev, now);
                deltas.push(now.saturating_sub(before));
            }
        }
        self.last_pressure = pressure;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::PAPER_EVENTS;
    use os_sim::kernel::Kernel;
    use os_sim::task::SteadyTask;
    use simcpu::presets;
    use simcpu::units::Nanos;
    use simcpu::workunit::WorkUnit;

    const MS: Nanos = Nanos(1_000_000);

    /// One [`ProcessMonitor::sample_into`] pass as `(pid, deltas)` rows.
    fn sample(m: &mut ProcessMonitor) -> Vec<(Pid, Vec<u64>)> {
        let (mut pids, mut deltas) = (Vec::new(), Vec::new());
        m.sample_into(&mut pids, &mut deltas);
        let rows = deltas.chunks(m.events().len()).map(<[u64]>::to_vec);
        pids.into_iter().zip(rows).collect()
    }

    #[test]
    fn samples_are_interval_deltas() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        let mut m = ProcessMonitor::new(4, PAPER_EVENTS.to_vec());
        m.track(pid).unwrap();
        m.track(pid).unwrap(); // idempotent

        for _ in 0..5 {
            m.observe(&k.tick(MS));
        }
        let s1 = sample(&mut m);
        assert_eq!(s1.len(), 1);
        let i1 = s1[0].1[0];
        assert!(i1 > 0);

        for _ in 0..5 {
            m.observe(&k.tick(MS));
        }
        let s2 = sample(&mut m);
        let i2 = s2[0].1[0];
        // Same workload, same interval length → similar delta (not 2x).
        let ratio = i2 as f64 / i1 as f64;
        assert!((0.5..=2.0).contains(&ratio), "delta semantics, got {ratio}");

        // Sampling without new ticks yields zeros.
        let s3 = sample(&mut m);
        assert_eq!(s3[0].1, [0; 3]);
    }

    #[test]
    fn untrack_stops_sampling() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        let mut m = ProcessMonitor::new(4, PAPER_EVENTS.to_vec());
        m.track(pid).unwrap();
        assert_eq!(m.tracked(), vec![pid]);
        m.observe(&k.tick(MS));
        m.untrack(pid);
        assert!(sample(&mut m).is_empty());
        assert!(m.tracked().is_empty());
        m.untrack(pid); // harmless on unknown pid
    }

    #[test]
    fn multiple_processes_sampled_independently() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let busy = k.spawn(
            "busy",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
        );
        let lazy = k.spawn(
            "lazy",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.1))],
        );
        let mut m = ProcessMonitor::new(4, PAPER_EVENTS.to_vec());
        m.track(busy).unwrap();
        m.track(lazy).unwrap();
        for _ in 0..10 {
            m.observe(&k.tick(MS));
        }
        let samples = sample(&mut m);
        let get = |p: Pid| samples.iter().find(|s| s.0 == p).unwrap().1[0];
        assert!(get(busy) > 5 * get(lazy), "busy process dominates");
    }

    #[test]
    fn sampling_records_pressure_and_slot_limit_raises_it() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        let mut m = ProcessMonitor::new(4, PAPER_EVENTS.to_vec());
        m.track(pid).unwrap();
        assert_eq!(m.last_pressure(), SamplePressure::default());
        for _ in 0..10 {
            m.observe(&k.tick(MS));
        }
        sample(&mut m);
        let relaxed = m.last_pressure();
        assert_eq!(relaxed.reads, PAPER_EVENTS.len() as u64);
        assert!(
            (relaxed.ratio() - 1.0).abs() < 1e-9,
            "4 slots fit 4 solo counters: no multiplexing"
        );
        // Shedding slots forces multiplexing; the pressure pass sees it.
        m.set_slot_limit(Some(2));
        assert_eq!(m.slot_limit(), Some(2));
        for _ in 0..20 {
            m.observe(&k.tick(MS));
        }
        sample(&mut m);
        let squeezed = m.last_pressure();
        assert_eq!(squeezed.reads, PAPER_EVENTS.len() as u64);
        assert!(
            squeezed.ratio() > 1.2,
            "capped budget multiplexes, got {}",
            squeezed.ratio()
        );
    }
}
