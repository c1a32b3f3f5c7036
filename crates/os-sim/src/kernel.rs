//! The kernel: owns the machine, schedules threads onto logical CPUs tick
//! by tick, applies the cpufreq and cpuidle governors, maintains `/proc`
//! accounting, and emits per-slice [`RunRecord`]s — the attribution stream
//! the perf subsystem and PowerAPI sensors consume.

use crate::cgroup::CGroupTree;
use crate::governor::{CpufreqGovernor, Ondemand};
use crate::idle::IdlePredictor;
use crate::process::{Pid, Process, ProcessState, ThreadStats, Tid};
use crate::procfs::Accounting;
use crate::scheduler::Scheduler;
use crate::task::{Slice, TaskBehavior};
use crate::{Error, Result};
use simcpu::counters::ExecDelta;
use simcpu::machine::{Machine, MachineConfig, TickReport};
use simcpu::units::{CpuId, MegaHertz, Nanos, Watts};
use simcpu::workunit::WorkUnit;
use std::collections::BTreeMap;

/// One thread's execution during one tick: who ran, where, at which DVFS
/// state, and what it retired. Exactly the information a per-process HPC
/// sensor needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Owning process.
    pub pid: Pid,
    /// The thread that ran.
    pub tid: Tid,
    /// Logical CPU it ran on.
    pub cpu: CpuId,
    /// Requested (nominal) frequency of the hosting core during the slice.
    pub frequency: MegaHertz,
    /// Hardware events retired by this thread during the slice.
    pub delta: ExecDelta,
    /// Scheduling quantum length.
    pub slice: Nanos,
    /// CPU time actually consumed within the quantum.
    pub busy: Nanos,
}

/// Everything that happened during one kernel tick.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelReport {
    /// Per-thread execution records.
    pub records: Vec<RunRecord>,
    /// Average whole-machine power over the tick (ground truth; only the
    /// power meter may look at this).
    pub power: Watts,
    /// Average package power over the tick (the RAPL view).
    pub package_power: Watts,
    /// Time at the end of the tick.
    pub now: Nanos,
}

struct ThreadEntry {
    pid: Pid,
    behavior: Box<dyn TaskBehavior>,
    stats: ThreadStats,
}

/// The simulated OS kernel.
pub struct Kernel {
    machine: Machine,
    scheduler: Scheduler,
    cgroups: CGroupTree,
    governor: Box<dyn CpufreqGovernor>,
    idle: IdlePredictor,
    accounting: Accounting,
    threads: BTreeMap<Tid, ThreadEntry>,
    processes: BTreeMap<Pid, Process>,
    next_pid: u32,
    next_tid: u32,
    /// Per-CPU scratch of the tick in flight, reused every quantum: the
    /// work unit the picked thread asked for (`None` when it slept or
    /// finished instead, or nothing was picked), the hosting core's
    /// frequency, and what the machine reported.
    work: Vec<Option<WorkUnit>>,
    /// The threads that run this tick, in CPU order: `(cpu, tid, pid,
    /// busy)`.
    ran: Vec<(usize, Tid, Pid, Nanos)>,
    cpu_freqs: Vec<MegaHertz>,
    executed: TickReport,
}

impl Kernel {
    /// Boots a kernel on a fresh machine with the `ondemand` governor.
    pub fn new(config: MachineConfig) -> Kernel {
        let machine = Machine::new(config);
        let cpus = machine.topology().logical_cpus();
        let cores = machine.topology().physical_cores();
        Kernel {
            scheduler: Scheduler::new(cpus).with_smt(machine.topology().threads_per_core()),
            cgroups: CGroupTree::new(),
            governor: Box::new(Ondemand::new(cores)),
            idle: IdlePredictor::new(cores),
            accounting: Accounting::new(cpus),
            threads: BTreeMap::new(),
            processes: BTreeMap::new(),
            next_pid: 100,
            next_tid: 1000,
            work: Vec::with_capacity(cpus),
            ran: Vec::with_capacity(cpus),
            cpu_freqs: Vec::with_capacity(cpus),
            executed: TickReport::default(),
            machine,
        }
    }

    /// Read access to the machine (for meters and diagnostics).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// `/proc` accounting views.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Replaces the cpufreq governor.
    pub fn set_governor(&mut self, governor: Box<dyn CpufreqGovernor>) {
        self.governor = governor;
    }

    /// Name of the active cpufreq governor.
    pub fn governor_name(&self) -> &'static str {
        self.governor.name()
    }

    /// Pins every core to a fixed frequency via the `userspace` governor —
    /// how the learning pipeline samples each DVFS state in turn.
    ///
    /// # Errors
    ///
    /// [`Error::Machine`] when the frequency is not a nominal P-state.
    pub fn pin_frequency(&mut self, f: MegaHertz) -> Result<()> {
        // Validate eagerly against the machine.
        for core in 0..self.machine.topology().physical_cores() {
            self.machine.set_frequency(core, f)?;
        }
        self.governor = Box::new(crate::governor::Userspace::new(f));
        Ok(())
    }

    /// Declares a cgroup node (creating missing ancestors at default
    /// shares) and sets its `cpu.shares`. Shares scale the CFS weight of
    /// every thread attached at or below the node, multiplicatively
    /// along the path.
    pub fn cgroup_create(&mut self, path: &str, shares: u64) {
        self.cgroups.create(path, shares);
        self.refresh_group_weights();
    }

    /// Spawns a process inside a cgroup node (a VM-style container such
    /// as `vm-alpha`, or a hierarchical one such as `tenant-a/svc-web`) —
    /// the unit the paper's §5 wants to attribute power to next ("one of
    /// the suitable examples could be the virtual machines"). The
    /// scheduler weights the new threads by the path's shares. Returns
    /// its pid.
    pub fn spawn_in_cgroup(
        &mut self,
        name: impl Into<String>,
        path: &str,
        behaviors: Vec<Box<dyn TaskBehavior>>,
    ) -> Pid {
        let pid = self.spawn(name, behaviors);
        self.cgroups.attach(pid, path);
        self.apply_group_weight(pid);
        pid
    }

    /// Moves an existing process into a cgroup node (declaring it if
    /// needed), re-weighting its threads.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] when the pid is unknown or already exited.
    pub fn cgroup_attach(&mut self, pid: Pid, path: &str) -> Result<()> {
        if self
            .processes
            .get(&pid)
            .filter(|p| p.state() == ProcessState::Alive)
            .is_none()
        {
            return Err(Error::NoSuchProcess(pid));
        }
        self.cgroups.attach(pid, path);
        self.apply_group_weight(pid);
        Ok(())
    }

    /// The cgroup node a process is attached to, if any.
    pub fn cgroup_of(&self, pid: Pid) -> Option<&str> {
        self.cgroups.node_of(pid).map(|n| &**n)
    }

    /// Read access to the cgroup tree (topology + memberships).
    pub fn cgroups(&self) -> &CGroupTree {
        &self.cgroups
    }

    /// The effective cgroup weight multiplier of a thread (diagnostics).
    pub fn scheduler_group_weight(&self, tid: Tid) -> Option<f64> {
        self.scheduler.group_weight_of(tid)
    }

    /// Recomputes the scheduler weight multiplier for every thread of
    /// `pid` from its cgroup path.
    fn apply_group_weight(&mut self, pid: Pid) {
        let mult = self
            .cgroups
            .node_of(pid)
            .map(|path| self.cgroups.weight_multiplier(path))
            .unwrap_or(1.0);
        let tids: Vec<Tid> = self
            .processes
            .get(&pid)
            .map(|p| p.threads().to_vec())
            .unwrap_or_default();
        for tid in tids {
            if self.threads.contains_key(&tid) {
                self.scheduler.set_group_weight(tid, mult);
            }
        }
    }

    /// Re-applies share multipliers for every attached process — needed
    /// after a shares change, which retroactively affects whole subtrees.
    fn refresh_group_weights(&mut self) {
        let pids: Vec<Pid> = self.cgroups.memberships().map(|(pid, _)| pid).collect();
        for pid in pids {
            self.apply_group_weight(pid);
        }
    }

    /// Restricts a thread to a CPU set (`sched_setaffinity`).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchThread`] for unknown (or reaped) tids.
    pub fn set_affinity(&mut self, tid: Tid, cpus: Option<Vec<usize>>) -> Result<()> {
        if !self.threads.contains_key(&tid) {
            return Err(Error::NoSuchThread(tid));
        }
        self.scheduler.set_affinity(tid, cpus);
        Ok(())
    }

    /// Pins every thread of a process to a CPU set.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for unknown or exited pids.
    pub fn pin_process(&mut self, pid: Pid, cpus: Vec<usize>) -> Result<()> {
        let tids: Vec<Tid> = self
            .processes
            .get(&pid)
            .filter(|p| p.state() == ProcessState::Alive)
            .ok_or(Error::NoSuchProcess(pid))?
            .threads()
            .to_vec();
        for tid in tids {
            if self.threads.contains_key(&tid) {
                self.scheduler.set_affinity(tid, Some(cpus.clone()));
            }
        }
        Ok(())
    }

    /// Spawns a process with one thread per behaviour. Returns its pid.
    pub fn spawn(&mut self, name: impl Into<String>, behaviors: Vec<Box<dyn TaskBehavior>>) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut tids = Vec::with_capacity(behaviors.len());
        for behavior in behaviors {
            let tid = Tid(self.next_tid);
            self.next_tid += 1;
            self.scheduler.add(tid, 0);
            self.threads.insert(
                tid,
                ThreadEntry {
                    pid,
                    behavior,
                    stats: ThreadStats::new(),
                },
            );
            tids.push(tid);
        }
        self.processes.insert(pid, Process::new(pid, name, tids));
        pid
    }

    /// Terminates a process, reaping all of its threads.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] when the pid is unknown or already exited.
    pub fn kill(&mut self, pid: Pid) -> Result<()> {
        let proc = self
            .processes
            .get_mut(&pid)
            .filter(|p| p.state() == ProcessState::Alive)
            .ok_or(Error::NoSuchProcess(pid))?;
        proc.mark_exited();
        let tids: Vec<Tid> = proc.threads().to_vec();
        for tid in tids {
            self.scheduler.remove(tid);
            self.threads.remove(&tid);
        }
        self.cgroups.detach(pid);
        Ok(())
    }

    /// Looks up a process record.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(&pid)
    }

    /// Pids of all live processes.
    pub fn live_pids(&self) -> Vec<Pid> {
        self.processes
            .values()
            .filter(|p| p.state() == ProcessState::Alive)
            .map(|p| p.pid())
            .collect()
    }

    /// Scheduler statistics of a thread.
    pub fn thread_stats(&self, tid: Tid) -> Option<&ThreadStats> {
        self.threads.get(&tid).map(|t| &t.stats)
    }

    /// Advances the world by `dt`: schedule → govern → execute → account.
    pub fn tick(&mut self, dt: Nanos) -> KernelReport {
        let mut report = KernelReport::default();
        self.tick_into(dt, &mut report);
        report
    }

    /// [`Kernel::tick`] into a caller-kept report, whose `records` keep
    /// their storage: the per-quantum form.
    pub fn tick_into(&mut self, dt: Nanos, report: &mut KernelReport) {
        let now = self.machine.now();

        // 1. Scheduling decisions. A picked thread's entry is looked up
        // once: what it runs, its stats and its owner are settled here.
        self.scheduler.pick();
        let n_cpus = self.machine.topology().logical_cpus();
        self.work.clear();
        self.work.resize(n_cpus, None);
        self.ran.clear();
        let mut done: Vec<Tid> = Vec::new();
        for cpu in 0..n_cpus {
            let Some(tid) = self.scheduler.picked(cpu) else {
                continue;
            };
            let entry = self.threads.get_mut(&tid).expect("scheduler is in sync");
            match entry.behavior.next_slice(now, dt) {
                Slice::Run(w) => {
                    let busy = Nanos((dt.as_u64() as f64 * w.intensity()) as u64);
                    entry.stats.record_run(CpuId(cpu), dt, busy);
                    self.work[cpu] = Some(w);
                    self.ran.push((cpu, tid, entry.pid, busy));
                }
                // The slot idles this tick; charging the sleeper keeps it
                // from monopolizing future picks.
                Slice::Sleep => self.scheduler.charge(tid, dt),
                Slice::Done => done.push(tid),
            }
        }
        for tid in done {
            self.reap(tid);
        }

        // 2. Governors, 3. execution on the machine.
        self.govern();
        self.machine
            .tick_into(&self.work, dt.as_u64(), &mut self.executed);

        // 4. Attribution + accounting, from what step 1 settled.
        let records = &mut report.records;
        records.clear();
        self.fill_cpu_freqs();
        for &(cpu, tid, pid, busy) in &self.ran {
            let frequency = self.cpu_freqs[cpu];
            self.scheduler.charge(tid, dt);
            self.accounting
                .record_run(pid, CpuId(cpu), frequency, dt, busy);
            records.push(RunRecord {
                pid,
                tid,
                cpu: CpuId(cpu),
                frequency,
                delta: self.executed.deltas[cpu],
                slice: dt,
                busy,
            });
        }
        self.account(dt, report);
    }

    /// [`Kernel::tick_into`] as it was before step 1 settled each running
    /// thread: attribution looks every running thread up a second time.
    /// What the one-lookup form must reproduce record for record.
    #[cfg(test)]
    fn tick_into_by_second_lookup(&mut self, dt: Nanos, report: &mut KernelReport) {
        let n_cpus = self.machine.topology().logical_cpus();
        let now = self.machine.now();
        self.scheduler.pick();
        self.work.clear();
        self.work.resize(n_cpus, None);
        let mut done: Vec<Tid> = Vec::new();
        for cpu in 0..n_cpus {
            let Some(tid) = self.scheduler.picked(cpu) else {
                continue;
            };
            let entry = self.threads.get_mut(&tid).expect("scheduler is in sync");
            match entry.behavior.next_slice(now, dt) {
                Slice::Run(w) => self.work[cpu] = Some(w),
                Slice::Sleep => self.scheduler.charge(tid, dt),
                Slice::Done => done.push(tid),
            }
        }
        for tid in done {
            self.reap(tid);
        }
        self.govern_by_full_walk();
        self.machine
            .tick_into(&self.work, dt.as_u64(), &mut self.executed);
        let records = &mut report.records;
        records.clear();
        self.fill_cpu_freqs();
        for cpu in 0..n_cpus {
            let (Some(tid), Some(work)) = (self.scheduler.picked(cpu), &self.work[cpu]) else {
                continue;
            };
            let entry = self.threads.get_mut(&tid).expect("ran this tick");
            let busy = Nanos((dt.as_u64() as f64 * work.intensity()) as u64);
            entry.stats.record_run(CpuId(cpu), dt, busy);
            self.scheduler.charge(tid, dt);
            self.accounting
                .record_run(entry.pid, CpuId(cpu), self.cpu_freqs[cpu], dt, busy);
            records.push(RunRecord {
                pid: entry.pid,
                tid,
                cpu: CpuId(cpu),
                frequency: self.cpu_freqs[cpu],
                delta: self.executed.deltas[cpu],
                slice: dt,
                busy,
            });
        }
        self.account(dt, report);
    }

    /// Frequency from last tick's utilization and a C-state hint from the
    /// idle predictor, per core. A core whose frequency stays put skips
    /// the machine's P-state validation.
    fn govern(&mut self) {
        let smt = self.machine.topology().threads_per_core();
        for c in 0..self.machine.topology().physical_cores() {
            let util = (c * smt..(c + 1) * smt)
                .map(|t| self.machine.utilization(CpuId(t)).unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            let f = self.governor.select(c, util, self.machine.pstates());
            if f != self.machine.frequency(c) {
                self.machine
                    .set_frequency(c, f)
                    .expect("governor returned an unsupported frequency");
            }
            self.machine
                .set_idle_hint(c, self.idle.predict(c))
                .expect("core index in range");
        }
    }

    /// The governor pass as it was: every core's frequency re-validated.
    #[cfg(test)]
    fn govern_by_full_walk(&mut self) {
        let topo = self.machine.topology().clone();
        for core in topo.cores() {
            let c = core.as_usize();
            let util = topo
                .threads_of(core)
                .map(|t| self.machine.utilization(t).unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            let f = self.governor.select(c, util, self.machine.pstates());
            self.machine
                .set_frequency(c, f)
                .expect("governor returned an unsupported frequency");
            self.machine
                .set_idle_hint(c, self.idle.predict(c))
                .expect("core index in range");
        }
    }

    /// Each logical CPU's hosting-core frequency for the tick.
    fn fill_cpu_freqs(&mut self) {
        let smt = self.machine.topology().threads_per_core();
        let n_cpus = self.machine.topology().logical_cpus();
        self.cpu_freqs.clear();
        self.cpu_freqs
            .extend((0..n_cpus).map(|cpu| self.machine.frequency(cpu / smt)));
    }

    /// Closes the tick: uptime and DVFS residency, the idle predictor's
    /// per-core observation and the report's machine-level figures.
    fn account(&mut self, dt: Nanos, report: &mut KernelReport) {
        self.accounting.tick(dt, &self.cpu_freqs);
        let smt = self.machine.topology().threads_per_core();
        for (c, threads) in self.work.chunks(smt).enumerate() {
            self.idle
                .observe(c, threads.iter().any(Option::is_some), dt);
        }
        report.power = self.executed.power;
        report.package_power = self.executed.package_power;
        report.now = self.executed.now;
    }

    /// Runs `n` ticks of length `dt`, returning the last report.
    pub fn run(&mut self, n: usize, dt: Nanos) -> Option<KernelReport> {
        let mut last = None;
        for _ in 0..n {
            last = Some(self.tick(dt));
        }
        last
    }

    fn reap(&mut self, tid: Tid) {
        self.scheduler.remove(tid);
        let Some(entry) = self.threads.remove(&tid) else {
            return;
        };
        let pid = entry.pid;
        let all_done = self
            .processes
            .get(&pid)
            .map(|p| {
                p.threads()
                    .iter()
                    .all(|t| *t == tid || !self.threads.contains_key(t))
            })
            .unwrap_or(false);
        if all_done {
            if let Some(p) = self.processes.get_mut(&pid) {
                p.mark_exited();
            }
            self.cgroups.detach(pid);
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.machine.now())
            .field("processes", &self.processes.len())
            .field("threads", &self.threads.len())
            .field("governor", &self.governor.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{Ondemand, Performance};
    use crate::task::{PeriodicTask, SteadyTask, TimedTask};
    use simcpu::presets;

    const MS: Nanos = Nanos(1_000_000);

    #[test]
    fn spawn_run_and_records() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn(
            "stress",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
        );
        let r = k.tick(MS);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].pid, pid);
        assert!(r.records[0].delta.instructions > 0);
        assert_eq!(r.records[0].slice, MS);
        assert_eq!(r.now, MS);
        assert!(r.power.as_f64() > 30.0);
    }

    #[test]
    fn ondemand_ramps_up_under_load() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        assert_eq!(k.governor_name(), "ondemand");
        k.spawn(
            "stress",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
        );
        let first = k.tick(MS).records[0].frequency;
        // After the first busy tick, ondemand sees 100 % and jumps to max.
        k.tick(MS);
        let later = k.tick(MS).records[0].frequency;
        assert_eq!(first, MegaHertz(1600), "boots at min");
        assert_eq!(later, MegaHertz(3300), "ramps to max under load");
    }

    #[test]
    fn pin_frequency_switches_to_userspace() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        k.pin_frequency(MegaHertz(2400)).unwrap();
        assert_eq!(k.governor_name(), "userspace");
        k.spawn(
            "stress",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
        );
        for _ in 0..5 {
            let r = k.tick(MS);
            assert_eq!(r.records[0].frequency, MegaHertz(2400));
        }
        assert!(k.pin_frequency(MegaHertz(1234)).is_err());
    }

    #[test]
    fn multi_thread_process_spreads_over_cpus() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(1.0);
        let pid = k.spawn("jbb", (0..4).map(|_| SteadyTask::boxed(w)).collect());
        let r = k.tick(MS);
        assert_eq!(r.records.len(), 4, "4 threads on 4 logical cpus");
        let cpus: std::collections::BTreeSet<_> = r.records.iter().map(|x| x.cpu).collect();
        assert_eq!(cpus.len(), 4, "each on a distinct cpu");
        assert!(r.records.iter().all(|x| x.pid == pid));
    }

    #[test]
    fn timed_task_finishes_and_process_exits() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn(
            "burst",
            vec![TimedTask::boxed(
                WorkUnit::cpu_intensive(1.0),
                Nanos(3_000_000),
            )],
        );
        for _ in 0..6 {
            k.tick(MS);
        }
        assert_eq!(k.process(pid).unwrap().state(), ProcessState::Exited);
        assert!(k.live_pids().is_empty());
        let r = k.tick(MS);
        assert!(r.records.is_empty());
    }

    #[test]
    fn kill_stops_scheduling() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn(
            "victim",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
        );
        k.tick(MS);
        k.kill(pid).unwrap();
        let r = k.tick(MS);
        assert!(r.records.is_empty());
        assert!(matches!(k.kill(pid), Err(Error::NoSuchProcess(_))));
        assert!(matches!(k.kill(Pid(9999)), Err(Error::NoSuchProcess(_))));
    }

    #[test]
    fn periodic_task_produces_idle_gaps() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        k.spawn(
            "bursty",
            vec![PeriodicTask::boxed(
                WorkUnit::cpu_intensive(1.0),
                Nanos(10_000_000),
                0.5,
            )],
        );
        let mut busy_ticks = 0;
        for _ in 0..20 {
            if !k.tick(MS).records.is_empty() {
                busy_ticks += 1;
            }
        }
        assert!((8..=12).contains(&busy_ticks), "≈50 % duty: {busy_ticks}");
    }

    #[test]
    fn accounting_integrates_with_ticks() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        k.set_governor(Box::new(Performance));
        let pid = k.spawn(
            "acct",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
        );
        k.run(10, MS);
        let t = k.accounting().process(pid).unwrap();
        assert_eq!(t.utime, Nanos(10_000_000));
        // All busy time at the performance governor's max frequency.
        assert_eq!(
            t.utime_per_freq.as_slice(),
            [(MegaHertz(3300), Nanos(10_000_000))]
        );
        assert_eq!(k.accounting().uptime(), Nanos(10_000_000));
    }

    #[test]
    fn thread_stats_reachable() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pid = k.spawn("s", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.5))]);
        k.tick(MS);
        let tid = k.process(pid).unwrap().threads()[0];
        let stats = k.thread_stats(tid).unwrap();
        assert_eq!(stats.sched_time, MS);
        assert_eq!(stats.utime, Nanos(500_000));
        assert!(k.thread_stats(Tid(1)).is_none());
    }

    /// The one-lookup tick against the one that looked every running
    /// thread up twice and re-validated every core's frequency: two
    /// kernels built and steered alike (spawns, kills, threads that
    /// finish, sleep or are pinned, a governor switch, quanta of
    /// seeded lengths) agree on every report, thread and `/proc` view
    /// after every tick.
    #[test]
    fn one_lookup_tick_equals_the_second_lookup_every_tick() {
        use crate::task::FnTask;
        fn world() -> Kernel {
            let mut k = Kernel::new(presets::intel_i3_2120());
            k.cgroup_create("gold", 2048);
            let w = |i| WorkUnit::cpu_intensive(i);
            k.spawn("steady", vec![SteadyTask::boxed(w(0.7))]);
            k.spawn(
                "bursty",
                vec![PeriodicTask::boxed(w(0.9), Nanos::from_millis(7), 0.4)],
            );
            k.spawn_in_cgroup(
                "pair",
                "gold/web",
                vec![SteadyTask::boxed(w(0.5)), SteadyTask::boxed(w(0.3))],
            );
            k.spawn(
                "short",
                vec![
                    TimedTask::boxed(w(1.0), Nanos::from_millis(9)),
                    SteadyTask::boxed(w(0.2)),
                ],
            );
            k.spawn(
                "napper",
                vec![FnTask::boxed("nap", |now: Nanos, _| {
                    match now.as_u64() / 3_000_000 % 2 {
                        0 => Slice::Sleep,
                        _ => Slice::Run(WorkUnit::memory_intensive(8_192.0, 0.6)),
                    }
                })],
            );
            let pinned = k.spawn("pinned", vec![SteadyTask::boxed(w(0.1))]);
            k.pin_process(pinned, vec![3]).unwrap();
            k
        }
        let (mut fast, mut full) = (world(), world());
        let (mut a, mut b) = (KernelReport::default(), KernelReport::default());
        let mut seed = 2014u64;
        let (mut slept, mut reaped, mut freq_moves) = (0, false, 0);
        let mut last_freqs = Vec::new();
        for tick in 0..600 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let dt = Nanos([250_000, 1_000_000, 4_000_000][(seed >> 33) as usize % 3]);
            for k in [&mut fast, &mut full] {
                match tick {
                    150 => {
                        k.spawn(
                            "late",
                            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
                        );
                    }
                    300 => k.kill(Pid(101)).unwrap(),
                    420 => k.pin_frequency(MegaHertz(2400)).unwrap(),
                    500 => k.set_governor(Box::new(Ondemand::new(2))),
                    _ => {}
                }
            }
            fast.tick_into(dt, &mut a);
            full.tick_into_by_second_lookup(dt, &mut b);
            assert_eq!(a, b, "tick {tick}: report");
            for (tid, entry) in &full.threads {
                assert_eq!(
                    fast.thread_stats(*tid),
                    Some(&entry.stats),
                    "tick {tick}: {tid:?}"
                );
            }
            assert_eq!(fast.threads.len(), full.threads.len());
            for pid in full.accounting.pids() {
                assert_eq!(fast.accounting.process(pid), full.accounting.process(pid));
            }
            let freqs: Vec<_> = (0..2).map(|c| fast.machine.frequency(c)).collect();
            for cpu in 0..4 {
                let cpu = CpuId(cpu);
                assert_eq!(
                    fast.accounting.time_in_state(cpu),
                    full.accounting.time_in_state(cpu)
                );
                assert_eq!(
                    fast.machine.utilization(cpu).unwrap(),
                    full.machine.utilization(cpu).unwrap()
                );
            }
            assert_eq!(freqs, [0, 1].map(|c| full.machine.frequency(c)));
            assert_eq!(fast.accounting.loadavg_1m(), full.accounting.loadavg_1m());
            assert_eq!(fast.live_pids(), full.live_pids());

            slept += (0..4)
                .filter(|&c| fast.scheduler.picked(c).is_some() && fast.work[c].is_none())
                .count();
            let short = fast.process(Pid(103)).unwrap().threads();
            reaped |= short.iter().any(|t| !fast.threads.contains_key(t));
            freq_moves += usize::from(!last_freqs.is_empty() && last_freqs != freqs);
            last_freqs = freqs;
        }
        assert!(slept > 0, "a picked thread slept");
        assert!(reaped, "a thread finished and was reaped");
        assert!(freq_moves > 2, "the governors moved: {freq_moves}");
    }

    #[test]
    fn debug_shows_state() {
        let k = Kernel::new(presets::intel_i3_2120());
        let s = format!("{k:?}");
        assert!(s.contains("Kernel"));
        assert!(s.contains("ondemand"));
    }
}

#[cfg(test)]
mod group_affinity_tests {
    use super::*;
    use crate::task::SteadyTask;
    use simcpu::presets;

    const MS: Nanos = Nanos(1_000_000);

    #[test]
    fn groups_track_membership_and_lifecycle() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(0.5);
        let a = k.spawn_in_cgroup("db", "vm-alpha", vec![SteadyTask::boxed(w)]);
        let b = k.spawn_in_cgroup("web", "vm-alpha", vec![SteadyTask::boxed(w)]);
        let c = k.spawn_in_cgroup("batch", "vm-beta", vec![SteadyTask::boxed(w)]);
        let loose = k.spawn("loose", vec![SteadyTask::boxed(w)]);

        assert_eq!(k.cgroup_of(a), Some("vm-alpha"));
        assert_eq!(k.cgroup_of(loose), None);
        assert_eq!(k.cgroups().members("vm-alpha"), vec![a, b]);
        assert_eq!(k.cgroups().members("vm-beta"), vec![c]);
        assert!(k.cgroups().members("vm-gamma").is_empty());
        // A flat group at default shares leaves its threads' weights
        // untouched.
        let tid = k.process(a).unwrap().threads()[0];
        assert_eq!(k.scheduler_group_weight(tid), Some(1.0));

        k.kill(b).unwrap();
        assert_eq!(
            k.cgroups().members("vm-alpha"),
            vec![a],
            "dead pids drop out"
        );
    }

    #[test]
    fn cgroup_spawn_tracks_hierarchy() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(0.5);
        k.cgroup_create("tenant-a", 2048);
        let web = k.spawn_in_cgroup("web", "tenant-a/svc-web", vec![SteadyTask::boxed(w)]);
        let batch = k.spawn_in_cgroup("batch", "tenant-b/svc-batch", vec![SteadyTask::boxed(w)]);

        assert_eq!(k.cgroup_of(web), Some("tenant-a/svc-web"));
        assert_eq!(k.cgroups().members("tenant-a"), vec![web]);
        // tenant-a has 2048 shares → its threads carry a 2× multiplier.
        let tid = k.process(web).unwrap().threads()[0];
        assert_eq!(k.scheduler_group_weight(tid), Some(2.0));
        let tid_b = k.process(batch).unwrap().threads()[0];
        assert_eq!(k.scheduler_group_weight(tid_b), Some(1.0));

        // Raising tenant-b's shares retroactively re-weights its threads.
        k.cgroup_create("tenant-b", 4096);
        assert_eq!(k.scheduler_group_weight(tid_b), Some(4.0));

        // Death detaches from the tree but leaves the node declared.
        k.kill(web).unwrap();
        assert!(k.cgroup_of(web).is_none());
        assert!(k.cgroups().shares_of("tenant-a/svc-web").is_some());

        // cgroup_attach validates liveness.
        assert!(matches!(
            k.cgroup_attach(web, "tenant-b"),
            Err(Error::NoSuchProcess(_))
        ));
        assert!(k.cgroup_attach(batch, "tenant-a/svc-web").is_ok());
        assert_eq!(k.cgroup_of(batch), Some("tenant-a/svc-web"));
        assert_eq!(k.scheduler_group_weight(tid_b), Some(2.0));
    }

    #[test]
    fn cgroup_shares_skew_contended_cpu_time() {
        // 8 single-thread processes on 4 cpus: gold tenant (4096 shares)
        // should accumulate ≈4× the CPU time of the bronze tenant (1024).
        let mut k = Kernel::new(presets::intel_i3_2120());
        k.cgroup_create("gold", 4096);
        k.cgroup_create("bronze", 1024);
        let w = WorkUnit::cpu_intensive(1.0);
        let gold: Vec<Pid> = (0..4)
            .map(|i| k.spawn_in_cgroup(format!("g{i}"), "gold/svc", vec![SteadyTask::boxed(w)]))
            .collect();
        let bronze: Vec<Pid> = (0..4)
            .map(|i| k.spawn_in_cgroup(format!("b{i}"), "bronze/svc", vec![SteadyTask::boxed(w)]))
            .collect();
        k.run(400, MS);
        let time_of = |pids: &[Pid], k: &Kernel| -> f64 {
            pids.iter()
                .map(|p| k.accounting().process(*p).map(|t| t.utime.as_secs_f64()))
                .map(|t| t.unwrap_or(0.0))
                .sum()
        };
        let ratio = time_of(&gold, &k) / time_of(&bronze, &k);
        assert!(
            (3.0..=5.5).contains(&ratio),
            "4x shares should yield ~4x cpu time, got {ratio:.2}"
        );
    }

    #[test]
    fn pinned_process_stays_on_its_cpus() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(1.0);
        let pid = k.spawn("pinned", vec![SteadyTask::boxed(w), SteadyTask::boxed(w)]);
        k.pin_process(pid, vec![2, 3]).unwrap();
        for _ in 0..50 {
            let r = k.tick(MS);
            for rec in &r.records {
                assert!(rec.cpu.as_usize() >= 2, "pinned thread ran on {}", rec.cpu);
            }
        }
        assert!(matches!(
            k.pin_process(Pid(9999), vec![0]),
            Err(Error::NoSuchProcess(_))
        ));
    }

    #[test]
    fn set_affinity_validates_tid() {
        let mut k = Kernel::new(presets::intel_i3_2120());
        assert!(matches!(
            k.set_affinity(Tid(1), None),
            Err(Error::NoSuchThread(_))
        ));
        let pid = k.spawn("p", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        let tid = k.process(pid).unwrap().threads()[0];
        assert!(k.set_affinity(tid, Some(vec![1])).is_ok());
        let r = k.tick(MS);
        assert_eq!(r.records[0].cpu.as_usize(), 1);
    }
}
