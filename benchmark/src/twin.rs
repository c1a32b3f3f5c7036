//! Twin stacks: the per-layer numbers of a simulated host, measured from
//! outside. The pipeline owns its `SimHost`, so nothing inside it can be
//! timed; instead the same seed builds the same world twice more and the
//! harness drives those copies itself, with a clock read around every
//! call:
//!
//! * the **host twin** is a whole `SimHost`, giving the inclusive cost of
//!   `step` and `snapshot_frame`;
//! * the **component twin** is the `Kernel`, `ProcessMonitor`, `PowerSpy`
//!   and `Rapl` a `SimHost` is made of, driven in the same order, giving
//!   each substrate call's cost — plus a standalone `Machine` that
//!   replays the work-unit assignment the kernel just scheduled.
//!
//! Both twins must harvest identical counter and meter columns every tick
//! and the replayed machine must retire exactly the events the kernel
//! reported, or the run is incorrect: a per-layer number for a different
//! world would be worthless.

use crate::alloc::{allocations, set_counting};
use crate::digest::Fnv;
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::{Slice, TaskBehavior};
use perf_sim::events::PAPER_EVENTS;
use perf_sim::monitor::ProcessMonitor;
use powerapi::frame::{FramePool, TickFrame};
use powerapi::host::SimHost;
use powermeter::powerspy::{PowerSpy, PowerSpyConfig};
use powermeter::rapl::Rapl;
use simcpu::machine::Machine;
use simcpu::units::{Nanos, Watts};
use simcpu::workunit::WorkUnit;
use std::collections::BTreeMap;
use std::time::Instant;

/// PMU slots of every simulated host (the builder's default).
pub const SLOTS: usize = 4;

/// Logical CPUs the replay scratch arrays hold (the presets have 4–8).
const MAX_CPUS: usize = 16;

/// One world, built from a seed: the kernel, its monitored processes and a
/// second copy of every thread's behaviour. Behaviours are pure functions
/// of simulated time, so the copy tells the harness which work unit the
/// kernel's own copy was just asked for.
pub struct TwinWorld {
    /// The kernel with every process spawned.
    pub kernel: Kernel,
    /// The monitored processes.
    pub pids: Vec<Pid>,
    /// `shadows[p][t]` mirrors thread `t` of process `pids[p]`.
    pub shadows: Vec<Vec<Box<dyn TaskBehavior>>>,
}

/// How to drive the twins.
pub struct TwinPlan<'a> {
    /// Builds the world; called once per twin.
    pub build: &'a dyn Fn() -> TwinWorld,
    /// The meter both twins attach.
    pub meter: PowerSpyConfig,
    /// Thermal pre-warm: steps of this length before anything is
    /// harvested (the fleet's hosts settle for 150 s in set-up).
    pub prewarm: (Nanos, u32),
    /// Harvested but untimed ticks, as in the pipeline's own warm-up.
    pub warmup_ticks: u64,
    /// Timed monitoring ticks.
    pub ticks: u64,
    /// Scheduler quantum.
    pub quantum: Nanos,
    /// Quanta per monitoring tick.
    pub quanta_per_tick: u32,
}

/// Totals over the timed ticks of both twins.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TwinReport {
    /// Timed monitoring ticks.
    pub ticks: u64,
    /// Timed kernel quanta.
    pub quanta: u64,
    /// `SimHost::step`, inclusive.
    pub step_ns: u64,
    /// `SimHost::snapshot_frame`, inclusive.
    pub snapshot_ns: u64,
    /// Allocations inside `snapshot_frame`.
    pub snapshot_allocs: u64,
    /// Rows in the frames' time section.
    pub frame_rows: u64,
    /// Rows whose process ran during the tick.
    pub active_rows: u64,
    /// `Kernel::tick`, inclusive of the machine.
    pub kernel_ns: u64,
    /// Allocations inside `Kernel::tick`.
    pub kernel_allocs: u64,
    /// `Machine::tick` on the replaying machine.
    pub machine_ns: u64,
    /// `TaskBehavior::next_slice` of the scheduled threads' shadows: what
    /// the kernel's own copies cost it inside `Kernel::tick`.
    pub slice_ns: u64,
    /// `ProcessMonitor::observe`.
    pub observe_ns: u64,
    /// `PowerSpy::observe`.
    pub meter_ns: u64,
    /// `Rapl::observe` (0 on machines without RAPL).
    pub rapl_ns: u64,
    /// `ProcessMonitor::sample_into`.
    pub sample_ns: u64,
    /// Wall time of both timed loops.
    pub wall_ns: u64,
    /// Time inside a timed call (top-level spans only: step, snapshot,
    /// kernel tick, observe, meter, rapl, sample, shadow slices, machine
    /// replay).
    pub span_ns: u64,
    /// Whether the twins agreed every tick and the replay was exact.
    pub consistent: bool,
}

impl TwinReport {
    /// Time inside the substrate crates' calls of `SimHost::step`:
    /// kernel (machine and behaviours included), perf monitor, both
    /// meters.
    pub fn substrate_ns(&self) -> u64 {
        self.kernel_ns + self.observe_ns + self.meter_ns + self.rapl_ns
    }

    /// The same, capped by what `SimHost::step` took in all: the two
    /// come from different twins, and clock reads inflate the finer one.
    pub fn substrate_in_step_ns(&self) -> u64 {
        self.substrate_ns().min(self.step_ns)
    }

    /// Adds another world's twins to these totals (the fleet twins a few
    /// hosts); consistent only if both are.
    pub fn absorb(&mut self, other: &TwinReport) {
        for (mine, theirs) in [
            (&mut self.ticks, other.ticks),
            (&mut self.quanta, other.quanta),
            (&mut self.step_ns, other.step_ns),
            (&mut self.snapshot_ns, other.snapshot_ns),
            (&mut self.snapshot_allocs, other.snapshot_allocs),
            (&mut self.frame_rows, other.frame_rows),
            (&mut self.active_rows, other.active_rows),
            (&mut self.kernel_ns, other.kernel_ns),
            (&mut self.kernel_allocs, other.kernel_allocs),
            (&mut self.machine_ns, other.machine_ns),
            (&mut self.slice_ns, other.slice_ns),
            (&mut self.observe_ns, other.observe_ns),
            (&mut self.meter_ns, other.meter_ns),
            (&mut self.rapl_ns, other.rapl_ns),
            (&mut self.sample_ns, other.sample_ns),
            (&mut self.wall_ns, other.wall_ns),
            (&mut self.span_ns, other.span_ns),
        ] {
            *mine += theirs;
        }
        self.consistent &= other.consistent;
    }
}

/// What both twins must agree on each tick: the counter columns and the
/// meter samples of the harvested interval.
fn columns_hash(pids: &[Pid], counters: &[u64], meter: &[(Nanos, Watts)]) -> u64 {
    let mut h = Fnv::default();
    for p in pids {
        h.word(u64::from(p.0));
    }
    for &c in counters {
        h.word(c);
    }
    for (at, w) in meter {
        h.word(at.as_u64());
        h.word(w.as_f64().to_bits());
    }
    h.value()
}

fn frame_hash(frame: &TickFrame, pids: &mut Vec<Pid>, counters: &mut Vec<u64>) -> u64 {
    pids.clear();
    counters.clear();
    for i in 0..frame.hpc_len() {
        pids.push(frame.hpc_pid(i));
        counters.extend_from_slice(frame.hpc_row(i));
    }
    columns_hash(pids, counters, frame.meter())
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// The host twin: a whole `SimHost`, timed around `step` and
/// `snapshot_frame`.
struct HostTwin {
    host: SimHost,
    pool: FramePool,
    pids: Vec<Pid>,
    counters: Vec<u64>,
}

impl HostTwin {
    fn new(plan: &TwinPlan<'_>) -> HostTwin {
        let world = (plan.build)();
        let mut host = SimHost::new(
            world.kernel,
            PAPER_EVENTS.to_vec(),
            SLOTS,
            plan.meter.clone(),
        );
        for &pid in &world.pids {
            host.monitor(pid)
                .expect("twin monitors what the pipeline monitors");
        }
        for _ in 0..plan.prewarm.1 {
            host.step(plan.prewarm.0);
        }
        HostTwin {
            host,
            pool: FramePool::new(),
            pids: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// One monitoring tick; returns the harvested columns' hash. `timed`
    /// accumulates spans.
    fn tick(&mut self, plan: &TwinPlan<'_>, timed: Option<&mut TwinReport>) -> u64 {
        let mut t = Instant::now();
        let mut step_ns = 0;
        for _ in 0..plan.quanta_per_tick {
            self.host.step(plan.quantum);
            let now = Instant::now();
            step_ns += ns(t, now);
            t = now;
        }
        let allocs = allocations();
        let frame = self.host.snapshot_frame(&self.pool);
        let snapshot_ns = ns(t, Instant::now());
        if let Some(r) = timed {
            r.step_ns += step_ns;
            r.snapshot_ns += snapshot_ns;
            r.snapshot_allocs += allocations() - allocs;
            r.frame_rows += frame.time_len() as u64;
            r.active_rows += (0..frame.time_len())
                .filter(|&i| frame.busy(i) > Nanos::ZERO)
                .count() as u64;
        }
        frame_hash(&frame, &mut self.pids, &mut self.counters)
    }
}

/// The kernel side of the component twin plus the replaying machine.
struct Components {
    kernel: Kernel,
    monitor: ProcessMonitor,
    meter: PowerSpy,
    meter_buf: Vec<(Nanos, Watts)>,
    rapl: Option<Rapl>,
    shadows: Vec<Vec<Box<dyn TaskBehavior>>>,
    /// `(process, thread)` of tid `first_tid + i`: tids are handed out in
    /// spawn order, so a dense table replaces a map lookup per record.
    thread_of: Vec<(usize, usize)>,
    first_tid: u32,
    replay: Machine,
    smt: usize,
    exact: bool,
    pids: Vec<Pid>,
    counters: Vec<u64>,
}

impl Components {
    fn new(plan: &TwinPlan<'_>) -> Components {
        let world = (plan.build)();
        let mut by_tid = BTreeMap::new();
        for (p, &pid) in world.pids.iter().enumerate() {
            let process = world.kernel.process(pid).expect("spawned above");
            for (t, &tid) in process.threads().iter().enumerate() {
                by_tid.insert(tid, (p, t));
            }
        }
        let first_tid = by_tid.keys().next().map_or(0, |t| t.0);
        let last_tid = by_tid.keys().next_back().map_or(0, |t| t.0);
        let mut thread_of = vec![(usize::MAX, 0); (last_tid - first_tid) as usize + 1];
        for (tid, at) in by_tid {
            thread_of[(tid.0 - first_tid) as usize] = at;
        }
        let config = world.kernel.machine().config().clone();
        let smt = config.topology.threads_per_core();
        assert!(
            config.topology.logical_cpus() <= MAX_CPUS,
            "replay scratch holds {MAX_CPUS} CPUs"
        );
        let mut monitor = ProcessMonitor::new(SLOTS, PAPER_EVENTS.to_vec());
        for &pid in &world.pids {
            monitor
                .track(pid)
                .expect("twin tracks what the pipeline monitors");
        }
        let mut c = Components {
            kernel: world.kernel,
            monitor,
            meter: PowerSpy::new(plan.meter.clone()),
            meter_buf: Vec::new(),
            rapl: Rapl::open(&config).ok(),
            shadows: world.shadows,
            thread_of,
            first_tid,
            replay: Machine::new(config),
            smt,
            exact: true,
            pids: Vec::new(),
            counters: Vec::new(),
        };
        for _ in 0..plan.prewarm.1 {
            c.quantum(plan.prewarm.0, None);
        }
        c
    }

    /// One monitoring tick; returns the harvested columns' hash. `timed`
    /// accumulates spans.
    fn tick(&mut self, plan: &TwinPlan<'_>, mut timed: Option<&mut TwinReport>) -> u64 {
        for _ in 0..plan.quanta_per_tick {
            self.quantum(plan.quantum, timed.as_deref_mut());
        }
        self.pids.clear();
        self.counters.clear();
        let t0 = Instant::now();
        self.monitor.sample_into(&mut self.pids, &mut self.counters);
        if let Some(r) = timed {
            r.sample_ns += ns(t0, Instant::now());
        }
        let hash = columns_hash(&self.pids, &self.counters, &self.meter_buf);
        self.meter_buf.clear();
        hash
    }

    /// One quantum in `SimHost::step`'s order; `timed` accumulates spans.
    fn quantum(&mut self, dt: Nanos, timed: Option<&mut TwinReport>) {
        let before = self.kernel.machine().now();
        let allocs = allocations();
        let t0 = Instant::now();
        let report = self.kernel.tick(dt);
        let t1 = Instant::now();
        let kernel_allocs = allocations() - allocs;
        self.monitor.observe(&report);
        let t2 = Instant::now();
        let truth = self.kernel.machine().last_power();
        for s in self.meter.observe(truth, report.now) {
            self.meter_buf.push((s.at, s.power));
        }
        let t3 = Instant::now();
        if let Some(rapl) = &mut self.rapl {
            rapl.observe(report.package_power, dt);
        }
        let t_rapl = Instant::now();

        // Replay: ask each scheduled thread's shadow what it was given,
        // put the cores at the frequencies the records name, and tick.
        let mut work: [Option<WorkUnit>; MAX_CPUS] = [None; MAX_CPUS];
        let t_slices = Instant::now();
        for rec in &report.records {
            let (p, t) = self.thread_of[(rec.tid.0 - self.first_tid) as usize];
            let Slice::Run(w) = self.shadows[p][t].next_slice(before, dt) else {
                self.exact = false;
                continue;
            };
            work[rec.cpu.as_usize()] = Some(w);
            self.replay
                .set_frequency(rec.cpu.as_usize() / self.smt, rec.frequency)
                .expect("the kernel ran at a supported frequency");
        }
        let mut assignment: [Option<&WorkUnit>; MAX_CPUS] = [None; MAX_CPUS];
        for (slot, w) in assignment.iter_mut().zip(&work) {
            *slot = w.as_ref();
        }
        let t4 = Instant::now();
        let replayed = self.replay.tick(&assignment, dt.as_u64());
        let t5 = Instant::now();
        self.exact &= report
            .records
            .iter()
            .all(|rec| replayed.deltas[rec.cpu.as_usize()] == rec.delta);

        if let Some(r) = timed {
            r.kernel_ns += ns(t0, t1);
            r.kernel_allocs += kernel_allocs;
            r.observe_ns += ns(t1, t2);
            r.meter_ns += ns(t2, t3);
            r.rapl_ns += ns(t3, t_rapl);
            r.machine_ns += ns(t4, t5);
            r.slice_ns += ns(t_slices, t4);
        }
    }
}

/// Kernel quanta each twin advances before the other takes over. The
/// twins alternate so that both see the same phases of a box whose speed
/// drifts over seconds — `core.host.step_self_ns` is the difference of
/// their totals — yet in blocks long enough that neither evicts the
/// other's working set more than once a block.
const BLOCK_QUANTA: u64 = 500;

/// Drives both twins over the plan, in alternating blocks of ticks, and
/// cross-checks them tick by tick.
pub fn run_twins(plan: &TwinPlan<'_>) -> TwinReport {
    let mut r = TwinReport {
        ticks: plan.ticks,
        quanta: plan.ticks * u64::from(plan.quanta_per_tick),
        consistent: true,
        ..TwinReport::default()
    };
    // Only the harness thread runs here, so the process-wide allocation
    // count is this thread's.
    set_counting(true);
    let mut host = HostTwin::new(plan);
    let mut components = Components::new(plan);
    for _ in 0..plan.warmup_ticks {
        r.consistent &= host.tick(plan, None) == components.tick(plan, None);
    }
    let block = (BLOCK_QUANTA / u64::from(plan.quanta_per_tick)).max(1);
    let mut hashes = Vec::with_capacity(block as usize);
    let started = Instant::now();
    let mut done = 0;
    while done < plan.ticks {
        let ticks = block.min(plan.ticks - done);
        hashes.clear();
        for _ in 0..ticks {
            hashes.push(host.tick(plan, Some(&mut r)));
        }
        for &expected in &hashes {
            r.consistent &= components.tick(plan, Some(&mut r)) == expected;
        }
        done += ticks;
    }
    r.wall_ns = ns(started, Instant::now());
    set_counting(false);
    r.consistent &= components.exact;
    r.span_ns = r.step_ns
        + r.snapshot_ns
        + r.kernel_ns
        + r.observe_ns
        + r.meter_ns
        + r.rapl_ns
        + r.sample_ns
        + r.slice_ns
        + r.machine_ns;
    r
}
