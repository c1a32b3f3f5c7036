//! Shared fleet-simulation harness for the fleet experiments.
//!
//! E12 (transport resilience) and E14 (observability plane) replay the
//! same chaos arms: N simulated i3 hosts streaming batched tick frames
//! over fault-injected links into sharded estimators. The scenario
//! machinery lives here once — the seed, the pinned fault schedule, the
//! host workload mix and the arm runner — so both binaries exercise
//! bit-identical fleets and E13's cgrouped fleet arm can reuse the
//! tenant host builder. Scoring stays in each binary: what E12 grades
//! (MAE ratios, frame accounting) and what E14 grades (journey
//! reconstruction, SLO burn) differ, but the world under test must not.

use os_sim::kernel::Kernel;
use os_sim::task::{PeriodicTask, SteadyTask};
use perf_sim::events::PAPER_EVENTS;
use powerapi::fleet::{
    Fleet, FleetConfig, FleetTickReport, FrameSource, LinkFaultConfig, LinkFaultKind,
    LinkFaultPlan, LinkWindow, ShardConfig, SimHostSource, SloConfig,
};
use powerapi::formula::PowerFormula;
use powerapi::host::SimHost;
use powerapi::telemetry::Telemetry;
use powermeter::powerspy::PowerSpyConfig;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;
use std::time::Instant;

/// Seed for the link-fault schedule (and nothing else — per-frame fault
/// decisions hash it with host/seq/attempt, so runs replay exactly).
pub const FLEET_SEED: u64 = 0xF1EE_7005;
/// Ticks skipped before scoring (frames in flight, tracks filling).
pub const WARMUP_TICKS: usize = 5;

/// The faulty arm's network: 5 % loss, light duplicate/corrupt/reorder
/// rates, two 10-tick partition windows and a couple of single-host dark
/// spells. The windows are pinned (not sampled) so they start after every
/// host has reported at least once — the scenario tests hold-over on a
/// *known* host, not cold-start blindness — and so quick and full runs
/// hit the same relative schedule.
pub fn fleet_faults(hosts: usize, ticks: u64) -> LinkFaultPlan {
    let span = (hosts / 8).max(2) as u32;
    let h = hosts as u32;
    let part = |start: u64, lo: u32| LinkWindow {
        kind: LinkFaultKind::Partition,
        start,
        end: start + 10,
        host_lo: lo,
        host_hi: (lo + span).min(h),
    };
    let dark = |start: u64, host: u32| LinkWindow {
        kind: LinkFaultKind::HostDark,
        start,
        end: start + 3,
        host_lo: host,
        host_hi: host + 1,
    };
    LinkFaultPlan::from_parts(
        FLEET_SEED,
        &LinkFaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.01,
            corrupt_rate: 0.01,
            reorder_rate: 0.02,
            ..LinkFaultConfig::default()
        },
        vec![
            part(ticks / 4, 0),
            part(ticks / 2, span),
            dark(ticks / 3, 2 * span),
            dark(2 * ticks / 3, h - 1),
        ],
    )
}

/// One simulated host: an i3 running 1–3 steady services at loads spread
/// deterministically across the fleet, snapshotting a [`powerapi::frame::TickFrame`]
/// per fleet tick (four 250 ms scheduler quanta).
pub fn make_source(index: usize) -> Box<dyn FrameSource> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let procs = 1 + index % 3;
    let mut pids: Vec<_> = (0..procs)
        .map(|p| {
            let load = 0.15 + 0.70 * (((index * 3 + p * 5) % 11) as f64 / 10.0);
            kernel.spawn(
                format!("svc-{index}-{p}"),
                vec![SteadyTask::boxed(WorkUnit::cpu_intensive(load))],
            )
        })
        .collect();
    // One duty-cycled batch job per host (periods spread across the
    // fleet): host power genuinely moves tick to tick, so a stale
    // hold-over costs real watts — without it the steady fleet would
    // make frame loss literally free and the error ratio degenerate.
    let period = Nanos::from_secs(15 + (index % 5) as u64 * 5);
    pids.push(kernel.spawn(
        format!("batch-{index}"),
        vec![PeriodicTask::boxed(
            WorkUnit::cpu_intensive(0.5),
            period,
            0.5,
        )],
    ));
    finish_source(kernel, pids)
}

/// One simulated host with cgrouped tenants on top of the E12 workload
/// mix: the same steady services and batch job, but the first service
/// runs under `tenant-gold/svc-web` and even-indexed hosts add a
/// `tenant-bronze/svc-batch` worker — so `Fleet::explain` has real
/// tenant paths to attribute across hosts.
pub fn make_tenant_source(index: usize) -> Box<dyn FrameSource> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", 4096);
    kernel.cgroup_create("tenant-bronze", 1024);
    let mut pids = Vec::new();
    let gold_load = 0.15 + 0.70 * ((index * 3 % 11) as f64 / 10.0);
    pids.push(kernel.spawn_in_cgroup(
        format!("svc-web-{index}"),
        "tenant-gold/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(gold_load))],
    ));
    if index.is_multiple_of(2) {
        pids.push(kernel.spawn_in_cgroup(
            format!("svc-batch-{index}"),
            "tenant-bronze/svc-batch",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.25))],
        ));
    }
    // One duty-cycled stray outside every cgroup: tick-to-tick movement
    // (as in E12) plus a catch-all contribution the ledger must close.
    let period = Nanos::from_secs(15 + (index % 5) as u64 * 5);
    pids.push(kernel.spawn(
        format!("batch-{index}"),
        vec![PeriodicTask::boxed(
            WorkUnit::cpu_intensive(0.5),
            period,
            0.5,
        )],
    ));
    finish_source(kernel, pids)
}

/// Monitors `pids`, pre-warms the host to thermal steady state (τ = 30 s,
/// so 5τ — the fleet scenario models long-running services, and a host
/// mid-ramp would conflate hold-over error with thermal drift the
/// transport layer cannot see) and wraps it as a frame source.
fn finish_source(kernel: Kernel, pids: Vec<os_sim::process::Pid>) -> Box<dyn FrameSource> {
    let mut host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
    for pid in pids {
        host.monitor(pid).expect("monitor");
    }
    for _ in 0..150 {
        host.step(Nanos::from_secs(1));
    }
    Box::new(SimHostSource::new(host, Nanos::from_millis(250), 4))
}

/// Nearest-rank percentile over an already-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One chaos arm's shape: everything that distinguishes clean from
/// faulty from saturated, with the SLO declaration the observability
/// plane tracks.
pub struct FleetSpec {
    /// Simulated hosts.
    pub hosts: usize,
    /// Fleet ticks to run.
    pub ticks: u64,
    /// Estimator shards.
    pub shards: usize,
    /// Shard service knobs (the saturated arm under-provisions these).
    pub shard: ShardConfig,
    /// The network fault schedule.
    pub fault: LinkFaultPlan,
    /// The declared lag SLO.
    pub slo: SloConfig,
}

impl FleetSpec {
    /// A clean arm: perfect links, default shards, default SLO.
    pub fn clean(hosts: usize, ticks: u64, shards: usize) -> FleetSpec {
        FleetSpec {
            hosts,
            ticks,
            shards,
            shard: ShardConfig::default(),
            fault: LinkFaultPlan::none(),
            slo: SloConfig::default(),
        }
    }
}

/// One arm, run to completion with the fleet kept alive for
/// post-run observability queries (journeys, SLO state, provenance).
pub struct FleetRun {
    /// The fleet after the run (journey log, SLO tracker, shards).
    pub fleet: Fleet,
    /// Per-tick aggregate reports (whole run, warmup included).
    pub reports: Vec<FleetTickReport>,
    /// The telemetry hub the fleet journaled into.
    pub telemetry: Telemetry,
    /// Wall-clock seconds spent inside `Fleet::run` (read by E8's paired
    /// tracing-on/off arms only).
    pub wall_s: f64,
}

/// Runs one arm and asserts frame-accounting conservation. Scoring is
/// the caller's business — E12 and E14 grade different things over the
/// same world.
pub fn run_fleet(
    spec: FleetSpec,
    formula: &dyn PowerFormula,
    make: impl Fn(usize) -> Box<dyn FrameSource>,
) -> FleetRun {
    run_fleet_with(spec, formula, make, Telemetry::new())
}

/// [`run_fleet`] with the telemetry hub injected — E8 prices the fleet
/// tracing plane by replaying the same arm against an enabled and a
/// disabled hub (fault decisions hash only seed/host/seq/attempt, so
/// both arms see bit-identical worlds).
pub fn run_fleet_with(
    spec: FleetSpec,
    formula: &dyn PowerFormula,
    make: impl Fn(usize) -> Box<dyn FrameSource>,
    telemetry: Telemetry,
) -> FleetRun {
    let cfg = FleetConfig {
        shards: spec.shards,
        events: PAPER_EVENTS.to_vec(),
        shard: spec.shard,
        fault: spec.fault,
        slo: spec.slo,
        ..FleetConfig::default()
    };
    let sources: Vec<Box<dyn FrameSource>> = (0..spec.hosts).map(make).collect();
    let mut fleet = Fleet::new(cfg, formula, sources, telemetry.clone());
    let started = Instant::now();
    let reports = fleet.run(spec.ticks);
    let wall_s = started.elapsed().as_secs_f64();
    fleet.assert_conserved();
    FleetRun {
        fleet,
        reports,
        telemetry,
        wall_s,
    }
}
