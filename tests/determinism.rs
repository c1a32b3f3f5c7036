//! Reproducibility tests: the entire stack — simulation, measurement
//! noise, learning, estimation — must be a pure function of its seeds.
//! The actors share one loop thread fed by one FIFO queue, and the
//! producer waits for that thread only through `settle()`, so how far the
//! loop lags must change nothing: the `*_under_loop_delays` tests slow it
//! by a seeded sleep per tick and hold every output to the bit.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::{PeriodicTask, SteadyTask};
use powerapi_suite::perf_sim::events::PAPER_EVENTS;
use powerapi_suite::powerapi::actor::{Actor, Context};
use powerapi_suite::powerapi::adaptive::SamplingConfig;
use powerapi_suite::powerapi::control::{CapControlActor, CappedGovernor, PowerCap};
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::hierarchy::Hierarchy;
use powerapi_suite::powerapi::model::learn::{learn_model, LearnConfig};
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::{Message, Quality, Scope, Topic};
use powerapi_suite::powerapi::runtime::{PowerApi, RunOutcome};
use powerapi_suite::powerapi::telemetry::EventKind;
use powerapi_suite::simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;
use powerapi_suite::workloads::specjbb::{self, SpecJbbConfig};
use std::collections::BTreeMap;
use std::time::Duration;

fn run_once(seed: u64) -> RunOutcome {
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(20),
        threads: 2,
        seed,
    };
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("jbb", specjbb::tasks(&jbb));
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(jbb.duration).expect("run");
    papi.finish().expect("shutdown")
}

#[test]
fn identical_seeds_identical_traces() {
    let a = run_once(7);
    let b = run_once(7);
    assert_eq!(a.meter, b.meter, "meter noise is seed-deterministic");
    assert_eq!(
        a.machine_estimates(),
        b.machine_estimates(),
        "estimates are deterministic"
    );
    assert_eq!(a.rapl, b.rapl);
}

#[test]
fn different_workload_seeds_differ() {
    let a = run_once(7);
    let b = run_once(8);
    assert_ne!(
        a.machine_estimates(),
        b.machine_estimates(),
        "the workload seed matters"
    );
}

#[test]
fn learning_is_deterministic() {
    let m1 = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learn");
    let m2 = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learn");
    assert_eq!(m1, m2);
    let mut cfg = LearnConfig::quick();
    cfg.sampling.seed ^= 0xFF;
    let m3 = learn_model(presets::intel_i3_2120(), &cfg).expect("learn");
    assert_ne!(m1, m3, "meter noise seed shifts the fit slightly");
}

#[test]
fn kernel_simulation_is_deterministic_without_any_seed() {
    // The simulation itself (no meters) uses no randomness at all.
    let run = || {
        let mut k = Kernel::new(presets::xeon_smt_turbo());
        k.spawn(
            "mixed",
            vec![
                SteadyTask::boxed(WorkUnit::cpu_intensive(0.9)),
                SteadyTask::boxed(WorkUnit::memory_intensive(131_072.0, 0.7)),
                SteadyTask::boxed(WorkUnit::mixed(0.5, 8_192.0, 0.5)),
            ],
        );
        let mut powers = Vec::new();
        for _ in 0..200 {
            powers.push(k.tick(Nanos::from_millis(1)).power);
        }
        (powers, k.machine().machine_energy())
    };
    assert_eq!(run(), run());
}

/// Duty-cycled processes under two counter-stall windows, the primary
/// formula degrading to cpu-load after 1.5 s of silence: the path where
/// the order of a tick's hpc and procfs batches decides who estimates.
fn run_degraded() -> RunOutcome {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids: Vec<_> = [(2_000u64, 0.7), (5_000, 0.4), (8_000, 0.3), (3_000, 0.5)]
        .into_iter()
        .enumerate()
        .map(|(i, (period_ms, duty))| {
            kernel.spawn(
                format!("svc-{i}"),
                vec![PeriodicTask::boxed(
                    WorkUnit::cpu_intensive(0.6 + 0.1 * i as f64),
                    Nanos::from_millis(period_ms),
                    duty,
                )],
            )
        })
        .collect();
    let stall = |start_s: u64, end_s: u64| FaultWindow {
        kind: FaultKind::CounterStall,
        start: Nanos::from_secs(start_s),
        end: Nanos::from_secs(end_s),
        magnitude: 0.0,
    };
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .degrade_to(
            PerFrequencyFormula::cpu_load(30.0, 25.0),
            Nanos::from_millis(1500),
        )
        .fault_plan(FaultPlan::from_windows(vec![stall(3, 6), stall(6, 12)]))
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .build()
        .expect("pipeline builds");
    for pid in pids {
        papi.monitor(pid).expect("monitor");
    }
    papi.run_for(Nanos::from_secs(12)).expect("run");
    papi.finish().expect("shutdown")
}

#[test]
fn degraded_pipeline_is_deterministic() {
    // Floats by bits: "equal" must mean the same report, not a close one.
    let reports = |out: &RunOutcome| -> Vec<_> {
        out.reports
            .iter()
            .map(|r| {
                (
                    r.timestamp,
                    r.scope.clone(),
                    r.power.as_f64().to_bits(),
                    r.band_w.as_f64().to_bits(),
                    r.quality,
                    r.trace,
                )
            })
            .collect()
    };
    let first = run_degraded();
    assert!(
        first.reports.iter().any(|r| r.quality == Quality::Degraded),
        "the stall windows must hand estimation to the backup"
    );
    // One machine window per tick: a late batch of an older tick would
    // flush a partial sum and repeat (or reorder) a timestamp.
    let machine: Vec<Nanos> = first
        .reports
        .iter()
        .filter(|r| r.scope == Scope::Machine)
        .map(|r| r.timestamp)
        .collect();
    assert!(
        machine.windows(2).all(|w| w[0] < w[1]),
        "machine timestamps strictly increase: {machine:?}"
    );
    let expected = reports(&first);
    for run in 1..5 {
        assert_eq!(reports(&run_degraded()), expected, "run {run} diverged");
    }
}

/// Sleeps a seeded 0–3 ms on every tick frame, so the loop thread
/// falls behind the producer by a different margin in every run.
struct Jitter(u64);

impl Actor for Jitter {
    fn handle(&mut self, _msg: Message, _ctx: &Context) {
        // Knuth's MMIX LCG; the high bits are the well-mixed ones.
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        std::thread::sleep(Duration::from_micros((self.0 >> 33) % 3_000));
    }
}

/// Two tenants under container churn — between one-second chunks the
/// main thread starts a container, kills the oldest and moves one
/// between tenants — with `jitter_seed` delaying the loop thread. Every
/// group report, keyed by (tick, node), as raw bits.
fn run_tenant_churn(jitter_seed: u64) -> BTreeMap<(Nanos, String), u64> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", 4096);
    kernel.cgroup_create("tenant-bronze", 1024);
    let base = kernel.spawn_in_cgroup(
        "web",
        "tenant-gold/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.5))],
    );
    let hierarchy = Hierarchy::new();
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(250))
        .hierarchy(&hierarchy)
        .with_actor("jitter", Box::new(Jitter(jitter_seed)), vec![Topic::Tick])
        .build()
        .expect("pipeline builds");
    papi.monitor(base).expect("monitor");
    let mut live = Vec::new();
    for chunk in 0..6u32 {
        papi.run_for(Nanos::from_secs(1)).expect("run");
        if live.len() == 2 {
            let oldest = live.remove(0);
            papi.unmonitor(oldest);
            papi.kernel_mut().kill(oldest).expect("kill");
        }
        let tenant = ["tenant-gold", "tenant-bronze"][chunk as usize % 2];
        let pid = papi.kernel_mut().spawn_in_cgroup(
            format!("job-{chunk}"),
            &format!("{tenant}/job-{chunk}"),
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.6))],
        );
        papi.monitor(pid).expect("monitor");
        live.push(pid);
        let away = ["tenant-bronze/svc-web", "tenant-gold/svc-web"][chunk as usize % 2];
        papi.kernel_mut()
            .cgroup_attach(base, away)
            .expect("re-home");
    }
    let outcome = papi.finish().expect("shutdown");
    hierarchy.assert_conserved(&outcome.reports);
    outcome
        .reports
        .iter()
        .filter_map(|r| match &r.scope {
            Scope::Group(node) => {
                Some(((r.timestamp, node.to_string()), r.power.as_f64().to_bits()))
            }
            _ => None,
        })
        .collect()
}

/// The tenant split is a function of the simulation alone: however far
/// the loop thread lags behind a main thread that keeps mutating the
/// cgroups, every (tick, node) report is the same to the bit.
#[test]
fn tenant_churn_is_deterministic_under_loop_delays() {
    let expected = run_tenant_churn(0);
    assert!(
        expected
            .keys()
            .any(|(_, node)| node == "tenant-bronze/job-1"),
        "a container started mid-run gets its own node"
    );
    for seed in 1..20 {
        assert_eq!(
            run_tenant_churn(seed),
            expected,
            "delay seed {seed} diverged"
        );
    }
}

/// Every report of a run as raw bits, in emission order.
type ReportBits = Vec<(Nanos, Scope, u64, u64, Quality)>;

fn report_bits(outcome: &RunOutcome) -> ReportBits {
    outcome
        .reports
        .iter()
        .map(|r| {
            (
                r.timestamp,
                r.scope.clone(),
                r.power.as_f64().to_bits(),
                r.band_w.as_f64().to_bits(),
                r.quality,
            )
        })
        .collect()
}

/// The stock SPECjbb excerpt under the residual monitor and the rate
/// controller (shedding to two PMU slots while backed off), with
/// `jitter_seed` delaying the loop thread: the reports, the journaled
/// rate changes (simulated time and detail) and the counter reads paid.
fn run_adaptive(
    model: &PerFrequencyPowerModel,
    jitter_seed: u64,
) -> (ReportBits, Vec<(Nanos, String)>, u64) {
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(60),
        ..SpecJbbConfig::default()
    };
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("specjbb", specjbb::tasks(&jbb));
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model.clone()))
        .model_health()
        .events(PAPER_EVENTS.to_vec())
        .slots(4)
        .adaptive_sampling(SamplingConfig {
            shed_slots: Some(2),
            ..SamplingConfig::default()
        })
        .telemetry(true)
        .report_to_memory()
        .quantum(Nanos::from_millis(10))
        .clock_period(Nanos::from_secs(1))
        .with_actor("jitter", Box::new(Jitter(jitter_seed)), vec![Topic::Tick])
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(jbb.duration).expect("run");
    let journal = papi.telemetry().journal().events();
    let outcome = papi.finish().expect("shutdown");
    let rate_changes = journal
        .into_iter()
        .filter(|e| e.kind == EventKind::RateChange)
        .map(|e| (e.at, e.detail.to_string()))
        .collect();
    (
        report_bits(&outcome),
        rate_changes,
        outcome.selfcost.sensor_reads,
    )
}

/// Each tick's rate verdict paces the gap to the next tick however late
/// the loop thread hands it over: the backoffs and snap-backs, the slots
/// shed and every report are the same across delay seeds.
#[test]
fn adaptive_sampling_is_deterministic_under_loop_delays() {
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learn");
    let expected = run_adaptive(&model, 0);
    let rate_changes = &expected.1;
    assert!(
        rate_changes.iter().any(|(_, d)| d.starts_with("backoff"))
            && rate_changes.iter().any(|(_, d)| d.starts_with("snap")),
        "the ladder must move both ways: {rate_changes:?}"
    );
    for seed in 1..20 {
        let run = run_adaptive(&model, seed);
        assert_eq!(
            run.1, expected.1,
            "delay seed {seed}: rate changes diverged"
        );
        assert_eq!(
            run.2, expected.2,
            "delay seed {seed}: sensor reads diverged"
        );
        assert!(run.0 == expected.0, "delay seed {seed}: reports diverged");
    }
}

/// Full load under a power cap that tightens halfway, run one clock
/// period at a time and settled in between, with `jitter_seed` delaying
/// the loop: the meter trace and the machine estimates, as raw bits.
fn run_capped(model: &PerFrequencyPowerModel, jitter_seed: u64) -> (Vec<(Nanos, u64)>, ReportBits) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let cap = PowerCap::new(50.0);
    kernel.set_governor(Box::new(CappedGovernor::new(cap.clone())));
    let pid = kernel.spawn(
        "load",
        (0..4)
            .map(|_| SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
            .collect(),
    );
    let period = Nanos::from_millis(500);
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model.clone()))
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(period)
        .with_actor(
            "cap-controller",
            Box::new(CapControlActor::new(cap.clone())),
            vec![Topic::Aggregate],
        )
        .with_actor("jitter", Box::new(Jitter(jitter_seed)), vec![Topic::Tick])
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    for slice in 0..40 {
        // The governor takes the verdict mid-slice: settled, it is the
        // one on the aggregate the previous slice's last tick flushed.
        papi.run_for(period).expect("run");
        papi.settle();
        if slice == 20 {
            cap.set_cap_w(42.0);
        }
    }
    let outcome = papi.finish().expect("shutdown");
    let meter = outcome
        .meter
        .iter()
        .map(|(at, w)| (*at, w.as_f64().to_bits()))
        .collect();
    let mut machine = report_bits(&outcome);
    machine.retain(|r| r.1 == Scope::Machine);
    (meter, machine)
}

/// A cap verdict reaches the governor at the same quantum whatever the
/// loop's lag, once the caller settles between period-sized slices.
#[test]
fn capping_is_deterministic_under_loop_delays() {
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learn");
    let expected = run_capped(&model, 0);
    let watts = |i: usize| f64::from_bits(expected.1[i].2);
    let (first, last) = (watts(0), watts(expected.1.len() - 1));
    // Without the settles the loop, slowed by the jitter, would hand the
    // governor no verdict before the run ended.
    assert!(
        last < first - 10.0,
        "the cap must bite within the run: {first:.1} W -> {last:.1} W"
    );
    for seed in 1..20 {
        assert!(
            run_capped(&model, seed) == expected,
            "delay seed {seed}: meter trace or estimates diverged"
        );
    }
}
