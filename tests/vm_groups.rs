//! VM-level power attribution end to end (§5 future work): control
//! groups in the kernel, group aggregation in the middleware (a flat set
//! of VMs is a depth-1 hierarchy), membership read from each tick's
//! frame.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::process::Pid;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::hierarchy::Hierarchy;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::Scope;
use powerapi_suite::powerapi::runtime::{PowerApi, RunOutcome};
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;

/// Two VMs — alpha (pids `a`, `b`) and beta (pid `c`) — as depth-1
/// cgroups, monitored for eight 500 ms ticks under the default
/// dimension: per-process reports plus machine aggregates.
fn run_two_vms() -> (RunOutcome, Hierarchy, [Pid; 3]) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let a = kernel.spawn_in_cgroup(
        "a",
        "vm-alpha",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.9))],
    );
    let b = kernel.spawn_in_cgroup(
        "b",
        "vm-alpha",
        vec![SteadyTask::boxed(WorkUnit::memory_intensive(65_536.0, 0.7))],
    );
    let c = kernel.spawn_in_cgroup(
        "c",
        "vm-beta",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.4))],
    );
    let formula = PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example());
    let vms = Hierarchy::new();

    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .hierarchy(&vms)
        .build()
        .expect("pipeline builds");
    for pid in [a, b, c] {
        papi.monitor(pid).expect("monitor");
    }
    papi.run_for(Nanos::from_secs(4)).expect("run");
    (papi.finish().expect("shutdown"), vms, [a, b, c])
}

#[test]
fn group_power_equals_sum_of_member_processes() {
    let (outcome, _, [a, b, _]) = run_two_vms();

    let alpha = outcome.group_estimates("vm-alpha");
    let beta = outcome.group_estimates("vm-beta");
    assert_eq!(alpha.len(), 8, "one alpha aggregate per tick");
    assert_eq!(beta.len(), 8);

    // Group = Σ member processes at each timestamp.
    for (ts, gw) in &alpha {
        let sum: f64 = [a, b]
            .iter()
            .flat_map(|pid| outcome.process_estimates(*pid))
            .filter(|(t, _)| t == ts)
            .map(|(_, w)| w.as_f64())
            .sum();
        assert!(
            (gw.as_f64() - sum).abs() < 1e-9,
            "vm-alpha {} != Σ members {sum}",
            gw.as_f64()
        );
    }

    // Two active workers dwarf one light worker.
    let avg = |v: &[(Nanos, powerapi_suite::simcpu::Watts)]| {
        v.iter().map(|(_, w)| w.as_f64()).sum::<f64>() / v.len() as f64
    };
    assert!(avg(&alpha) > avg(&beta));
    assert!(outcome.group_estimates("vm-gamma").is_empty());
}

#[test]
fn pinned_groups_respect_their_cpu_budgets() {
    // Pin each VM to its own core; counters must show the separation.
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let alpha = kernel.spawn_in_cgroup(
        "alpha",
        "vm-alpha",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
    );
    let beta = kernel.spawn_in_cgroup(
        "beta",
        "vm-beta",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
    );
    kernel.pin_process(alpha, vec![0, 1]).expect("pin alpha");
    kernel.pin_process(beta, vec![2, 3]).expect("pin beta");
    for _ in 0..100 {
        let r = kernel.tick(Nanos::from_millis(1));
        for rec in &r.records {
            let cpu = rec.cpu.as_usize();
            if rec.pid == alpha {
                assert!(cpu < 2, "alpha escaped to cpu{cpu}");
            } else {
                assert!(cpu >= 2, "beta escaped to cpu{cpu}");
            }
        }
    }
}

/// Each depth-1 hierarchy leaf equals, to the bit, the sum of its member
/// pids' process-scope reports at that timestamp, added in arrival order
/// — an oracle independent of the hierarchy's own ledger (the plain
/// aggregator forwards every process estimate untouched, and both
/// aggregators fold the same FIFO power stream).
#[test]
fn hierarchy_leaves_match_flat_groups_bit_for_bit() {
    let (outcome, hierarchy, [a, b, c]) = run_two_vms();

    hierarchy.assert_conserved(&outcome.reports);
    // The builder bound the run's telemetry hub to the hierarchy.
    let flushes = format!("powerapi_hierarchy_flushes_total {}", hierarchy.ticks());
    assert!(
        outcome
            .telemetry
            .render_prometheus()
            .lines()
            .any(|l| l == flushes),
        "one counted flush per audited tick: {flushes}"
    );
    for (leaf, members) in [("vm-alpha", &[a, b][..]), ("vm-beta", &[c][..])] {
        let leaf_est = outcome.group_estimates(leaf);
        assert_eq!(leaf_est.len(), 8, "one {leaf} aggregate per tick");
        for (ts, lw) in &leaf_est {
            let sum = outcome
                .reports
                .iter()
                .filter(|r| {
                    r.timestamp == *ts
                        && matches!(r.scope, Scope::Process(pid) if members.contains(&pid))
                })
                .fold(0.0, |acc, r| acc + r.power.as_f64());
            assert_eq!(
                lw.as_f64().to_bits(),
                sum.to_bits(),
                "{leaf} at {ts:?}: leaf {} W vs member sum {sum} W",
                lw.as_f64()
            );
        }
    }
}
