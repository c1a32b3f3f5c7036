//! Cross-crate property tests: invariants of the full monitoring pipeline
//! under arbitrary workloads and configurations.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::Scope;
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::simcpu::fault::{FaultPlan, FaultPlanConfig};
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::{MegaHertz, Nanos};
use powerapi_suite::simcpu::workunit::WorkUnit;
use proptest::prelude::*;

fn work_unit() -> impl Strategy<Value = WorkUnit> {
    (
        0.0f64..0.5,
        0.0f64..0.3,
        0.0f64..0.2,
        0.0f64..0.1,
        1.0f64..262_144.0,
        0.0f64..1.0,
        0.8f64..3.0,
        0.05f64..1.0,
    )
        .prop_map(|(m, b, f, bm, fp, loc, ipc, int)| {
            WorkUnit::builder()
                .mem_ratio(m)
                .branch_ratio(b)
                .fp_ratio(f)
                .branch_miss_rate(bm)
                .footprint_kb(fp)
                .locality(loc)
                .base_ipc(ipc)
                .intensity(int)
                .build()
                .expect("valid ranges")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn machine_estimate_is_idle_plus_process_sum(
        works in prop::collection::vec(work_unit(), 1..4),
    ) {
        let model = PerFrequencyPowerModel::paper_i3_example();
        let idle = model.idle_w();
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pids: Vec<_> = works
            .iter()
            .enumerate()
            .map(|(i, w)| kernel.spawn(format!("p{i}"), vec![SteadyTask::boxed(*w)]))
            .collect();
        let mut papi = PowerApi::builder(kernel)
            .formula(PerFrequencyFormula::new(model))
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .expect("pipeline builds");
        for &pid in &pids {
            papi.monitor(pid).expect("monitor");
        }
        papi.run_for(Nanos::from_secs(2)).expect("run");
        let outcome = papi.finish().expect("shutdown");

        // For every timestamped machine aggregate: machine = idle + Σ
        // process estimates at that timestamp.
        for (ts, machine_w) in outcome.machine_estimates() {
            let process_sum: f64 = outcome
                .reports
                .iter()
                .filter(|r| r.timestamp == ts && matches!(r.scope, Scope::Process(_)))
                .map(|r| r.power.as_f64())
                .sum();
            prop_assert!(
                (machine_w.as_f64() - idle - process_sum).abs() < 1e-6,
                "machine {} != idle {idle} + Σ {process_sum}",
                machine_w.as_f64()
            );
        }
        // Estimates are non-negative and finite.
        for r in &outcome.reports {
            prop_assert!(r.power.as_f64().is_finite());
            prop_assert!(r.power.as_f64() >= 0.0);
        }
    }

    #[test]
    fn estimates_arrive_once_per_clock_period(
        w in work_unit(),
        periods in 2u64..6,
    ) {
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pid = kernel.spawn("p", vec![SteadyTask::boxed(w)]);
        let clock = Nanos::from_millis(250);
        let mut papi = PowerApi::builder(kernel)
            .formula(PerFrequencyFormula::new(
                PerFrequencyPowerModel::paper_i3_example(),
            ))
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(clock)
            .build()
            .expect("pipeline builds");
        papi.monitor(pid).expect("monitor");
        papi.run_for(Nanos(250_000_000 * periods)).expect("run");
        let outcome = papi.finish().expect("shutdown");
        let est = outcome.machine_estimates();
        prop_assert_eq!(est.len() as u64, periods, "one estimate per tick");
        // Timestamps are exactly the clock boundaries.
        for (i, (ts, _)) in est.iter().enumerate() {
            prop_assert_eq!(ts.as_u64(), (i as u64 + 1) * 250_000_000);
        }
    }

    #[test]
    fn paper_model_estimate_bounded_by_physics(
        w in work_unit(),
        freq_idx in 0usize..10,
    ) {
        // Whatever the workload, an estimate from sane coefficients must
        // stay within physical bounds for this machine class.
        let freqs = [
            1600u32, 1800, 2000, 2200, 2400, 2600, 2800, 3000, 3200, 3300,
        ];
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        kernel
            .pin_frequency(MegaHertz(freqs[freq_idx]))
            .expect("nominal frequency");
        let pid = kernel.spawn("p", vec![SteadyTask::boxed(w)]);
        let mut papi = PowerApi::builder(kernel)
            .formula(PerFrequencyFormula::new(
                PerFrequencyPowerModel::paper_i3_example(),
            ))
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .expect("pipeline builds");
        papi.monitor(pid).expect("monitor");
        papi.run_for(Nanos::from_secs(1)).expect("run");
        let outcome = papi.finish().expect("shutdown");
        for (_, machine_w) in outcome.machine_estimates() {
            let p = machine_w.as_f64();
            prop_assert!(p >= 31.48 - 1e-9, "never below the idle constant: {p}");
            prop_assert!(p < 120.0, "never beyond physical headroom: {p}");
        }
    }
}

proptest! {
    // Each case runs a full pipeline with fault injection; keep the case
    // count modest so the suite stays interactive.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The conservation invariant survives chaos.
    ///
    /// Under fault injection a tick's estimates come partly from the
    /// primary (hpc-sourced) and partly from the degraded
    /// (procfs-sourced) batch. The sensor stage publishes both in one
    /// fixed order, tick by tick, so the aggregator folds them into one
    /// window: per timestamp there is exactly one machine aggregate, its
    /// power above idle is exactly the sum of the process estimates — no
    /// power lost or double-counted — and its quality equals the worst
    /// process quality folded anywhere in the tick.
    #[test]
    fn conservation_holds_under_fault_injection(
        works in prop::collection::vec(work_unit(), 1..4),
        fault_seed in 0u64..1024,
        windows_per_kind in 1usize..3,
    ) {
        let duration = Nanos::from_secs(3);
        let plan = FaultPlan::generate(
            fault_seed,
            duration,
            &FaultPlanConfig {
                windows_per_kind,
                min_window: Nanos::from_millis(300),
                max_window: Nanos::from_millis(1500),
                ..FaultPlanConfig::default()
            },
        );
        let model = PerFrequencyPowerModel::paper_i3_example();
        let idle = model.idle_w();
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pids: Vec<_> = works
            .iter()
            .enumerate()
            .map(|(i, w)| kernel.spawn(format!("p{i}"), vec![SteadyTask::boxed(*w)]))
            .collect();
        let mut papi = PowerApi::builder(kernel)
            .formula(PerFrequencyFormula::new(model))
            .degrade_to(PerFrequencyFormula::cpu_load(0.0, 4.0), Nanos::from_millis(600))
            .fault_plan(plan)
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(250))
            .build()
            .expect("pipeline builds");
        for &pid in &pids {
            papi.monitor(pid).expect("monitor");
        }
        papi.run_for(duration).expect("run");
        let outcome = papi.finish().expect("shutdown");

        let machine_ts: std::collections::BTreeSet<_> = outcome
            .reports
            .iter()
            .filter(|r| r.scope == Scope::Machine)
            .map(|r| r.timestamp)
            .collect();
        prop_assert!(
            !machine_ts.is_empty(),
            "faults degrade estimates, they must not silence them"
        );
        for &ts in &machine_ts {
            let machines: Vec<_> = outcome
                .reports
                .iter()
                .filter(|r| r.timestamp == ts && r.scope == Scope::Machine)
                .collect();
            let procs: Vec<_> = outcome
                .reports
                .iter()
                .filter(|r| r.timestamp == ts && matches!(r.scope, Scope::Process(_)))
                .collect();
            prop_assert_eq!(machines.len(), 1, "window split at {:?}", ts);
            let above_idle: f64 = machines
                .iter()
                .map(|r| r.power.as_f64() - idle)
                .sum();
            let process_sum: f64 = procs.iter().map(|r| r.power.as_f64()).sum();
            prop_assert!(
                (above_idle - process_sum).abs() < 1e-6,
                "machine-above-idle {above_idle} != Σ process {process_sum} at {ts:?}"
            );
            let machine_worst = machines.iter().map(|r| r.quality).min();
            let process_worst = procs.iter().map(|r| r.quality).min();
            prop_assert_eq!(
                machine_worst, process_worst,
                "machine quality floor matches process quality floor at {:?}", ts
            );
        }
        for r in &outcome.reports {
            prop_assert!(r.power.as_f64().is_finite());
            prop_assert!(r.power.as_f64() >= 0.0, "no negative power under faults");
        }
    }

    /// The hierarchical conservation law over random trees, shares and
    /// fault schedules: whatever leaves processes land on (including
    /// none — the `__ungrouped__` catch-all), whatever the scheduler
    /// weights, and whatever faults degrade the estimates, every ledger
    /// flush must roll up bit-exactly and the root must reconcile with
    /// the machine aggregator.
    #[test]
    fn hierarchy_conservation_holds_for_random_trees(
        assignments in prop::collection::vec((work_unit(), 0usize..5), 1..5),
        shares_a in 256u64..8192,
        shares_b in 256u64..8192,
        fault_seed in 0u64..1024,
    ) {
        use powerapi_suite::powerapi::hierarchy::Hierarchy;

        // Leaf pool: two tenants, three levels at the deepest, plus the
        // no-cgroup slot (index 4) that must fall into the catch-all.
        const LEAVES: [Option<&str>; 5] = [
            Some("tenant-a/svc-web"),
            Some("tenant-a/svc-db"),
            Some("tenant-b/svc-api"),
            Some("tenant-b/svc-api/shard-0"),
            None,
        ];
        let duration = Nanos::from_secs(3);
        let plan = FaultPlan::generate(
            fault_seed,
            duration,
            &FaultPlanConfig {
                min_window: Nanos::from_millis(300),
                max_window: Nanos::from_millis(1500),
                ..FaultPlanConfig::default()
            },
        );
        let model = PerFrequencyPowerModel::paper_i3_example();
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        kernel.cgroup_create("tenant-a", shares_a);
        kernel.cgroup_create("tenant-b", shares_b);
        let pids: Vec<_> = assignments
            .iter()
            .enumerate()
            .map(|(i, (w, slot))| match LEAVES[*slot] {
                Some(path) => {
                    kernel.spawn_in_cgroup(format!("p{i}"), path, vec![SteadyTask::boxed(*w)])
                }
                None => kernel.spawn(format!("p{i}"), vec![SteadyTask::boxed(*w)]),
            })
            .collect();
        let hierarchy = Hierarchy::new();
        let mut papi = PowerApi::builder(kernel)
            .formula(PerFrequencyFormula::new(model))
            .degrade_to(PerFrequencyFormula::cpu_load(0.0, 4.0), Nanos::from_millis(600))
            .fault_plan(plan)
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(250))
            .hierarchy(&hierarchy)
            .build()
            .expect("pipeline builds");
        for &pid in &pids {
            papi.monitor(pid).expect("monitor");
        }
        papi.run_for(duration).expect("run");
        let outcome = papi.finish().expect("shutdown");

        prop_assert!(hierarchy.ticks() > 0, "faults must not silence the ledger");
        let conserved = hierarchy.conservation();
        prop_assert!(conserved.is_ok(), "{}", conserved.unwrap_err());
        let reconciled = hierarchy.reconcile(&outcome.reports);
        prop_assert!(reconciled.is_ok(), "{}", reconciled.unwrap_err());
    }
}
