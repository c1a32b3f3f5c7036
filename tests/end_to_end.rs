//! Cross-crate end-to-end tests: the full Figure 1 + Figure 2 story —
//! learn a model through the whole measurement stack, then estimate live
//! workloads through the whole actor pipeline, and check accuracy against
//! the (hidden) ground truth via the meter.

use powerapi_suite::mathkit::metrics::ErrorReport;
use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::aggregator::Dimension;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::learn::{calibrate_cpuload, learn_model, LearnConfig};
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;
use powerapi_suite::workloads::specjbb::{self, SpecJbbConfig};

fn quick_learned_formula() -> PerFrequencyFormula {
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick())
        .expect("quick learning succeeds");
    PerFrequencyFormula::new(model)
}

#[test]
fn learned_model_estimates_steady_load_accurately() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn(
        "steady",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.9))],
    );
    let mut papi = PowerApi::builder(kernel)
        .formula(quick_learned_formula())
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitoring starts");
    papi.run_for(Nanos::from_secs(10)).expect("run completes");
    let outcome = papi.finish().expect("clean shutdown");

    let (actual, predicted) = outcome.meter_trace().align(&outcome.estimate_trace());
    assert!(actual.len() >= 8, "meter produced samples");
    let report = ErrorReport::compute(&actual, &predicted).expect("aligned traces");
    // Steady in-distribution load: the learned model should be within a
    // few percent (thermal drift over 10 s stays small).
    assert!(report.median_ape < 10.0, "median error too high: {report}");
}

#[test]
fn specjbb_run_shows_paper_like_error_band() {
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(120),
        ..SpecJbbConfig::default()
    };
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("jbb", specjbb::tasks(&jbb));
    let mut papi = PowerApi::builder(kernel)
        .formula(quick_learned_formula())
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitoring starts");
    papi.run_for(jbb.duration).expect("run completes");
    let outcome = papi.finish().expect("clean shutdown");

    let (actual, predicted) = outcome.meter_trace().align(&outcome.estimate_trace());
    let report = ErrorReport::compute(&actual, &predicted).expect("aligned traces");
    // Out-of-distribution mixed workload: double-digit-ish error, but the
    // trend must hold (the paper's Figure 3 observation).
    assert!(report.median_ape < 35.0, "unusably bad: {report}");
    let trend =
        powerapi_suite::mathkit::correlation::pearson(&actual, &predicted).expect("aligned");
    assert!(trend > 0.5, "estimates must track the trend: r = {trend}");
}

#[test]
fn hpc_distinguishes_equal_load_processes_where_cpuload_cannot() {
    // The paper's §3 argument: "the CPU load mostly indicates whether the
    // processor executes a job" — two fully-loaded processes look the
    // same to it, while HPC sees what they execute. Run an ALU spinner
    // and a cache thrasher (both 100 % load) under each formula and
    // compare the per-process attribution.
    let learned = quick_learned_formula();
    let cpuload =
        calibrate_cpuload(presets::intel_i3_2120(), &LearnConfig::quick()).expect("calibration");

    let attribution = |use_hpc: bool| -> (f64, f64) {
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let alu = kernel.spawn("alu", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        let thrash = kernel.spawn(
            "thrash",
            vec![SteadyTask::boxed(WorkUnit::memory_intensive(
                262_144.0, 1.0,
            ))],
        );
        let mut builder = PowerApi::builder(kernel)
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .clock_period(Nanos::from_millis(500))
            .dimension(Dimension::pid());
        builder = if use_hpc {
            builder.formula(learned.clone())
        } else {
            builder.formula(cpuload.clone())
        };
        let mut papi = builder.build().expect("pipeline builds");
        papi.monitor(alu).expect("monitor alu");
        papi.monitor(thrash).expect("monitor thrash");
        papi.run_for(Nanos::from_secs(6)).expect("run");
        let outcome = papi.finish().expect("shutdown");
        let avg = |pid| {
            let v = papi_series(&outcome, pid);
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        (avg(alu), avg(thrash))
    };

    let (load_alu, load_thrash) = attribution(false);
    let load_ratio = load_alu / load_thrash.max(1e-9);
    assert!(
        (0.9..=1.1).contains(&load_ratio),
        "equal load looks identical to the CPU-load formula: {load_alu:.2} vs {load_thrash:.2}"
    );

    let (hpc_alu, hpc_thrash) = attribution(true);
    let hpc_ratio = hpc_alu / hpc_thrash.max(1e-9);
    assert!(
        !(0.77..=1.3).contains(&hpc_ratio),
        "HPC must tell the two apart: {hpc_alu:.2} vs {hpc_thrash:.2}"
    );
}

#[test]
fn rapl_tracks_package_but_misses_platform() {
    // RAPL (package) must read well below the wall meter (machine):
    // the platform floor is invisible to it — why the paper wants a
    // machine-level approach.
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
    let mut papi = PowerApi::builder(kernel)
        .formula(quick_learned_formula())
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(5)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    assert!(!outcome.rapl.is_empty(), "i3 exposes RAPL");
    let rapl_mean =
        outcome.rapl.iter().map(|(_, w)| w.as_f64()).sum::<f64>() / outcome.rapl.len() as f64;
    let meter_mean =
        outcome.meter.iter().map(|(_, w)| w.as_f64()).sum::<f64>() / outcome.meter.len() as f64;
    assert!(
        rapl_mean < meter_mean - 15.0,
        "package ({rapl_mean:.1} W) must sit well under the wall ({meter_mean:.1} W)"
    );
    assert!(rapl_mean > 3.0, "but RAPL is not zero: {rapl_mean:.1} W");
}

#[test]
fn monitoring_two_processes_attributes_more_power_to_the_heavier() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let heavy = kernel.spawn(
        "heavy",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
    );
    let light = kernel.spawn(
        "light",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.2))],
    );
    let mut papi = PowerApi::builder(kernel)
        .formula(quick_learned_formula())
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .build()
        .expect("pipeline builds");
    papi.monitor(heavy).expect("monitor heavy");
    papi.monitor(light).expect("monitor light");
    papi.run_for(Nanos::from_secs(5)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    let avg = |pid| {
        let series = papi_series(&outcome, pid);
        series.iter().sum::<f64>() / series.len().max(1) as f64
    };
    let h = avg(heavy);
    let l = avg(light);
    assert!(h > 3.0 * l, "heavy {h:.2} W vs light {l:.2} W");
}

fn papi_series(
    outcome: &powerapi_suite::powerapi::runtime::RunOutcome,
    pid: powerapi_suite::os_sim::process::Pid,
) -> Vec<f64> {
    outcome
        .process_estimates(pid)
        .iter()
        .map(|(_, w)| w.as_f64())
        .collect()
}
