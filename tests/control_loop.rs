//! Closed-loop integration: PowerAPI estimates steering the DVFS governor
//! (the §2 "adaptive strategies" scenario).

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::control::{CapControlActor, CappedGovernor, PowerCap};
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::learn::{learn_model, LearnConfig};
use powerapi_suite::powerapi::msg::Topic;
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;

fn capped_run(cap_w: Option<f64>, secs: u64) -> (f64, f64) {
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learning");
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let cap = cap_w.map(PowerCap::new);
    if let Some(c) = &cap {
        kernel.set_governor(Box::new(CappedGovernor::new(c.clone())));
    }
    let pid = kernel.spawn(
        "load",
        (0..4)
            .map(|_| SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
            .collect(),
    );
    let mut builder = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500));
    if let Some(c) = &cap {
        builder = builder.with_actor(
            "cap-controller",
            Box::new(CapControlActor::new(c.clone())),
            vec![Topic::Aggregate],
        );
    }
    let mut papi = builder.build().expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(secs)).expect("run");
    let outcome = papi.finish().expect("shutdown");
    // (settled mean over the last half, peak) of measured power.
    let tail: Vec<f64> = outcome
        .meter
        .iter()
        .filter(|(at, _)| at.as_secs_f64() > secs as f64 / 2.0)
        .map(|(_, w)| w.as_f64())
        .collect();
    let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    let peak = outcome
        .meter
        .iter()
        .map(|(_, w)| w.as_f64())
        .fold(0.0, f64::max);
    (mean, peak)
}

#[test]
fn cap_reduces_settled_power_below_uncapped() {
    let (uncapped_mean, _) = capped_run(None, 20);
    let (capped_mean, _) = capped_run(Some(45.0), 20);
    assert!(
        uncapped_mean > 55.0,
        "full load without a cap runs hot: {uncapped_mean:.1} W"
    );
    assert!(
        capped_mean < uncapped_mean - 5.0,
        "cap must bite: {capped_mean:.1} vs {uncapped_mean:.1} W"
    );
    // The settled point sits near the budget (the learned model's thermal
    // blind spot leaves a few watts of overshoot, as on real powercap
    // daemons driven by cold-calibrated models).
    assert!(
        capped_mean < 53.0,
        "settles near the 45 W budget: {capped_mean:.1} W"
    );
}

#[test]
fn tightening_the_cap_at_runtime_steps_power_down() {
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learning");
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let cap = PowerCap::new(60.0);
    kernel.set_governor(Box::new(CappedGovernor::new(cap.clone())));
    let pid = kernel.spawn(
        "load",
        (0..4)
            .map(|_| SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
            .collect(),
    );
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .with_actor(
            "cap-controller",
            Box::new(CapControlActor::new(cap.clone())),
            vec![Topic::Aggregate],
        )
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(10)).expect("phase 1");
    // Phase 1's estimates are judged against the phase 1 budget.
    papi.settle();
    cap.set_cap_w(40.0);
    papi.run_for(Nanos::from_secs(10)).expect("phase 2");
    let outcome = papi.finish().expect("shutdown");

    let mean_between = |lo: f64, hi: f64| {
        let v: Vec<f64> = outcome
            .meter
            .iter()
            .filter(|(at, _)| (lo..hi).contains(&at.as_secs_f64()))
            .map(|(_, w)| w.as_f64())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let loose = mean_between(5.0, 10.0);
    let tight = mean_between(15.0, 20.0);
    assert!(
        tight < loose - 4.0,
        "tightened budget must reduce power: {loose:.1} -> {tight:.1} W"
    );
    assert!(cap.last_estimate_w() > 0.0, "controller saw estimates");
}
