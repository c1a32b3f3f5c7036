//! Closed-loop power capping: PowerAPI estimates actuating DVFS — the
//! "adaptive strategies that can cope with the sporadic nature of these
//! [renewable] energy feeds" the paper motivates (§2). A full-load
//! machine is held under a watt budget that tightens mid-run, as if a
//! cloud passed over the solar array.
//!
//! Run: `cargo run --release --example power_capping`

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Learning the energy profile…");
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::default())?;

    // Full load on every hardware thread: uncapped this draws ~60+ W.
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let cap = PowerCap::new(55.0);
    kernel.set_governor(Box::new(CappedGovernor::new(cap.clone())));
    let pid = kernel.spawn(
        "full-load",
        (0..4)
            .map(|_| SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
            .collect(),
    );

    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .report_to_memory()
        .with_actor(
            "cap-controller",
            Box::new(CapControlActor::new(cap.clone())),
            vec![Topic::Aggregate],
        )
        .build()?;
    papi.monitor(pid)?;

    println!("Phase 1 — 30 s under a 55 W budget…");
    papi.run_for(Nanos::from_secs(30))?;
    println!("Phase 2 — the feed drops: budget tightens to 45 W, 30 s…");
    // Let the loop judge phase 1's last estimates against the old budget
    // first, so the new one starts at the 30 s boundary.
    papi.settle();
    cap.set_cap_w(45.0);
    papi.run_for(Nanos::from_secs(30))?;
    let outcome = papi.finish()?;

    println!(
        "\n{:>7} {:>10} {:>12} {:>10}",
        "time_s", "meter_w", "estimate_w", "cap_w"
    );
    let est = outcome.estimate_trace();
    for (at, w) in &outcome.meter {
        let t = at.as_secs_f64();
        if !(t as u64).is_multiple_of(5) {
            continue;
        }
        let e = est.at(*at).map(|x| x.as_f64()).unwrap_or(f64::NAN);
        let cap_now = if t <= 30.0 { 55.0 } else { 45.0 };
        println!("{t:>7.0} {:>10.2} {e:>12.2} {cap_now:>10.1}", w.as_f64());
    }

    // Summarize each phase's tail (after the controller settled).
    let tail = |lo: f64, hi: f64| {
        let v: Vec<f64> = outcome
            .meter
            .iter()
            .filter(|(at, _)| (lo..hi).contains(&at.as_secs_f64()))
            .map(|(_, w)| w.as_f64())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "\nsettled mean power: phase 1 = {:.1} W (cap 55), phase 2 = {:.1} W (cap 45)",
        tail(15.0, 30.0),
        tail(45.0, 60.0)
    );
    println!("controller's last estimate: {:.1} W", cap.last_estimate_w());
    Ok(())
}
