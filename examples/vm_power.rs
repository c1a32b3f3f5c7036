//! Virtual-machine power attribution — the §5 follow-up the paper names
//! ("they are more and more used and a lot of work still remains to
//! optimize their power consumptions"). Two "VMs" — control groups of
//! processes, pinned to disjoint cores like a static vCPU placement —
//! run different tenants; PowerAPI attributes watts per VM.
//!
//! Run: `cargo run --release --example vm_power`

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::hierarchy::Hierarchy;
use powerapi_suite::powerapi::model::learn::{learn_model, LearnConfig};
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Learning the energy profile…");
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::default())?;

    let mut kernel = Kernel::new(presets::intel_i3_2120());

    // VM alpha: a busy web stack on core 0 (logical cpus 0-1).
    let web = kernel.spawn_in_cgroup(
        "web",
        "vm-alpha",
        vec![SteadyTask::boxed(WorkUnit::mixed(0.35, 32_768.0, 0.9))],
    );
    let cache = kernel.spawn_in_cgroup(
        "cache",
        "vm-alpha",
        vec![SteadyTask::boxed(WorkUnit::memory_intensive(65_536.0, 0.6))],
    );
    // VM beta: a light batch job on core 1 (logical cpus 2-3).
    let batch = kernel.spawn_in_cgroup(
        "batch",
        "vm-beta",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.35))],
    );
    kernel.pin_process(web, vec![0, 1])?;
    kernel.pin_process(cache, vec![0, 1])?;
    kernel.pin_process(batch, vec![2, 3])?;

    // One hierarchy node per VM; each tick's frame says which pid is in
    // which VM.
    let vms = Hierarchy::new();

    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .report_to_memory()
        .hierarchy(&vms)
        .build()?;
    for pid in [web, cache, batch] {
        papi.monitor(pid)?;
    }
    papi.run_for(Nanos::from_secs(30))?;
    let outcome = papi.finish()?;

    println!(
        "\n{:<10} {:>14} {:>14}",
        "time_s", "vm-alpha_w", "vm-beta_w"
    );
    let alpha = outcome.group_estimates("vm-alpha");
    let beta = outcome.group_estimates("vm-beta");
    for ((t, a), (_, b)) in alpha.iter().zip(&beta).step_by(5) {
        println!(
            "{:<10.0} {:>14.2} {:>14.2}",
            t.as_secs_f64(),
            a.as_f64(),
            b.as_f64()
        );
    }
    let avg = |v: &[(Nanos, powerapi_suite::simcpu::Watts)]| {
        v.iter().map(|(_, w)| w.as_f64()).sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "\nbilling summary: vm-alpha {:.2} W avg, vm-beta {:.2} W avg \
         (+ {:.2} W shared idle floor to apportion by policy)",
        avg(&alpha),
        avg(&beta),
        31.5,
    );
    Ok(())
}
