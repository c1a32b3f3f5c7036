//! Experiment E9 — model-health observability: the streaming residual
//! monitor watching a long full-load run on the i3 testbed. Two arms,
//! same learned model, same workload:
//!
//! * **drift** — the stock i3 power model: sustained full load heats the
//!   package (τ = 30 s) and thermal leakage adds watts the cold-calibrated
//!   model never saw, so the live residual walks away from zero and the
//!   CUSUM/Page–Hinkley detectors must alarm within a few time constants
//!   and latch a recalibration request;
//! * **control** — the identical machine with thermal leakage zeroed:
//!   the model stays matched for the whole run and the detectors must
//!   stay silent (zero false alarms).
//!
//! Run: `cargo run --release -p bench-suite --bin e9_model_health [--quick] [--check|--bless]`
//! Evidence: `tests/golden/e9_model_health[.quick].golden`

use bench_suite::{dump_trace, row, section, BenchArgs, Golden};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::runtime::{PowerApi, RunOutcome};
use simcpu::machine::MachineConfig;
use simcpu::power::PowerModel;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

/// The i3 testbed with thermal leakage removed: what the calibration
/// sweep effectively sees (short, cold bursts). Mirrors
/// `presets::intel_i3_2120` except `thermal_leak_w_per_c(0)`.
fn cold_i3() -> MachineConfig {
    let mut machine = presets::intel_i3_2120();
    machine.power = PowerModel::builder()
        .platform_idle_w(26.0)
        .package_idle_w(5.5)
        .core_baseline_w_per_ghz_v2(2.7)
        .smt_second_thread_factor(0.10)
        .vref(1.05)
        .thermal_tau_s(30.0)
        .thermal_resistance_c_per_w(1.2)
        .thermal_leak_w_per_c(0.0)
        .build();
    machine
}

/// Full-load steady run (both hyperthreads of both cores busy) with the
/// residual monitor enabled. Its fixed tuning (`powerapi::health`'s
/// constants) is this experiment's: the detector slack sits above the
/// model's worst stationary bias at full co-run load (≈4 W of fit error
/// — this corner of the calibration grid fits worst) and far below the
/// ≈15–18 W thermal-leakage drift (0.30 W/°C amplified by the
/// leakage→power→temperature feedback), so the two arms separate
/// cleanly.
fn run_arm(
    machine: MachineConfig,
    model: PerFrequencyPowerModel,
    duration: Nanos,
) -> (RunOutcome, powerapi::telemetry::Telemetry) {
    let mut kernel = os_sim::kernel::Kernel::new(machine);
    let tasks: Vec<Box<dyn os_sim::task::TaskBehavior>> = (0..4)
        .map(|_| os_sim::task::SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
        .collect();
    let pid = kernel.spawn("steady-load", tasks);
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .model_health()
        .events(perf_sim::events::PAPER_EVENTS.to_vec())
        .slots(4)
        .report_to_memory()
        .quantum(Nanos::from_millis(1))
        .clock_period(Nanos::from_secs(1))
        .build()
        .expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(duration).expect("run");
    let telemetry = papi.telemetry().clone();
    (papi.finish().expect("finish"), telemetry)
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    section("E9: model health — drift detection on a thermally-ramping run");

    println!("  [1/4] learning the energy profile on the cold testbed…");
    let learn_cfg = if quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    let model = learn_model(cold_i3(), &learn_cfg).expect("learning");

    // τ = 30 s: the run spans several thermal time constants so the
    // leakage ramp fully develops.
    let duration = if quick {
        Nanos::from_secs(80)
    } else {
        Nanos::from_secs(150)
    };

    println!(
        "  [2/4] control arm: leak-free machine, {} s full load…",
        duration.as_secs_f64()
    );
    let (control, _) = run_arm(cold_i3(), model.clone(), duration);
    let ch = &control.model_health;

    println!(
        "  [3/4] drift arm: stock i3 (0.30 W/°C leakage), {} s full load…",
        duration.as_secs_f64()
    );
    let (drift, drift_telemetry) = run_arm(presets::intel_i3_2120(), model, duration);
    let dh = &drift.model_health;

    println!("  [4/4] scoring…");
    if let Some(path) = &args.dump_trace {
        dump_trace(&drift_telemetry, path);
    }
    section("residual monitor tallies");
    row("control residual ticks", ch.ticks);
    row("control drift alarms", ch.alarms);
    row("control out-of-band ticks", ch.out_of_band_ticks);
    row("control residual bias", format!("{:+.2} W", ch.bias_w));
    row("drift residual ticks", dh.ticks);
    row("drift alarms", dh.alarms);
    row("drift out-of-band ticks", dh.out_of_band_ticks);
    row("drift residual bias", format!("{:+.2} W", dh.bias_w));
    row("drift residual MAE", format!("{:.2} W", dh.mae_w));
    row("drift recalibration requests", dh.recalibrations);
    row("drift degraded estimates", drift.degraded_reports());

    section("E9 headline numbers");
    let first_alarm_s = dh.first_alarm_s.unwrap_or(f64::INFINITY);
    row(
        "detection latency",
        format!("{first_alarm_s:.0} s ({:.1} τ)", first_alarm_s / 30.0),
    );
    row(
        "false alarms on drift-free control",
        format!("{} in {} ticks", ch.alarms, ch.ticks),
    );

    let ok = dh.alarms >= 1
        && dh.recalibrations >= 1
        && first_alarm_s <= duration.as_secs_f64()
        && ch.alarms == 0
        && ch.recalibrations == 0;

    println!();
    println!(
        "E9 verdict: {} ({} drift alarm(s) >= 1, first at {first_alarm_s:.0} s <= {} s, \
         {} recalibration(s) >= 1, {} control false alarms == 0)",
        if ok { "DETECTED" } else { "MISSED OR NOISY" },
        dh.alarms,
        duration.as_secs_f64(),
        dh.recalibrations,
        ch.alarms,
    );

    // Quick and full schedules hold separate goldens (different learning
    // campaigns and durations). The meter readings and the aggregates
    // reach the residual monitor through the one FIFO loop, in the order
    // the producer published them, so which sample pairs with which
    // estimate is fixed by the seeds: counts are exact, floats sit at the
    // default tolerance.
    let mut golden = Golden::new("e9_model_health", args.quick);
    golden.push_exact("control_false_alarms", ch.alarms as f64);
    golden.push_exact("control_recalibrations", ch.recalibrations as f64);
    golden.push_exact("drift_alarmed", f64::from(u8::from(dh.alarms >= 1)));
    golden.push_exact(
        "drift_recalibrated",
        f64::from(u8::from(dh.recalibrations >= 1)),
    );
    golden.push_exact("control_residual_ticks", ch.ticks as f64);
    golden.push_exact("drift_residual_ticks", dh.ticks as f64);
    golden.push("detection_latency_s", first_alarm_s);
    golden.push_exact("drift_out_of_band_ticks", dh.out_of_band_ticks as f64);
    golden.push("drift_bias_w", dh.bias_w);
    golden.push("drift_mae_w", dh.mae_w);
    golden.finish(&args, ok);
}
