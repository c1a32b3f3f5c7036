//! Experiment E7 — chaos replay: the E3 SPECjbb2013 run repeated under an
//! active fault schedule. A deterministic [`FaultPlan`] disconnects and
//! corrupts the PowerSpy, stalls and resets the PMU, revokes counter
//! slots, and panics a supervised actor mid-run; the pipeline must keep
//! estimating (degrading per-process to the cpu-load formula while the
//! HPC stream is stalled) and finish with a median error within 2× of the
//! fault-free baseline.
//!
//! Run: `cargo run --release -p bench-suite --bin e7_chaos [--quick] [--check|--bless]`
//! Evidence: `tests/golden/e7_chaos[.quick].golden`

use bench_suite::chaos::{chaos_fault_config, chaos_pipeline, quiet_chaos_panics, CHAOS_SEED};
use bench_suite::{dump_trace, row, score_outcome, section, BenchArgs, Golden};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{calibrate_cpuload, learn_model, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::runtime::RunOutcome;
use simcpu::fault::FaultPlan;
use simcpu::presets;
use simcpu::units::Nanos;
use workloads::specjbb::SpecJbbConfig;

struct ChaosRun {
    outcome: RunOutcome,
    meter_stats: powermeter::powerspy::MeterFaultStats,
    counter_stats: perf_sim::session::CounterFaultStats,
}

fn run_pipeline(
    model: PerFrequencyPowerModel,
    backup: PerFrequencyFormula,
    jbb: &SpecJbbConfig,
    plan: FaultPlan,
) -> ChaosRun {
    let (builder, pid) = chaos_pipeline(jbb, PerFrequencyFormula::new(model), backup, plan);
    let mut papi = builder.build().expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(jbb.duration).expect("run");
    let meter_stats = papi.meter_fault_stats();
    let counter_stats = papi.counter_fault_stats();
    ChaosRun {
        outcome: papi.finish().expect("finish"),
        meter_stats,
        counter_stats,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    quiet_chaos_panics();
    section("E7: chaos replay — SPECjbb2013 under an active fault schedule");

    println!("  [1/4] learning the energy profile…");
    let learn_cfg = if quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    let machine = presets::intel_i3_2120();
    let model = learn_model(machine.clone(), &learn_cfg).expect("learning");
    let backup = calibrate_cpuload(machine, &learn_cfg).expect("cpu-load calibration");

    let jbb = SpecJbbConfig {
        duration: if quick {
            Nanos::from_secs(200)
        } else {
            Nanos::from_secs(2500)
        },
        ..SpecJbbConfig::default()
    };

    println!(
        "  [2/4] fault-free baseline run ({} s)…",
        jbb.duration.as_secs_f64()
    );
    let baseline = run_pipeline(model.clone(), backup.clone(), &jbb, FaultPlan::none());
    let base_report = score_outcome(&baseline.outcome).expect("baseline score");

    println!("  [3/4] chaos run under the generated fault plan…");
    let fault_cfg = chaos_fault_config(quick);
    let plan = FaultPlan::generate(CHAOS_SEED, jbb.duration, &fault_cfg);
    println!(
        "        {} windows over {} kinds, seed {CHAOS_SEED:#x}",
        plan.windows().len(),
        plan.kinds().len()
    );
    let chaos = run_pipeline(model, backup, &jbb, plan.clone());
    let chaos_report = score_outcome(&chaos.outcome).expect("chaos score");

    println!("  [4/4] scoring…");
    if let Some(path) = &args.dump_trace {
        dump_trace(&chaos.outcome.telemetry, None, path);
    }
    let m = chaos.meter_stats;
    let c = chaos.counter_stats;
    let health = &chaos.outcome.health;
    let mut kinds_fired: Vec<&str> = Vec::new();
    if m.dropped > 0 {
        kinds_fired.push("SampleDropout");
    }
    if m.corrupted > 0 {
        kinds_fired.push("FrameCorruption");
    }
    if m.disconnected > 0 {
        kinds_fired.push("Disconnect");
    }
    if m.noise_bursts > 0 {
        kinds_fired.push("NoiseBurst");
    }
    if c.stalled_ticks > 0 {
        kinds_fired.push("CounterStall");
    }
    if c.spurious_resets > 0 {
        kinds_fired.push("SpuriousReset");
    }
    if c.revoked_slot_ticks > 0 {
        kinds_fired.push("SlotRevocation");
    }
    if health.restarts > 0 {
        kinds_fired.push("ActorPanic");
    }

    section("fault tally");
    row("meter samples lost", m.dropped + m.disconnected);
    row("meter frames corrupted", m.corrupted);
    row("noisy samples emitted", m.noise_bursts);
    row("PMU stalled ticks", c.stalled_ticks);
    row("PMU spurious resets", c.spurious_resets);
    row("slot-revoked ticks", c.revoked_slot_ticks);
    row("supervised restarts", health.restarts);
    row("actor panics (caught)", health.panics);
    row("actors dead at shutdown", health.panicked.len());
    row("degraded estimates", chaos.outcome.degraded_reports());

    section("E7 headline numbers");
    row(
        "baseline median error",
        format!("{:.2} %", base_report.median_ape),
    );
    row(
        "chaos median error",
        format!("{:.2} %", chaos_report.median_ape),
    );
    let ratio = chaos_report.median_ape / base_report.median_ape.max(1e-9);
    row("chaos / baseline ratio", format!("{ratio:.2}×"));
    row("distinct fault kinds fired", kinds_fired.len());

    let ok = kinds_fired.len() >= 3
        && health.restarts >= 1
        && health.panicked.is_empty()
        && !health.escalated
        && ratio <= 2.0;

    println!();
    println!(
        "E7 verdict: {} ({} fault kinds fired >= 3, {} restart(s) >= 1, \
         {} dead actors == 0, error ratio {ratio:.2}x <= 2.0)",
        if ok {
            "RESILIENT"
        } else {
            "DEGRADED BEYOND SPEC"
        },
        kinds_fired.len(),
        health.restarts,
        health.panicked.len(),
    );
    // Quick and full schedules hold separate goldens (different fault
    // windows, different durations). Counts derived from the seeded fault
    // plan reproduce exactly, and so does the degraded-report count now
    // that the sensor stage orders each tick's sources; the errors, which
    // pair the same seeded meter samples with the same estimates, sit at
    // the default float tolerance.
    let mut golden = Golden::new("e7_chaos", args.quick);
    golden.push_exact("fault_windows", plan.windows().len() as f64);
    golden.push_exact("fault_kinds_fired", kinds_fired.len() as f64);
    golden.push_exact("meter_samples_lost", (m.dropped + m.disconnected) as f64);
    golden.push_exact("meter_frames_corrupted", m.corrupted as f64);
    golden.push_exact("pmu_stalled_ticks", c.stalled_ticks as f64);
    golden.push_exact("pmu_spurious_resets", c.spurious_resets as f64);
    golden.push_exact("slot_revoked_ticks", c.revoked_slot_ticks as f64);
    golden.push_exact("supervised_restarts", health.restarts as f64);
    golden.push_exact("actor_panics_caught", health.panics as f64);
    golden.push_exact(
        "degraded_estimates",
        chaos.outcome.degraded_reports() as f64,
    );
    golden.push("baseline_median_ape_pct", base_report.median_ape);
    golden.push("chaos_median_ape_pct", chaos_report.median_ape);
    golden.finish(&args, ok);
}
