//! Experiment E15 — adaptive sampling: the overhead/accuracy Pareto
//! frontier, measured. Three stories, one learned model per testbed:
//!
//! * **static sweep** — the stock SPECjbb excerpt estimated at fixed
//!   sampling periods {1, 2, 4, 8} s × PMU slot caps {4, 2}. Every arm
//!   prices its own monitoring through the self-cost ledger (counter
//!   reads scaled by multiplexing pressure, per-stage handler time,
//!   telemetry harvest) and scores its median APE against the simulated
//!   PowerSpy — one (overhead, error) point per arm, the frontier the
//!   controller has to beat;
//! * **adaptive arm** — the same excerpt with the closed-loop controller
//!   on: in-band residuals walk the period ladder 1→2→4→8 and shed a
//!   counter slot, any breach snaps back to full rate. The claim: **≥5×
//!   fewer sensor counter reads at <1 pp added median APE** vs the
//!   full-rate baseline, and no static arm Pareto-dominates it;
//! * **drift arm** — E9's thermal-leak scenario, always-on vs adaptive.
//!   The controller is backed off when the leak develops, so the test is
//!   whether snap-back keeps detection sharp: the first drift alarm must
//!   land within one base tick of the always-on run's.
//!
//! Every rate transition journals as a `rate-change` event; the bench
//! re-reads the JSONL flight-recorder dump and reconstructs the whole
//! factor ladder from it alone (chain-consistent, ends at the live
//! controller's factor) — the rate history needs no side channel.
//!
//! Run:   `cargo run --release -p bench-suite --bin e15_adaptive`
//! Quick: `... -- --quick`   (shorter excerpt, quick learning campaign)
//! Gate:  `... -- --check`   (compare against the golden)
//! Evidence: `tests/golden/e15_adaptive[.quick].golden`

use bench_suite::{
    cold_i3, drift_pipeline, dump_trace, row, score_outcome, section, BenchArgs, Golden,
};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::prelude::{SamplingConfig, SelfCostSummary};
use powerapi::runtime::PowerApi;
use powerapi::telemetry::{dump_jsonl, parse_jsonl, EventKind};
use simcpu::machine::MachineConfig;
use simcpu::presets;
use simcpu::units::Nanos;
use workloads::specjbb::{self, SpecJbbConfig};

/// The claim: ≥5× fewer sensor reads at <1 pp added median APE.
const MIN_SAMPLES_SAVED: f64 = 5.0;
const MAX_APE_DELTA_PP: f64 = 1.0;

/// Median-APE differences inside the alignment noise do not order the
/// frontier: which meter sample pairs with which estimate depends on the
/// sampling period, and the static sweep itself shows the scale — the
/// full-run APE-vs-period curve is *non-monotone* (1 s → 13.8 %,
/// 4 s → 12.6 %, 8 s → 13.2 %), wiggling ~0.6 pp between adjacent arms
/// whose true accuracy cannot differ that way. Arms within half that
/// wiggle are tied on the accuracy axis; a static arm only *dominates*
/// the adaptive one if it is at least as cheap AND materially more
/// accurate.
const APE_NOISE_PP: f64 = 0.5;

/// One measured (overhead, accuracy) point.
struct Arm {
    label: String,
    period_s: u64,
    slots: usize,
    median_ape: f64,
    selfcost: SelfCostSummary,
}

/// A full-rate pin: the ledger prices the run but the controller never
/// leaves factor 1, so static arms keep their exact static schedule.
fn ledger_only() -> SamplingConfig {
    SamplingConfig {
        max_factor: 1,
        ..SamplingConfig::default()
    }
}

/// Runs the stock SPECjbb excerpt on the i3 at a static period/slot
/// budget (controller pinned) or under the live controller.
fn run_stock(
    model: PerFrequencyPowerModel,
    duration: Nanos,
    period_s: u64,
    slots: usize,
    sampling: SamplingConfig,
) -> (Arm, powerapi::runtime::RunOutcome) {
    let jbb = SpecJbbConfig {
        duration,
        ..SpecJbbConfig::default()
    };
    let mut kernel = os_sim::kernel::Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("specjbb", specjbb::tasks(&jbb));
    let adaptive = sampling.max_factor > 1;
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .slots(slots)
        .report_to_memory()
        .clock_period(Nanos::from_secs(period_s))
        .adaptive_sampling(sampling)
        .build()
        .expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(duration).expect("run");
    let outcome = papi.finish().expect("finish");
    let report = score_outcome(&outcome).expect("scoring");
    let label = if adaptive {
        "adaptive".to_string()
    } else {
        format!("{period_s}s/{slots}sl")
    };
    (
        Arm {
            label,
            period_s,
            slots,
            median_ape: report.median_ape,
            selfcost: outcome.selfcost,
        },
        outcome,
    )
}

/// E9's drift scenario (full co-run load on a cold-calibrated model)
/// with the residual monitor on; `sampling` optionally adds the
/// controller. Returns (first_alarm_s, rate transitions journaled).
fn run_drift(
    machine: MachineConfig,
    model: PerFrequencyPowerModel,
    duration: Nanos,
    sampling: Option<SamplingConfig>,
) -> (f64, u64, SelfCostSummary) {
    let (mut builder, pid) = drift_pipeline(machine, model);
    if let Some(cfg) = sampling {
        builder = builder.adaptive_sampling(cfg);
    }
    let mut papi = builder.build().expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(duration).expect("run");
    let transitions = papi.sampling_controller().map_or(0, |c| c.transitions());
    let outcome = papi.finish().expect("finish");
    (
        outcome.model_health.first_alarm_s.unwrap_or(f64::INFINITY),
        transitions,
        outcome.selfcost,
    )
}

/// Rebuilds the factor ladder from the JSONL journal dump alone: every
/// `rate-change` detail carries `period <old>s -> <new>s`, so the chain
/// of factors is fully reconstructable without touching the controller.
fn factors_from_dump(jsonl: &str, base_period_s: f64) -> Vec<(u32, u32)> {
    let events = parse_jsonl(jsonl).expect("journal dump parses");
    let mut ladder = Vec::new();
    for e in events {
        if e.kind != EventKind::RateChange {
            continue;
        }
        // Details read "… period 1.000s -> 2.000s …" in both directions.
        let detail = &e.detail;
        let rest = detail
            .split("period ")
            .nth(1)
            .unwrap_or_else(|| panic!("rate-change detail names the period: {detail:?}"));
        let mut sides = rest.split("s -> ");
        let old: f64 = sides
            .next()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("old period parses: {detail:?}"));
        let new: f64 = sides
            .next()
            .and_then(|s| s.split('s').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("new period parses: {detail:?}"));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        ladder.push((
            (old / base_period_s).round() as u32,
            (new / base_period_s).round() as u32,
        ));
    }
    ladder
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    section(if quick {
        "E15: adaptive sampling — overhead/accuracy Pareto frontier (quick)"
    } else {
        "E15: adaptive sampling — overhead/accuracy Pareto frontier"
    });

    let learn_cfg = if quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    let stock_duration = if quick {
        Nanos::from_secs(360)
    } else {
        Nanos::from_secs(600)
    };
    let drift_duration = if quick {
        Nanos::from_secs(80)
    } else {
        Nanos::from_secs(150)
    };

    println!("  [1/5] learning the stock-i3 energy profile…");
    let stock_model = learn_model(presets::intel_i3_2120(), &learn_cfg).expect("learning");

    println!(
        "  [2/5] static sweep: {} s SPECjbb at periods 1/2/4/8 s × slots 4/2…",
        stock_duration.as_secs_f64()
    );
    let mut statics = Vec::new();
    for &slots in &[4usize, 2] {
        for &period_s in &[1u64, 2, 4, 8] {
            let (arm, _) = run_stock(
                stock_model.clone(),
                stock_duration,
                period_s,
                slots,
                ledger_only(),
            );
            println!(
                "        {:>7}: median APE {:>6.2} %, {:>5} reads, {:>9} ns priced",
                arm.label,
                arm.median_ape,
                arm.selfcost.sensor_reads,
                arm.selfcost.total_ns()
            );
            statics.push(arm);
        }
    }
    let baseline = &statics[0]; // 1 s × 4 slots = the full-rate baseline

    println!("  [3/5] adaptive arm: controller on, same excerpt…");
    let adaptive_cfg = SamplingConfig {
        shed_slots: Some(2),
        ..SamplingConfig::default()
    };
    let (adaptive, outcome) = run_stock(stock_model.clone(), stock_duration, 1, 4, adaptive_cfg);
    let telemetry = &outcome.telemetry;
    if let Some(path) = &args.dump_trace {
        dump_trace(telemetry, None, path);
    }
    let journal_events = telemetry.journal().events();
    let transitions = journal_events
        .iter()
        .filter(|e| e.kind == EventKind::RateChange)
        .count() as u64;

    // Flight-recorder reconstruction: the whole ladder from the dump.
    let jsonl = dump_jsonl(&journal_events);
    let ladder = factors_from_dump(&jsonl, 1.0);
    let chain_ok =
        !ladder.is_empty() && ladder[0].0 == 1 && ladder.windows(2).all(|w| w[0].1 == w[1].0);
    assert_eq!(
        ladder.len() as u64,
        transitions,
        "every rate transition must appear in the dump"
    );

    let samples_saved =
        baseline.selfcost.sensor_reads as f64 / adaptive.selfcost.sensor_reads.max(1) as f64;
    let ape_delta = adaptive.median_ape - baseline.median_ape;
    // Pareto: no static arm may beat the adaptive arm on BOTH axes
    // (cheaper or equal reads AND materially better accuracy).
    let dominated_by = statics.iter().find(|s| {
        s.selfcost.sensor_reads <= adaptive.selfcost.sensor_reads
            && s.median_ape < adaptive.median_ape - APE_NOISE_PP
    });
    // The positive half of the claim: static arms the adaptive one beats
    // outright (strictly fewer reads, accuracy no worse beyond noise).
    let arms_dominated = statics
        .iter()
        .filter(|s| {
            adaptive.selfcost.sensor_reads < s.selfcost.sensor_reads
                && adaptive.median_ape <= s.median_ape + APE_NOISE_PP
        })
        .count();

    section("Pareto frontier (sensor reads vs median APE)");
    println!(
        "  {:>9} {:>8} {:>7} {:>10} {:>12} {:>10}",
        "arm", "period_s", "slots", "reads", "priced_ns", "med_ape_%"
    );
    for arm in statics.iter().chain(std::iter::once(&adaptive)) {
        println!(
            "  {:>9} {:>8} {:>7} {:>10} {:>12} {:>10.2}",
            arm.label,
            arm.period_s,
            arm.slots,
            arm.selfcost.sensor_reads,
            arm.selfcost.total_ns(),
            arm.median_ape
        );
    }
    row("samples saved vs full rate", format!("{samples_saved:.1}×"));
    row("added median APE", format!("{ape_delta:+.2} pp"));
    row(
        "rate transitions (journal == controller)",
        format!("{transitions} (ladder chain ok: {chain_ok})"),
    );
    row(
        "Pareto-dominated by a static arm",
        dominated_by.map_or("no".to_string(), |s| s.label.clone()),
    );
    row(
        "static arms the adaptive arm dominates",
        format!(
            "{arms_dominated}/{} (APE ties within {APE_NOISE_PP} pp)",
            statics.len()
        ),
    );

    println!(
        "  [4/5] drift arms: {} s thermal leak, always-on vs adaptive…",
        drift_duration.as_secs_f64()
    );
    let cold_model = learn_model(cold_i3(), &learn_cfg).expect("cold learning");
    let (alwayson_alarm_s, _, _) = run_drift(
        presets::intel_i3_2120(),
        cold_model.clone(),
        drift_duration,
        None,
    );
    let (adaptive_alarm_s, drift_transitions, drift_cost) = run_drift(
        presets::intel_i3_2120(),
        cold_model,
        drift_duration,
        Some(SamplingConfig::default()),
    );
    let alarm_delta_s = (adaptive_alarm_s - alwayson_alarm_s).abs();

    section("drift detection under adaptive sampling");
    row("always-on first alarm", format!("{alwayson_alarm_s:.0} s"));
    row("adaptive first alarm", format!("{adaptive_alarm_s:.0} s"));
    row(
        "detection delay added",
        format!("{alarm_delta_s:.1} s (≤ 1 tick)"),
    );
    row("drift-arm rate transitions", drift_transitions);
    row(
        "drift-arm sensor reads",
        format!(
            "{} (always-on would pay every tick)",
            drift_cost.sensor_reads
        ),
    );

    println!("  [5/5] scoring…");
    let ok = samples_saved >= MIN_SAMPLES_SAVED
        && ape_delta < MAX_APE_DELTA_PP
        && dominated_by.is_none()
        && chain_ok
        && transitions >= 3
        && alwayson_alarm_s.is_finite()
        && adaptive_alarm_s.is_finite()
        && alarm_delta_s <= 1.0
        && drift_transitions >= 2; // backed off, then snapped back

    println!();
    println!(
        "E15 verdict: {} ({samples_saved:.1}× fewer samples ≥ {MIN_SAMPLES_SAVED}×, \
         {ape_delta:+.2} pp < {MAX_APE_DELTA_PP} pp, Pareto-dominated: {}, \
         drift delay {alarm_delta_s:.1} s ≤ 1 tick, ladder from dump: {chain_ok})",
        if ok { "FRONTIER BEATEN" } else { "MISMATCH" },
        dominated_by.is_some(),
    );

    // The controller's decisions are seed-deterministic and every tick
    // boundary settles the loop before it reads one, so the rate timeline
    // is a function of the seeds alone: counts and flags are exact,
    // ratios and errors sit at the default float tolerance.
    let mut golden = Golden::new("e15_adaptive", args.quick);
    golden.push_exact("ladder_chain_ok", f64::from(chain_ok));
    golden.push_exact("pareto_dominated", f64::from(dominated_by.is_some()));
    golden.push_exact("drift_snapped_back", f64::from(drift_transitions >= 2));
    golden.push("samples_saved_ratio", samples_saved);
    golden.push_exact(
        "adaptive_sensor_reads",
        adaptive.selfcost.sensor_reads as f64,
    );
    golden.push_exact(
        "baseline_sensor_reads",
        baseline.selfcost.sensor_reads as f64,
    );
    golden.push("baseline_median_ape_pct", baseline.median_ape);
    // The rest of the static frontier the adaptive arm is judged against.
    for arm in &statics[1..] {
        golden.push(
            format!("static_{}s_{}sl_median_ape_pct", arm.period_s, arm.slots),
            arm.median_ape,
        );
    }
    golden.push("adaptive_median_ape_pct", adaptive.median_ape);
    golden.push_exact("rate_transitions", transitions as f64);
    golden.push("alarm_delta_s", alarm_delta_s);
    golden.finish(&args, ok);
}
