//! Experiment E6 — ablations of the design choices DESIGN.md calls out
//! (beyond the paper's published results, quantifying *why* its design is
//! what it is):
//!
//! 1. **per-frequency models vs one global model** — why Figure 1 fits a
//!    model per DVFS state;
//! 2. **SMT-aware calibration vs solo-only** — why the stress phase must
//!    exercise "the supported features" (§1);
//! 3. **PMU slot count** — what counter multiplexing costs the estimate.
//!
//! Run: `cargo run --release -p bench-suite --bin e6_ablations [--quick] [--check|--bless]`
//! (`--quick` learns on the quick grid and shortens the scoring runs;
//! each ablation's *direction* is what the verdict checks.)

use bench_suite::{row, section, BenchArgs, Evaluation, Golden};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{fit_from_samples, learn_model, measure_idle_power, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::model::sampling::{collect, CalibrationSample, SampleSet};
use simcpu::presets;
use simcpu::units::{MegaHertz, Nanos};
use workloads::specjbb::{self, SpecJbbConfig};

/// Scores a model on a SPECjbb excerpt (median APE %).
fn score(model: PerFrequencyPowerModel, secs: u64) -> f64 {
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(secs),
        ..SpecJbbConfig::default()
    };
    Evaluation::new(
        presets::intel_i3_2120(),
        "jbb",
        specjbb::tasks(&jbb),
        jbb.duration,
    )
    .run(PerFrequencyFormula::new(model))
    .and_then(|o| bench_suite::score_outcome(&o))
    .expect("evaluation")
    .median_ape
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    let jbb_secs = if quick { 120 } else { 300 };
    let machine = presets::intel_i3_2120();
    let cfg = if quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    let idle = measure_idle_power(&machine, &cfg).expect("idle");
    let set = collect(&machine, &cfg.sampling).expect("campaign");

    // ------------------------------------------------------------------
    section("A1: per-frequency models vs one global model");
    let per_freq = fit_from_samples(idle, &set).expect("per-frequency fit");
    // Global model: every sample re-labelled to one pseudo-frequency, so
    // a single coefficient vector must cover the whole DVFS range.
    let global_set = SampleSet {
        events: set.events.clone(),
        samples: set
            .samples
            .iter()
            .map(|s| CalibrationSample {
                frequency: MegaHertz(3300),
                ..s.clone()
            })
            .collect(),
    };
    let global = fit_from_samples(idle, &global_set).expect("global fit");
    let pf_err = score(per_freq.clone(), jbb_secs);
    let g_err = score(global, jbb_secs);
    row(
        "per-frequency (paper design)",
        format!("{pf_err:.2} % median"),
    );
    row("single global model", format!("{g_err:.2} % median"));
    let a1 = pf_err <= g_err + 0.5;

    // ------------------------------------------------------------------
    section("A2: SMT-aware calibration vs solo-threads-only");
    let mut solo_cfg = cfg.clone();
    solo_cfg.sampling.both_smt_levels = false;
    let solo_model = learn_model(machine.clone(), &solo_cfg).expect("solo learning");
    // Isolate the SMT effect on a *cold*, fully co-run steady load (a
    // short run keeps thermal drift out of the picture).
    let corun_score = |model: PerFrequencyPowerModel| {
        Evaluation {
            clock: Nanos::from_millis(500),
            ..Evaluation::new(
                machine.clone(),
                "corun",
                (0..4)
                    .map(|_| {
                        os_sim::task::SteadyTask::boxed(simcpu::workunit::WorkUnit::cpu_intensive(
                            1.0,
                        ))
                    })
                    .collect(),
                Nanos::from_secs(10),
            )
        }
        .run(PerFrequencyFormula::new(model))
        .and_then(|o| bench_suite::score_outcome(&o))
        .expect("evaluation")
        .mape
    };
    let aware_corun = corun_score(per_freq.clone());
    let solo_corun = corun_score(solo_model.clone());
    row(
        "co-run load, SMT-aware calibration",
        format!("{aware_corun:.2} % MAPE"),
    );
    row(
        "co-run load, solo-only calibration",
        format!("{solo_corun:.2} % MAPE"),
    );
    let a2 = aware_corun < solo_corun;
    // On the long thermally-drifting SPECjbb run the two error sources
    // interact: the solo-only model's co-run *over*-estimation partly
    // cancels the thermal *under*-estimation. Report it as a finding.
    let solo_jbb = score(solo_model, jbb_secs);
    println!(
        "  (finding: on the hot {jbb_secs} s SPECjbb run, solo-only scores {solo_jbb:.1} % vs \
         {pf_err:.1} % — its overestimation happens to offset thermal drift; \
         error cancellation, not model quality)"
    );

    // ------------------------------------------------------------------
    section("A3: PMU slot count (counter multiplexing cost)");
    // Multiplexed scaling is exact on steady windows; its cost shows on
    // phase-changing counters. Measure the scaled-estimate deviation from
    // an unmultiplexed session over a SPECjbb excerpt.
    use perf_sim::events::PAPER_EVENTS;
    use perf_sim::session::PerfSession;
    let a3_ticks: u32 = if quick { 10_000 } else { 30_000 };
    let run_sessions = |slots: usize| -> f64 {
        let mut kernel = os_sim::kernel::Kernel::new(machine.clone());
        let jbb = SpecJbbConfig {
            duration: Nanos::from_secs(if quick { 10 } else { 30 }),
            ..SpecJbbConfig::default()
        };
        let pid = kernel.spawn("jbb", specjbb::tasks(&jbb));
        let mut mux = PerfSession::new(slots);
        let mut full = PerfSession::new(PAPER_EVENTS.len());
        let mux_ids: Vec<_> = PAPER_EVENTS
            .iter()
            .map(|&e| mux.open(pid, e).expect("open"))
            .collect();
        let full_ids: Vec<_> = PAPER_EVENTS
            .iter()
            .map(|&e| full.open(pid, e).expect("open"))
            .collect();
        for _ in 0..a3_ticks {
            let r = kernel.tick(Nanos::from_millis(1));
            mux.observe(&r);
            full.observe(&r);
        }
        // Mean relative deviation of scaled estimates from truth.
        let mut dev = 0.0;
        for (&m, &f) in mux_ids.iter().zip(&full_ids) {
            let est = mux.read(m).expect("open").scaled as f64;
            let truth = full.read(f).expect("open").raw as f64;
            if truth > 0.0 {
                dev += (est - truth).abs() / truth;
            }
        }
        dev / mux_ids.len() as f64 * 100.0
    };
    println!("  {:<10} {:>28}", "slots", "counter_deviation_%");
    let mut devs = Vec::new();
    for slots in [1usize, 2, 3] {
        let d = run_sessions(slots);
        println!("  {slots:<10} {d:>28.3}");
        devs.push(d);
    }
    let a3 = devs[2] <= devs[0] + 1e-9 && devs[2] < 0.01;
    row(
        "multiplexing deviation (1 slot vs dedicated)",
        format!("{:+.3} pp", devs[0] - devs[2]),
    );

    println!();
    let ok = a1 && a2 && a3;
    println!(
        "E6 verdict: {} (per-freq ≤ global: {a1}; SMT-aware < solo-only: {a2}; \
         no-multiplex ≤ heavy-multiplex: {a3})",
        if ok {
            "DESIGN CHOICES CONFIRMED"
        } else {
            "MISMATCH"
        }
    );
    let mut golden = Golden::new("e6_ablations", args.quick);
    golden.push("per_freq_median_ape_pct", pf_err);
    golden.push("global_median_ape_pct", g_err);
    golden.push("smt_aware_corun_mape_pct", aware_corun);
    golden.push("solo_only_corun_mape_pct", solo_corun);
    golden.push("solo_only_jbb_median_ape_pct", solo_jbb);
    golden.push("mux_deviation_1slot_pct", devs[0]);
    golden.push("mux_deviation_2slot_pct", devs[1]);
    golden.push("mux_deviation_3slot_pct", devs[2]);
    golden.finish(&args, ok);
}
