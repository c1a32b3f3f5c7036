//! Experiment E4 — regenerates the paper's **§4 comparison discussion**:
//!
//! * Bertran et al.: decomposable counter model, six SPEC CPU2006
//!   applications, Intel Core 2 Duo ("a simple architecture without any
//!   features for improving performances") → **4.63 % average error**;
//! * Zhai et al. (HaPPy): hyperthread-aware model on SMT hardware →
//!   **7.5 % average error** (vs worse for HT-oblivious models);
//! * this paper: fixed generic counters on the SMT i3-2120 running
//!   SPECjbb → **15 % median error**.
//!
//! The shape to reproduce: *simple architecture beats complex*, and on
//! SMT hardware *HT-aware beats HT-oblivious*.
//!
//! Run: `cargo run --release -p bench-suite --bin e4_comparison [--quick] [--check|--bless]`
//! (`--quick` learns every model on the quick grid and shortens each
//! held-out run; the *ordering* claims are schedule-independent.)

use bench_suite::{row, section, BenchArgs, Evaluation, Golden};
use os_sim::task::SteadyTask;
use powerapi::formula::per_freq::{bertran_events, PerFrequencyFormula};
use powerapi::model::learn::{learn_happy, learn_model, LearnConfig};
use simcpu::presets;
use simcpu::units::Nanos;
use workloads::happy::scenarios;
use workloads::speccpu;
use workloads::specjbb::{self, SpecJbbConfig};

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    let base_cfg = if quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };

    // ------------------------------------------------------------------
    section("E4a: Bertran-style decomposable model / SPEC CPU2006 / Core 2 Duo");
    let core2 = presets::core2duo_e6600();
    let mut cfg = base_cfg.clone();
    cfg.sampling.events = bertran_events();
    cfg.sampling.slots = bertran_events().len(); // dedicated counters, as Bertran pinned them
    let model = learn_model(core2.clone(), &cfg).expect("bertran learning");
    println!(
        "  idle = {:.2} W over {} component counters",
        model.idle_w(),
        bertran_events().len()
    );

    println!("  {:<16} {:>10} {:>10}", "benchmark", "mape_%", "med_ape_%");
    let mut errors = Vec::new();
    for bench in speccpu::suite() {
        let duration = if quick {
            Nanos::from_secs(10).min(bench.duration)
        } else {
            bench.duration
        };
        let eval = Evaluation {
            clock: Nanos::from_millis(500),
            events: bertran_events(),
            slots: bertran_events().len(),
            ..Evaluation::new(
                core2.clone(),
                bench.name,
                (0..core2.topology.physical_cores())
                    .map(|_| SteadyTask::boxed(bench.work))
                    .collect(),
                duration,
            )
        };
        let report = eval
            .run(PerFrequencyFormula::bertran(model.clone()))
            .and_then(|o| bench_suite::score_outcome(&o))
            .expect("bertran evaluation");
        println!(
            "  {:<16} {:>10.2} {:>10.2}",
            bench.name, report.mape, report.median_ape
        );
        errors.push(report.mape);
    }
    let bertran_avg = errors.iter().sum::<f64>() / errors.len() as f64;
    row("paper (Bertran et al.): average error", "4.63 %");
    row("reproduction: average error", format!("{bertran_avg:.2} %"));

    // ------------------------------------------------------------------
    section("E4b: HaPPy HT-aware vs HT-oblivious / co-run scenarios / SMT+turbo Xeon");
    let xeon = presets::xeon_smt_turbo();
    let cfg = base_cfg.clone();
    let happy = learn_happy(xeon.clone(), &cfg).expect("happy learning");
    // The HT-oblivious comparator: same campaign, but solo-threads only
    // (it never learns what co-running does to power).
    let mut obl_cfg = base_cfg.clone();
    obl_cfg.sampling.both_smt_levels = false;
    let oblivious = learn_model(xeon.clone(), &obl_cfg).expect("oblivious learning");

    println!(
        "  {:<16} {:>6} {:>16} {:>16}",
        "scenario", "smt", "ht_aware_mape%", "oblivious_mape%"
    );
    let mut aware_errs = Vec::new();
    let mut obl_errs = Vec::new();
    let mut aware_smt = Vec::new();
    let mut obl_smt = Vec::new();
    for sc in scenarios(xeon.topology.physical_cores(), xeon.topology.logical_cpus()) {
        let mk_eval = || Evaluation {
            clock: Nanos::from_millis(500),
            ..Evaluation::new(
                xeon.clone(),
                sc.name,
                sc.workloads.iter().map(|w| SteadyTask::boxed(*w)).collect(),
                Nanos::from_secs(if quick { 10 } else { 20 }),
            )
        };
        let aware = mk_eval()
            .run(PerFrequencyFormula::happy(happy.clone()))
            .and_then(|o| bench_suite::score_outcome(&o))
            .expect("ht-aware evaluation");
        let obl = mk_eval()
            .run(PerFrequencyFormula::new(oblivious.clone()))
            .and_then(|o| bench_suite::score_outcome(&o))
            .expect("oblivious evaluation");
        println!(
            "  {:<16} {:>6} {:>16.2} {:>16.2}",
            sc.name,
            if sc.smt_heavy { "yes" } else { "no" },
            aware.mape,
            obl.mape
        );
        aware_errs.push(aware.mape);
        obl_errs.push(obl.mape);
        if sc.smt_heavy {
            aware_smt.push(aware.mape);
            obl_smt.push(obl.mape);
        }
    }
    let happy_avg = aware_errs.iter().sum::<f64>() / aware_errs.len() as f64;
    let obl_avg = obl_errs.iter().sum::<f64>() / obl_errs.len() as f64;
    let happy_smt_avg = aware_smt.iter().sum::<f64>() / aware_smt.len() as f64;
    let obl_smt_avg = obl_smt.iter().sum::<f64>() / obl_smt.len() as f64;
    row("paper (Zhai et al. HaPPy): average error", "7.5 %");
    row(
        "reproduction: HT-aware average error",
        format!("{happy_avg:.2} %"),
    );
    row(
        "reproduction: HT-oblivious average error",
        format!("{obl_avg:.2} %"),
    );
    row(
        "SMT-heavy scenarios only: aware vs oblivious",
        format!("{happy_smt_avg:.2} % vs {obl_smt_avg:.2} %"),
    );

    // ------------------------------------------------------------------
    section("E4c: this paper's generic-counter model / SPECjbb (short) / i3-2120");
    let i3 = presets::intel_i3_2120();
    let generic = learn_model(i3.clone(), &base_cfg).expect("generic learning");
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(if quick { 120 } else { 600 }),
        ..SpecJbbConfig::default()
    };
    let report = Evaluation::new(
        i3.clone(),
        "specjbb-short",
        specjbb::tasks(&jbb),
        jbb.duration,
    )
    .run(PerFrequencyFormula::new(generic))
    .and_then(|o| bench_suite::score_outcome(&o))
    .expect("generic evaluation");
    row("paper: median error on SPECjbb2013", "15 %");
    row(
        format!(
            "reproduction ({} s excerpt): median error",
            jbb.duration.as_secs_f64()
        )
        .as_str(),
        format!("{:.2} %", report.median_ape),
    );
    let generic_med = report.median_ape;

    // ------------------------------------------------------------------
    section("E4 summary (paper vs reproduction)");
    println!(
        "  {:<44} {:>8} {:>12}",
        "model / platform", "paper_%", "repro_%"
    );
    println!(
        "  {:<44} {:>8} {:>12.2}",
        "Bertran, SPEC CPU2006, Core 2 Duo (avg)", "4.63", bertran_avg
    );
    println!(
        "  {:<44} {:>8} {:>12.2}",
        "HaPPy HT-aware, co-runs, SMT Xeon (avg)", "7.5", happy_avg
    );
    println!(
        "  {:<44} {:>8} {:>12.2}",
        "Generic counters, SPECjbb, i3-2120 (median)", "15", generic_med
    );

    let ok = bertran_avg < happy_avg
        && happy_avg < generic_med
        && happy_smt_avg < obl_smt_avg
        && bertran_avg < 10.0;
    println!();
    println!(
        "E4 verdict: {} (simple-arch {bertran_avg:.1}% < HT-aware {happy_avg:.1}% < generic {generic_med:.1}%; aware beats oblivious on SMT: {happy_smt_avg:.1}% < {obl_smt_avg:.1}%)",
        if ok { "SHAPE REPRODUCED" } else { "MISMATCH" }
    );
    let mut golden = Golden::new("e4_comparison", args.quick);
    golden.push("bertran_avg_mape_pct", bertran_avg);
    golden.push("happy_avg_mape_pct", happy_avg);
    golden.push("oblivious_avg_mape_pct", obl_avg);
    golden.push("happy_smt_avg_mape_pct", happy_smt_avg);
    golden.push("oblivious_smt_avg_mape_pct", obl_smt_avg);
    golden.push("generic_median_ape_pct", generic_med);
    golden.finish(&args, ok);
}
