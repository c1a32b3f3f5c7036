//! Experiment E10 — black-box flight recorder: the E7 chaos schedule
//! replayed with the event journal and the post-mortem dump armed, then
//! scored **from the dump alone**. The run itself is thrown away; the
//! question is whether `journal.jsonl` + `trace.json` + `metrics.prom`
//! let an operator reconstruct what the fault injector did — every one
//! of the eight injected fault kinds must appear in the dumped journal,
//! and the Chrome trace must parse as valid JSON naming all four
//! pipeline stages.
//!
//! Unlike E7 this needs no learned model (the dump does not care how
//! accurate the estimates are), so the pipeline runs the paper's stock
//! i3 model with a fixed cpu-load backup and the whole experiment is a
//! single run.
//!
//! Run: `cargo run --release -p bench-suite --bin e10_blackbox [--quick] [--check|--bless]`
//! Evidence: `tests/golden/e10_blackbox[.quick].golden`

use bench_suite::chaos::{chaos_fault_config, quiet_chaos_panics, ChaosMonkey, CHAOS_SEED};
use bench_suite::{dump_trace, row, section, BenchArgs, Evaluation, Golden};
use powerapi::actor::RestartPolicy;
use powerapi::formula::cpuload::CpuLoadFormula;
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::msg::Topic;
use powerapi::runtime::{PowerApi, RunOutcome};
use powerapi::telemetry::export::parse_json;
use powerapi::telemetry::{parse_jsonl, EventKind, JournalEvent, Telemetry};
use simcpu::fault::{FaultKind, FaultPlan};
use simcpu::presets;
use simcpu::units::Nanos;
use std::sync::{Arc, Mutex};
use workloads::specjbb::{self, SpecJbbConfig};

/// Backup formula constants (i3 ballpark; E10 checks observability, not
/// accuracy).
const BACKUP_IDLE_W: f64 = 30.0;
const BACKUP_SLOPE_W: f64 = 25.0;

/// The four stages the ISSUE requires the exported trace to name.
const PIPELINE_STAGES: [&str; 4] = ["sensor", "formula", "aggregator", "reporter"];

fn run_flight_recorded(
    jbb: &SpecJbbConfig,
    plan: FaultPlan,
    dump_dir: &std::path::Path,
) -> (RunOutcome, Telemetry) {
    let eval = Evaluation::new(
        presets::intel_i3_2120(),
        "specjbb2013",
        specjbb::tasks(jbb),
        jbb.duration,
    );
    let mut kernel = os_sim::kernel::Kernel::new(eval.machine);
    let pid = kernel.spawn(eval.name, eval.tasks);
    let monkey_plan = plan.clone();
    let fired = Arc::new(Mutex::new(Vec::new()));
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .degrade_to(
            CpuLoadFormula::new(BACKUP_IDLE_W, BACKUP_SLOPE_W),
            Nanos::from_millis(2500),
        )
        .fault_plan(plan)
        .supervision(RestartPolicy::Restart { max: 16 })
        .with_supervised_actor(
            "chaos-monkey",
            move || {
                Box::new(ChaosMonkey {
                    plan: monkey_plan.clone(),
                    fired: fired.clone(),
                })
            },
            vec![Topic::Tick],
        )
        .events(eval.events)
        .slots(eval.slots)
        .report_to_memory()
        .quantum(eval.quantum)
        .clock_period(eval.clock)
        // The flight recorder proper: an armed recorder dumps at every
        // finish, the whole retained journal.
        .post_mortem_to(dump_dir)
        .build()
        .expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(jbb.duration).expect("run");
    let telemetry = papi.telemetry().clone();
    (papi.finish().expect("finish"), telemetry)
}

/// How often `kind` shows up in the dumped journal. Host-fault kinds
/// arrive as `fault-injected` events whose subject is the kind's name;
/// the injected actor fault arrives as the supervisor's `actor-panic`
/// events.
fn captured_count(journal: &[JournalEvent], kind: FaultKind) -> usize {
    let name = format!("{kind:?}");
    journal
        .iter()
        .filter(|e| match kind {
            FaultKind::ActorPanic => e.kind == EventKind::ActorPanic,
            _ => e.kind == EventKind::FaultInjected && e.subject == name,
        })
        .count()
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    quiet_chaos_panics();
    section("E10: black-box — reconstructing the chaos run from its dump");

    let jbb = SpecJbbConfig {
        duration: if quick {
            Nanos::from_secs(200)
        } else {
            Nanos::from_secs(2500)
        },
        ..SpecJbbConfig::default()
    };
    let plan = FaultPlan::generate(CHAOS_SEED, jbb.duration, &chaos_fault_config(quick));
    let injected: Vec<FaultKind> = plan.kinds();

    println!(
        "  [1/3] chaos run with the flight recorder armed ({} s, {} windows, seed {CHAOS_SEED:#x})…",
        jbb.duration.as_secs_f64(),
        plan.windows().len()
    );
    let dump_dir = std::path::Path::new("target/e10_blackbox");
    let (outcome, telemetry) = run_flight_recorded(&jbb, plan.clone(), dump_dir);
    if let Some(path) = &args.dump_trace {
        dump_trace(&telemetry, path);
    }
    let report = outcome
        .flight_recorder
        .as_ref()
        .expect("an armed flight recorder always dumps");

    println!("  [2/3] reading the dump back ({} )…", report.dir.display());
    let journal_text =
        std::fs::read_to_string(report.dir.join("journal.jsonl")).expect("read journal.jsonl");
    let journal = parse_jsonl(&journal_text).expect("journal.jsonl parses");
    let trace_text =
        std::fs::read_to_string(report.dir.join("trace.json")).expect("read trace.json");
    let trace = parse_json(&trace_text).expect("trace.json is valid JSON");

    // Which injected kinds can the dump alone account for?
    let counts: Vec<(FaultKind, usize)> = injected
        .iter()
        .map(|&k| (k, captured_count(&journal, k)))
        .collect();
    let captured: Vec<&(FaultKind, usize)> = counts.iter().filter(|(_, n)| *n > 0).collect();

    // Which pipeline stages does the Chrome trace name?
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    let stages_named = PIPELINE_STAGES
        .iter()
        .filter(|s| tracks.contains(*s))
        .count();

    println!("  [3/3] scoring…");
    section("dump contents vs fault injection");
    for (kind, n) in &counts {
        row(&format!("{kind:?}"), format!("{n} journal event(s)"));
    }
    row("kinds injected", injected.len());
    row("kinds captured in dump", captured.len());
    row("journal events in dump", report.events);
    row("trace spans in dump", report.spans);
    row("dump size", format!("{} bytes", report.bytes));
    row("dump reason", &report.reason);

    section("E10 headline numbers");
    row(
        "fault coverage",
        format!("{}/{}", captured.len(), injected.len()),
    );
    row(
        "pipeline stages named in trace",
        format!("{stages_named}/{}", PIPELINE_STAGES.len()),
    );

    let panics_journaled = journal
        .iter()
        .filter(|e| e.kind == EventKind::ActorPanic)
        .count();
    let restarts_journaled = journal
        .iter()
        .filter(|e| e.kind == EventKind::ActorRestart)
        .count();
    let faults_journaled = journal
        .iter()
        .filter(|e| e.kind == EventKind::FaultInjected)
        .count();

    let ok = captured.len() == injected.len()
        && stages_named == PIPELINE_STAGES.len()
        && report.events > 0
        && report.spans > 0;

    println!();
    println!(
        "E10 verdict: {} ({}/{} fault kinds reconstructed from the dump, \
         {stages_named}/4 stages named in the trace)",
        if ok {
            "RECONSTRUCTED"
        } else {
            "BLACK BOX LOST DATA"
        },
        captured.len(),
        injected.len(),
    );

    // The injected-fault tallies replay exactly from the seeded plan, and
    // so does the total: the quality-degrade transitions it also counts
    // follow where a supervised restart lands among the ticks, which the
    // one FIFO loop fixes.
    let mut golden = Golden::new("e10_blackbox", args.quick);
    golden.push_exact("fault_windows", plan.windows().len() as f64);
    golden.push_exact("kinds_injected", injected.len() as f64);
    golden.push_exact("kinds_captured", captured.len() as f64);
    golden.push_exact("fault_events_journaled", faults_journaled as f64);
    golden.push_exact("actor_panics_journaled", panics_journaled as f64);
    golden.push_exact("actor_restarts_journaled", restarts_journaled as f64);
    golden.push_exact("trace_stages_named", stages_named as f64);
    golden.push_exact("journal_events_in_dump", report.events as f64);
    golden.finish(&args, ok);
}
