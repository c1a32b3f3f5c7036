//! Experiment E8 — the middleware watches itself. Measures what the
//! telemetry layer (metrics registry, span tracing, self-overhead
//! profiling) costs the pipeline, and demonstrates the
//! self-attribution path: the middleware's own busy time surfaces as a
//! synthetic `powerapi` process in the regular power reports.
//!
//! Protocol: learn a model once, then replay the same 600 s SPECjbb
//! excerpt with telemetry fully off and fully on (tracing + per-actor
//! metrics + self-profiling + the event journal), alternating arms,
//! twenty-one runs each. The best-of-arm wall
//! times are compared — min-of-N is the standard way to strip scheduler
//! noise from a throughput measurement. The acceptance bar is the
//! ISSUE's: telemetry may add **< 3 %** wall time. A final section
//! prices the flight-recorder exports themselves (Chrome trace + JSONL
//! journal dump), which run at shutdown rather than on the hot path.
//!
//! A second pair of arms prices the **fleet tracing plane** the same
//! way: the E12 faulty chaos arm replayed against a disabled vs an
//! enabled telemetry hub. The enabled hub turns on everything the
//! observability plane adds per frame — journey-hop capture, trace
//! propagation journaling, the latency/retransmit histograms and the
//! SLO tracker's journal feed. Fault decisions hash only
//! seed/host/seq/attempt, so both arms replay bit-identical fleets and
//! the wall-time delta is pure tracing cost — held to the same < 3 %.
//!
//! This is the one experiment that times the host, and it does so as a
//! *paired ratio* (on vs off, interleaved, same process) rather than an
//! absolute floor; every other host-time judgement lives in `benchmark/`.
//!
//! Run: `cargo run --release -p bench-suite --bin e8_overhead`
//! Evidence: `tests/golden/e8_overhead[.quick].golden` (simulated shape)
//! and `BENCH_overhead.json` (the measured percentages, repo root).
//!
//! Flags (shared [`BenchArgs`] contract): `--quick` shrinks the replay
//! and fleet arms for CI smoke; `--check` gates against the golden and
//! the committed `BENCH_overhead.json`, writing nothing; `--bless`
//! rewrites the golden and, on the full schedule, `BENCH_overhead.json`;
//! `--dump-trace <path>` exports the instrumented run's Chrome trace.

use bench_suite::fleetsim::{self, fleet_faults, FleetSpec};
use bench_suite::{dump_trace, row, section, BenchArgs, Golden};
use os_sim::kernel::Kernel;
use powerapi::fleet::{ShardConfig, SloConfig};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::runtime::{PowerApi, RunOutcome};
use powerapi::telemetry::{chrome_trace, dump_jsonl, Stage, Telemetry, SELF_PID};
use simcpu::presets;
use simcpu::units::Nanos;
use std::io::Write;
use std::time::Instant;
use workloads::specjbb::{self, SpecJbbConfig};

/// Watts attributed per fully-busy middleware core in the self profile
/// (only the *shape* matters here; E8 checks attribution, not accuracy).
const SELF_WATTS_PER_CORE: f64 = 10.0;

/// The acceptance budget for added wall time, full schedule. Quick runs
/// compare sub-second walls where scheduler noise alone is a few percent,
/// so the smoke schedule carries a looser bar — the 3 % claim is only
/// ever made (and committed as evidence) from the full run.
const BUDGET_PCT: f64 = 3.0;
const QUICK_BUDGET_PCT: f64 = 15.0;

/// Shapes per schedule: (jbb seconds, runs per arm, fleet hosts, fleet
/// ticks). The budget is a few milliseconds of a 0.45 s replay, and on a
/// shared two-core box the best of seven interleaved runs per arm still
/// read −3…+10 % with no code change; the best of twenty-one is the
/// arms' floors to about a percent.
const FULL_SHAPE: (u64, usize, usize, u64) = (600, 21, 16, 60);
const QUICK_SHAPE: (u64, usize, usize, u64) = (120, 2, 8, 40);
const FLEET_SHARDS: usize = 2;
/// One `Fleet::run` of the full shape is a few milliseconds — a hundred
/// times shorter than a replay — so a single preemption is worth several
/// percent of it. The fleet arms therefore repeat this many times more
/// often than the replay arms; the budget they are held to is the same.
const FLEET_RUNS_FACTOR: usize = 15;

/// The stages every instrumented replay must have timed.
const PIPELINE: [Stage; 4] = [
    Stage::Sensor,
    Stage::Formula,
    Stage::Aggregator,
    Stage::Reporter,
];

/// Pulls `"key": <number>` out of flat JSON (`BENCH_overhead.json` is
/// written below with globally unique keys, so no real parser needed).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One replay of the SPECjbb excerpt; returns wall seconds + outcome.
fn replay(
    model: PerFrequencyPowerModel,
    jbb: &SpecJbbConfig,
    telemetry_on: bool,
) -> (f64, RunOutcome) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("specjbb", specjbb::tasks(jbb));
    let mut builder = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .report_to_memory()
        .telemetry(telemetry_on);
    if telemetry_on {
        builder = builder.profile_self(SELF_WATTS_PER_CORE);
    }
    let started = Instant::now();
    let mut papi = builder.build().expect("build");
    papi.monitor(pid).expect("monitor");
    papi.run_for(jbb.duration).expect("run");
    let outcome = papi.finish().expect("finish");
    (started.elapsed().as_secs_f64(), outcome)
}

/// One replay of the fleet-tracing arm; returns `Fleet::run` wall
/// seconds plus the journey hops and journal events the enabled arm
/// recorded (both 0 when the hub is disabled — that's the point).
fn fleet_replay(
    model: PerFrequencyPowerModel,
    hosts: usize,
    ticks: u64,
    tracing_on: bool,
) -> (f64, usize, u64) {
    let spec = FleetSpec {
        hosts,
        ticks,
        shards: FLEET_SHARDS,
        shard: ShardConfig::default(),
        fault: fleet_faults(hosts, ticks),
        slo: SloConfig::default(),
    };
    let hub = if tracing_on {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let formula = PerFrequencyFormula::new(model);
    let run = fleetsim::run_fleet_with(spec, &formula, fleetsim::make_source, hub);
    (
        run.wall_s,
        run.fleet.journeys().len(),
        run.telemetry.journal().emitted(),
    )
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    let (jbb_secs, runs_per_arm, fleet_hosts, fleet_ticks) =
        if quick { QUICK_SHAPE } else { FULL_SHAPE };
    let budget_pct = if quick { QUICK_BUDGET_PCT } else { BUDGET_PCT };
    section(if quick {
        "E8: telemetry self-overhead on the E3 SPECjbb replay (quick)"
    } else {
        "E8: telemetry self-overhead on the E3 SPECjbb replay"
    });

    println!("  [1/3] learning the energy profile once…");
    let learn_cfg = if quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    let model = learn_model(presets::intel_i3_2120(), &learn_cfg).expect("learning");
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(jbb_secs),
        ..SpecJbbConfig::default()
    };

    println!(
        "  [2/3] replaying {} s of SPECjbb, {} runs per arm, arms interleaved…",
        jbb.duration.as_secs_f64(),
        runs_per_arm
    );
    // Fleet-tracing arms: the same disabled-vs-enabled protocol over the
    // E12 faulty chaos arm, pricing what the observability plane adds to
    // `Fleet::run` (journeys + histograms + journal + SLO feed). Half of
    // their pairs run before the replay arms and half after, so a noisy
    // few seconds on the box cannot cover all of them.
    let fleet_runs = runs_per_arm * FLEET_RUNS_FACTOR;
    let mut fleet_off_s = Vec::new();
    let mut fleet_on_s = Vec::new();
    let mut fleet_hops = 0usize;
    let mut fleet_events = 0u64;
    let mut fleet_pairs = |pairs: usize| {
        for _ in 0..pairs {
            let (t_off, off_hops, off_events) =
                fleet_replay(model.clone(), fleet_hosts, fleet_ticks, false);
            let (t_on, on_hops, on_events) =
                fleet_replay(model.clone(), fleet_hosts, fleet_ticks, true);
            assert_eq!(
                (off_hops, off_events),
                (0, 0),
                "a disabled hub must keep journey capture and journaling off the hot path"
            );
            fleet_off_s.push(t_off);
            fleet_on_s.push(t_on);
            fleet_hops = on_hops;
            fleet_events = on_events;
        }
    };
    fleet_pairs(fleet_runs / 2);
    let mut off_s = Vec::new();
    let mut on_s = Vec::new();
    let mut last_on: Option<RunOutcome> = None;
    for i in 0..runs_per_arm {
        let (t_off, _) = replay(model.clone(), &jbb, false);
        let (t_on, outcome) = replay(model.clone(), &jbb, true);
        println!("        run {}: off {t_off:.3} s, on {t_on:.3} s", i + 1);
        off_s.push(t_off);
        on_s.push(t_on);
        last_on = Some(outcome);
    }
    fleet_pairs(fleet_runs - fleet_runs / 2);
    let outcome = last_on.expect("at least one instrumented run");
    let best_off = off_s.iter().cloned().fold(f64::INFINITY, f64::min);
    let best_on = on_s.iter().cloned().fold(f64::INFINITY, f64::min);
    let overhead_pct = (best_on - best_off) / best_off * 100.0;

    println!("  [3/3] scoring…");
    section("wall-time overhead (best of each arm)");
    row("telemetry off", format!("{best_off:.3} s"));
    row(
        "telemetry on (trace+metrics+profile)",
        format!("{best_on:.3} s"),
    );
    row("added wall time", format!("{overhead_pct:+.2} %"));

    // What the instrumented run saw about itself: views of its hub.
    let hub = &outcome.telemetry;
    section("per-stage handle latency (instrumented run)");
    println!(
        "  {:<12} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50_ns", "p95_ns", "mean_ns"
    );
    for stage in Stage::ALL {
        let h = hub.stage_latency(stage);
        if h.count() > 0 {
            println!(
                "  {:<12} {:>10} {:>10} {:>10} {:>10}",
                stage.label(),
                h.count(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.mean()
            );
        }
    }
    let ticks_traced = hub.tracer().end_to_end().count();
    let (messages_handled, middleware_busy_ns) = hub.handle_totals();
    row("ticks traced", ticks_traced);
    row("messages handled", messages_handled);
    row(
        "middleware busy (self-profiled)",
        format!("{:.3} ms", middleware_busy_ns as f64 / 1e6),
    );
    let host_busy_ns = hub.overhead().host_ns() + hub.overhead().snapshot_ns();
    row(
        "host-model busy (snapshots + stepping)",
        format!("{:.3} ms", host_busy_ns as f64 / 1e6),
    );

    // Self-attribution: the middleware shows up as a process.
    let self_trace = outcome.self_estimates();
    let self_mean_w = if self_trace.is_empty() {
        0.0
    } else {
        self_trace.iter().map(|(_, w)| w.0).sum::<f64>() / self_trace.len() as f64
    };
    section("self-attribution (synthetic `powerapi` process)");
    row("self power reports", self_trace.len());
    row("mean self power", format!("{self_mean_w:.4} W"));

    if let Some(path) = &args.dump_trace {
        dump_trace(hub, None, path);
    }

    // Flight-recorder arms: what the shutdown-time exports cost, priced
    // on the instrumented run's full span + journal set. These never run
    // on the hot path, so they report alongside the <3 % budget instead
    // of counting against it.
    let chrome_started = Instant::now();
    let chrome = chrome_trace(&hub.tracer().spans(), &hub.journal().events(), &[], 0);
    let chrome_ms = chrome_started.elapsed().as_secs_f64() * 1e3;
    let events = hub.journal().events();
    let jsonl_started = Instant::now();
    let jsonl = dump_jsonl(&events);
    let jsonl_ms = jsonl_started.elapsed().as_secs_f64() * 1e3;
    section("flight-recorder exports (shutdown path)");
    row("journal events recorded", hub.journal().emitted());
    row("journal events dropped", hub.journal().dropped());
    row(
        "chrome trace export",
        format!("{chrome_ms:.2} ms, {} bytes", chrome.len()),
    );
    row(
        "journal JSONL export",
        format!("{jsonl_ms:.2} ms, {} bytes", jsonl.len()),
    );

    println!();
    println!(
        "  fleet-tracing arms: {fleet_hosts} hosts × {fleet_ticks} ticks of the E12 faulty \
         chaos arm, {fleet_runs} runs per arm, arms interleaved"
    );
    let fleet_best_off = fleet_off_s.iter().cloned().fold(f64::INFINITY, f64::min);
    let fleet_best_on = fleet_on_s.iter().cloned().fold(f64::INFINITY, f64::min);
    let fleet_overhead_pct = (fleet_best_on - fleet_best_off) / fleet_best_off * 100.0;
    section("fleet tracing overhead (best of each arm, Fleet::run only)");
    row(
        "fleet tracing off",
        format!("{:.3} ms", fleet_best_off * 1e3),
    );
    row(
        "fleet tracing on (journeys+histograms+journal+SLO)",
        format!("{:.3} ms", fleet_best_on * 1e3),
    );
    row("added wall time", format!("{fleet_overhead_pct:+.2} %"));
    row("journey hops recorded", fleet_hops);
    row("fleet journal events", fleet_events);

    let attributed = !self_trace.is_empty() && self_trace.iter().all(|(_, w)| w.0 >= 0.0);
    let staged = PIPELINE.iter().all(|&s| hub.stage_latency(s).count() > 0);
    let traced_fleet = fleet_hops > 0 && fleet_events > 0;
    let ok = overhead_pct < budget_pct
        && fleet_overhead_pct < budget_pct
        && attributed
        && staged
        && traced_fleet;

    let json_path = &bench_suite::golden::repo_root().join("BENCH_overhead.json");
    if args.check {
        // Regression gate: the committed evidence must still claim the
        // full-schedule budget, and this run (at its own schedule's
        // budget) must reproduce the structural claims. Never rewrites.
        let text = std::fs::read_to_string(json_path).unwrap_or_else(|e| {
            eprintln!("cannot read BENCH_overhead.json: {e} — run e8_overhead --bless first");
            std::process::exit(2);
        });
        let recorded_pct = json_number(&text, "overhead_pct").unwrap_or_else(|| {
            eprintln!("no overhead_pct in BENCH_overhead.json");
            std::process::exit(2);
        });
        let recorded_fleet_pct = json_number(&text, "fleet_overhead_pct").unwrap_or_else(|| {
            eprintln!("no fleet_overhead_pct in BENCH_overhead.json");
            std::process::exit(2);
        });
        let recorded_budget = json_number(&text, "budget_pct").unwrap_or(BUDGET_PCT);
        section("E8 overhead regression guard");
        row("recorded overhead", format!("{recorded_pct:+.3} %"));
        row(
            "recorded fleet overhead",
            format!("{recorded_fleet_pct:+.3} %"),
        );
        row("recorded budget", format!("{recorded_budget:.1} %"));
        row(
            "measured overhead (this schedule)",
            format!("{overhead_pct:+.3} %"),
        );
        row(
            "measured fleet overhead (this schedule)",
            format!("{fleet_overhead_pct:+.3} %"),
        );
        row("budget (this schedule)", format!("{budget_pct:.1} %"));
        let guard_ok = recorded_pct < recorded_budget && recorded_fleet_pct < recorded_budget && ok;
        println!();
        if !guard_ok {
            println!("E8 guard: FAIL");
            std::process::exit(1);
        }
        println!("E8 guard: PASS");
    } else if args.bless && !quick {
        // One writer, as for the golden — and only the full schedule,
        // the only one the 3 % claim is ever made from.
        let mut f = std::fs::File::create(json_path).expect("evidence file");
        writeln!(f, "{{").expect("write");
        writeln!(f, "  \"experiment\": \"e8_overhead\",").expect("write");
        writeln!(f, "  \"quick\": {quick},").expect("write");
        writeln!(
            f,
            "  \"replay_duration_s\": {},",
            jbb.duration.as_secs_f64()
        )
        .expect("write");
        writeln!(f, "  \"runs_per_arm\": {runs_per_arm},").expect("write");
        writeln!(f, "  \"telemetry_off_best_s\": {best_off:.4},").expect("write");
        writeln!(f, "  \"telemetry_on_best_s\": {best_on:.4},").expect("write");
        writeln!(f, "  \"overhead_pct\": {overhead_pct:.3},").expect("write");
        writeln!(f, "  \"budget_pct\": {budget_pct},").expect("write");
        writeln!(f, "  \"fleet_hosts\": {fleet_hosts},").expect("write");
        writeln!(f, "  \"fleet_ticks\": {fleet_ticks},").expect("write");
        writeln!(f, "  \"fleet_runs_per_arm\": {fleet_runs},").expect("write");
        writeln!(f, "  \"fleet_tracing_off_best_s\": {fleet_best_off:.6},").expect("write");
        writeln!(f, "  \"fleet_tracing_on_best_s\": {fleet_best_on:.6},").expect("write");
        writeln!(f, "  \"fleet_overhead_pct\": {fleet_overhead_pct:.3},").expect("write");
        writeln!(f, "  \"fleet_journey_hops\": {fleet_hops},").expect("write");
        writeln!(f, "  \"fleet_journal_events\": {fleet_events},").expect("write");
        writeln!(f, "  \"ticks_traced\": {ticks_traced},").expect("write");
        writeln!(f, "  \"messages_handled\": {messages_handled},").expect("write");
        writeln!(
            f,
            "  \"middleware_busy_ms\": {:.4},",
            middleware_busy_ns as f64 / 1e6
        )
        .expect("write");
        writeln!(f, "  \"self_pid\": {},", SELF_PID.0).expect("write");
        writeln!(f, "  \"self_power_reports\": {},", self_trace.len()).expect("write");
        writeln!(f, "  \"mean_self_power_w\": {self_mean_w:.4},").expect("write");
        writeln!(f, "  \"journal_events\": {},", hub.journal().emitted()).expect("write");
        writeln!(f, "  \"journal_dropped\": {},", hub.journal().dropped()).expect("write");
        writeln!(f, "  \"chrome_export_ms\": {chrome_ms:.3},").expect("write");
        writeln!(f, "  \"chrome_export_bytes\": {},", chrome.len()).expect("write");
        writeln!(f, "  \"jsonl_export_ms\": {jsonl_ms:.3},").expect("write");
        writeln!(f, "  \"jsonl_export_bytes\": {},", jsonl.len()).expect("write");
        writeln!(f, "  \"verdict\": \"{}\"", if ok { "PASS" } else { "FAIL" }).expect("write");
        writeln!(f, "}}").expect("write");
        println!();
        println!("        wrote {}", json_path.display());
    }

    println!();
    println!(
        "E8 verdict: {} (overhead {overhead_pct:+.2}% < {budget_pct}%, fleet tracing \
         {fleet_overhead_pct:+.2}% < {budget_pct}%, self-attributed: {attributed}, \
         all stages instrumented: {staged}, fleet traced: {traced_fleet})",
        if ok { "WITHIN BUDGET" } else { "OVER BUDGET" }
    );

    // Wall-derived percentages never belong in a golden set; the
    // simulation-derived shape of the instrumented run does.
    let mut golden = Golden::new("e8_overhead", args.quick);
    golden.push_exact("ticks_traced", ticks_traced as f64);
    golden.push_exact("self_power_reports", self_trace.len() as f64);
    golden.push_exact("fleet_journey_hops", fleet_hops as f64);
    golden.push_exact("fleet_journal_events", fleet_events as f64);
    golden.push_exact("messages_handled", messages_handled as f64);
    golden.push_exact("journal_events", hub.journal().emitted() as f64);
    golden.push_exact("self_attributed", f64::from(attributed));
    golden.push_exact("all_stages_instrumented", f64::from(staged));
    golden.finish(&args, ok);
}
