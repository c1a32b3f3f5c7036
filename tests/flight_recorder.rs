//! Flight-recorder integration: the journal's JSONL dump round-trips
//! exactly through a real pipeline run, and the Chrome trace-event
//! export holds its contract — valid JSON whose per-track timestamps
//! never run backwards — for arbitrary span and journal contents.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::actor::{Actor, Context, RestartPolicy};
use powerapi_suite::powerapi::fleet::{FleetHop, HopStage, HostId};
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::{Message, Topic};
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::powerapi::telemetry::export::parse_json;
use powerapi_suite::powerapi::telemetry::{
    chrome_trace, dump_jsonl, parse_jsonl, Counter, EventKind, Journal, Stage, TraceId, Tracer,
    FLEET_PID_BASE,
};
use powerapi_suite::simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Exercises a real pipeline (with an injected meter fault so the
/// journal holds more than lifecycle events) and asserts the JSONL dump
/// reproduces every event field-for-field after a parse round-trip.
#[test]
fn journal_jsonl_round_trips_exactly_through_a_real_run() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
    let plan = FaultPlan::from_windows(vec![FaultWindow {
        kind: FaultKind::SampleDropout,
        start: Nanos::from_secs(1),
        end: Nanos::from_secs(3),
        magnitude: 1.0,
    }]);
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .fault_plan(plan)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .build()
        .expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(4)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    let events = outcome.telemetry.journal().events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::ActorStart),
        "the supervisor journals actor starts"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::FaultInjected && e.subject == "SampleDropout"),
        "the runtime journals the injected meter fault"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::ActorStop),
        "shutdown journals actor stops"
    );
    let parsed = parse_jsonl(&dump_jsonl(&events)).expect("the dump parses");
    assert_eq!(parsed, events, "JSONL round-trip must be exact");
}

/// Panic payload the escalation probe throws — the quiet panic hook
/// below keys on it so the intentional crash stays out of test output.
const ESCALATION_PAYLOAD: &str = "escalation probe: intentional";

/// A supervised actor that dies on its first monitoring tick.
struct EscalationProbe;

impl Actor for EscalationProbe {
    fn handle(&mut self, _msg: Message, _ctx: &Context) {
        panic!("{ESCALATION_PAYLOAD}");
    }
}

/// A panic under `RestartPolicy::Escalate` must trip the flight
/// recorder: the run ends escalated, the post-mortem dump fires with a
/// `panic-escalation` reason, and the dumped journal names the
/// escalation itself.
#[test]
fn escalate_policy_fires_post_mortem_dump_with_escalation_event() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let intentional = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains(ESCALATION_PAYLOAD));
        if !intentional {
            default_hook(info);
        }
    }));

    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.6))]);
    let dump_dir =
        std::env::temp_dir().join(format!("powerapi-escalate-dump-{}", std::process::id()));
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .supervision(RestartPolicy::Escalate)
        .with_supervised_actor("doomed", || Box::new(EscalationProbe), vec![Topic::Tick])
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        // An armed recorder always dumps; the reason must name the escalation.
        .post_mortem_to(&dump_dir)
        .build()
        .expect("pipeline");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(3)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    assert!(
        outcome.health.escalated,
        "the probe's panic escalates system-wide"
    );
    let report = outcome
        .flight_recorder
        .as_ref()
        .expect("escalation triggers the post-mortem dump on its own");
    assert!(
        report.reason.contains("panic-escalation"),
        "dump reason names the escalation, got {:?}",
        report.reason
    );
    let journal_text =
        std::fs::read_to_string(report.dir.join("journal.jsonl")).expect("read journal.jsonl");
    let journal = parse_jsonl(&journal_text).expect("journal.jsonl parses");
    assert!(
        journal
            .iter()
            .any(|e| e.kind == EventKind::ActorEscalate && e.subject == "doomed"),
        "the dumped journal contains the escalation event"
    );
    std::fs::remove_dir_all(&dump_dir).ok();
}

/// DESIGN.md's "Event kinds" table is the catalogue of the journal's
/// vocabulary: it lists every kind `EventKind::ALL` holds, at the
/// severity the kind is journaled at, and names nothing the journal
/// would refuse to parse.
#[test]
fn design_md_event_kinds_table_matches_the_journal() {
    let design = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md");
    let design = std::fs::read_to_string(design).expect("read DESIGN.md");
    let (_, section) = design
        .split_once("\n### Event kinds\n")
        .expect("DESIGN.md has an \"Event kinds\" section");
    let section = section.split("\n#").next().expect("split yields a head");
    // `| `label` | severity | emitted by |`
    let listed: BTreeMap<&str, &str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| {
            let (label, rest) = row.split_once('`').expect("closing backtick");
            let severity = rest.split('|').nth(1).expect("a severity cell").trim();
            (label, severity)
        })
        .collect();
    for (label, severity) in &listed {
        let kind = EventKind::from_label(label)
            .unwrap_or_else(|| panic!("the table names {label:?}, which is no EventKind"));
        assert_eq!(*severity, kind.severity().label(), "severity of {label}");
    }
    for kind in EventKind::ALL {
        assert!(
            listed.contains_key(kind.label()),
            "{} is missing from DESIGN.md's \"Event kinds\" table",
            kind.label()
        );
    }
}

/// Characters chosen to stress the exporter: JSON escapes, control
/// characters, multi-byte and astral-plane text, and JSON syntax.
const PALETTE: [char; 16] = [
    'a', 'Z', '9', '"', '\\', '\n', '\r', '\t', '\u{1}', ' ', 'é', 'Δ', '😀', '{', '[', ':',
];

fn nasty_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0usize..12)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

/// (kind index, simulated ns, subject, detail, trace id)
fn journal_entries() -> impl Strategy<Value = Vec<(usize, u64, String, String, u64)>> {
    prop::collection::vec(
        (
            0usize..EventKind::ALL.len(),
            0u64..5_000_000_000,
            nasty_string(),
            nasty_string(),
            0u64..50,
        ),
        0usize..24,
    )
}

/// (tick second, stage index, queue ns, handle ns)
fn hop_entries() -> impl Strategy<Value = Vec<(u64, usize, u64, u64)>> {
    prop::collection::vec(
        (
            1u64..60,
            0usize..Stage::ALL.len(),
            0u64..1_000_000,
            0u64..5_000_000,
        ),
        0usize..32,
    )
}

/// Every journey stage, shard-carrying variants included.
const FLEET_STAGES: [HopStage; 12] = [
    HopStage::Produce,
    HopStage::Send,
    HopStage::DropFault,
    HopStage::DropPartition,
    HopStage::DropQueue,
    HopStage::HostDark,
    HopStage::SenderShed,
    HopStage::ShardShed { shard: 3 },
    HopStage::Apply { shard: 0 },
    HopStage::Duplicate { shard: 1 },
    HopStage::Corrupt { shard: 2 },
    HopStage::Abandon,
];

/// (fleet tick, host, seq, trace id, attempt, stage index) — arbitrary
/// multi-host journeys, causal or not; the exporter must stay valid and
/// monotone regardless.
fn fleet_hop_entries() -> impl Strategy<Value = Vec<(u64, u32, u64, u64, u32, usize)>> {
    prop::collection::vec(
        (
            0u64..60,
            0u32..8,
            0u64..40,
            1u64..1_000,
            0u32..4,
            0usize..FLEET_STAGES.len(),
        ),
        0usize..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the journal, tracer, and fleet journey log saw, the
    /// Chrome trace-event export must (a) parse as one valid JSON
    /// document, (b) wrap a `traceEvents` array of known phases, and
    /// (c) keep every track's (`pid`,`tid`) timestamps non-decreasing
    /// in array order — the property Perfetto's importer relies on.
    /// Multi-host fleet hops land on their own pids (`FLEET_PID_BASE`
    /// + origin host) as `cat:"fleet"` instants that carry the origin
    /// trace/seq/attempt.
    #[test]
    fn chrome_trace_is_always_valid_json_with_monotone_tracks(
        entries in journal_entries(),
        hops in hop_entries(),
        fleet in fleet_hop_entries(),
        tick_ns in 1u64..2_000_000_000,
    ) {
        let journal = Journal::new(true, 4096, Counter::default(), Counter::default());
        for (k, at, subject, detail, trace) in &entries {
            journal.emit_at(
                Nanos(*at),
                EventKind::ALL[*k],
                subject,
                detail.clone(),
                TraceId(*trace),
            );
        }
        let tracer = Tracer::new();
        for (tick_s, stage, queue, handle) in &hops {
            let id = tracer.trace_for_tick(Nanos::from_secs(*tick_s));
            let name: Arc<str> = Arc::from(format!("actor-{stage}"));
            tracer.record_hop(id, Stage::ALL[*stage], &name, *queue, *handle);
        }
        let fleet_hops: Vec<FleetHop> = fleet
            .iter()
            .map(|&(tick, host, seq, trace, attempt, stage)| FleetHop {
                tick,
                host: HostId(host),
                seq,
                trace: TraceId(trace),
                attempt,
                stage: FLEET_STAGES[stage],
            })
            .collect();

        let text = chrome_trace(
            &tracer.spans(),
            &journal.events(),
            &fleet_hops,
            tick_ns,
        );
        let doc = parse_json(&text).expect("export is valid JSON");
        let items = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");

        let mut fleet_instants = 0usize;
        let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for item in items {
            let ph = item.get("ph").and_then(|p| p.as_str()).expect("phase");
            prop_assert!(
                matches!(ph, "X" | "i" | "M"),
                "unexpected phase {ph:?}"
            );
            let ts = item.get("ts").and_then(|t| t.as_f64()).expect("ts");
            prop_assert!(ts >= 0.0);
            let pid = item.get("pid").and_then(|p| p.as_u64()).expect("pid");
            if item.get("cat").and_then(|c| c.as_str()) == Some("fleet") {
                fleet_instants += 1;
                prop_assert_eq!(ph, "i", "fleet hops export as instants");
                prop_assert!(
                    pid >= FLEET_PID_BASE,
                    "fleet tracks live above the pipeline pid, got {pid}"
                );
                let args = item.get("args").expect("fleet args");
                for key in ["trace", "seq", "attempt"] {
                    prop_assert!(
                        args.get(key).and_then(|v| v.as_u64()).is_some(),
                        "fleet instant missing args.{key}"
                    );
                }
            }
            // `process_name` metadata has no tid; every other record does.
            let Some(tid) = item.get("tid").and_then(|t| t.as_u64()) else {
                continue;
            };
            let last = last_ts.entry((pid, tid)).or_insert(0.0);
            prop_assert!(
                ts >= *last,
                "track ({pid},{tid}) ran backwards: {ts} after {last}"
            );
            *last = ts;
        }
        prop_assert_eq!(
            fleet_instants,
            fleet_hops.len(),
            "every fleet hop appears exactly once"
        );
    }
}
