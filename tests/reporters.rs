//! Reporter integration: the CSV reporter wired through the full runtime
//! writes, row for row, what the memory reporter beside it received, and
//! its lines round-trip — parsing a line recovers the exact report (power
//! and prediction band at the printed precision, quality tag, trace id)
//! that went in.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::process::Pid;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::actor::ActorSystem;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::{AggregateReport, Message, Quality, Scope, Topic};
use powerapi_suite::powerapi::reporter::TextReporter;
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::powerapi::telemetry::TraceId;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::{Nanos, Watts};
use powerapi_suite::simcpu::workunit::WorkUnit;
use std::io::Write;
use std::sync::Arc;

/// A `Write` target whose contents outlive the reporter actor.
#[derive(Clone, Default)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("unpoisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("unpoisoned").clone()).expect("utf8 output")
    }
}

/// Every CSV row of a live run, as `core::fmt` writes the memory
/// reporter's copy of the same value: time, kind, scope, watts and band at
/// three decimals, quality and trace id.
fn csv_row(
    at: Nanos,
    kind: &str,
    scope: &str,
    power: Watts,
    band: Watts,
    quality: Quality,
    trace: TraceId,
) -> String {
    format!(
        "{:.3},{kind},{scope},{:.3},{:.3},{},{}",
        at.as_secs_f64(),
        power.as_f64(),
        band.as_f64(),
        quality.label(),
        trace.0
    )
}

#[test]
fn every_csv_row_matches_the_memory_reporter() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
    let csv = SharedBuf::default();
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .report_to_memory()
        .report_to_csv(csv.clone())
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(3)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    // Ground truth: the memory reporter, one stream per row kind.
    let estimates: Vec<String> = outcome
        .reports
        .iter()
        .map(|r| {
            let scope = match &r.scope {
                Scope::Process(p) => format!("pid{}", p.0),
                Scope::Group(g) => g.to_string(),
                Scope::Machine => "machine".to_string(),
            };
            csv_row(
                r.timestamp,
                "estimate",
                &scope,
                r.power,
                r.band_w,
                r.quality,
                r.trace,
            )
        })
        .collect();
    let measured = |kind: &str, scope: &str, samples: &[(Nanos, Watts)]| -> Vec<String> {
        samples
            .iter()
            .map(|&(at, w)| csv_row(at, kind, scope, w, Watts(0.0), Quality::Full, TraceId::NONE))
            .collect()
    };
    let meter = measured("powerspy", "machine", &outcome.meter);
    let rapl = measured("rapl", "package", &outcome.rapl);

    let text = csv.text();
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("time_s,kind,scope,power_w,band_w,quality,trace")
    );
    let rows: Vec<&str> = lines.collect();
    let of_kind = |kind: &str| -> Vec<String> {
        let tag = format!(",{kind},");
        rows.iter()
            .filter(|l| l.contains(&tag))
            .map(|l| l.to_string())
            .collect()
    };
    assert_eq!(of_kind("estimate"), estimates);
    assert_eq!(of_kind("powerspy"), meter);
    assert_eq!(of_kind("rapl"), rapl);
    assert_eq!(rows.len(), estimates.len() + meter.len() + rapl.len());

    // The run carried every row kind: process and machine estimates on
    // traced ticks, and both measurement streams.
    assert_eq!(outcome.machine_estimates().len(), 6);
    assert_eq!(outcome.process_estimates(pid).len(), 6);
    assert!(outcome.reports.iter().all(|r| r.trace != TraceId::NONE));
    assert!(!meter.is_empty() && !rapl.is_empty());
}

/// What a parsed reporter line must recover.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    time_s: f64,
    kind: String,
    scope: String,
    power_w: f64,
    band_w: f64,
    quality: String,
    trace: u64,
}

/// The fixture: three aggregates covering every scope and quality plus
/// both measurement streams. All values are exact at 3 decimals so the
/// round trip can compare with `==`, not a tolerance.
fn fixture() -> (Vec<Message>, Vec<Row>) {
    let msgs = vec![
        Message::aggregates(
            vec![
                AggregateReport {
                    timestamp: Nanos::from_millis(1500),
                    scope: Scope::Process(Pid(7)),
                    power: Watts(2.25),
                    band_w: Watts(0.75),
                    quality: Quality::Degraded,
                    trace: TraceId(42),
                },
                AggregateReport {
                    timestamp: Nanos::from_secs(2),
                    scope: Scope::Machine,
                    power: Watts(33.5),
                    band_w: Watts(1.5),
                    quality: Quality::Full,
                    trace: TraceId(43),
                },
                AggregateReport {
                    timestamp: Nanos::from_secs(2),
                    scope: Scope::Group(Arc::from("browsers")),
                    power: Watts(10.125),
                    band_w: Watts(0.0),
                    quality: Quality::Stale,
                    trace: TraceId(44),
                },
            ],
            TraceId(44),
        ),
        Message::Meter(Nanos::from_secs(2), Watts(35.75)),
        Message::Rapl(Nanos::from_secs(2), Watts(9.5)),
    ];
    let rows = vec![
        row(1.5, "estimate", "pid7", 2.25, 0.75, "degraded", 42),
        row(2.0, "estimate", "machine", 33.5, 1.5, "full", 43),
        row(2.0, "estimate", "browsers", 10.125, 0.0, "stale", 44),
        row(2.0, "powerspy", "machine", 35.75, 0.0, "full", 0),
        row(2.0, "rapl", "package", 9.5, 0.0, "full", 0),
    ];
    (msgs, rows)
}

fn row(
    time_s: f64,
    kind: &str,
    scope: &str,
    power_w: f64,
    band_w: f64,
    quality: &str,
    trace: u64,
) -> Row {
    Row {
        time_s,
        kind: kind.into(),
        scope: scope.into(),
        power_w,
        band_w,
        quality: quality.into(),
        trace,
    }
}

/// Runs the fixture through one reporter actor and returns its output.
fn run_reporter(actor: Box<dyn powerapi_suite::powerapi::actor::Actor>, buf: &SharedBuf) -> String {
    let (msgs, _) = fixture();
    let mut sys = ActorSystem::new();
    let r = sys.spawn("reporter", actor);
    for topic in [Topic::Aggregate, Topic::Meter, Topic::Rapl] {
        sys.bus().subscribe(topic, &r);
    }
    for m in msgs {
        sys.bus().publish(m);
    }
    sys.shutdown();
    buf.text()
}

#[test]
fn csv_rows_round_trip_exactly() {
    let buf = SharedBuf::default();
    let text = run_reporter(Box::new(TextReporter::new(buf.clone())), &buf);
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("time_s,kind,scope,power_w,band_w,quality,trace")
    );
    let parsed: Vec<Row> = lines
        .map(|l| {
            let c: Vec<&str> = l.split(',').collect();
            assert_eq!(c.len(), 7, "{l}");
            row(
                c[0].parse().expect("time"),
                c[1],
                c[2],
                c[3].parse().expect("power"),
                c[4].parse().expect("band"),
                c[5],
                c[6].parse().expect("trace"),
            )
        })
        .collect();
    assert_eq!(parsed, fixture().1);
}
