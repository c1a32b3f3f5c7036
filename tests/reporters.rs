//! Reporter integration: every output format wired through the full
//! runtime produces coherent, parseable output for the same run, and the
//! text formats round-trip — parsing a line recovers the exact report
//! (power and prediction band at the printed precision, quality tag,
//! trace id) that went in.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::process::Pid;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::actor::ActorSystem;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::{AggregateReport, Message, Quality, Scope, Topic};
use powerapi_suite::powerapi::reporter::{Format, TextReporter};
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

#[test]
fn csv_json_and_influx_agree_on_the_same_run() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
    let csv = SharedBuf::default();
    let json = SharedBuf::default();
    let influx = SharedBuf::default();
    let mut papi = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .report_to_memory()
        .report_to_csv(csv.clone())
        .report_to(Format::Json, json.clone())
        .report_to(Format::Influx, influx.clone())
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(3)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    // Ground truth for the comparison: the memory reporter.
    let estimates = outcome.machine_estimates();
    assert_eq!(estimates.len(), 6);

    // CSV: header + one row per message; machine rows match memory.
    let csv_text = csv.text();
    let mut lines = csv_text.lines();
    assert_eq!(
        lines.next(),
        Some("time_s,kind,scope,power_w,band_w,quality,trace")
    );
    let machine_rows: Vec<&str> = csv_text
        .lines()
        .filter(|l| l.contains(",estimate,machine,"))
        .collect();
    assert_eq!(machine_rows.len(), estimates.len());
    for (row, (ts, w)) in machine_rows.iter().zip(&estimates) {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 7);
        assert!((cols[0].parse::<f64>().expect("time") - ts.as_secs_f64()).abs() < 1e-9);
        assert!((cols[3].parse::<f64>().expect("power") - w.as_f64()).abs() < 0.001);
        assert!(cols[4].parse::<f64>().expect("band") >= 0.0);
        assert_eq!(cols[5], "full", "clean run, full quality");
        assert!(cols[6].parse::<u64>().expect("trace id") > 0, "traced tick");
    }

    // JSON lines: same count of machine estimates, balanced braces/quotes.
    let json_text = json.text();
    let machine_objs: Vec<&str> = json_text
        .lines()
        .filter(|l| l.contains("\"scope\":\"machine\"") && l.contains("\"kind\":\"estimate\""))
        .collect();
    assert_eq!(machine_objs.len(), estimates.len());
    for l in json_text.lines() {
        assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        assert_eq!(l.matches('"').count() % 2, 0, "{l}");
        assert!(l.contains("\"band_w\":"), "{l}");
        assert!(l.contains("\"quality\":\""), "{l}");
        assert!(l.contains("\"trace\":"), "{l}");
    }

    // Influx line protocol: measurement,tags fields timestamp.
    let influx_text = influx.text();
    let machine_points: Vec<&str> = influx_text
        .lines()
        .filter(|l| l.starts_with("power,scope=machine,kind=estimate,"))
        .collect();
    assert_eq!(machine_points.len(), estimates.len());
    for (point, (ts, w)) in machine_points.iter().zip(&estimates) {
        let parts: Vec<&str> = point.split(' ').collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].parse::<u64>().expect("ns ts"), ts.as_u64());
        let field = parts[1].strip_prefix("power_w=").expect("field");
        let watts = field.split(',').next().expect("first field");
        assert!((watts.parse::<f64>().expect("watts") - w.as_f64()).abs() < 0.001);
        assert!(parts[1].contains(",band_w="), "{point}");
        assert!(parts[1].contains(",trace="), "{point}");
    }

    // Every format also carried the meter stream.
    assert!(csv_text.contains(",powerspy,machine,"));
    assert!(json_text.contains("\"kind\":\"powerspy\""));
    assert!(influx_text.contains("kind=powerspy"));
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
    let text = run_reporter(Box::new(TextReporter::new(Format::Csv, buf.clone())), &buf);
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

#[test]
fn json_lines_round_trip_exactly() {
    let buf = SharedBuf::default();
    let text = run_reporter(Box::new(TextReporter::new(Format::Json, buf.clone())), &buf);
    // The schema is flat with a fixed key order, so a field-splitting
    // parser is an honest JSON reader for these lines.
    let parsed: Vec<Row> = text
        .lines()
        .map(|l| {
            let body = l
                .strip_prefix('{')
                .and_then(|l| l.strip_suffix('}'))
                .unwrap_or_else(|| panic!("not an object: {l}"));
            let mut fields = std::collections::BTreeMap::new();
            for kv in body.split(',') {
                let (k, v) = kv.split_once(':').expect("key:value");
                fields.insert(k.trim_matches('"'), v.trim_matches('"'));
            }
            row(
                fields["time_s"].parse().expect("time"),
                fields["kind"],
                fields["scope"],
                fields["power_w"].parse().expect("power"),
                fields["band_w"].parse().expect("band"),
                fields["quality"],
                fields["trace"].parse().expect("trace"),
            )
        })
        .collect();
    assert_eq!(parsed, fixture().1);
}

#[test]
fn influx_points_round_trip_exactly() {
    let buf = SharedBuf::default();
    let text = run_reporter(
        Box::new(TextReporter::new(Format::Influx, buf.clone())),
        &buf,
    );
    let parsed: Vec<Row> = text
        .lines()
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            assert_eq!(parts.len(), 3, "{l}");
            let mut tags = std::collections::BTreeMap::new();
            for tag in parts[0].split(',').skip(1) {
                let (k, v) = tag.split_once('=').expect("tag");
                tags.insert(k, v);
            }
            let mut fields = std::collections::BTreeMap::new();
            for field in parts[1].split(',') {
                let (k, v) = field.split_once('=').expect("field");
                fields.insert(k, v);
            }
            let ns: u64 = parts[2].parse().expect("timestamp");
            row(
                ns as f64 / 1e9,
                tags["kind"],
                tags["scope"],
                fields["power_w"].parse().expect("power"),
                fields["band_w"].parse().expect("band"),
                tags["quality"],
                fields["trace"]
                    .strip_suffix('i')
                    .expect("integer field")
                    .parse()
                    .expect("trace"),
            )
        })
        .collect();
    assert_eq!(parsed, fixture().1);
}
