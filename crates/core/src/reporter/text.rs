//! The text reporter: flattens every message it receives into one
//! seven-field `Row` and writes it in one of four [`Format`]s, to any
//! `Write + Send` target (stdout, a file, a test's buffer). Meter and
//! RAPL rows carry band 0, `full` quality and trace 0 (measurements, not
//! traced estimates). `band_w` is the prediction-interval half-width —
//! feed the CSV column to gnuplot's `errorbars`.

use crate::actor::{Actor, Context};
use crate::msg::{Message, Quality, Scope};
use crate::telemetry::TraceId;
use simcpu::units::{Nanos, Watts};
use std::io::Write;

/// The line formats a [`TextReporter`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable lines:
    /// `[     2.000s] machine    estimate 36.00 W ±1.25 [degraded]`.
    Console,
    /// One row per message under a header row, schema
    /// `time_s,kind,scope,power_w,band_w,quality,trace` — loadable
    /// straight into gnuplot/pandas for Figure-3-style plots.
    Csv,
    /// One self-describing JSON object per line, keys as the CSV schema.
    Json,
    /// InfluxDB line protocol (what the production PowerAPI ecosystem
    /// exports; ready for `influx write` or Telegraf): measurement
    /// `power`, tags `scope`/`kind`/`quality`, fields `power_w`, `band_w`,
    /// `trace`, nanosecond timestamp —
    /// `power,scope=pid42,kind=estimate,quality=full power_w=3.500,band_w=0.700,trace=6i 1000000000`.
    Influx,
}

/// One reported value, format-independent.
struct Row<'a> {
    at: Nanos,
    /// `estimate`, `powerspy` or `rapl`.
    kind: &'static str,
    scope: &'a str,
    power: Watts,
    band: Watts,
    quality: Quality,
    trace: TraceId,
}

impl Row<'_> {
    /// A measurement row: no band, full quality, untraced.
    fn measured(at: Nanos, kind: &'static str, scope: &'static str, power: Watts) -> Row<'static> {
        Row {
            at,
            kind,
            scope,
            power,
            band: Watts(0.0),
            quality: Quality::Full,
            trace: TraceId::NONE,
        }
    }
}

const CSV_HEADER: &[u8] = b"time_s,kind,scope,power_w,band_w,quality,trace\n";

// Each format function appends one line; writing to a `Vec<u8>` cannot
// fail, hence the ignored results.

fn console_line(r: &Row<'_>, buf: &mut Vec<u8>) {
    // Estimates are labelled by their scope, measurements by their kind.
    let (label, verb) = match r.kind {
        "powerspy" => (r.kind, "measured"),
        "rapl" => (r.kind, "package "),
        _ => (r.scope, r.kind),
    };
    let _ = write!(
        buf,
        "[{:10.3}s] {label:<10} {verb} {:.2} W",
        r.at.as_secs_f64(),
        r.power.as_f64()
    );
    // Show the prediction interval when the formula claims one.
    if r.band.as_f64() > 0.0 {
        let _ = write!(buf, " ±{:.2}", r.band.as_f64());
    }
    // Flag non-primary estimates so a human scanning the log sees
    // degradation without checking another stream.
    buf.extend_from_slice(match r.quality {
        Quality::Full => b"\n",
        Quality::Degraded => b" [degraded]\n",
        Quality::Stale => b" [stale]\n",
    });
}

fn csv_line(r: &Row<'_>, buf: &mut Vec<u8>) {
    let _ = writeln!(
        buf,
        "{:.3},{},{},{:.3},{:.3},{},{}",
        r.at.as_secs_f64(),
        r.kind,
        r.scope,
        r.power.as_f64(),
        r.band.as_f64(),
        r.quality.label(),
        r.trace
    );
}

/// Hand-rolled: the schema is flat, and `kind`, `scope` and the quality
/// label are generated identifiers (`[a-z0-9-]+`), never user input, so
/// no escaping is required.
fn json_line(r: &Row<'_>, buf: &mut Vec<u8>) {
    let _ = writeln!(
        buf,
        "{{\"time_s\":{:.3},\"kind\":\"{}\",\"scope\":\"{}\",\"power_w\":{:.3},\"band_w\":{:.3},\"quality\":\"{}\",\"trace\":{}}}",
        r.at.as_secs_f64(),
        r.kind,
        r.scope,
        r.power.as_f64(),
        r.band.as_f64(),
        r.quality.label(),
        r.trace
    );
}

fn influx_line(r: &Row<'_>, buf: &mut Vec<u8>) {
    let _ = writeln!(
        buf,
        "power,scope={},kind={},quality={} power_w={:.3},band_w={:.3},trace={}i {}",
        r.scope,
        r.kind,
        r.quality.label(),
        r.power.as_f64(),
        r.band.as_f64(),
        r.trace,
        r.at.as_u64()
    );
}

/// Renders an aggregate scope into a reused label buffer. The console
/// shows a pid the way [`os_sim::process::Pid`] displays; the
/// machine-readable formats keep the label free of spaces.
fn label_scope(scope: &Scope, format: Format, label: &mut String) {
    use std::fmt::Write;
    label.clear();
    let _ = match scope {
        Scope::Process(pid) if format == Format::Console => write!(label, "{pid}"),
        Scope::Process(pid) => write!(label, "pid{}", pid.0),
        Scope::Group(g) => label.write_str(g),
        Scope::Machine => label.write_str("machine"),
    };
}

/// The reporter actor.
pub struct TextReporter<W: Write + Send> {
    out: W,
    format: Format,
    /// Whether the CSV header row is still owed.
    header_due: bool,
    /// The lines of the message being handled, written out in one call.
    buf: Vec<u8>,
    /// Scope label of the aggregate being flattened.
    scope: String,
}

impl<W: Write + Send> TextReporter<W> {
    /// Reports to any writer in `format`.
    pub fn new(format: Format, out: W) -> TextReporter<W> {
        TextReporter {
            out,
            format,
            header_due: format == Format::Csv,
            buf: Vec::new(),
            scope: String::new(),
        }
    }
}

impl<W: Write + Send> Actor for TextReporter<W> {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        self.buf.clear();
        // Borrows the fields it names, leaving `self.scope` free.
        let mut line = |row: &Row<'_>| {
            if std::mem::take(&mut self.header_due) {
                self.buf.extend_from_slice(CSV_HEADER);
            }
            match self.format {
                Format::Console => console_line(row, &mut self.buf),
                Format::Csv => csv_line(row, &mut self.buf),
                Format::Json => json_line(row, &mut self.buf),
                Format::Influx => influx_line(row, &mut self.buf),
            }
        };
        match msg {
            Message::AggregateBatch(b) => {
                for a in &b.reports {
                    label_scope(&a.scope, self.format, &mut self.scope);
                    line(&Row {
                        at: a.timestamp,
                        kind: "estimate",
                        scope: &self.scope,
                        power: a.power,
                        band: a.band_w,
                        quality: a.quality,
                        trace: a.trace,
                    });
                }
            }
            Message::Meter(at, w) => line(&Row::measured(at, "powerspy", "machine", w)),
            Message::Rapl(at, w) => line(&Row::measured(at, "rapl", "package", w)),
            _ => return,
        }
        let _ = self.out.write_all(&self.buf);
    }

    fn on_stop(&mut self, _ctx: &Context) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::msg::{AggregateReport, Topic};
    use os_sim::process::Pid;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A Write target tests can read back from.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One aggregate batch, every report `(at, scope, watts, band, quality)`
    /// on `trace`.
    fn batch(trace: u64, reports: Vec<(Nanos, Scope, f64, f64, Quality)>) -> Message {
        let trace = TraceId(trace);
        let report = |(timestamp, scope, power, band, quality)| AggregateReport {
            timestamp,
            scope,
            power: Watts(power),
            band_w: Watts(band),
            quality,
            trace,
        };
        Message::aggregates(reports.into_iter().map(report).collect(), trace)
    }

    /// Every message shape, scope kind and quality, band shown and
    /// hidden, traced and untraced — and a frame, which no format prints.
    fn messages() -> Vec<Message> {
        use Quality::{Degraded, Full, Stale};
        let (t1, t2) = (Nanos::from_secs(1), Nanos::from_secs(2));
        let pid = |p| Scope::Process(Pid(p));
        let group = |g: &str| Scope::Group(Arc::from(g));
        let frame = crate::frame::FrameBuilder::new().finish(t2, t1, Arc::from([]), None);
        vec![
            batch(
                0,
                vec![
                    (t2, pid(42), 3.5, 0.0, Full),
                    (t2, Scope::Machine, 36.0, 1.25, Degraded),
                ],
            ),
            Message::Meter(t2, Watts(35.1)),
            Message::Rapl(t2, Watts(10.0)),
            batch(42, vec![(t1, pid(5), 2.25, 0.84, Degraded)]),
            Message::Meter(t1, Watts(33.0)),
            batch(
                9,
                vec![(Nanos::from_millis(1500), Scope::Machine, 36.48, 1.2, Full)],
            ),
            Message::Rapl(t2, Watts(9.0)),
            Message::Frame(Arc::new(frame)),
            batch(
                6,
                vec![
                    (t1, pid(42), 3.5, 0.7, Full),
                    (t1, group("vm-alpha"), 7.25, 0.0, Degraded),
                    (t1, group("vm-beta"), 1.0, 0.0, Stale),
                ],
            ),
            Message::Meter(t1, Watts(35.1)),
        ]
    }

    const CONSOLE: &str = r#"[     2.000s] pid 42     estimate 3.50 W
[     2.000s] machine    estimate 36.00 W ±1.25 [degraded]
[     2.000s] powerspy   measured 35.10 W
[     2.000s] rapl       package  10.00 W
[     1.000s] pid 5      estimate 2.25 W ±0.84 [degraded]
[     1.000s] powerspy   measured 33.00 W
[     1.500s] machine    estimate 36.48 W ±1.20
[     2.000s] rapl       package  9.00 W
[     1.000s] pid 42     estimate 3.50 W ±0.70
[     1.000s] vm-alpha   estimate 7.25 W [degraded]
[     1.000s] vm-beta    estimate 1.00 W [stale]
[     1.000s] powerspy   measured 35.10 W
"#;

    const CSV: &str = r#"time_s,kind,scope,power_w,band_w,quality,trace
2.000,estimate,pid42,3.500,0.000,full,0
2.000,estimate,machine,36.000,1.250,degraded,0
2.000,powerspy,machine,35.100,0.000,full,0
2.000,rapl,package,10.000,0.000,full,0
1.000,estimate,pid5,2.250,0.840,degraded,42
1.000,powerspy,machine,33.000,0.000,full,0
1.500,estimate,machine,36.480,1.200,full,9
2.000,rapl,package,9.000,0.000,full,0
1.000,estimate,pid42,3.500,0.700,full,6
1.000,estimate,vm-alpha,7.250,0.000,degraded,6
1.000,estimate,vm-beta,1.000,0.000,stale,6
1.000,powerspy,machine,35.100,0.000,full,0
"#;

    const JSON: &str = r#"{"time_s":2.000,"kind":"estimate","scope":"pid42","power_w":3.500,"band_w":0.000,"quality":"full","trace":0}
{"time_s":2.000,"kind":"estimate","scope":"machine","power_w":36.000,"band_w":1.250,"quality":"degraded","trace":0}
{"time_s":2.000,"kind":"powerspy","scope":"machine","power_w":35.100,"band_w":0.000,"quality":"full","trace":0}
{"time_s":2.000,"kind":"rapl","scope":"package","power_w":10.000,"band_w":0.000,"quality":"full","trace":0}
{"time_s":1.000,"kind":"estimate","scope":"pid5","power_w":2.250,"band_w":0.840,"quality":"degraded","trace":42}
{"time_s":1.000,"kind":"powerspy","scope":"machine","power_w":33.000,"band_w":0.000,"quality":"full","trace":0}
{"time_s":1.500,"kind":"estimate","scope":"machine","power_w":36.480,"band_w":1.200,"quality":"full","trace":9}
{"time_s":2.000,"kind":"rapl","scope":"package","power_w":9.000,"band_w":0.000,"quality":"full","trace":0}
{"time_s":1.000,"kind":"estimate","scope":"pid42","power_w":3.500,"band_w":0.700,"quality":"full","trace":6}
{"time_s":1.000,"kind":"estimate","scope":"vm-alpha","power_w":7.250,"band_w":0.000,"quality":"degraded","trace":6}
{"time_s":1.000,"kind":"estimate","scope":"vm-beta","power_w":1.000,"band_w":0.000,"quality":"stale","trace":6}
{"time_s":1.000,"kind":"powerspy","scope":"machine","power_w":35.100,"band_w":0.000,"quality":"full","trace":0}
"#;

    const INFLUX: &str = r#"power,scope=pid42,kind=estimate,quality=full power_w=3.500,band_w=0.000,trace=0i 2000000000
power,scope=machine,kind=estimate,quality=degraded power_w=36.000,band_w=1.250,trace=0i 2000000000
power,scope=machine,kind=powerspy,quality=full power_w=35.100,band_w=0.000,trace=0i 2000000000
power,scope=package,kind=rapl,quality=full power_w=10.000,band_w=0.000,trace=0i 2000000000
power,scope=pid5,kind=estimate,quality=degraded power_w=2.250,band_w=0.840,trace=42i 1000000000
power,scope=machine,kind=powerspy,quality=full power_w=33.000,band_w=0.000,trace=0i 1000000000
power,scope=machine,kind=estimate,quality=full power_w=36.480,band_w=1.200,trace=9i 1500000000
power,scope=package,kind=rapl,quality=full power_w=9.000,band_w=0.000,trace=0i 2000000000
power,scope=pid42,kind=estimate,quality=full power_w=3.500,band_w=0.700,trace=6i 1000000000
power,scope=vm-alpha,kind=estimate,quality=degraded power_w=7.250,band_w=0.000,trace=6i 1000000000
power,scope=vm-beta,kind=estimate,quality=stale power_w=1.000,band_w=0.000,trace=6i 1000000000
power,scope=machine,kind=powerspy,quality=full power_w=35.100,band_w=0.000,trace=0i 1000000000
"#;

    #[test]
    fn every_format_writes_its_exact_bytes() {
        for (format, expected) in [
            (Format::Console, CONSOLE),
            (Format::Csv, CSV),
            (Format::Json, JSON),
            (Format::Influx, INFLUX),
        ] {
            let buf = SharedBuf::default();
            let mut sys = ActorSystem::new();
            let r = sys.spawn("text", Box::new(TextReporter::new(format, buf.clone())));
            for topic in [Topic::Aggregate, Topic::Meter, Topic::Rapl, Topic::Tick] {
                sys.bus().subscribe(topic, &r);
            }
            for m in messages() {
                sys.bus().publish(m);
            }
            sys.shutdown();
            let text = String::from_utf8(buf.0.lock().clone()).unwrap();
            assert_eq!(text, expected, "{format:?}");
        }
    }
}
