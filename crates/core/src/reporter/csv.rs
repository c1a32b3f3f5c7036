//! CSV reporter: one row per message, schema
//! `time_s,kind,scope,power_w,band_w,quality,trace`, with a header row.
//! Loadable straight into gnuplot/pandas for Figure-3-style plots (the
//! `band_w` column is the prediction-interval half-width — feed it to
//! gnuplot's `errorbars`). Meter and RAPL rows carry band 0, `full`
//! quality and trace 0 (they are measurements, not traced estimates).

use crate::actor::{Actor, Context};
use crate::msg::{AggregateReport, Message, Quality};
use crate::telemetry::TraceId;
use std::io::Write;

/// The reporter actor.
pub struct CsvReporter<W: Write + Send> {
    out: W,
    wrote_header: bool,
    scope_buf: String,
}

/// One CSV row, in column order.
struct Row<'a> {
    time_s: f64,
    kind: &'a str,
    scope: &'a str,
    power_w: f64,
    band_w: f64,
    quality: Quality,
    trace: TraceId,
}

impl<W: Write + Send> CsvReporter<W> {
    /// Reports to any writer.
    pub fn new(out: W) -> CsvReporter<W> {
        CsvReporter {
            out,
            wrote_header: false,
            scope_buf: String::new(),
        }
    }

    /// Takes the writer back.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn row(&mut self, r: Row<'_>) {
        if !self.wrote_header {
            let _ = writeln!(self.out, "time_s,kind,scope,power_w,band_w,quality,trace");
            self.wrote_header = true;
        }
        let _ = writeln!(
            self.out,
            "{:.3},{},{},{:.3},{:.3},{},{}",
            r.time_s,
            r.kind,
            r.scope,
            r.power_w,
            r.band_w,
            r.quality.label(),
            r.trace
        );
    }

    fn aggregate_row(&mut self, a: &AggregateReport) {
        let mut scope = std::mem::take(&mut self.scope_buf);
        super::scope_label(&a.scope, &mut scope);
        self.row(Row {
            time_s: a.timestamp.as_secs_f64(),
            kind: "estimate",
            scope: &scope,
            power_w: a.power.as_f64(),
            band_w: a.band_w.as_f64(),
            quality: a.quality,
            trace: a.trace,
        });
        self.scope_buf = scope;
    }
}

impl<W: Write + Send> Actor for CsvReporter<W> {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        match msg {
            Message::AggregateBatch(b) => {
                for a in &b.reports {
                    self.aggregate_row(a);
                }
            }
            Message::Meter(at, w) => self.row(Row {
                time_s: at.as_secs_f64(),
                kind: "powerspy",
                scope: "machine",
                power_w: w.as_f64(),
                band_w: 0.0,
                quality: Quality::Full,
                trace: TraceId::NONE,
            }),
            Message::Rapl(at, w) => self.row(Row {
                time_s: at.as_secs_f64(),
                kind: "rapl",
                scope: "package",
                power_w: w.as_f64(),
                band_w: 0.0,
                quality: Quality::Full,
                trace: TraceId::NONE,
            }),
            _ => {}
        }
    }

    fn on_stop(&mut self, _ctx: &Context) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::msg::{Scope, Topic};
    use os_sim::process::Pid;
    use parking_lot::Mutex;
    use simcpu::units::{Nanos, Watts};
    use std::sync::Arc;

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

    #[test]
    fn emits_header_once_and_rows() {
        let buf = SharedBuf::default();
        let inner = buf.clone();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("csv", Box::new(CsvReporter::new(buf)));
        sys.bus().subscribe(Topic::Aggregate, &r);
        sys.bus().subscribe(Topic::Meter, &r);
        sys.bus().publish(Message::aggregates(
            vec![AggregateReport {
                timestamp: Nanos::from_secs(1),
                scope: Scope::Process(Pid(5)),
                power: Watts(2.25),
                band_w: Watts(0.84),
                quality: crate::msg::Quality::Degraded,
                trace: TraceId(42),
            }],
            TraceId(42),
        ));
        sys.bus()
            .publish(Message::Meter(Nanos::from_secs(1), Watts(33.0)));
        sys.shutdown();
        let text = String::from_utf8(inner.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time_s,kind,scope,power_w,band_w,quality,trace");
        assert_eq!(lines[1], "1.000,estimate,pid5,2.250,0.840,degraded,42");
        assert_eq!(lines[2], "1.000,powerspy,machine,33.000,0.000,full,0");
        assert_eq!(lines.len(), 3);
    }
}
