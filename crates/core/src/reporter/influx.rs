//! InfluxDB line-protocol reporter — the time-series-database format the
//! production PowerAPI ecosystem exports to. One point per message:
//!
//! ```text
//! power,scope=pid42,kind=estimate,quality=full power_w=3.500,band_w=0.700,trace=6i 1000000000
//! ```
//!
//! (measurement `power`, tags `scope`/`kind`/`quality`, fields `power_w`,
//! `band_w` — the prediction-interval half-width — and `trace`,
//! nanosecond timestamp — ready for `influx write` or Telegraf.)

use crate::actor::{Actor, Context};
use crate::msg::{AggregateReport, Message};
use std::io::Write;

/// The reporter actor.
pub struct InfluxReporter<W: Write + Send> {
    out: W,
    measurement: &'static str,
    scope_buf: String,
}

/// One line-protocol point: tags (`scope`, `kind`, `quality`), fields
/// (`power_w`, `band_w`, `trace`), timestamp.
struct Point<'a> {
    scope: &'a str,
    kind: &'a str,
    quality: crate::msg::Quality,
    power_w: f64,
    band_w: f64,
    trace: crate::telemetry::TraceId,
    ts_ns: u64,
}

impl<W: Write + Send> InfluxReporter<W> {
    /// Reports to any writer under the default measurement name `power`.
    pub fn new(out: W) -> InfluxReporter<W> {
        InfluxReporter {
            out,
            measurement: "power",
            scope_buf: String::new(),
        }
    }

    /// Takes the writer back.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn point(&mut self, p: Point<'_>) {
        let _ = writeln!(
            self.out,
            "{},scope={},kind={},quality={} power_w={:.3},band_w={:.3},trace={}i {}",
            self.measurement,
            p.scope,
            p.kind,
            p.quality.label(),
            p.power_w,
            p.band_w,
            p.trace,
            p.ts_ns
        );
    }

    fn aggregate_point(&mut self, a: &AggregateReport) {
        let mut scope = std::mem::take(&mut self.scope_buf);
        super::scope_label(&a.scope, &mut scope);
        self.point(Point {
            scope: &scope,
            kind: "estimate",
            quality: a.quality,
            power_w: a.power.as_f64(),
            band_w: a.band_w.as_f64(),
            trace: a.trace,
            ts_ns: a.timestamp.as_u64(),
        });
        self.scope_buf = scope;
    }
}

impl<W: Write + Send> Actor for InfluxReporter<W> {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        use crate::msg::Quality;
        use crate::telemetry::TraceId;
        match msg {
            Message::AggregateBatch(b) => {
                for a in &b.reports {
                    self.aggregate_point(a);
                }
            }
            Message::Meter(at, w) => self.point(Point {
                scope: "machine",
                kind: "powerspy",
                quality: Quality::Full,
                power_w: w.as_f64(),
                band_w: 0.0,
                trace: TraceId::NONE,
                ts_ns: at.as_u64(),
            }),
            Message::Rapl(at, w) => self.point(Point {
                scope: "package",
                kind: "rapl",
                quality: Quality::Full,
                power_w: w.as_f64(),
                band_w: 0.0,
                trace: TraceId::NONE,
                ts_ns: at.as_u64(),
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
    fn emits_line_protocol_points() {
        let buf = SharedBuf::default();
        let inner = buf.clone();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("influx", Box::new(InfluxReporter::new(buf)));
        for t in [Topic::Aggregate, Topic::Meter, Topic::Rapl] {
            sys.bus().subscribe(t, &r);
        }
        sys.bus().publish(Message::aggregates(
            vec![
                AggregateReport {
                    timestamp: Nanos::from_secs(1),
                    scope: Scope::Process(Pid(42)),
                    power: Watts(3.5),
                    band_w: Watts(0.7),
                    quality: crate::msg::Quality::Full,
                    trace: crate::telemetry::TraceId(6),
                },
                AggregateReport {
                    timestamp: Nanos::from_secs(1),
                    scope: Scope::Group(Arc::from("vm-alpha")),
                    power: Watts(7.25),
                    band_w: Watts(0.0),
                    quality: crate::msg::Quality::Degraded,
                    trace: crate::telemetry::TraceId(6),
                },
            ],
            crate::telemetry::TraceId(6),
        ));
        sys.bus()
            .publish(Message::Meter(Nanos::from_secs(1), Watts(35.1)));
        sys.shutdown();
        let text = String::from_utf8(inner.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "power,scope=pid42,kind=estimate,quality=full power_w=3.500,band_w=0.700,trace=6i 1000000000"
        );
        assert_eq!(
            lines[1],
            "power,scope=vm-alpha,kind=estimate,quality=degraded power_w=7.250,band_w=0.000,trace=6i 1000000000"
        );
        assert_eq!(
            lines[2],
            "power,scope=machine,kind=powerspy,quality=full power_w=35.100,band_w=0.000,trace=0i 1000000000"
        );
        // Line protocol sanity: measurement,tags fields timestamp.
        for l in lines {
            let parts: Vec<&str> = l.split(' ').collect();
            assert_eq!(parts.len(), 3, "{l}");
            assert!(parts[0].starts_with("power,scope="));
            assert!(parts[1].starts_with("power_w="));
            assert!(parts[2].parse::<u64>().is_ok());
        }
    }
}
