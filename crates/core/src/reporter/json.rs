//! JSON-lines reporter: one self-describing object per message. The
//! encoder is hand-rolled — the schema is flat (numbers and three
//! known-safe string fields), so a format crate would be dead weight.

use crate::actor::{Actor, Context};
use crate::msg::{AggregateReport, Message, Quality};
use crate::telemetry::TraceId;
use std::io::Write;

/// The reporter actor.
pub struct JsonReporter<W: Write + Send> {
    out: W,
    scope_buf: String,
}

impl<W: Write + Send> JsonReporter<W> {
    /// Reports to any writer.
    pub fn new(out: W) -> JsonReporter<W> {
        JsonReporter {
            out,
            scope_buf: String::new(),
        }
    }

    /// Takes the writer back.
    pub fn into_inner(self) -> W {
        self.out
    }

    fn aggregate_line(&mut self, a: &AggregateReport) {
        super::scope_label(&a.scope, &mut self.scope_buf);
        let line = obj(
            a.timestamp.as_secs_f64(),
            "estimate",
            &self.scope_buf,
            a.power.as_f64(),
            a.band_w.as_f64(),
            a.quality,
            a.trace,
        );
        let _ = writeln!(self.out, "{line}");
    }
}

fn obj(
    time_s: f64,
    kind: &str,
    scope: &str,
    power_w: f64,
    band_w: f64,
    quality: Quality,
    trace: TraceId,
) -> String {
    // `kind`, `scope` and the quality label are generated identifiers
    // ([a-z0-9-]+), never user input, so no escaping is required.
    format!(
        "{{\"time_s\":{time_s:.3},\"kind\":\"{kind}\",\"scope\":\"{scope}\",\"power_w\":{power_w:.3},\"band_w\":{band_w:.3},\"quality\":\"{}\",\"trace\":{trace}}}",
        quality.label()
    )
}

impl<W: Write + Send> Actor for JsonReporter<W> {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        let line = match msg {
            Message::AggregateBatch(b) => {
                for a in &b.reports {
                    self.aggregate_line(a);
                }
                return;
            }
            Message::Meter(at, w) => obj(
                at.as_secs_f64(),
                "powerspy",
                "machine",
                w.as_f64(),
                0.0,
                Quality::Full,
                TraceId::NONE,
            ),
            Message::Rapl(at, w) => obj(
                at.as_secs_f64(),
                "rapl",
                "package",
                w.as_f64(),
                0.0,
                Quality::Full,
                TraceId::NONE,
            ),
            _ => return,
        };
        let _ = writeln!(self.out, "{line}");
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
    fn emits_valid_json_lines() {
        let buf = SharedBuf::default();
        let inner = buf.clone();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("json", Box::new(JsonReporter::new(buf)));
        sys.bus().subscribe(Topic::Aggregate, &r);
        sys.bus().subscribe(Topic::Rapl, &r);
        sys.bus().publish(Message::aggregates(
            vec![AggregateReport {
                timestamp: Nanos::from_millis(1500),
                scope: Scope::Machine,
                power: Watts(36.48),
                band_w: Watts(1.2),
                quality: crate::msg::Quality::Full,
                trace: TraceId(9),
            }],
            TraceId(9),
        ));
        sys.bus()
            .publish(Message::Rapl(Nanos::from_secs(2), Watts(9.0)));
        sys.shutdown();
        let text = String::from_utf8(inner.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"time_s\":1.500,\"kind\":\"estimate\",\"scope\":\"machine\",\"power_w\":36.480,\"band_w\":1.200,\"quality\":\"full\",\"trace\":9}"
        );
        assert_eq!(
            lines[1],
            "{\"time_s\":2.000,\"kind\":\"rapl\",\"scope\":\"package\",\"power_w\":9.000,\"band_w\":0.000,\"quality\":\"full\",\"trace\":0}"
        );
        // Minimal well-formedness checks.
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('"').count() % 2, 0);
        }
    }
}
