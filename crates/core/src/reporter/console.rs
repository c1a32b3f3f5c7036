//! Human-readable line reporter. Generic over any `Write + Send` target
//! (stdout by default), so tests can capture output in a buffer — note a
//! `&mut` writer works too (C-RW-VALUE), but an owned writer is simplest
//! for a long-lived actor.

use crate::actor::{Actor, Context};
use crate::msg::{AggregateReport, Message, Scope};
use std::io::Write;

/// The reporter actor.
pub struct ConsoleReporter<W: Write + Send> {
    out: W,
}

impl ConsoleReporter<std::io::Stdout> {
    /// Reports to stdout.
    pub fn stdout() -> ConsoleReporter<std::io::Stdout> {
        ConsoleReporter {
            out: std::io::stdout(),
        }
    }
}

impl<W: Write + Send> ConsoleReporter<W> {
    /// Reports to any writer.
    pub fn new(out: W) -> ConsoleReporter<W> {
        ConsoleReporter { out }
    }

    /// Takes the writer back (for buffer inspection in tests).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// One aggregate as a console line.
fn agg_line(a: &AggregateReport) -> String {
    // Flag non-primary estimates so a human scanning the log
    // sees degradation without checking another stream.
    let suffix = match a.quality {
        crate::msg::Quality::Full => "",
        crate::msg::Quality::Degraded => " [degraded]",
        crate::msg::Quality::Stale => " [stale]",
    };
    // Show the prediction interval when the formula claims one.
    let band = if a.band_w.as_f64() > 0.0 {
        format!(" ±{:.2}", a.band_w.as_f64())
    } else {
        String::new()
    };
    match &a.scope {
        Scope::Process(pid) => format!(
            "[{:10.3}s] {:<10} estimate {:.2} W{band}{suffix}",
            a.timestamp.as_secs_f64(),
            pid.to_string(),
            a.power.as_f64()
        ),
        Scope::Group(g) => format!(
            "[{:10.3}s] {:<10} estimate {:.2} W{band}{suffix}",
            a.timestamp.as_secs_f64(),
            g,
            a.power.as_f64()
        ),
        Scope::Machine => format!(
            "[{:10.3}s] machine    estimate {:.2} W{band}{suffix}",
            a.timestamp.as_secs_f64(),
            a.power.as_f64()
        ),
    }
}

impl<W: Write + Send> Actor for ConsoleReporter<W> {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        let line = match msg {
            Message::AggregateBatch(b) => {
                for a in &b.reports {
                    let _ = writeln!(self.out, "{}", agg_line(a));
                }
                return;
            }
            Message::Meter(at, w) => format!(
                "[{:10.3}s] powerspy   measured {:.2} W",
                at.as_secs_f64(),
                w.as_f64()
            ),
            Message::Rapl(at, w) => format!(
                "[{:10.3}s] rapl       package  {:.2} W",
                at.as_secs_f64(),
                w.as_f64()
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
    use crate::msg::{AggregateReport, Topic};
    use os_sim::process::Pid;
    use parking_lot::Mutex;
    use simcpu::units::{Nanos, Watts};
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

    #[test]
    fn formats_every_stream() {
        let buf = SharedBuf::default();
        let inner = buf.clone();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("console", Box::new(ConsoleReporter::new(buf)));
        for topic in [Topic::Aggregate, Topic::Meter, Topic::Rapl] {
            sys.bus().subscribe(topic, &r);
        }
        sys.bus().publish(Message::aggregates(
            vec![
                AggregateReport {
                    timestamp: Nanos::from_secs(2),
                    scope: Scope::Process(Pid(42)),
                    power: Watts(3.5),
                    band_w: Watts(0.0),
                    quality: crate::msg::Quality::Full,
                    trace: crate::telemetry::TraceId::NONE,
                },
                AggregateReport {
                    timestamp: Nanos::from_secs(2),
                    scope: Scope::Machine,
                    power: Watts(36.0),
                    band_w: Watts(1.25),
                    quality: crate::msg::Quality::Degraded,
                    trace: crate::telemetry::TraceId::NONE,
                },
            ],
            crate::telemetry::TraceId::NONE,
        ));
        sys.bus()
            .publish(Message::Meter(Nanos::from_secs(2), Watts(35.1)));
        sys.bus()
            .publish(Message::Rapl(Nanos::from_secs(2), Watts(10.0)));
        sys.shutdown();
        let text = String::from_utf8(inner.0.lock().clone()).unwrap();
        assert!(text.contains("pid 42"), "{text}");
        assert!(text.contains("machine"), "{text}");
        assert!(text.contains("powerspy"), "{text}");
        assert!(text.contains("rapl"), "{text}");
        assert!(text.contains("3.50 W"), "{text}");
        assert!(text.contains("36.00 W ±1.25 [degraded]"), "{text}");
        assert!(!text.contains("3.50 W ["), "full quality has no suffix");
        assert!(!text.contains("3.50 W ±"), "zero band stays hidden");
        assert_eq!(text.lines().count(), 4);
    }
}
