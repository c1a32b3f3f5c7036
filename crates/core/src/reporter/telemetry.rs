//! The self-observation reporter: one JSON-lines snapshot of the
//! middleware's *own* health per monitoring tick — per-stage latency
//! quantiles, message/drop/restart counts and the middleware-vs-host cost
//! split. Subscribes to `Topic::Tick` so snapshots align with the
//! monitoring clock, and reads everything from the system's
//! [`Telemetry`](crate::telemetry::Telemetry) hub via its context.

use crate::actor::{Actor, Context};
use crate::msg::Message;
use std::io::Write;

/// The reporter actor.
pub struct TelemetryReporter<W: Write + Send> {
    out: W,
    /// Emit one snapshot every `every` ticks (1 = every tick).
    every: u64,
    ticks: u64,
}

impl<W: Write + Send> TelemetryReporter<W> {
    /// Reports to any writer, one snapshot per tick.
    pub fn new(out: W) -> TelemetryReporter<W> {
        TelemetryReporter {
            out,
            every: 1,
            ticks: 0,
        }
    }

    /// Thin the output to one snapshot per `every` ticks.
    #[must_use]
    pub fn every(mut self, every: u64) -> TelemetryReporter<W> {
        self.every = every.max(1);
        self
    }

    /// Takes the writer back.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write + Send> Actor for TelemetryReporter<W> {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.every) {
            return;
        }
        let line = ctx.telemetry().json_snapshot(frame.timestamp);
        let _ = writeln!(self.out, "{line}");
    }

    fn on_stop(&mut self, _ctx: &Context) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{ActorSystem, SpawnOptions};
    use crate::frame::FrameBuilder;
    use crate::msg::Topic;
    use crate::telemetry::{Stage, Telemetry};
    use parking_lot::Mutex;
    use simcpu::units::Nanos;
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

    fn tick(s: u64) -> Message {
        Message::Frame(Arc::new(FrameBuilder::new().finish(
            Nanos::from_secs(s),
            Nanos::from_secs(1),
            Arc::from([]),
            None,
        )))
    }

    #[test]
    fn snapshots_once_per_tick_with_thinning() {
        let buf = SharedBuf::default();
        let inner = buf.clone();
        let mut sys = ActorSystem::with_telemetry(Telemetry::new());
        let r = sys.spawn_with(
            "telemetry",
            Box::new(TelemetryReporter::new(buf).every(2)),
            SpawnOptions::default().stage(Stage::Reporter),
        );
        sys.bus().subscribe(Topic::Tick, &r);
        for s in 1..=4 {
            sys.bus().publish(tick(s));
        }
        sys.shutdown();
        let text = String::from_utf8(inner.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "every(2) thins 4 ticks to 2 snapshots");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
            assert!(l.contains("\"sim_time_s\":"), "{l}");
            assert!(l.contains("\"messages\":"), "{l}");
        }
        // The second snapshot covers sim time 4 s.
        assert!(lines[1].contains("\"sim_time_s\":4.000"), "{}", lines[1]);
    }

    #[test]
    fn disabled_hub_still_writes_wellformed_lines() {
        let buf = SharedBuf::default();
        let inner = buf.clone();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("telemetry", Box::new(TelemetryReporter::new(buf)));
        sys.bus().subscribe(Topic::Tick, &r);
        sys.bus().publish(tick(1));
        sys.shutdown();
        let text = String::from_utf8(inner.0.lock().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"enabled\":false"), "{text}");
    }
}
