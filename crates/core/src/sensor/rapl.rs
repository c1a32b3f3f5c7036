//! The RAPL sensor: converts the interval's package-energy delta into an
//! average package power and publishes it. Only produces data on machines
//! whose frames carry RAPL readings (Sandy Bridge onward) — the
//! architecture dependence the paper criticizes, reproduced.

use crate::actor::{Actor, Context};
use crate::msg::Message;
use simcpu::units::Watts;

/// The sensor actor.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaplSensor;

impl RaplSensor {
    /// Creates the sensor.
    pub fn new() -> RaplSensor {
        RaplSensor
    }
}

impl Actor for RaplSensor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        let Some(joules) = frame.rapl_joules else {
            return;
        };
        let secs = frame.interval.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        ctx.bus()
            .publish(Message::Rapl(frame.timestamp, Watts(joules / secs)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::frame::FrameBuilder;
    use crate::msg::Topic;
    use parking_lot::Mutex;
    use simcpu::units::Nanos;
    use std::sync::Arc;

    struct Capture(Arc<Mutex<Vec<(Nanos, Watts)>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::Rapl(at, w) = msg {
                self.0.lock().push((at, w));
            }
        }
    }

    fn tick(rapl_joules: Option<f64>) -> Message {
        Message::Frame(Arc::new(FrameBuilder::new().finish(
            Nanos::from_secs(5),
            Nanos::from_secs(2),
            Arc::from([]),
            rapl_joules,
        )))
    }

    #[test]
    fn converts_energy_to_average_power() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let sensor = sys.spawn("rapl", Box::new(RaplSensor::new()));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Tick, &sensor);
        sys.bus().subscribe(Topic::Rapl, &sink);
        sys.bus().publish(tick(Some(30.0)));
        sys.bus().publish(tick(None));
        sys.shutdown();
        let seen = seen.lock();
        assert_eq!(seen.len(), 1, "no message without rapl support");
        assert!((seen[0].1.as_f64() - 15.0).abs() < 1e-12, "30 J / 2 s");
    }
}
