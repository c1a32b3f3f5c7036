//! The PowerSpy sensor: relays the physical meter's samples onto the bus
//! so reporters (and the Figure 3 harness) can plot measured vs estimated
//! power side by side.

use crate::actor::{Actor, Context};
use crate::msg::Message;

/// The sensor actor.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerSpySensor;

impl PowerSpySensor {
    /// Creates the sensor.
    pub fn new() -> PowerSpySensor {
        PowerSpySensor
    }
}

impl Actor for PowerSpySensor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        for &(at, power) in frame.meter() {
            ctx.bus().publish(Message::Meter(at, power));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::frame::FrameBuilder;
    use crate::msg::Topic;
    use parking_lot::Mutex;
    use simcpu::units::{Nanos, Watts};
    use std::sync::Arc;

    struct Capture(Arc<Mutex<Vec<(Nanos, Watts)>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::Meter(at, w) = msg {
                self.0.lock().push((at, w));
            }
        }
    }

    #[test]
    fn relays_every_meter_sample() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let sensor = sys.spawn("powerspy", Box::new(PowerSpySensor::new()));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Tick, &sensor);
        sys.bus().subscribe(Topic::Meter, &sink);
        let mut b = FrameBuilder::new();
        b.meter_column().extend([
            (Nanos::from_millis(2500), Watts(31.4)),
            (Nanos::from_millis(3000), Watts(35.2)),
        ]);
        sys.bus().publish(Message::Frame(Arc::new(b.finish(
            Nanos::from_secs(3),
            Nanos::from_secs(1),
            Arc::from([]),
            None,
        ))));
        sys.shutdown();
        let seen = seen.lock();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, Nanos::from_millis(2500));
        assert!((seen[1].1.as_f64() - 35.2).abs() < 1e-12);
    }
}
