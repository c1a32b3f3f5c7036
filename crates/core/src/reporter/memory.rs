//! The in-memory reporter: stores everything it sees behind a shared
//! handle the caller can read after shutdown — how the experiment
//! harness, tests, and [`RunOutcome`] collect results.
//!
//! [`RunOutcome`]: crate::runtime::RunOutcome

use crate::actor::{Actor, Context};
use crate::msg::{AggregateReport, Message};
use parking_lot::Mutex;
use simcpu::units::{Nanos, Watts};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Store {
    aggregates: Vec<AggregateReport>,
    meter: Vec<(Nanos, Watts)>,
    rapl: Vec<(Nanos, Watts)>,
}

/// Cloneable read handle onto a [`MemoryReporter`]'s store.
#[derive(Debug, Clone, Default)]
pub struct MemoryHandle {
    store: Arc<Mutex<Store>>,
}

impl MemoryHandle {
    /// All aggregate reports received so far.
    pub fn aggregates(&self) -> Vec<AggregateReport> {
        self.store.lock().aggregates.clone()
    }

    /// All meter samples received so far.
    pub fn meter(&self) -> Vec<(Nanos, Watts)> {
        self.store.lock().meter.clone()
    }

    /// All RAPL samples received so far.
    pub fn rapl(&self) -> Vec<(Nanos, Watts)> {
        self.store.lock().rapl.clone()
    }
}

/// The reporter actor.
#[derive(Debug, Default)]
pub struct MemoryReporter {
    handle: MemoryHandle,
}

impl MemoryReporter {
    /// Creates the reporter.
    pub fn new() -> MemoryReporter {
        MemoryReporter::default()
    }

    /// The read handle (clone it before spawning the actor).
    pub fn handle(&self) -> MemoryHandle {
        self.handle.clone()
    }
}

impl Actor for MemoryReporter {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        let mut store = self.handle.store.lock();
        match msg {
            Message::AggregateBatch(b) => store.aggregates.extend(b.iter()),
            Message::Meter(at, w) => store.meter.push((at, w)),
            Message::Rapl(at, w) => store.rapl.push((at, w)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::msg::{Scope, Topic};

    #[test]
    fn stores_all_three_streams() {
        let reporter = MemoryReporter::new();
        let handle = reporter.handle();
        let mut sys = ActorSystem::new();
        let r = sys.spawn("mem", Box::new(reporter));
        for topic in [Topic::Aggregate, Topic::Meter, Topic::Rapl] {
            sys.bus().subscribe(topic, &r);
        }
        sys.bus().publish(Message::aggregates(
            vec![AggregateReport {
                timestamp: Nanos::from_secs(1),
                scope: Scope::Machine,
                power: Watts(35.0),
                band_w: Watts(0.0),
                quality: crate::msg::Quality::Full,
                trace: crate::telemetry::TraceId::NONE,
            }],
            crate::telemetry::TraceId::NONE,
        ));
        sys.bus()
            .publish(Message::Meter(Nanos::from_secs(1), Watts(34.2)));
        sys.bus()
            .publish(Message::Rapl(Nanos::from_secs(1), Watts(9.1)));
        sys.shutdown();
        assert_eq!(handle.aggregates().len(), 1);
        assert_eq!(handle.meter().len(), 1);
        assert_eq!(handle.rapl().len(), 1);
        assert!((handle.meter()[0].1.as_f64() - 34.2).abs() < 1e-12);
    }

    #[test]
    fn handle_is_live_during_run() {
        let reporter = MemoryReporter::new();
        let handle = reporter.handle();
        assert!(handle.aggregates().is_empty());
        let mut sys = ActorSystem::new();
        let r = sys.spawn("mem", Box::new(reporter));
        sys.bus().subscribe(Topic::Meter, &r);
        sys.bus().publish(Message::Meter(Nanos(1), Watts(1.0)));
        sys.shutdown();
        assert_eq!(handle.meter().len(), 1);
    }
}
