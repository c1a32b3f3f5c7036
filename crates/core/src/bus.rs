//! The event bus of Figure 2: topic-based publish/subscribe connecting
//! Sensors → Formulas → Aggregators → Reporters. Publishing clones the
//! message into every subscriber's mailbox (messages are `Arc`-backed, so
//! clones are cheap).
//!
//! Each topic's subscribers are one immutable list, replaced whole by
//! `subscribe` (lists are built once, while the pipeline is assembled): a
//! publish takes a reference to the current list and sends from it,
//! allocating nothing and holding no lock while it delivers.

use crate::actor::ActorRef;
use crate::msg::{Message, Topic};
use crate::telemetry::{Counter, Telemetry};
use parking_lot::Mutex;
use std::sync::Arc;

/// One topic's subscribers, in subscription order.
type Subscribers = Mutex<Arc<[ActorRef]>>;

/// Per-topic traffic counters, pre-resolved at construction so `publish`
/// never formats metric names or touches the registry mutex.
struct BusCounters {
    published: [Counter; 6],
    delivered: [Counter; 6],
}

/// A cloneable handle to the shared bus.
#[derive(Clone, Default)]
pub struct EventBus {
    /// By [`Topic::index`].
    topics: Arc<[Subscribers; 6]>,
    counters: Option<Arc<BusCounters>>,
}

impl EventBus {
    /// Creates an empty bus.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Creates an empty bus that counts per-topic traffic into
    /// `telemetry` (no-op counters when the hub is disabled).
    pub fn with_telemetry(telemetry: Telemetry) -> EventBus {
        if !telemetry.enabled() {
            return EventBus::new();
        }
        let reg = telemetry.registry();
        let counter = |kind: &str, topic: Topic| {
            reg.counter(&format!(
                "powerapi_bus_{kind}_total{{topic=\"{}\"}}",
                topic.label()
            ))
        };
        EventBus {
            topics: Arc::default(),
            counters: Some(Arc::new(BusCounters {
                published: Topic::ALL.map(|t| counter("published", t)),
                delivered: Topic::ALL.map(|t| counter("delivered", t)),
            })),
        }
    }

    /// Subscribes an actor to a topic. Duplicate subscriptions deliver
    /// duplicate messages (like any pub/sub, subscribe once).
    pub fn subscribe(&self, topic: Topic, actor: &ActorRef) {
        let mut list = self.topics[topic.index()].lock();
        *list = list.iter().chain([actor]).cloned().collect();
    }

    /// Publishes a message to its topic ([`Message::topic`]); returns how
    /// many subscribers received it.
    pub fn publish(&self, msg: Message) -> usize {
        let topic = msg.topic().index();
        if let Some(c) = &self.counters {
            c.published[topic].inc();
        }
        let subscribers = self.topics[topic].lock().clone();
        // The last subscriber takes the message itself, not a clone.
        let Some((last, rest)) = subscribers.split_last() else {
            return 0;
        };
        let mut delivered = 0;
        for actor in rest {
            delivered += u64::from(actor.send(msg.clone()));
        }
        delivered += u64::from(last.send(msg));
        if let Some(c) = &self.counters {
            c.delivered[topic].add(delivered);
        }
        delivered as usize
    }

    /// Number of subscribers on a topic.
    pub fn subscriber_count(&self, topic: Topic) -> usize {
        self.topics[topic.index()].lock().len()
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counts = Topic::ALL.map(|t| self.subscriber_count(t));
        f.debug_struct("EventBus")
            .field("topics", &counts.iter().filter(|&&n| n > 0).count())
            .field("subscriptions", &counts.iter().sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, ActorSystem, Context};
    use crate::frame::PowerBatch;
    use crate::msg::{AggregateReport, Scope};
    use crate::telemetry::TraceId;
    use simcpu::units::{Nanos, Watts};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Tally(Arc<AtomicU64>);
    impl Actor for Tally {
        fn handle(&mut self, _msg: Message, _ctx: &Context) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn power_msg() -> Message {
        Message::PowerBatch(Arc::new(PowerBatch::with_capacity(
            Nanos(1),
            "t",
            TraceId::NONE,
            0,
        )))
    }

    fn agg_msg() -> Message {
        Message::aggregates(
            vec![AggregateReport {
                timestamp: Nanos(1),
                scope: Scope::Machine,
                power: Watts(1.0),
                band_w: Watts(0.0),
                quality: crate::msg::Quality::Full,
                trace: TraceId::NONE,
            }],
            TraceId::NONE,
        )
    }

    #[test]
    fn publish_routes_by_topic_only() {
        let mut sys = ActorSystem::new();
        let n_power = Arc::new(AtomicU64::new(0));
        let n_agg = Arc::new(AtomicU64::new(0));
        let a = sys.spawn("p", Box::new(Tally(n_power.clone())));
        let b = sys.spawn("a", Box::new(Tally(n_agg.clone())));
        sys.bus().subscribe(Topic::Power, &a);
        sys.bus().subscribe(Topic::Aggregate, &b);
        assert_eq!(sys.bus().publish(power_msg()), 1);
        assert_eq!(sys.bus().publish(agg_msg()), 1);
        assert_eq!(sys.bus().publish(Message::Meter(Nanos(1), Watts(1.0))), 0);
        sys.shutdown();
        assert_eq!(n_power.load(Ordering::SeqCst), 1);
        assert_eq!(n_agg.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let mut sys = ActorSystem::new();
        let n1 = Arc::new(AtomicU64::new(0));
        let n2 = Arc::new(AtomicU64::new(0));
        let a = sys.spawn("s1", Box::new(Tally(n1.clone())));
        let b = sys.spawn("s2", Box::new(Tally(n2.clone())));
        sys.bus().subscribe(Topic::Power, &a);
        sys.bus().subscribe(Topic::Power, &b);
        assert_eq!(sys.bus().subscriber_count(Topic::Power), 2);
        for _ in 0..10 {
            assert_eq!(sys.bus().publish(power_msg()), 2);
        }
        sys.shutdown();
        assert_eq!(n1.load(Ordering::SeqCst), 10);
        assert_eq!(n2.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn debug_format() {
        let bus = EventBus::new();
        assert!(format!("{bus:?}").contains("EventBus"));
    }

    #[test]
    fn telemetry_bus_counts_per_topic_traffic() {
        let telemetry = Telemetry::new();
        let mut sys = crate::actor::ActorSystem::with_telemetry(telemetry.clone());
        let n = Arc::new(AtomicU64::new(0));
        let a = sys.spawn("p", Box::new(Tally(n.clone())));
        let b = sys.spawn("p2", Box::new(Tally(Arc::new(AtomicU64::new(0)))));
        sys.bus().subscribe(Topic::Power, &a);
        sys.bus().subscribe(Topic::Power, &b);
        sys.bus().publish(power_msg());
        sys.bus().publish(agg_msg()); // no subscribers
        sys.shutdown();
        let reg = telemetry.registry();
        assert_eq!(
            reg.counter("powerapi_bus_published_total{topic=\"power\"}")
                .get(),
            1
        );
        assert_eq!(
            reg.counter("powerapi_bus_delivered_total{topic=\"power\"}")
                .get(),
            2,
            "fan-out counted per delivery"
        );
        assert_eq!(
            reg.counter("powerapi_bus_published_total{topic=\"aggregate\"}")
                .get(),
            1,
            "published counts even with no subscribers"
        );
        // A disabled hub attaches no counters at all.
        let dark = EventBus::with_telemetry(Telemetry::disabled());
        assert!(dark.counters.is_none());
    }
}
