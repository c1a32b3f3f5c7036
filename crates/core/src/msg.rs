//! Bus message types. One enum covers every topic so actors stay
//! object-safe and the bus stays simple, and every [`Topic`] carries
//! exactly one [`Message`] variant (DESIGN.md tabulates who publishes and
//! consumes each), so a handler needs one arm per topic it subscribes
//! to. Each variant is cheap to clone (whole-tick payloads travel behind
//! `Arc`); the row structs ([`SensorReport`], [`PowerReport`],
//! [`AggregateReport`]) are what one row of a batch materialises to.

use crate::frame::{AggregateBatch, PowerBatch, SensorBatch, TickFrame};
use crate::telemetry::TraceId;
use os_sim::process::Pid;
use perf_sim::events::Event;
use simcpu::counters::ExecDelta;
use simcpu::units::{MegaHertz, Nanos, Watts};
use std::sync::Arc;

/// Topics actors can subscribe to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topic {
    /// Monitoring clock ticks (carrying the tick frame).
    Tick,
    /// Per-tick sensor observations.
    Sensor,
    /// Per-tick power estimations.
    Power,
    /// Aggregated estimations.
    Aggregate,
    /// Physical meter samples (ground-truth side of Figure 3).
    Meter,
    /// RAPL package-power samples (the architecture-gated baseline).
    Rapl,
}

impl Topic {
    /// Every topic, in pipeline order.
    pub const ALL: [Topic; 6] = [
        Topic::Tick,
        Topic::Sensor,
        Topic::Power,
        Topic::Aggregate,
        Topic::Meter,
        Topic::Rapl,
    ];

    /// Lowercase label for metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Topic::Tick => "tick",
            Topic::Sensor => "sensor",
            Topic::Power => "power",
            Topic::Aggregate => "aggregate",
            Topic::Meter => "meter",
            Topic::Rapl => "rapl",
        }
    }

    /// Index into [`Topic::ALL`].
    pub fn index(self) -> usize {
        match self {
            Topic::Tick => 0,
            Topic::Sensor => 1,
            Topic::Power => 2,
            Topic::Aggregate => 3,
            Topic::Meter => 4,
            Topic::Rapl => 5,
        }
    }
}

/// Per-process CPU time deltas for one interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcTimeDelta {
    /// Total CPU time consumed.
    pub busy: Nanos,
    /// CPU time split by core frequency.
    pub by_freq: Vec<(MegaHertz, Nanos)>,
}

/// Raw event deltas split by whether the SMT sibling was busy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorunSplit {
    /// Events retired while the sibling hardware thread was idle.
    pub solo: ExecDelta,
    /// Events retired while the sibling hardware thread was busy.
    pub corun: ExecDelta,
    /// Busy time with an idle sibling.
    pub solo_time: Nanos,
    /// Busy time with a busy sibling.
    pub corun_time: Nanos,
}

/// A sensor's per-process observation for one interval: one row of a
/// [`SensorBatch`], materialised (the batch carries the source tag and
/// the tick trace the rows share).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorReport {
    /// End of the interval.
    pub timestamp: Nanos,
    /// Interval length.
    pub interval: Nanos,
    /// The observed process.
    pub pid: Pid,
    /// Scaled HPC deltas (empty for non-HPC sensors).
    pub counters: Vec<(Event, u64)>,
    /// CPU time consumed, split by frequency.
    pub time: ProcTimeDelta,
    /// SMT co-run split (zeroed when the sensor does not track it).
    pub corun: CorunSplit,
}

/// How trustworthy an estimation is, given the health of its inputs.
/// Orderable: `Full > Degraded > Stale` (worse quality sorts first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Quality {
    /// Produced from data that stopped flowing; value is a hold-over.
    Stale,
    /// Produced by a fallback path (e.g. cpu-load instead of HPC) after
    /// the primary input went missing.
    Degraded,
    /// Produced by the primary path from fresh inputs.
    #[default]
    Full,
}

impl Quality {
    /// The worse of two qualities (an aggregate is only as good as its
    /// weakest input).
    #[must_use]
    pub fn min(self, other: Quality) -> Quality {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Lowercase label for reporters.
    pub fn label(&self) -> &'static str {
        match self {
            Quality::Full => "full",
            Quality::Degraded => "degraded",
            Quality::Stale => "stale",
        }
    }
}

/// A formula's per-process power estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// End of the interval.
    pub timestamp: Nanos,
    /// The estimated process.
    pub pid: Pid,
    /// Estimated *active* power attributable to the process (the machine
    /// idle floor is added once, at aggregation).
    pub power: Watts,
    /// Name of the formula that produced the estimate.
    pub formula: &'static str,
    /// Half-width of the calibration prediction interval around `power`
    /// (0 when the formula has no residual statistics).
    pub band_w: Watts,
    /// Whether the estimate came from the primary path or a fallback.
    pub quality: Quality,
    /// The tick trace this estimate descends from.
    pub trace: TraceId,
}

/// What an aggregate describes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// One process.
    Process(Pid),
    /// A named control group of processes (a cgroup / virtual machine —
    /// the attribution unit the paper's §5 targets next).
    Group(std::sync::Arc<str>),
    /// The whole machine (idle floor + every monitored process).
    Machine,
}

/// An aggregated estimation, ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReport {
    /// End of the interval.
    pub timestamp: Nanos,
    /// What the value covers.
    pub scope: Scope,
    /// Aggregated power.
    pub power: Watts,
    /// Aggregated prediction-interval half-width (sum of the input
    /// bands — conservative, since estimation errors share the model).
    pub band_w: Watts,
    /// The worst quality among the inputs that formed this aggregate.
    pub quality: Quality,
    /// The newest tick trace folded into this aggregate.
    pub trace: TraceId,
}

/// The bus message: one variant per [`Topic`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A monitoring tick: the whole interval in struct-of-arrays form.
    Frame(Arc<TickFrame>),
    /// A sensor's whole-tick observation.
    SensorBatch(Arc<SensorBatch>),
    /// A formula's whole-tick estimates.
    PowerBatch(Arc<PowerBatch>),
    /// An aggregator's output for one tick (or its shutdown flush).
    AggregateBatch(Arc<AggregateBatch>),
    /// A meter sample (timestamp, watts).
    Meter(Nanos, Watts),
    /// A RAPL package-power sample (timestamp, average watts over the
    /// interval).
    Rapl(Nanos, Watts),
}

impl Message {
    /// Wraps folded aggregates as the one message shape the aggregate
    /// topic carries.
    pub fn aggregates(reports: Vec<AggregateReport>, trace: TraceId) -> Message {
        Message::AggregateBatch(Arc::new(AggregateBatch::explicit(reports, trace)))
    }

    /// The topic a message belongs on.
    pub fn topic(&self) -> Topic {
        match self {
            Message::Frame(_) => Topic::Tick,
            Message::SensorBatch(_) => Topic::Sensor,
            Message::PowerBatch(_) => Topic::Power,
            Message::AggregateBatch(_) => Topic::Aggregate,
            Message::Meter(_, _) => Topic::Meter,
            Message::Rapl(_, _) => Topic::Rapl,
        }
    }

    /// The trace id a message carries ([`TraceId::NONE`] for message
    /// kinds outside the estimation path — ticks are traced from the
    /// sensor stamp onward).
    pub fn trace(&self) -> TraceId {
        match self {
            Message::SensorBatch(b) => b.trace,
            Message::PowerBatch(b) => b.trace,
            Message::AggregateBatch(b) => b.trace,
            Message::Frame(_) | Message::Meter(_, _) | Message::Rapl(_, _) => TraceId::NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topics_match_variants() {
        use crate::frame::{FrameBuilder, SensorBatch};
        let frame = Arc::new(FrameBuilder::new().finish(
            Nanos(1),
            Nanos(1),
            Arc::from([] as [Event; 0]),
            None,
        ));
        let tick = Message::Frame(frame.clone());
        assert_eq!(tick.topic(), Topic::Tick);
        assert_eq!(tick.trace(), TraceId::NONE);
        let sensor_msg = Message::SensorBatch(Arc::new(SensorBatch {
            source: "hpc",
            frame,
            rows: Vec::new(),
            trace: TraceId(7),
        }));
        assert_eq!(sensor_msg.topic(), Topic::Sensor);
        assert_eq!(sensor_msg.trace(), TraceId(7));
        let power_msg = Message::PowerBatch(Arc::new(PowerBatch::with_capacity(
            Nanos(1),
            "x",
            TraceId(7),
            0,
        )));
        assert_eq!(power_msg.topic(), Topic::Power);
        assert_eq!(power_msg.trace(), TraceId(7));
        let agg_msg = Message::aggregates(
            vec![AggregateReport {
                timestamp: Nanos(1),
                scope: Scope::Machine,
                power: Watts(1.0),
                band_w: Watts(0.0),
                quality: Quality::Full,
                trace: TraceId(7),
            }],
            TraceId(7),
        );
        assert_eq!(agg_msg.topic(), Topic::Aggregate);
        assert_eq!(agg_msg.trace(), TraceId(7));
        assert_eq!(Message::Meter(Nanos(1), Watts(2.0)).topic(), Topic::Meter);
        assert_eq!(Message::Rapl(Nanos(1), Watts(2.0)).topic(), Topic::Rapl);
        assert_eq!(Message::Meter(Nanos(1), Watts(2.0)).trace(), TraceId::NONE);
    }

    #[test]
    fn messages_are_cheaply_clonable_and_send() {
        fn assert_send_clone<T: Send + Clone + 'static>() {}
        assert_send_clone::<Message>();
    }

    #[test]
    fn quality_ordering_and_min() {
        assert!(Quality::Full > Quality::Degraded);
        assert!(Quality::Degraded > Quality::Stale);
        assert_eq!(Quality::Full.min(Quality::Degraded), Quality::Degraded);
        assert_eq!(Quality::Stale.min(Quality::Full), Quality::Stale);
        assert_eq!(Quality::default(), Quality::Full);
        assert_eq!(Quality::Degraded.label(), "degraded");
    }

    #[test]
    fn scope_ordering_for_btree_use() {
        assert!(Scope::Process(Pid(1)) < Scope::Process(Pid(2)));
        assert_ne!(Scope::Machine, Scope::Process(Pid(1)));
        let g: Scope = Scope::Group(Arc::from("vm-1"));
        assert_eq!(g.clone(), g);
        assert_ne!(g, Scope::Machine);
    }
}
