//! Span-style pipeline tracing. Every monitoring tick gets one
//! monotonically increasing [`TraceId`], stamped on the sensor reports it
//! produces and carried through Formula → Aggregator → Reporter. Each
//! stage records a hop (queue wait + handle time, wall clock), so the
//! end-to-end pipeline latency and its per-stage breakdown are measurable
//! per tick.

use crate::telemetry::metrics::{Counter, Histogram};
use simcpu::units::Nanos;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies one tick's journey through the pipeline. `NONE` (0) marks
/// untraced messages (telemetry disabled, or message types outside the
/// estimation path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null trace.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id traces anything.
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The pipeline stage an actor implements (drives per-stage latency
/// attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Stage {
    /// Tick → sensor reports.
    Sensor,
    /// Sensor reports → power estimates.
    Formula,
    /// Power estimates → aggregates.
    Aggregator,
    /// Aggregates → output.
    Reporter,
    /// Control / feedback actors.
    Control,
    /// Anything else (extra actors, tests).
    #[default]
    Other,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Sensor,
        Stage::Formula,
        Stage::Aggregator,
        Stage::Reporter,
        Stage::Control,
        Stage::Other,
    ];

    /// Lowercase label for metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Sensor => "sensor",
            Stage::Formula => "formula",
            Stage::Aggregator => "aggregator",
            Stage::Reporter => "reporter",
            Stage::Control => "control",
            Stage::Other => "other",
        }
    }

    /// Index into [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::Sensor => 0,
            Stage::Formula => 1,
            Stage::Aggregator => 2,
            Stage::Reporter => 3,
            Stage::Control => 4,
            Stage::Other => 5,
        }
    }
}

/// One stage visit within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The visiting actor's stage.
    pub stage: Stage,
    /// The visiting actor's name.
    pub actor: Arc<str>,
    /// Wall nanoseconds since the trace's origin (the tick publish) at
    /// which the hop *completed*.
    pub at_ns: u64,
    /// Wall nanoseconds the message waited in the actor's mailbox.
    pub queue_ns: u64,
    /// Wall nanoseconds spent inside `handle`.
    pub handle_ns: u64,
}

/// One tick's recorded journey.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// The trace id.
    pub trace: TraceId,
    /// Simulated timestamp of the tick that opened the span.
    pub tick_ts: Nanos,
    origin: Instant,
    /// Stage visits, in completion order.
    pub hops: Vec<Hop>,
}

impl TraceSpan {
    /// End-to-end latency: origin to the last completed hop (0 until a
    /// hop lands).
    pub fn end_to_end_ns(&self) -> u64 {
        self.hops.iter().map(|h| h.at_ns).max().unwrap_or(0)
    }
}

struct TracerState {
    /// Tick timestamp (ns) → assigned trace, so all sensors on one tick
    /// share the id.
    ticks: BTreeMap<u64, TraceId>,
    /// Bounded span store; trace ids are monotone, so the first entry is
    /// always the oldest.
    spans: BTreeMap<u64, TraceSpan>,
}

/// Keeps the most recent spans (old ones have been summarised into the
/// actors' latency series already).
const SPAN_CAP: usize = 4096;

/// The trace allocator + span store.
pub struct Tracer {
    next: AtomicU64,
    state: Mutex<TracerState>,
    /// `powerapi_trace_spans_evicted_total` — spans shed past `SPAN_CAP`.
    spans_evicted: Counter,
    /// `powerapi_trace_hops_dropped_total` — hops recorded against a trace
    /// whose span was already evicted.
    hops_dropped: Counter,
    /// End-to-end latency of every tick that saw a hop, moved along hop
    /// by hop, so reading it never walks the span store.
    end_to_end: Histogram,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates an empty tracer with free-standing cap counters.
    pub fn new() -> Tracer {
        Tracer::with_counters(Counter::default(), Counter::default())
    }

    /// Creates an empty tracer whose eviction/drop counters live in a
    /// registry, so the bounded span store never caps silently.
    pub fn with_counters(spans_evicted: Counter, hops_dropped: Counter) -> Tracer {
        Tracer {
            next: AtomicU64::new(1),
            state: Mutex::new(TracerState {
                ticks: BTreeMap::new(),
                spans: BTreeMap::new(),
            }),
            spans_evicted,
            hops_dropped,
            end_to_end: Histogram::latency(),
        }
    }

    /// Returns the trace id for a tick timestamp, assigning the next id
    /// (and opening its span) on first sight. Everyone stamping the same
    /// tick — the sensor stage, the runtime's fault journal — therefore
    /// stamps the same id.
    pub fn trace_for_tick(&self, ts: Nanos) -> TraceId {
        let mut state = self.state.lock().expect("tracer");
        if let Some(&id) = state.ticks.get(&ts.as_u64()) {
            return id;
        }
        let id = TraceId(self.next.fetch_add(1, Ordering::Relaxed));
        state.ticks.insert(ts.as_u64(), id);
        state.spans.insert(
            id.0,
            TraceSpan {
                trace: id,
                tick_ts: ts,
                origin: Instant::now(),
                hops: Vec::new(),
            },
        );
        while state.spans.len() > SPAN_CAP {
            state.spans.pop_first();
            self.spans_evicted.inc();
        }
        while state.ticks.len() > SPAN_CAP {
            state.ticks.pop_first();
        }
        id
    }

    /// Records a stage visit on a trace (ignored for evicted or unknown
    /// traces).
    pub fn record_hop(
        &self,
        trace: TraceId,
        stage: Stage,
        actor: &Arc<str>,
        queue_ns: u64,
        handle_ns: u64,
    ) {
        if !trace.is_traced() {
            return;
        }
        let mut state = self.state.lock().expect("tracer");
        if let Some(span) = state.spans.get_mut(&trace.0) {
            let at_ns = span.origin.elapsed().as_nanos() as u64;
            // Hops land in completion order: the newest one is the
            // tick's end-to-end latency so far and replaces the last.
            if let Some(last) = span.hops.last() {
                self.end_to_end.forget(last.at_ns);
            }
            self.end_to_end.record(at_ns);
            span.hops.push(Hop {
                stage,
                actor: actor.clone(),
                at_ns,
                queue_ns,
                handle_ns,
            });
        } else {
            self.hops_dropped.inc();
        }
    }

    /// Spans shed past the store's capacity so far.
    pub fn spans_evicted(&self) -> u64 {
        self.spans_evicted.get()
    }

    /// Hops dropped because their span was already evicted.
    pub fn hops_dropped(&self) -> u64 {
        self.hops_dropped.get()
    }

    /// Number of spans currently stored.
    pub fn span_count(&self) -> usize {
        self.state.lock().expect("tracer").spans.len()
    }

    /// Snapshot of every stored span, oldest first.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.state
            .lock()
            .expect("tracer")
            .spans
            .values()
            .cloned()
            .collect()
    }

    /// End-to-end latency (tick publish → last completed hop) of every
    /// tick that saw at least one hop, evicted spans included.
    pub fn end_to_end(&self) -> &Histogram {
        &self.end_to_end
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("next", &self.next.load(Ordering::Relaxed))
            .field("spans", &self.span_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_share_one_monotone_id() {
        let t = Tracer::new();
        let a = t.trace_for_tick(Nanos::from_secs(1));
        let b = t.trace_for_tick(Nanos::from_secs(1));
        let c = t.trace_for_tick(Nanos::from_secs(2));
        assert_eq!(a, b, "same tick, same trace");
        assert!(c > a, "ids increase with ticks");
        assert!(a.is_traced());
        assert!(!TraceId::NONE.is_traced());
        assert_eq!(format!("{c}"), "2");
    }

    #[test]
    fn hops_accumulate_and_bound_end_to_end() {
        let t = Tracer::new();
        let id = t.trace_for_tick(Nanos::from_secs(1));
        let name: Arc<str> = Arc::from("sensor-hpc");
        t.record_hop(id, Stage::Sensor, &name, 100, 500);
        let name2: Arc<str> = Arc::from("reporter-memory");
        t.record_hop(id, Stage::Reporter, &name2, 50, 200);
        // Hops on the null trace are ignored silently; hops on unknown
        // (evicted) ids are counted.
        t.record_hop(TraceId::NONE, Stage::Other, &name, 1, 1);
        t.record_hop(TraceId(999), Stage::Other, &name, 1, 1);
        assert_eq!(t.hops_dropped(), 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].hops.len(), 2);
        assert_eq!(spans[0].hops[0].stage, Stage::Sensor);
        assert_eq!(spans[0].hops[1].queue_ns, 50);
        assert!(spans[0].end_to_end_ns() >= spans[0].hops[0].at_ns);
        // One tick traced, however many hops it took; its latency is its
        // last hop's.
        assert_eq!(t.end_to_end().count(), 1);
        assert_eq!(t.end_to_end().sum(), spans[0].hops[1].at_ns);
        assert_eq!(t.end_to_end().max(), spans[0].end_to_end_ns());
    }

    #[test]
    fn span_store_is_bounded() {
        let t = Tracer::new();
        for i in 0..(SPAN_CAP as u64 + 100) {
            t.trace_for_tick(Nanos(i + 1));
        }
        assert_eq!(t.span_count(), SPAN_CAP);
        assert_eq!(
            t.spans_evicted(),
            100,
            "evictions are counted, never silent"
        );
        // The oldest spans were evicted; the newest survive.
        let spans = t.spans();
        assert_eq!(spans.last().unwrap().tick_ts, Nanos(SPAN_CAP as u64 + 100));
    }

    #[test]
    fn stage_labels_and_indices_align() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.label().is_empty());
        }
        assert_eq!(Stage::default(), Stage::Other);
    }
}
