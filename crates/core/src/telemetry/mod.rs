//! Pipeline observability: a metrics registry ([`metrics`]), span-style
//! tracing ([`trace`]) and self-overhead profiling ([`overhead`]) for the
//! Sensor → Formula → Aggregator → Reporter pipeline. One [`Telemetry`]
//! hub is shared by every actor (via its [`Context`]), the bus, the host
//! and the runtime; everything hangs off cheap `Arc` clones.
//!
//! The hub has an *enabled* flag baked in at construction: a disabled hub
//! ([`Telemetry::disabled`]) skips every clock read and every record, so
//! the hot path costs one branch — measured end to end by the
//! `e8_overhead` experiment (<3% wall time on the E3 replay).
//!
//! [`Context`]: crate::actor::Context

pub mod export;
pub mod journal;
pub mod metrics;
pub mod overhead;
pub mod trace;

pub use export::{
    chrome_trace, dump_jsonl, parse_jsonl, write_post_mortem, PostMortemReport, FLEET_PID_BASE,
};
pub use journal::{EventKind, Journal, JournalEvent, Severity, JOURNAL_CAP};
pub use metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, COUNT_BOUNDS, LATENCY_BOUNDS_NS, TICK_BOUNDS,
};
pub use overhead::{OverheadProfiler, SELF_FORMULA, SELF_PID};
pub use trace::{Hop, Stage, TraceId, TraceSpan, Tracer};

use simcpu::units::Nanos;
use std::sync::{Arc, Mutex, MutexGuard};

struct TelemetryInner {
    enabled: bool,
    registry: MetricsRegistry,
    tracer: Tracer,
    journal: Journal,
    overhead: OverheadProfiler,
    /// The one record the actor loop writes per message, one entry per
    /// distinct actor name. Every per-stage, message-count, busy-time
    /// and tick-lag figure is a view read from it.
    actors: Mutex<Vec<ActorSeries>>,
}

/// One actor's per-message record: the stage it was spawned into and
/// its handle- and queue-latency series.
struct ActorSeries {
    name: Arc<str>,
    stage: Stage,
    handle_ns: Histogram,
    queue_ns: Histogram,
}

/// The shared observability hub.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

impl Telemetry {
    fn build(enabled: bool) -> Telemetry {
        let registry = MetricsRegistry::new();
        let tracer = Tracer::with_counters(
            registry.counter("powerapi_trace_spans_evicted_total"),
            registry.counter("powerapi_trace_hops_dropped_total"),
        );
        let journal = Journal::new(
            enabled,
            JOURNAL_CAP,
            registry.counter("powerapi_journal_events_total"),
            registry.counter("powerapi_journal_dropped_total"),
        );
        Telemetry {
            inner: Arc::new(TelemetryInner {
                enabled,
                registry,
                tracer,
                journal,
                overhead: OverheadProfiler::default(),
                actors: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An active hub.
    pub fn new() -> Telemetry {
        Telemetry::build(true)
    }

    /// A no-op hub: every record is skipped, every trace id is
    /// [`TraceId::NONE`].
    pub fn disabled() -> Telemetry {
        Telemetry::build(false)
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The flight-recorder event journal (disabled when the hub is).
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// The self-overhead profiler.
    pub fn overhead(&self) -> &OverheadProfiler {
        &self.inner.overhead
    }

    /// Assigns (or returns) the trace id for a tick timestamp —
    /// [`TraceId::NONE`] when disabled. Sensors call this to stamp the
    /// reports they publish.
    pub fn trace_for_tick(&self, ts: Nanos) -> TraceId {
        if !self.inner.enabled {
            return TraceId::NONE;
        }
        self.inner.tracer.trace_for_tick(ts)
    }

    /// Registers the per-message record of the actor `name` in `stage`,
    /// `powerapi_actor_{handle,queue}_ns{actor="name"}`, and returns the
    /// two series. A name spawned again shares the first spawn's series
    /// and stage, so each message counts once.
    pub(crate) fn actor_series(&self, name: &Arc<str>, stage: Stage) -> (Histogram, Histogram) {
        let series = |family: &str| {
            self.inner
                .registry
                .histogram(&format!("powerapi_actor_{family}{{actor=\"{name}\"}}"))
        };
        let (handle_ns, queue_ns) = (series("handle_ns"), series("queue_ns"));
        let mut actors = self.actors();
        if actors.iter().all(|a| a.name != *name) {
            actors.push(ActorSeries {
                name: name.clone(),
                stage,
                handle_ns: handle_ns.clone(),
                queue_ns: queue_ns.clone(),
            });
        }
        (handle_ns, queue_ns)
    }

    fn actors(&self) -> MutexGuard<'_, Vec<ActorSeries>> {
        // Nothing panics while holding it.
        self.inner.actors.lock().expect("the hub's actor list")
    }

    /// The series `pick` takes from each actor of `stage`, merged.
    fn merged(&self, stage: Stage, pick: fn(&ActorSeries) -> &Histogram) -> Histogram {
        let merged = Histogram::latency();
        for a in self.actors().iter().filter(|a| a.stage == stage) {
            merged.absorb(pick(a));
        }
        merged
    }

    /// The handle latency of every actor spawned into `stage`, merged.
    pub fn stage_latency(&self, stage: Stage) -> Histogram {
        self.merged(stage, |a| &a.handle_ns)
    }

    /// The queue wait of the sensor-stage actors, merged — they receive
    /// only tick frames, so this is how far sensing lags the clock.
    pub fn tick_lag(&self) -> Histogram {
        self.merged(Stage::Sensor, |a| &a.queue_ns)
    }

    /// Messages handled and handler wall ns, summed over every actor's
    /// handle series: the middleware's own busy time. The host side's
    /// time is the [`OverheadProfiler`]'s.
    pub fn handle_totals(&self) -> (u64, u64) {
        self.actors().iter().fold((0, 0), |(n, ns), a| {
            (n + a.handle_ns.count(), ns + a.handle_ns.sum())
        })
    }

    /// The Prometheus text dump of every metric; empty on a dark hub,
    /// which exports nothing.
    pub fn render_prometheus(&self) -> String {
        if !self.inner.enabled {
            return String::new();
        }
        self.inner.registry.render_prometheus()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled)
            .field("registry", &self.inner.registry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Σ of the `powerapi_actor_handle_ns_count` rows of a dump.
    fn rendered_handle_count(prom: &str) -> u64 {
        prom.lines()
            .filter(|l| l.starts_with("powerapi_actor_handle_ns_count{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    }

    #[test]
    fn a_dark_hub_reads_zero_everywhere_and_renders_no_family() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert_eq!(t.trace_for_tick(Nanos::from_secs(1)), TraceId::NONE);
        // A record a dark pipeline still keeps (model health's counters)
        // is not exported either.
        t.registry()
            .counter("powerapi_model_residual_ticks_total")
            .inc();
        assert_eq!(t.handle_totals(), (0, 0));
        assert!(Stage::ALL.iter().all(|&s| t.stage_latency(s).count() == 0));
        assert_eq!(t.tick_lag().count(), 0);
        assert_eq!(t.tracer().end_to_end().count(), 0);
        assert_eq!((t.journal().emitted(), t.journal().dropped()), (0, 0));
        assert_eq!(t.render_prometheus(), "");
    }

    #[test]
    fn stage_and_total_views_read_the_actor_series() {
        let t = Telemetry::new();
        let id = t.trace_for_tick(Nanos::from_secs(1));
        assert!(id.is_traced());
        let name: Arc<str> = Arc::from("sensor-hpc");
        let (sensor, queue) = t.actor_series(&name, Stage::Sensor);
        sensor.record(400);
        sensor.record(600);
        queue.record(50);
        let (reporter, _) = t.actor_series(&Arc::from("csv"), Stage::Reporter);
        reporter.record(100);
        // A respawn under the same name shares the first spawn's series.
        let (again, _) = t.actor_series(&name, Stage::Formula);
        again.record(900);
        t.tracer().record_hop(id, Stage::Sensor, &name, 10, 400);

        assert_eq!(t.handle_totals(), (4, 2_000));
        assert_eq!(t.stage_latency(Stage::Sensor).count(), 3);
        assert_eq!(t.stage_latency(Stage::Reporter).count(), 1);
        assert_eq!(
            t.stage_latency(Stage::Formula).count(),
            0,
            "no actor of its own"
        );
        let by_stage: u64 = Stage::ALL.iter().map(|&s| t.stage_latency(s).count()).sum();
        assert_eq!(by_stage, t.handle_totals().0, "each message counts once");
        assert_eq!(t.tick_lag().sum(), 50);
        assert_eq!(t.tracer().end_to_end().count(), 1);
        let prom = t.render_prometheus();
        assert_eq!(rendered_handle_count(&prom), t.handle_totals().0, "{prom}");
    }

    #[test]
    fn hub_journal_shares_the_registry_counters() {
        let t = Telemetry::new();
        assert!(t.journal().enabled());
        t.journal().emit(
            EventKind::ActorStart,
            "sensor-hpc",
            "spawned",
            TraceId::NONE,
        );
        assert_eq!((t.journal().emitted(), t.journal().dropped()), (1, 0));
        let prom = t.render_prometheus();
        assert!(prom.contains("powerapi_journal_events_total 1"), "{prom}");
        assert!(prom.contains("powerapi_trace_spans_evicted_total 0"));
        assert!(prom.contains("powerapi_trace_hops_dropped_total 0"));
        assert!(!Telemetry::disabled().journal().enabled());
    }
}
