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
pub use overhead::{OverheadProfiler, OverheadSummary, SELF_FORMULA, SELF_PID};
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

    /// The middleware-vs-host split: messages and handler ns summed over
    /// every actor's series, host time from the [`OverheadProfiler`].
    pub fn overhead_summary(&self) -> OverheadSummary {
        let (messages, busy_ns) = self.actors().iter().fold((0, 0), |(n, ns), a| {
            (n + a.handle_ns.count(), ns + a.handle_ns.sum())
        });
        self.inner.overhead.summary(messages, busy_ns)
    }

    /// The Prometheus text dump of every metric.
    pub fn render_prometheus(&self) -> String {
        self.inner.registry.render_prometheus()
    }

    /// Summarises everything recorded so far (stage breakdown, end-to-end
    /// latency, totals, overhead split, Prometheus dump).
    pub fn summary(&self) -> TelemetrySummary {
        if !self.inner.enabled {
            return TelemetrySummary::default();
        }
        let stages = Stage::ALL
            .iter()
            .map(|&s| StageLatency {
                stage: s.label(),
                latency: LatencyStats::of(&self.stage_latency(s)),
            })
            .filter(|s| s.latency.count > 0)
            .collect();
        let end_to_end = LatencyStats::of(self.inner.tracer.end_to_end());
        // Per-actor series of one family, summed.
        let sum_of = |family: &str| {
            let mut total = 0;
            self.inner
                .registry
                .for_each_counter(family, |_, v| total += v);
            total
        };
        let overhead = self.overhead_summary();
        TelemetrySummary {
            enabled: true,
            stages,
            end_to_end,
            ticks_traced: end_to_end.count,
            messages_handled: overhead.messages,
            restarts: sum_of("powerapi_actor_restarts_total"),
            panics: sum_of("powerapi_actor_panics_total"),
            journal_events: self.inner.journal.emitted(),
            journal_dropped: self.inner.journal.dropped(),
            overhead,
            prometheus: self.render_prometheus(),
        }
    }

    /// One JSON object summarising the current counters/latencies — the
    /// line [`report_telemetry_to`] streams per tick. Costs a walk of the
    /// histogram buckets and of the registry's counters and gauges,
    /// whatever the number of ticks traced so far.
    ///
    /// [`report_telemetry_to`]: crate::runtime::PowerApiBuilder::report_telemetry_to
    pub fn json_snapshot(&self, sim_time: Nanos) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"sim_time_s\":{:.3},\"enabled\":{}",
            sim_time.as_secs_f64(),
            self.inner.enabled
        );
        let e2e = self.inner.tracer.end_to_end();
        json_field(&mut out, &["ticks_traced"], e2e.count());
        json_field(&mut out, &["e2e_p50_ns"], e2e.quantile(0.5));
        json_field(&mut out, &["e2e_p95_ns"], e2e.quantile(0.95));
        for stage in Stage::ALL {
            let h = self.stage_latency(stage);
            let handled = h.count();
            if handled == 0 {
                continue;
            }
            json_field(&mut out, &[stage.label(), "_handled"], handled);
            json_field(&mut out, &[stage.label(), "_p50_ns"], h.quantile(0.5));
            json_field(&mut out, &[stage.label(), "_p95_ns"], h.quantile(0.95));
        }
        // Quantile trio matches the Prometheus dump's `_p50/_p95/_p99`
        // rows; omitted while empty (see `Histogram::quantile`).
        let lag = self.tick_lag();
        if lag.count() > 0 {
            json_field(&mut out, &["tick_lag_p50_ns"], lag.quantile(0.5));
            json_field(&mut out, &["tick_lag_p95_ns"], lag.quantile(0.95));
            json_field(&mut out, &["tick_lag_p99_ns"], lag.quantile(0.99));
        }
        // Model-health metrics, present once the residual monitor has
        // registered them (keys: model_residual_mw, model_bias_mw,
        // model_mae_mw, model_*_total).
        let registry = &self.inner.registry;
        registry.for_each_gauge("powerapi_model_", |name, v| {
            let _ = write!(out, ",\"{}\":{v}", &name["powerapi_".len()..]);
        });
        // Model-health counters, then the self-cost ledger's columns once
        // registered.
        for family in ["powerapi_model_", "powerapi_selfcost_"] {
            registry.for_each_counter(family, |name, v| {
                json_field(&mut out, &[&name["powerapi_".len()..]], v);
            });
        }
        let o = self.overhead_summary();
        json_field(&mut out, &["messages"], o.messages);
        json_field(&mut out, &["middleware_busy_ns"], o.middleware_busy_ns);
        let _ = write!(out, ",\"middleware_share\":{:.4}}}", o.middleware_share);
        out
    }
}

/// Appends `,"<key parts…>":<v>` to a JSON line. Digits by hand: the
/// line is written every tick from the tick loop's own thread, and
/// `core::fmt` was half of what its thirty-odd integers cost.
fn json_field(out: &mut String, key: &[&str], v: u64) {
    out.push_str(",\"");
    key.iter().for_each(|part| out.push_str(part));
    out.push_str("\":");
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled)
            .field("registry", &self.inner.registry)
            .finish()
    }
}

/// Latency distribution digest (histogram-bucket estimates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Number of observations.
    pub count: u64,
    /// Mean, ns.
    pub mean_ns: u64,
    /// Median estimate, ns.
    pub p50_ns: u64,
    /// 95th-percentile estimate, ns.
    pub p95_ns: u64,
    /// Observed maximum, ns.
    pub max_ns: u64,
}

impl LatencyStats {
    fn of(h: &Histogram) -> LatencyStats {
        LatencyStats {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.5),
            p95_ns: h.quantile(0.95),
            max_ns: h.max(),
        }
    }
}

/// One stage's latency digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLatency {
    /// Stage label (`sensor`, `formula`, `aggregator`, `reporter`, …).
    pub stage: &'static str,
    /// Handle-latency digest.
    pub latency: LatencyStats,
}

/// Everything the hub observed over a run — attached to
/// [`RunOutcome::telemetry`].
///
/// [`RunOutcome::telemetry`]: crate::runtime::RunOutcome
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySummary {
    /// Whether telemetry was recording (all-zero digest otherwise).
    pub enabled: bool,
    /// Per-stage handle-latency breakdown (stages with traffic only).
    pub stages: Vec<StageLatency>,
    /// Tick-publish → last-reporter-hop latency digest.
    pub end_to_end: LatencyStats,
    /// Ticks that produced at least one traced hop.
    pub ticks_traced: u64,
    /// Messages handled across all actors.
    pub messages_handled: u64,
    /// Supervised restarts.
    pub restarts: u64,
    /// Panics caught in handlers.
    pub panics: u64,
    /// Flight-recorder events emitted (including since-shed ones).
    pub journal_events: u64,
    /// Flight-recorder events shed by the bounded ring.
    pub journal_dropped: u64,
    /// Middleware-vs-host busy-time split.
    pub overhead: OverheadSummary,
    /// Prometheus text dump of every metric at shutdown.
    pub prometheus: String,
}

impl TelemetrySummary {
    /// The digest of one stage, if it saw traffic.
    pub fn stage(&self, label: &str) -> Option<&StageLatency> {
        self.stages.iter().find(|s| s.stage == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_returns_null_traces_and_empty_summary() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert_eq!(t.trace_for_tick(Nanos::from_secs(1)), TraceId::NONE);
        let s = t.summary();
        assert!(!s.enabled);
        assert!(s.stages.is_empty());
        assert_eq!(s, TelemetrySummary::default());
    }

    #[test]
    fn enabled_hub_summarises_stage_traffic() {
        let t = Telemetry::new();
        let id = t.trace_for_tick(Nanos::from_secs(1));
        assert!(id.is_traced());
        let name: Arc<str> = Arc::from("sensor-hpc");
        let (sensor, _) = t.actor_series(&name, Stage::Sensor);
        sensor.record(400);
        sensor.record(600);
        let (reporter, _) = t.actor_series(&Arc::from("csv"), Stage::Reporter);
        reporter.record(100);
        t.tracer().record_hop(id, Stage::Sensor, &name, 10, 400);
        let s = t.summary();
        assert!(s.enabled);
        assert_eq!(s.stage("sensor").unwrap().latency.count, 2);
        assert_eq!(s.stage("reporter").unwrap().latency.count, 1);
        assert!(s.stage("formula").is_none(), "no traffic, no entry");
        assert_eq!(s.ticks_traced, 1);
        assert!(s.end_to_end.max_ns > 0);
        assert!(s.prometheus.contains("powerapi_actor_handle_ns"));
        assert_eq!(s.messages_handled, 3);
        assert_eq!(s.overhead.messages, 3);
        assert_eq!(s.overhead.middleware_busy_ns, 1_100);
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
        let s = t.summary();
        assert_eq!(s.journal_events, 1);
        assert_eq!(s.journal_dropped, 0);
        assert!(
            s.prometheus.contains("powerapi_journal_events_total 1"),
            "{}",
            s.prometheus
        );
        assert!(s
            .prometheus
            .contains("powerapi_trace_spans_evicted_total 0"));
        assert!(s.prometheus.contains("powerapi_trace_hops_dropped_total 0"));
        assert!(!Telemetry::disabled().journal().enabled());
    }

    #[test]
    fn json_fields_spell_every_integer() {
        let mut out = String::new();
        json_field(&mut out, &["a"], 0);
        json_field(&mut out, &["b", "_", "c"], 9_007);
        json_field(&mut out, &["max"], u64::MAX);
        assert_eq!(out, format!(",\"a\":0,\"b_c\":9007,\"max\":{}", u64::MAX));
    }

    #[test]
    fn json_snapshot_is_one_flat_object() {
        let t = Telemetry::new();
        let (handle_ns, queue_ns) = t.actor_series(&Arc::from("sensor"), Stage::Sensor);
        handle_ns.record(500);
        queue_ns.record(1_000);
        let line = t.json_snapshot(Nanos::from_millis(1500));
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"sim_time_s\":1.500"), "{line}");
        assert!(line.contains("\"sensor_handled\":1"), "{line}");
        assert!(line.contains("\"tick_lag_p50_ns\":"), "{line}");
        assert!(line.contains("\"tick_lag_p95_ns\":"), "{line}");
        assert!(line.contains("\"tick_lag_p99_ns\":"), "{line}");
        assert_eq!(line.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_snapshot_carries_the_selfcost_columns() {
        let t = Telemetry::new();
        t.registry().counter("powerapi_selfcost_ticks_total").add(7);
        let line = t.json_snapshot(Nanos::from_secs(1));
        assert!(line.contains("\"selfcost_ticks_total\":7"), "{line}");
        assert_eq!(line.matches('"').count() % 2, 0, "valid quoting: {line}");
    }
}
