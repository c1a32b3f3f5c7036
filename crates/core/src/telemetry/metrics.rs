//! The metrics registry: counters, gauges and fixed-bucket latency
//! histograms on plain atomics — no external dependency, cheap enough to
//! leave enabled in production runs. Handles are `Arc`-backed clones;
//! after registration every update is lock-free.
//!
//! Naming follows the Prometheus convention: snake-case metric names with
//! optional `{label="value"}` suffixes, e.g.
//! `powerapi_actor_restarts_total{actor="sensor"}`. The full string is
//! the registry key; [`MetricsRegistry::render_prometheus`] groups series
//! of the same base name under one `# TYPE` header.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (nothing to write for 0, the usual delta of a rare event).
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge (e.g. live mailbox depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed bucket upper bounds for latency histograms, in nanoseconds:
/// 250 ns … 100 ms, roughly logarithmic. Values above the last bound land
/// in the implicit overflow bucket.
pub const LATENCY_BOUNDS_NS: [u64; 16] = [
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    25_000_000,
    100_000_000,
];

/// Bucket upper bounds for tick-denominated fleet lag/latency
/// histograms: 1 tick … 128 ticks, roughly logarithmic. A frame that
/// arrives the tick after it was sent has a lag of 1.
pub const TICK_BOUNDS: [u64; 14] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128];

/// Bucket upper bounds for small-count distributions (e.g. retransmit
/// attempts per delivered frame). Zero gets its own bucket so "delivered
/// first try" is directly readable from the dump.
pub const COUNT_BOUNDS: [u64; 8] = [0, 1, 2, 3, 4, 6, 8, 16];

#[derive(Debug)]
struct HistogramCore {
    bounds: &'static [u64],
    /// One slot per bound plus the overflow bucket; their total is the
    /// observation count, so `record` keeps no separate tally.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram (nanosecond latencies by default).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Creates a histogram over the standard latency buckets.
    pub fn latency() -> Histogram {
        Histogram::with_bounds(&LATENCY_BOUNDS_NS)
    }

    /// Creates a histogram over caller-chosen bucket upper bounds
    /// (ascending; values above the last bound land in the implicit
    /// overflow bucket). The unit is whatever the caller records —
    /// nanoseconds, fleet ticks, attempt counts.
    pub fn with_bounds(bounds: &'static [u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
        Histogram(Arc::new(HistogramCore {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    fn bucket(&self, v: u64) -> &AtomicU64 {
        let idx = self.0.bounds.partition_point(|&b| b < v);
        &self.0.counts[idx]
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value at the price of one:
    /// two atomic adds, and a third read-modify-write only when `v` is a
    /// new maximum.
    pub fn record_n(&self, v: u64, n: u64) {
        self.bucket(v).fetch_add(n, Ordering::Relaxed);
        self.0.sum.fetch_add(v * n, Ordering::Relaxed);
        if v > self.0.max.load(Ordering::Relaxed) {
            self.0.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Takes back an observation recorded earlier (a tracked quantity
    /// that moved: forget its old value, record the new one). The
    /// maximum is a high-water mark and stays.
    pub fn forget(&self, v: u64) {
        self.bucket(v).fetch_sub(1, Ordering::Relaxed);
        self.0.sum.fetch_sub(v, Ordering::Relaxed);
    }

    /// Adds every observation of `other` into this histogram: the merged
    /// buckets, sum and maximum are those of one histogram that had
    /// recorded both streams. Both must share the same bounds.
    pub fn absorb(&self, other: &Histogram) {
        debug_assert_eq!(self.0.bounds, other.0.bounds, "same bounds");
        for (mine, theirs) in self.0.counts.iter().zip(&other.0.counts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.0.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation seen.
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-th observation (the overflow bucket reports the observed max).
    ///
    /// An **empty** histogram has no observations to rank, so every
    /// quantile is defined as 0 — callers that must distinguish "no
    /// data" from "all samples were 0" check [`Histogram::count`] first
    /// (the metrics-line and Prometheus emitters both do).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, c) in self.0.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= rank {
                return if i < self.0.bounds.len() {
                    self.0.bounds[i]
                } else {
                    self.max()
                };
            }
        }
        self.max()
    }

    fn render_into(&self, base: &str, labels: &str, out: &mut String) {
        use std::fmt::Write;
        let mut cum = 0;
        for (i, &bound) in self.0.bounds.iter().enumerate() {
            cum += self.0.counts[i].load(Ordering::Relaxed);
            let sep = if labels.is_empty() { "" } else { "," };
            let _ = writeln!(out, "{base}_bucket{{{labels}{sep}le=\"{bound}\"}} {cum}");
        }
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(
            out,
            "{base}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count()
        );
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(out, "{base}_sum{suffix} {}", self.sum());
        let _ = writeln!(out, "{base}_count{suffix} {}", self.count());
        // Pre-computed quantiles beside the raw buckets, so a dump is
        // readable without a PromQL engine. Omitted while empty (an
        // all-zero quantile row would be indistinguishable from real
        // zero-valued samples — see `quantile`).
        if self.count() > 0 {
            for (q, v) in [
                ("p50", self.quantile(0.50)),
                ("p95", self.quantile(0.95)),
                ("p99", self.quantile(0.99)),
            ] {
                let _ = writeln!(out, "{base}_{q}{suffix} {v}");
            }
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The shared registry. Creation of a handle locks once; the returned
/// handle updates lock-free thereafter (re-registering a name returns the
/// existing series).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Registry>>,
}

/// Splits `powerapi_x_total{actor="hpc"}` into base name and label body.
fn split_name(full: &str) -> (&str, &str) {
    match full.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (full, ""),
    }
}

/// One-line `# HELP` text for a base name: the owning subsystem read off
/// the name's prefix. Every family the registry renders gets a header,
/// so a scraped dump names the layer each series belongs to without a
/// naming-convention decoder ring.
fn help_for(base: &str) -> &'static str {
    const SUBSYSTEMS: [(&str, &str); 8] = [
        (
            "powerapi_selfcost_",
            "self-cost ledger: the middleware pricing its own monitoring work",
        ),
        (
            "powerapi_model_",
            "model health: paired estimate/meter residuals and drift detectors",
        ),
        (
            "powerapi_fleet_",
            "fleet observability plane: frame transport between hosts and shards",
        ),
        (
            "powerapi_actor_",
            "actor runtime: per-actor mailbox and handler",
        ),
        ("powerapi_bus_", "event bus fan-out"),
        ("powerapi_sensor_", "sensing substrate"),
        ("powerapi_", "power monitoring pipeline"),
        ("", "application-registered series"),
    ];
    SUBSYSTEMS
        .iter()
        .find(|(prefix, _)| base.starts_with(prefix))
        .map(|(_, help)| *help)
        .unwrap_or("application-registered series")
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or fetches) a counter under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .lock()
            .expect("metrics registry")
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers (or fetches) a gauge under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .lock()
            .expect("metrics registry")
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers (or fetches) a latency histogram under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, &LATENCY_BOUNDS_NS)
    }

    /// Registers (or fetches) a histogram under `name` with explicit
    /// bucket bounds. First registration wins: a later call with
    /// different bounds returns the existing series unchanged (same
    /// rule as every other re-registration in this registry).
    pub fn histogram_with_bounds(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        self.inner
            .lock()
            .expect("metrics registry")
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Visits every counter whose full name starts with `prefix` as
    /// `(full_name, value)`, name-ordered. The registry stays locked for
    /// the walk, so `visit` must not register.
    pub fn for_each_counter(&self, prefix: &str, mut visit: impl FnMut(&str, u64)) {
        let reg = self.inner.lock().expect("metrics registry");
        let series = reg.counters.range::<str, _>((Included(prefix), Unbounded));
        for (name, c) in series.take_while(|(name, _)| name.starts_with(prefix)) {
            visit(name, c.get());
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (one `# TYPE` header per base name).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let reg = self.inner.lock().expect("metrics registry");
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, c) in &reg.counters {
            let (base, _) = split_name(name);
            if base != last_base {
                let _ = writeln!(out, "# HELP {base} {}", help_for(base));
                let _ = writeln!(out, "# TYPE {base} counter");
                last_base = base.to_string();
            }
            let _ = writeln!(out, "{name} {}", c.get());
        }
        last_base.clear();
        for (name, g) in &reg.gauges {
            let (base, _) = split_name(name);
            if base != last_base {
                let _ = writeln!(out, "# HELP {base} {}", help_for(base));
                let _ = writeln!(out, "# TYPE {base} gauge");
                last_base = base.to_string();
            }
            let _ = writeln!(out, "{name} {}", g.get());
        }
        last_base.clear();
        for (name, h) in &reg.histograms {
            let (base, labels) = split_name(name);
            if base != last_base {
                let _ = writeln!(out, "# HELP {base} {}", help_for(base));
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_base = base.to_string();
            }
            h.render_into(base, labels, &mut out);
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.inner.lock().expect("metrics registry");
        f.debug_struct("MetricsRegistry")
            .field("counters", &reg.counters.len())
            .field("gauges", &reg.gauges.len())
            .field("histograms", &reg.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("msgs_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same series.
        assert_eq!(reg.counter("msgs_total").get(), 5);
        let g = reg.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::latency();
        assert_eq!(h.quantile(0.5), 0, "empty");
        for v in [100, 200, 300, 400, 2_000, 200_000_000] {
            h.record(v);
        }
        // Several at once, and taking observations back.
        h.record_n(7_000, 3);
        for v in [7_000, 7_000, 7_000] {
            h.forget(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 200_000_000);
        assert_eq!(h.sum(), 200_003_000);
        // Half of the samples are ≤ 250 ns (bucket upper bound).
        assert_eq!(h.quantile(0.5), 500);
        // The tail sample lives in the overflow bucket → observed max.
        assert_eq!(h.quantile(1.0), 200_000_000);
        assert!(h.mean() > 0);
        // Two histograms absorbed read like one that recorded both.
        let (a, b, both) = (
            Histogram::latency(),
            Histogram::latency(),
            Histogram::latency(),
        );
        for (i, v) in [90, 600, 4_000, 30_000, 300_000_000]
            .into_iter()
            .enumerate()
        {
            [&a, &b][i % 2].record(v);
            both.record(v);
        }
        let merged = Histogram::latency();
        merged.absorb(&a);
        merged.absorb(&b);
        let text = |h: &Histogram| {
            let mut out = String::new();
            h.render_into("h", "", &mut out);
            out
        };
        assert_eq!(text(&merged), text(&both));
    }

    #[test]
    fn custom_bounds_histograms_and_quantile_lines() {
        let reg = MetricsRegistry::new();
        let lag = reg.histogram_with_bounds("powerapi_fleet_lag_ticks", &TICK_BOUNDS);
        // Empty histograms render buckets but no quantile rows.
        let dark = reg.render_prometheus();
        assert!(dark.contains("powerapi_fleet_lag_ticks_bucket{le=\"1\"} 0"));
        assert!(!dark.contains("powerapi_fleet_lag_ticks_p50"), "{dark}");
        for v in [1, 1, 2, 2, 2, 9] {
            lag.record(v);
        }
        // First registration wins: re-registering with other bounds
        // returns the same series.
        assert_eq!(
            reg.histogram_with_bounds("powerapi_fleet_lag_ticks", &COUNT_BOUNDS)
                .count(),
            6
        );
        let text = reg.render_prometheus();
        assert!(text.contains("powerapi_fleet_lag_ticks_bucket{le=\"2\"} 5"));
        assert!(text.contains("powerapi_fleet_lag_ticks_p50 2"), "{text}");
        assert!(text.contains("powerapi_fleet_lag_ticks_p95 12"), "{text}");
        assert!(text.contains("powerapi_fleet_lag_ticks_p99 12"), "{text}");
        // Count bounds give zero its own bucket.
        let retx = Histogram::with_bounds(&COUNT_BOUNDS);
        retx.record(0);
        retx.record(0);
        retx.record(3);
        assert_eq!(retx.quantile(0.5), 0);
        assert_eq!(retx.quantile(1.0), 3);
    }

    #[test]
    fn prometheus_render_groups_series() {
        let reg = MetricsRegistry::new();
        reg.counter("powerapi_sent_total{actor=\"a\"}").inc();
        reg.counter("powerapi_sent_total{actor=\"b\"}").add(2);
        reg.gauge("powerapi_depth{actor=\"a\"}").set(7);
        reg.histogram("powerapi_handle_ns{actor=\"a\"}").record(300);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE powerapi_sent_total counter").count(),
            1,
            "one TYPE line for both series:\n{text}"
        );
        assert!(text.contains("powerapi_sent_total{actor=\"a\"} 1"));
        assert!(text.contains("powerapi_sent_total{actor=\"b\"} 2"));
        assert!(text.contains("powerapi_depth{actor=\"a\"} 7"));
        assert!(text.contains("powerapi_handle_ns_bucket{actor=\"a\",le=\"500\"} 1"));
        assert!(text.contains("powerapi_handle_ns_count{actor=\"a\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        // Every TYPE header is immediately preceded by its HELP line for
        // the same base name, exactly once per family.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let base = rest.split(' ').next().expect("TYPE base name");
                let help = format!("# HELP {base} ");
                assert!(
                    i > 0 && lines[i - 1].starts_with(&help),
                    "TYPE for {base} not preceded by its HELP:\n{text}"
                );
                assert_eq!(
                    text.matches(help.as_str()).count(),
                    1,
                    "one HELP line per family:\n{text}"
                );
            }
        }
        assert!(
            text.contains("# HELP powerapi_sent_total power monitoring pipeline"),
            "{text}"
        );
    }
}
