//! Model-health observability: is the learned power model still right?
//!
//! The pipeline already holds everything needed to answer that online, at
//! zero extra hardware cost: every tick the Aggregator publishes a
//! machine-level estimate while the PowerSpy feed publishes metered
//! watts. Their difference — the **machine residual** — needs no ground
//! truth beyond the wall meter the paper already deploys, and it drifts
//! exactly when the model goes stale (e.g. the simulated silicon's
//! temperature-dependent leakage, a term a cold calibration never saw).
//!
//! The [`ResidualMonitor`] actor pairs the two streams by timestamp and
//! maintains streaming statistics (EWMA bias, EWMA absolute error) plus
//! two independent change detectors from `mathkit` — CUSUM and
//! Page–Hinkley — tuned so stationary meter noise never alarms while the
//! thermal-leakage ramp is caught within a few time constants. Alarms
//! fire a [`RecalibrationTrigger`] and everything is exported through the
//! shared [`MetricsRegistry`].
//!
//! The tuning is fixed: the constants below are the values E9 and E15
//! run with (DESIGN.md "Fixed constants" says why each is what it is),
//! sized for the simulated i3 rig — PowerSpy noise σ ≈ 0.35 W at 1 Hz, a
//! model whose stationary fit bias reaches ≈ 4 W at full co-run load, and
//! thermal leakage drifting it ≈ 15–18 W with a 30 s time constant.
//!
//! When model health is *not* enabled (the default), none of this exists:
//! no actor is spawned, the formula actor holds no handle, and the hot
//! path gains no clock reads or allocations.
//!
//! [`RecalibrationTrigger`]: crate::control::RecalibrationTrigger
//! [`MetricsRegistry`]: crate::telemetry::MetricsRegistry

use crate::actor::{Actor, Context};
use crate::control::RecalibrationTrigger;
use crate::msg::{Message, Scope};
use crate::telemetry::metrics::{Counter, Gauge, MetricsRegistry};
use crate::telemetry::{EventKind, TraceId};
use mathkit::changepoint::{Cusum, PageHinkley};
use simcpu::units::{Nanos, Watts};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Prediction intervals are quoted at this many residual standard
/// deviations (≈95 % coverage under the Gaussian calibration residuals).
pub const PREDICTION_Z: f64 = 2.0;

/// EWMA smoothing factor for the residual bias and MAE.
pub const EWMA_ALPHA: f64 = 0.2;

/// CUSUM slack `k`, watts: residual deviations below it are noise.
pub const CUSUM_SLACK_W: f64 = 5.0;

/// CUSUM alarm threshold `h`, watts of accumulated excess deviation.
pub const CUSUM_THRESHOLD_W: f64 = 15.0;

/// Page–Hinkley tolerance δ, watts.
pub const PH_DELTA_W: f64 = 1.5;

/// Page–Hinkley alarm threshold λ, watts.
pub const PH_LAMBDA_W: f64 = 45.0;

/// Margin added to the reported prediction band before a residual counts
/// as out of band (meter noise, which calibration residuals omit).
pub const BAND_MARGIN_W: f64 = 1.5;

/// Residual samples observed before the detectors may alarm.
pub const WARMUP_TICKS: u64 = 3;

/// How far apart an estimate and a meter sample may be and still pair.
pub const PAIR_WINDOW: Nanos = Nanos::from_millis(1500);

/// Meter samples buffered while waiting for their matching estimate.
pub const METER_BUFFER: usize = 16;

/// What a run's model-health tracking observed, for [`RunOutcome`].
///
/// [`RunOutcome`]: crate::runtime::RunOutcome
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelHealthSummary {
    /// Paired estimate/meter residual samples processed.
    pub ticks: u64,
    /// Drift alarms raised (CUSUM or Page–Hinkley).
    pub alarms: u64,
    /// Ticks whose residual exceeded the prediction band.
    pub out_of_band_ticks: u64,
    /// Recalibration requests accepted by the trigger (≤ `alarms`; the
    /// cooldown collapses alarm bursts). Filled in by the runtime — 0
    /// when no trigger was wired.
    pub recalibrations: u64,
    /// Final EWMA of the signed residual (estimate − meter), watts.
    pub bias_w: f64,
    /// Final EWMA of the absolute residual, watts.
    pub mae_w: f64,
    /// The last residual observed, watts.
    pub last_residual_w: f64,
    /// Simulated time of the first drift alarm, if any.
    pub first_alarm_s: Option<f64>,
}

#[derive(Debug)]
struct HealthShared {
    /// `powerapi_model_residual_ticks_total`: residual pairs scored.
    ticks: Counter,
    /// `powerapi_model_drift_alarms_total`: alarms raised.
    alarms: Counter,
    /// `powerapi_model_out_of_band_total`: pairs outside the band.
    out_of_band_ticks: Counter,
    out_of_band: AtomicBool,
    residual_uw: AtomicI64,
    /// Effective out-of-band envelope (band + margin) at the last pair.
    band_uw: AtomicI64,
    bias_uw: AtomicI64,
    mae_uw: AtomicI64,
    /// `u64::MAX` = no alarm yet.
    first_alarm_ns: AtomicU64,
}

/// Shared, lock-free view of model health. Clones are cheap handles onto
/// one state; the monitor writes, the formula actor and `RunOutcome`
/// read. Its counts are the registry's `powerapi_model_*_total` counters:
/// one record, bumped once per paired tick.
#[derive(Debug, Clone)]
pub struct ModelHealth {
    inner: Arc<HealthShared>,
}

fn uw(w: f64) -> i64 {
    (w * 1e6) as i64
}

impl ModelHealth {
    /// Creates a fresh (healthy) state whose counts are `registry`'s
    /// model-health counters.
    pub fn new(registry: &MetricsRegistry) -> ModelHealth {
        ModelHealth {
            inner: Arc::new(HealthShared {
                ticks: registry.counter("powerapi_model_residual_ticks_total"),
                alarms: registry.counter("powerapi_model_drift_alarms_total"),
                out_of_band_ticks: registry.counter("powerapi_model_out_of_band_total"),
                out_of_band: AtomicBool::new(false),
                residual_uw: AtomicI64::new(0),
                band_uw: AtomicI64::new(0),
                bias_uw: AtomicI64::new(0),
                mae_uw: AtomicI64::new(0),
                first_alarm_ns: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Whether the live residual currently sits outside the prediction
    /// band (the formula actor downgrades its estimates while this holds).
    pub fn out_of_band(&self) -> bool {
        self.inner.out_of_band.load(Ordering::Relaxed)
    }

    /// Drift alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.inner.alarms.get()
    }

    /// How far through the out-of-band envelope the live residual sits:
    /// `|residual| / (band + margin)`, 0.0 before the first pair (or with
    /// a degenerate band). 1.0 is the out-of-band threshold itself; the
    /// sampling controller snaps back to full rate well before that, so a
    /// stretched monitoring period never starves the drift detectors of
    /// the residual ticks they accumulate over.
    pub fn band_fraction(&self) -> f64 {
        let band = self.inner.band_uw.load(Ordering::Relaxed);
        if band <= 0 {
            return 0.0;
        }
        let r = self
            .inner
            .residual_uw
            .load(Ordering::Relaxed)
            .unsigned_abs();
        r as f64 / band as f64
    }

    pub(crate) fn record_residual(
        &self,
        residual_w: f64,
        bias_w: f64,
        mae_w: f64,
        band_eff_w: f64,
        out_of_band: bool,
    ) {
        let s = &self.inner;
        s.ticks.inc();
        s.residual_uw.store(uw(residual_w), Ordering::Relaxed);
        s.band_uw.store(uw(band_eff_w), Ordering::Relaxed);
        s.bias_uw.store(uw(bias_w), Ordering::Relaxed);
        s.mae_uw.store(uw(mae_w), Ordering::Relaxed);
        s.out_of_band.store(out_of_band, Ordering::Relaxed);
        if out_of_band {
            s.out_of_band_ticks.inc();
        }
    }

    pub(crate) fn record_alarm(&self, at: Nanos) {
        self.inner.alarms.inc();
        let _ = self.inner.first_alarm_ns.compare_exchange(
            u64::MAX,
            at.as_u64(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Snapshot for `RunOutcome`.
    pub fn summary(&self) -> ModelHealthSummary {
        let s = &self.inner;
        let first = s.first_alarm_ns.load(Ordering::Relaxed);
        ModelHealthSummary {
            ticks: s.ticks.get(),
            alarms: s.alarms.get(),
            out_of_band_ticks: s.out_of_band_ticks.get(),
            recalibrations: 0,
            bias_w: s.bias_uw.load(Ordering::Relaxed) as f64 / 1e6,
            mae_w: s.mae_uw.load(Ordering::Relaxed) as f64 / 1e6,
            last_residual_w: s.residual_uw.load(Ordering::Relaxed) as f64 / 1e6,
            first_alarm_s: (first != u64::MAX).then(|| Nanos(first).as_secs_f64()),
        }
    }
}

/// The registry handles the monitor updates every paired tick besides
/// [`ModelHealth`]'s counts (created once, on the first message, so
/// construction stays `Context`-free).
struct HealthMetrics {
    residual_mw: Gauge,
    bias_mw: Gauge,
    mae_mw: Gauge,
    recalibrations_total: Counter,
}

impl HealthMetrics {
    fn register(ctx: &Context) -> HealthMetrics {
        let reg = ctx.telemetry().registry();
        HealthMetrics {
            residual_mw: reg.gauge("powerapi_model_residual_mw"),
            bias_mw: reg.gauge("powerapi_model_bias_mw"),
            mae_mw: reg.gauge("powerapi_model_mae_mw"),
            recalibrations_total: reg.counter("powerapi_model_recalibrations_total"),
        }
    }
}

/// The monitor actor. Subscribe it to [`Topic::Aggregate`] and
/// [`Topic::Meter`].
///
/// [`Topic::Aggregate`]: crate::msg::Topic::Aggregate
/// [`Topic::Meter`]: crate::msg::Topic::Meter
pub struct ResidualMonitor {
    health: ModelHealth,
    trigger: Option<RecalibrationTrigger>,
    cusum: Cusum,
    ph: PageHinkley,
    /// Meter samples awaiting their matching estimate (bounded; pushes
    /// after warm-up never allocate).
    meter: VecDeque<(Nanos, Watts)>,
    ticks: u64,
    bias: f64,
    mae: f64,
    metrics: Option<HealthMetrics>,
}

impl ResidualMonitor {
    /// Builds the monitor writing `health`, firing `trigger` on alarms.
    pub fn new(health: ModelHealth, trigger: Option<RecalibrationTrigger>) -> ResidualMonitor {
        ResidualMonitor {
            health,
            trigger,
            cusum: Cusum::new(0.0, CUSUM_SLACK_W, CUSUM_THRESHOLD_W)
                .expect("valid CUSUM constants"),
            ph: PageHinkley::new(PH_DELTA_W, PH_LAMBDA_W).expect("valid Page-Hinkley constants"),
            meter: VecDeque::with_capacity(METER_BUFFER),
            ticks: 0,
            bias: 0.0,
            mae: 0.0,
            metrics: None,
        }
    }

    /// The shared health handle this monitor writes.
    pub fn health(&self) -> &ModelHealth {
        &self.health
    }

    /// Pops the buffered meter sample closest to `ts` within the pairing
    /// window.
    fn take_meter_near(&mut self, ts: Nanos) -> Option<Watts> {
        let window = PAIR_WINDOW.as_u64();
        let (idx, _) = self
            .meter
            .iter()
            .enumerate()
            .map(|(i, (at, _))| (i, at.as_u64().abs_diff(ts.as_u64())))
            .min_by_key(|&(_, d)| d)
            .filter(|&(_, d)| d <= window)?;
        self.meter.remove(idx).map(|(_, w)| w)
    }

    fn on_residual(
        &mut self,
        at: Nanos,
        residual_w: f64,
        band_w: f64,
        trace: TraceId,
        ctx: &Context,
    ) {
        self.ticks += 1;
        if self.ticks == 1 {
            self.bias = residual_w;
            self.mae = residual_w.abs();
        } else {
            self.bias += EWMA_ALPHA * (residual_w - self.bias);
            self.mae += EWMA_ALPHA * (residual_w.abs() - self.mae);
        }
        let band_eff = band_w + BAND_MARGIN_W;
        let out_of_band = residual_w.abs() > band_eff;
        self.health
            .record_residual(residual_w, self.bias, self.mae, band_eff, out_of_band);

        let mut alarmed = false;
        if self.ticks > WARMUP_TICKS {
            // The detectors only refuse non-finite samples, which the
            // caller already filtered.
            alarmed |= self.cusum.update(residual_w).unwrap_or(false);
            alarmed |= self.ph.update(residual_w).unwrap_or(false);
        }

        let metrics = self
            .metrics
            .get_or_insert_with(|| HealthMetrics::register(ctx));
        metrics.residual_mw.set((residual_w * 1e3) as i64);
        metrics.bias_mw.set((self.bias * 1e3) as i64);
        metrics.mae_mw.set((self.mae * 1e3) as i64);
        if alarmed {
            self.health.record_alarm(at);
            ctx.telemetry().journal().emit_at(
                at,
                EventKind::DriftAlarm,
                ctx.name(),
                format!(
                    "residual {residual_w:+.2} W (bias {:+.2} W, mae {:.2} W)",
                    self.bias, self.mae
                ),
                trace,
            );
            if let Some(trigger) = &self.trigger {
                if trigger.fire(at) {
                    metrics.recalibrations_total.inc();
                    ctx.telemetry().journal().emit_at(
                        at,
                        EventKind::Recalibration,
                        ctx.name(),
                        "drift alarm latched a recalibration request",
                        trace,
                    );
                }
            }
        }
    }
}

impl Actor for ResidualMonitor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        match msg {
            Message::Meter(at, w) => {
                if self.meter.len() == METER_BUFFER {
                    self.meter.pop_front();
                }
                self.meter.push_back((at, w));
            }
            Message::AggregateBatch(b) => {
                for a in b.reports.iter().filter(|a| a.scope == Scope::Machine) {
                    if let Some(metered) = self.take_meter_near(a.timestamp) {
                        let residual = a.power.as_f64() - metered.as_f64();
                        if residual.is_finite() {
                            self.on_residual(
                                a.timestamp,
                                residual,
                                a.band_w.as_f64(),
                                a.trace,
                                ctx,
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for ResidualMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualMonitor")
            .field("ticks", &self.ticks)
            .field("bias_w", &self.bias)
            .field("mae_w", &self.mae)
            .field("alarms", &self.health.alarms())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::msg::{AggregateReport, Quality, Topic};
    use crate::telemetry::TraceId;

    fn aggregate(ts_s: u64, w: f64, band: f64) -> Message {
        Message::aggregates(
            vec![AggregateReport {
                timestamp: Nanos::from_secs(ts_s),
                scope: Scope::Machine,
                power: Watts(w),
                band_w: Watts(band),
                quality: Quality::Full,
                trace: TraceId::NONE,
            }],
            TraceId::NONE,
        )
    }

    fn run_pairs(pairs: &[(f64, f64)], band: f64) -> (ModelHealthSummary, u64) {
        let health = ModelHealth::new(&MetricsRegistry::new());
        let trigger = RecalibrationTrigger::new();
        let monitor = ResidualMonitor::new(health.clone(), Some(trigger.clone()));
        let mut sys = ActorSystem::new();
        let m = sys.spawn("model-health", Box::new(monitor));
        sys.bus().subscribe(Topic::Aggregate, &m);
        sys.bus().subscribe(Topic::Meter, &m);
        for (i, &(est, met)) in pairs.iter().enumerate() {
            let ts = (i + 1) as u64;
            sys.bus()
                .publish(Message::Meter(Nanos::from_secs(ts), Watts(met)));
            sys.bus().publish(aggregate(ts, est, band));
        }
        sys.shutdown();
        (health.summary(), trigger.fired())
    }

    #[test]
    fn stationary_residual_never_alarms() {
        // ±0.3 W of "meter noise" around a perfect estimate.
        let pairs: Vec<(f64, f64)> = (0..120)
            .map(|i| {
                let noise = if i % 2 == 0 { 0.3 } else { -0.3 };
                (36.0, 36.0 + noise)
            })
            .collect();
        let (summary, fired) = run_pairs(&pairs, 1.0);
        assert_eq!(summary.ticks, 120);
        assert_eq!(summary.alarms, 0);
        assert_eq!(fired, 0);
        assert_eq!(summary.out_of_band_ticks, 0);
        assert!(summary.mae_w < 0.5, "mae = {}", summary.mae_w);
    }

    #[test]
    fn sustained_drift_alarms_and_fires_trigger() {
        // 30 clean ticks, then the meter runs 12 W above the estimate
        // (the thermal-leakage signature: estimate − meter goes negative).
        let mut pairs: Vec<(f64, f64)> = (0..30).map(|_| (36.0, 36.0)).collect();
        pairs.extend((0..30).map(|_| (36.0, 48.0)));
        let (summary, fired) = run_pairs(&pairs, 1.0);
        assert!(summary.alarms >= 1, "drift must alarm: {summary:?}");
        assert!(fired >= 1, "trigger must fire");
        let first = summary.first_alarm_s.expect("alarm timestamp recorded");
        // Drift starts at tick 31; CUSUM accumulates 12 − 5 W a tick and
        // crosses 15 W on the third.
        assert!(
            (31.0..40.0).contains(&first),
            "first alarm at {first}s should closely follow drift onset"
        );
        assert!(summary.out_of_band_ticks >= 25, "12 W >> 1 W band + margin");
        assert!(summary.bias_w < -2.0, "bias tracks the signed residual");
    }

    #[test]
    fn out_of_band_respects_reported_band() {
        // 2.2 W residual, 1.5 W margin: out of band with a 0.5 W band,
        // inside with a 3 W band.
        let pairs: Vec<(f64, f64)> = (0..10).map(|_| (38.2, 36.0)).collect();
        let (narrow, _) = run_pairs(&pairs, 0.5);
        assert_eq!(narrow.out_of_band_ticks, 10);
        let (wide, _) = run_pairs(&pairs, 3.0);
        assert_eq!(wide.out_of_band_ticks, 0);
    }

    #[test]
    fn unpaired_streams_produce_no_residuals() {
        let health = ModelHealth::new(&MetricsRegistry::new());
        let monitor = ResidualMonitor::new(health.clone(), None);
        let mut sys = ActorSystem::new();
        let m = sys.spawn("model-health", Box::new(monitor));
        sys.bus().subscribe(Topic::Aggregate, &m);
        sys.bus().subscribe(Topic::Meter, &m);
        // A meter sample 10 s away from the estimate: outside the window.
        sys.bus()
            .publish(Message::Meter(Nanos::from_secs(1), Watts(36.0)));
        sys.bus().publish(aggregate(11, 36.0, 1.0));
        sys.shutdown();
        assert_eq!(health.summary(), ModelHealthSummary::default());
    }

    #[test]
    fn meter_buffer_is_bounded() {
        let monitor = ResidualMonitor::new(ModelHealth::new(&MetricsRegistry::new()), None);
        let mut sys = ActorSystem::new();
        let m = sys.spawn("model-health", Box::new(monitor));
        sys.bus().subscribe(Topic::Meter, &m);
        for i in 0..100 {
            sys.bus()
                .publish(Message::Meter(Nanos::from_secs(i), Watts(1.0)));
        }
        sys.shutdown();
        // Nothing to assert through the public API beyond "no panic/OOM":
        // the deque is popped before every push once it reaches capacity,
        // so a long meter stream cannot grow it.
    }

    #[test]
    fn summary_roundtrips_through_shared_handle() {
        let reg = MetricsRegistry::new();
        let h = ModelHealth::new(&reg);
        h.record_residual(-1.25, -1.0, 1.1, 2.0, true);
        h.record_alarm(Nanos::from_secs(42));
        let s = h.summary();
        assert_eq!(s.ticks, 1);
        assert_eq!(s.alarms, 1);
        assert_eq!(s.out_of_band_ticks, 1);
        // The counts are the registry's counters, not copies of them.
        for name in [
            "powerapi_model_residual_ticks_total",
            "powerapi_model_drift_alarms_total",
            "powerapi_model_out_of_band_total",
        ] {
            assert_eq!(reg.counter(name).get(), 1, "{name}");
        }
        assert!((s.last_residual_w + 1.25).abs() < 1e-6);
        assert!((s.bias_w + 1.0).abs() < 1e-6);
        assert_eq!(s.first_alarm_s, Some(42.0));
        assert!(h.out_of_band());
        assert!((h.band_fraction() - 0.625).abs() < 1e-6, "|-1.25| / 2.0");
        h.record_residual(0.0, 0.0, 0.5, 2.0, false);
        assert!(!h.out_of_band());
        assert_eq!(h.band_fraction(), 0.0);
    }

    #[test]
    fn band_fraction_degenerate_band_reads_zero() {
        let h = ModelHealth::new(&MetricsRegistry::new());
        assert_eq!(h.band_fraction(), 0.0, "no pairs yet");
        h.record_residual(3.0, 3.0, 3.0, 0.0, true);
        assert_eq!(h.band_fraction(), 0.0, "zero-width band never divides");
    }
}
