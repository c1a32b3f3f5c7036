//! Formula actors: "Formula get the sensor messages from the event bus in
//! order to estimate the power consumption of a given process" (§3).
//!
//! [`per_freq::PerFrequencyFormula`] is the one linear formula: the
//! paper's learned model and the baselines the paper compares against
//! — Bertran et al.'s decomposable model, HaPPy's hyperthread-aware
//! split and Versick et al.'s CPU load — are [`per_freq::Kind`]s of it,
//! differing only in the features fed to one
//! [`PerFrequencyPowerModel`](crate::model::power_model::PerFrequencyPowerModel).
//! [`fallback::FallbackFormula`] wraps a primary/backup pair with a
//! staleness watchdog for graceful degradation.

pub mod fallback;
pub mod per_freq;

use crate::actor::{Actor, Context};
use crate::frame::{PowerBatch, SensorBatch};
use crate::health::ModelHealth;
use crate::msg::{CorunSplit, Message, ProcTimeDelta, Quality, SensorReport};
use os_sim::process::Pid;
use simcpu::units::{Nanos, Watts};
use std::sync::Arc;

/// A power-estimation strategy fed by sensor batches.
///
/// [`PowerFormula::estimate_batch`] is the one estimation call production
/// code makes — the host's [`FormulaActor`] and the fleet's estimator
/// shards alike. [`PowerFormula::estimate`] + [`PowerFormula::interval_w`]
/// are the row-level *definition* a formula author writes. Only
/// [`estimate_row_by_row`] calls them: it is the default `estimate_batch`
/// body and the reference every column-reading override is held to.
pub trait PowerFormula: Send {
    /// The formula's name (carried on every [`PowerBatch`]).
    fn name(&self) -> &'static str;

    /// The sensor source this formula consumes (default: the HPC sensor).
    fn source(&self) -> &'static str {
        crate::sensor::hpc::SOURCE
    }

    /// The machine idle floor the aggregator should add once per interval.
    fn idle_w(&self) -> f64;

    /// Estimates the *active* power of the reported process over the
    /// report's interval, or `None` when the report is unusable. The
    /// row-level definition: reached only through
    /// [`estimate_row_by_row`], never called on the live path directly.
    fn estimate(&mut self, report: &SensorReport) -> Option<Watts>;

    /// Half-width of the prediction interval around an estimate for this
    /// report, in watts. Formulas that claim no band report 0.
    fn interval_w(&self, report: &SensorReport) -> f64 {
        let _ = report;
        0.0
    }

    /// Estimates every row of a sensor batch, appending to `out` in row
    /// order (rows the formula cannot estimate are skipped) — the entry
    /// point every caller uses. The default materialises each row into a
    /// reusable scratch report and calls [`PowerFormula::estimate`] /
    /// [`PowerFormula::interval_w`] on it; hot formulas override this to
    /// read the frame columns directly and must stay bit-identical to
    /// this row-by-row reference.
    fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
        estimate_row_by_row(self, batch, quality, out);
    }

    /// A fresh boxed copy of this formula, so a supervisor can rebuild a
    /// formula actor after a panic.
    fn boxed_clone(&self) -> Box<dyn PowerFormula>;
}

/// The row-by-row reference path (and [`PowerFormula::estimate_batch`]'s
/// default body): materialise each row with
/// [`SensorBatch::fill_report`], then [`PowerFormula::estimate`] +
/// [`PowerFormula::interval_w`]. Public so tests can hold a formula's
/// `estimate_batch` override to it.
pub fn estimate_row_by_row<F: PowerFormula + ?Sized>(
    formula: &mut F,
    batch: &SensorBatch,
    quality: Quality,
    out: &mut PowerBatch,
) {
    let mut scratch = scratch_report();
    for i in 0..batch.rows.len() {
        batch.fill_report(i, &mut scratch);
        if let Some(power) = formula.estimate(&scratch) {
            let band = Watts(formula.interval_w(&scratch));
            out.push(scratch.pid, power, band, quality);
        }
    }
}

/// An empty report suitable as a [`SensorBatch::fill_report`] target.
pub(crate) fn scratch_report() -> SensorReport {
    SensorReport {
        timestamp: Nanos::ZERO,
        interval: Nanos::ZERO,
        pid: Pid(0),
        counters: Vec::new(),
        time: ProcTimeDelta::default(),
        corun: CorunSplit::default(),
    }
}

/// Hosts any [`PowerFormula`] as a bus actor: subscribes to sensor
/// batches, filters by source, publishes power batches.
pub struct FormulaActor {
    formula: Box<dyn PowerFormula>,
    /// When model health is enabled, estimates are downgraded to
    /// [`Quality::Degraded`] while the live residual sits outside the
    /// prediction band. `None` (the default) costs nothing per tick.
    health: Option<ModelHealth>,
}

impl FormulaActor {
    /// Wraps a formula.
    pub fn new(formula: Box<dyn PowerFormula>) -> FormulaActor {
        FormulaActor {
            formula,
            health: None,
        }
    }

    /// Wraps a formula with a model-health handle: reports are marked
    /// [`Quality::Degraded`] while the monitor flags the model as
    /// out-of-band.
    pub fn with_health(formula: Box<dyn PowerFormula>, health: ModelHealth) -> FormulaActor {
        FormulaActor {
            formula,
            health: Some(health),
        }
    }
}

impl Actor for FormulaActor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::SensorBatch(batch) = msg else {
            return;
        };
        if batch.source != self.formula.source() {
            return;
        }
        // Health is a per-tick property, so the whole batch shares one
        // quality verdict.
        let quality = match &self.health {
            Some(h) if h.out_of_band() => Quality::Degraded,
            _ => Quality::Full,
        };
        let mut out = PowerBatch::estimating(&batch, self.formula.name());
        self.formula.estimate_batch(&batch, quality, &mut out);
        if !out.is_empty() {
            ctx.bus().publish(Message::PowerBatch(Arc::new(out)));
        }
    }
}

impl std::fmt::Debug for FormulaActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FormulaActor")
            .field("formula", &self.formula.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::frame::FrameBuilder;
    use crate::msg::{PowerReport, Topic};
    use crate::sensor::procfs;
    use parking_lot::Mutex;

    struct Fixed;
    impl PowerFormula for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn idle_w(&self) -> f64 {
            30.0
        }
        fn estimate(&mut self, _r: &SensorReport) -> Option<Watts> {
            Some(Watts(4.2))
        }
        fn boxed_clone(&self) -> Box<dyn PowerFormula> {
            Box::new(Fixed)
        }
    }

    struct Capture(Arc<Mutex<Vec<PowerReport>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::PowerBatch(b) = msg {
                self.0.lock().extend(b.reports());
            }
        }
    }

    /// A one-row batch for pid 9 from `source`.
    fn sensor_msg(source: &'static str) -> Message {
        let mut b = FrameBuilder::new();
        b.push_time_row(Pid(9), Nanos::ZERO, |_| {});
        let frame = b.finish(
            Nanos::from_secs(1),
            Nanos::from_secs(1),
            Arc::from([]),
            None,
        );
        Message::SensorBatch(Arc::new(SensorBatch {
            source,
            ..procfs::observe(Arc::new(frame), crate::telemetry::TraceId(3))
        }))
    }

    #[test]
    fn estimates_matching_source_only() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let formula = sys.spawn("formula", Box::new(FormulaActor::new(Box::new(Fixed))));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Sensor, &formula);
        sys.bus().subscribe(Topic::Power, &sink);
        sys.bus().publish(sensor_msg(crate::sensor::hpc::SOURCE));
        sys.bus().publish(sensor_msg(crate::sensor::procfs::SOURCE));
        sys.shutdown();
        let seen = seen.lock();
        assert_eq!(seen.len(), 1, "procfs report filtered out");
        assert_eq!(seen[0].formula, "fixed");
        assert_eq!(seen[0].pid, Pid(9));
        assert!((seen[0].power.as_f64() - 4.2).abs() < 1e-12);
        assert_eq!(
            seen[0].trace,
            crate::telemetry::TraceId(3),
            "trace propagates sensor → power"
        );
    }

    #[test]
    fn default_interval_is_zero_and_quality_full() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let formula = sys.spawn("formula", Box::new(FormulaActor::new(Box::new(Fixed))));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Sensor, &formula);
        sys.bus().subscribe(Topic::Power, &sink);
        sys.bus().publish(sensor_msg(crate::sensor::hpc::SOURCE));
        sys.shutdown();
        let seen = seen.lock();
        assert_eq!(seen[0].band_w, Watts(0.0));
        assert_eq!(seen[0].quality, Quality::Full);
    }

    #[test]
    fn out_of_band_health_downgrades_quality() {
        let health = ModelHealth::new(&crate::telemetry::MetricsRegistry::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let formula = sys.spawn(
            "formula",
            Box::new(FormulaActor::with_health(Box::new(Fixed), health.clone())),
        );
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Sensor, &formula);
        sys.bus().subscribe(Topic::Power, &sink);
        // Healthy: Full.
        sys.bus().publish(sensor_msg(crate::sensor::hpc::SOURCE));
        sys.settle();
        assert_eq!(seen.lock().len(), 1);
        // Monitor flags the residual out of band: Degraded.
        health.record_residual(8.0, 8.0, 8.0, 2.0, true);
        sys.bus().publish(sensor_msg(crate::sensor::hpc::SOURCE));
        sys.settle();
        assert_eq!(seen.lock().len(), 2);
        // Residual returns in band: Full again.
        health.record_residual(0.1, 0.1, 0.1, 2.0, false);
        sys.bus().publish(sensor_msg(crate::sensor::hpc::SOURCE));
        sys.shutdown();
        let seen = seen.lock();
        let qualities: Vec<Quality> = seen.iter().map(|p| p.quality).collect();
        assert_eq!(
            qualities,
            vec![Quality::Full, Quality::Degraded, Quality::Full]
        );
    }

    #[test]
    fn debug_names_the_formula() {
        let fa = FormulaActor::new(Box::new(Fixed));
        assert!(format!("{fa:?}").contains("fixed"));
    }
}
