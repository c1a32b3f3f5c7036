//! The pipeline's control stage: what it does with its own estimates.
//!
//! The paper motivates "the development of adaptive strategies that can
//! cope with the sporadic nature of these \[renewable\] energy feeds"
//! (§2). The one loop the pipeline closes is its own sampling rate: a
//! [`RateControlActor`] watches the machine-level estimates on the bus
//! and feeds in-band/breach verdicts to the [`SamplingController`] the
//! producer reads at each tick boundary. Beside it, the
//! [`RecalibrationTrigger`] is the hook the model-health monitor raises
//! on drift, with [`RECALIBRATION_COOLDOWN`] collapsing alarm bursts into
//! one request. The pipeline actuates nothing outside itself.

use crate::actor::{Actor, Context};
use crate::adaptive::{RateCause, RateTransition, SamplingController, GUARD_FRACTION};
use crate::health::ModelHealth;
use crate::msg::{AggregateReport, Message, Quality, Scope};
use crate::telemetry::EventKind;
use parking_lot::Mutex;
use simcpu::units::Nanos;
use std::sync::Arc;

#[derive(Debug)]
struct TriggerState {
    /// A recalibration request awaiting its consumer (latched; cleared by
    /// [`RecalibrationTrigger::take_pending`]).
    pending: Option<Nanos>,
    /// Total requests raised (pre-cooldown alarms do not count).
    fired: u64,
    last_fired: Option<Nanos>,
}

/// Minimum simulated time between two recalibration requests: a
/// sustained drift alarms again and again, and one thermal time constant
/// of the simulated i3 collapses each burst into one request.
pub const RECALIBRATION_COOLDOWN: Nanos = Nanos::from_secs(30);

/// Control hook the model-health monitor pulls when drift is detected:
/// "this model no longer matches the hardware — schedule a calibration
/// sweep". The health monitor fires it on the loop thread;
/// [`PowerApi::finish`] reads it after the loop has stopped (the
/// request count into [`RunOutcome::model_health`], a latched request
/// as a post-mortem reason). [`RECALIBRATION_COOLDOWN`] collapses the
/// alarm bursts a sustained drift produces into one request per window.
///
/// [`PowerApi::finish`]: crate::runtime::PowerApi::finish
/// [`RunOutcome::model_health`]: crate::runtime::RunOutcome::model_health
#[derive(Debug, Clone)]
pub struct RecalibrationTrigger {
    state: Arc<Mutex<TriggerState>>,
}

impl Default for RecalibrationTrigger {
    fn default() -> RecalibrationTrigger {
        RecalibrationTrigger::new()
    }
}

impl RecalibrationTrigger {
    /// Creates a trigger with nothing pending.
    pub fn new() -> RecalibrationTrigger {
        RecalibrationTrigger {
            state: Arc::new(Mutex::new(TriggerState {
                pending: None,
                fired: 0,
                last_fired: None,
            })),
        }
    }

    /// Raises a recalibration request at simulated time `at`. Returns
    /// `true` when the request was accepted (outside the cooldown).
    pub fn fire(&self, at: Nanos) -> bool {
        let mut s = self.state.lock();
        if let Some(last) = s.last_fired {
            if at.saturating_sub(last) < RECALIBRATION_COOLDOWN && at >= last {
                return false;
            }
        }
        s.pending = Some(at);
        s.fired += 1;
        s.last_fired = Some(at);
        true
    }

    /// Consumes the pending request, if any (its timestamp).
    pub fn take_pending(&self) -> Option<Nanos> {
        self.state.lock().pending.take()
    }

    /// Whether a request is latched and unconsumed (non-consuming peek —
    /// the runtime's post-mortem check must not steal the request from
    /// whatever recalibration loop owns it).
    pub fn is_pending(&self) -> bool {
        self.state.lock().pending.is_some()
    }

    /// Total accepted requests so far.
    pub fn fired(&self) -> u64 {
        self.state.lock().fired
    }

    /// When the most recent request was raised.
    pub fn last_fired(&self) -> Option<Nanos> {
        self.state.lock().last_fired
    }
}

/// The closed-loop sampling controller's bus-side half, sitting beside
/// the [`RecalibrationTrigger`] in the control stage: it watches every
/// machine-scope aggregate, turns it into an in-band/breach verdict —
/// degraded quality from the report itself, drift alarms and band exits
/// from the shared [`ModelHealth`] view — and feeds the verdict to the
/// [`SamplingController`]. Each transition the controller returns is
/// journaled as [`EventKind::RateChange`] with its cause, old/new period
/// and in-band evidence, so the flight recorder alone reconstructs the
/// rate history. Subscribe it to [`Topic::Aggregate`].
///
/// [`Topic::Aggregate`]: crate::msg::Topic::Aggregate
#[derive(Debug, Clone)]
pub struct RateControlActor {
    controller: SamplingController,
    health: Option<ModelHealth>,
    /// Alarm count at the previous verdict, so each alarm breaches once.
    prev_alarms: u64,
    /// The full-rate monitoring period, for journaled period arithmetic.
    base_period: Nanos,
}

impl RateControlActor {
    /// Creates the actor around the shared controller handle.
    /// `base_period` is the full-rate clock period (the journal quotes
    /// periods, not bare factors); `health` enables residual-driven
    /// verdicts — without it only report quality and fault notes breach.
    pub fn new(
        controller: SamplingController,
        health: Option<ModelHealth>,
        base_period: Nanos,
    ) -> RateControlActor {
        RateControlActor {
            controller,
            health,
            prev_alarms: 0,
            base_period,
        }
    }

    fn verdict(&mut self, report: &AggregateReport) -> Option<RateCause> {
        if report.quality != Quality::Full {
            return Some(RateCause::QualityDegraded);
        }
        if let Some(h) = &self.health {
            let alarms = h.alarms();
            if alarms > self.prev_alarms {
                self.prev_alarms = alarms;
                return Some(RateCause::DriftAlarm);
            }
            if h.out_of_band() {
                return Some(RateCause::OutOfBand);
            }
            if h.band_fraction() >= GUARD_FRACTION {
                return Some(RateCause::NearBand);
            }
        }
        None
    }

    fn journal(&self, t: RateTransition, report: &AggregateReport, ctx: &Context) {
        let old = Nanos(self.base_period.as_u64() * t.old_factor as u64);
        let new = Nanos(self.base_period.as_u64() * t.new_factor as u64);
        let detail = match t.cause {
            RateCause::InBand => format!(
                "backoff: period {:.3}s -> {:.3}s after {} in-band tick(s)",
                old.as_secs_f64(),
                new.as_secs_f64(),
                t.inband_streak
            ),
            cause => format!(
                "snap to full rate: period {:.3}s -> {:.3}s on {} (streak was {})",
                old.as_secs_f64(),
                new.as_secs_f64(),
                cause.label(),
                t.inband_streak
            ),
        };
        ctx.telemetry().journal().emit_at(
            report.timestamp,
            EventKind::RateChange,
            ctx.name(),
            detail,
            report.trace,
        );
    }

    fn on_report(&mut self, report: &AggregateReport, ctx: &Context) {
        let breach = self.verdict(report);
        if let Some(t) = self.controller.observe(breach) {
            self.journal(t, report, ctx);
        }
    }
}

impl Actor for RateControlActor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::AggregateBatch(b) = msg else {
            return;
        };
        for a in b.reports.iter().filter(|a| a.scope == Scope::Machine) {
            self.on_report(a, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_latches_until_consumed() {
        let t = RecalibrationTrigger::new();
        assert_eq!(t.take_pending(), None);
        assert!(t.fire(Nanos::from_secs(10)));
        assert_eq!(t.fired(), 1);
        assert_eq!(t.take_pending(), Some(Nanos::from_secs(10)));
        assert_eq!(t.take_pending(), None, "consumed");
        assert_eq!(t.last_fired(), Some(Nanos::from_secs(10)));
    }

    #[test]
    fn trigger_cooldown_collapses_alarm_bursts() {
        let t = RecalibrationTrigger::new();
        let start = Nanos::from_secs(100);
        assert!(t.fire(start));
        // A burst of alarms within the cooldown: one request total.
        assert!(!t.fire(start + Nanos::from_secs(1)));
        assert!(!t.fire(start + RECALIBRATION_COOLDOWN - Nanos(1)));
        assert_eq!(t.fired(), 1);
        // Past the window: accepted again.
        assert!(t.fire(start + RECALIBRATION_COOLDOWN));
        assert_eq!(t.fired(), 2);
    }

    #[test]
    fn rate_control_actor_drives_and_journals_the_controller() {
        use crate::actor::ActorSystem;
        use crate::adaptive::{SamplingConfig, SamplingController, INBAND_JITTER, INBAND_TICKS};
        use crate::msg::Topic;
        use crate::telemetry::{Telemetry, TraceId};
        use simcpu::units::Watts;

        let ctrl = SamplingController::new(SamplingConfig::default());
        let telemetry = Telemetry::new();
        let mut sys = ActorSystem::with_telemetry(telemetry.clone());
        let r = sys.spawn(
            "rate-control",
            Box::new(RateControlActor::new(
                ctrl.clone(),
                None,
                Nanos::from_secs(1),
            )),
        );
        sys.bus().subscribe(Topic::Aggregate, &r);
        let agg = |ts: u64, q: Quality| {
            Message::aggregates(
                vec![AggregateReport {
                    timestamp: Nanos::from_secs(ts),
                    scope: Scope::Machine,
                    power: Watts(36.0),
                    band_w: Watts(1.0),
                    quality: q,
                    trace: TraceId::NONE,
                }],
                TraceId::NONE,
            )
        };
        // Two steps take at most twice the longest seeded streak, three
        // at least thrice the shortest: this many in-band ticks climb
        // the ladder exactly twice. Then a degraded report snaps straight
        // back to full rate.
        let inband = u64::from(2 * (INBAND_TICKS + INBAND_JITTER));
        for i in 1..=inband {
            sys.bus().publish(agg(i, Quality::Full));
        }
        sys.bus().publish(agg(inband + 1, Quality::Degraded));
        sys.shutdown();
        assert_eq!(ctrl.factor(), 1, "snapped back to full rate");
        assert_eq!(ctrl.transitions(), 3, "1→2, 2→4, 4→1");
        assert_eq!(
            telemetry.journal().count(EventKind::RateChange),
            3,
            "every transition journaled"
        );
    }

    #[test]
    fn near_band_guard_snaps_before_out_of_band() {
        use crate::actor::ActorSystem;
        use crate::adaptive::{SamplingConfig, SamplingController, INBAND_JITTER, INBAND_TICKS};
        use crate::health::ModelHealth;
        use crate::msg::Topic;
        use crate::telemetry::{Telemetry, TraceId};
        use simcpu::units::Watts;

        let ctrl = SamplingController::new(SamplingConfig::default());
        let health = ModelHealth::new(&crate::telemetry::MetricsRegistry::new());
        let telemetry = Telemetry::new();
        let mut sys = ActorSystem::with_telemetry(telemetry.clone());
        let r = sys.spawn(
            "rate-control",
            Box::new(RateControlActor::new(
                ctrl.clone(),
                Some(health.clone()),
                Nanos::from_secs(1),
            )),
        );
        sys.bus().subscribe(Topic::Aggregate, &r);
        let agg = |ts: u64| {
            Message::aggregates(
                vec![AggregateReport {
                    timestamp: Nanos::from_secs(ts),
                    scope: Scope::Machine,
                    power: Watts(36.0),
                    band_w: Watts(1.0),
                    quality: Quality::Full,
                    trace: TraceId::NONE,
                }],
                TraceId::NONE,
            )
        };
        // Enough for the first backoff, too few for the second.
        let inband = u64::from(INBAND_TICKS + INBAND_JITTER);
        for i in 1..=inband {
            sys.bus().publish(agg(i));
        }
        // Let the backoff land before flipping the shared health state
        // under the actor.
        sys.settle();
        assert_eq!(ctrl.factor(), 2, "backed off on in-band residuals");
        // Residual at 60 % of the envelope: in band (no quality downgrade,
        // no out-of-band flag) yet past the quarter-envelope guard — snaps
        // back.
        health.record_residual(1.2, 1.2, 1.2, 2.0, false);
        sys.bus().publish(agg(inband + 1));
        sys.shutdown();
        assert_eq!(ctrl.factor(), 1, "guard snapped back inside the band");
        assert_eq!(ctrl.transitions(), 2);
    }
}
