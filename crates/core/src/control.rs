//! Closed-loop power capping: PowerAPI estimates driving actuation.
//!
//! The paper motivates "the development of adaptive strategies that can
//! cope with the sporadic nature of these \[renewable\] energy feeds" (§2)
//! and wants to "act and … optimize their energy consumptions by playing
//! with the scheduling" (§1). This module closes the loop: a
//! [`CapControlActor`] watches the machine-level estimates on the bus and
//! adjusts a shared set-point that a [`CappedGovernor`] (a drop-in
//! `cpufreq` governor) enforces by stepping the DVFS ladder.
//!
//! The control law is a simple hysteresis stepper — over the cap: step
//! one P-state down; comfortably under (below `cap · headroom`): step up
//! — which is how production RAPL/powercap daemons behave at 1 Hz
//! granularity.

use crate::actor::{Actor, Context};
use crate::adaptive::{RateCause, RateTransition, SamplingController, GUARD_FRACTION};
use crate::health::ModelHealth;
use crate::msg::{AggregateReport, Message, Quality, Scope};
use crate::telemetry::EventKind;
use os_sim::governor::CpufreqGovernor;
use parking_lot::Mutex;
use simcpu::freq::PStateTable;
use simcpu::units::{MegaHertz, Nanos};
use std::sync::Arc;

#[derive(Debug)]
struct CapState {
    cap_w: f64,
    /// −1 = step down, +1 = step up, 0 = hold; consumed by the governor.
    pending: i32,
    last_estimate_w: f64,
}

/// Shared handle between the control actor (which writes the verdict on
/// the loop thread) and the governor (which takes it mid-slice on the
/// producer thread). Nothing orders the two inside a `run_for`, so a
/// verdict lands at a deterministic quantum only when the caller runs
/// period-sized slices and calls [`PowerApi::settle`] between them — and
/// settles before [`PowerCap::set_cap_w`], so the new budget judges only
/// estimates published after it.
///
/// [`PowerApi::settle`]: crate::runtime::PowerApi::settle
#[derive(Debug, Clone)]
pub struct PowerCap {
    state: Arc<Mutex<CapState>>,
    headroom: f64,
}

impl PowerCap {
    /// Creates a cap at `cap_w` watts with 8 % step-up headroom.
    pub fn new(cap_w: f64) -> PowerCap {
        PowerCap {
            state: Arc::new(Mutex::new(CapState {
                cap_w: cap_w.max(0.0),
                pending: 0,
                last_estimate_w: 0.0,
            })),
            headroom: 0.92,
        }
    }

    /// The current cap in watts.
    pub fn cap_w(&self) -> f64 {
        self.state.lock().cap_w
    }

    /// Re-targets the cap at runtime (e.g. tracking a solar feed).
    pub fn set_cap_w(&self, cap_w: f64) {
        self.state.lock().cap_w = cap_w.max(0.0);
    }

    /// The most recent machine estimate the controller saw.
    pub fn last_estimate_w(&self) -> f64 {
        self.state.lock().last_estimate_w
    }

    fn on_estimate(&self, estimate_w: f64) {
        let mut s = self.state.lock();
        s.last_estimate_w = estimate_w;
        s.pending = if estimate_w > s.cap_w {
            -1
        } else if estimate_w < s.cap_w * self.headroom {
            1
        } else {
            0
        };
    }

    fn take_pending(&self) -> i32 {
        std::mem::take(&mut self.state.lock().pending)
    }
}

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
/// sweep". The health monitor fires it on the loop thread; the consumer
/// (an operator loop between `run_for` slices, after
/// [`PowerApi::settle`], or [`RunOutcome`] after the loop has stopped)
/// takes the request with [`take_pending`]. [`RECALIBRATION_COOLDOWN`]
/// collapses the alarm bursts a sustained drift produces into one
/// request per window.
///
/// [`PowerApi::settle`]: crate::runtime::PowerApi::settle
/// [`RunOutcome`]: crate::runtime::RunOutcome
/// [`take_pending`]: RecalibrationTrigger::take_pending
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

/// The bus-side half: feeds machine estimates into the cap state.
/// Subscribe it to [`Topic::Aggregate`].
///
/// [`Topic::Aggregate`]: crate::msg::Topic::Aggregate
#[derive(Debug, Clone)]
pub struct CapControlActor {
    cap: PowerCap,
}

impl CapControlActor {
    /// Creates the actor around a shared cap handle.
    pub fn new(cap: PowerCap) -> CapControlActor {
        CapControlActor { cap }
    }
}

impl Actor for CapControlActor {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        let Message::AggregateBatch(b) = msg else {
            return;
        };
        for a in b.reports.iter().filter(|a| a.scope == Scope::Machine) {
            self.cap.on_estimate(a.power.as_f64());
        }
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

/// The kernel-side half: a `cpufreq` governor that walks the P-state
/// ladder as the controller demands. All cores follow one global
/// frequency (package-level capping, like RAPL's PL1).
#[derive(Debug, Clone)]
pub struct CappedGovernor {
    cap: PowerCap,
    current_idx: usize,
    initialized: bool,
}

impl CappedGovernor {
    /// Creates the governor; it starts at the highest P-state (cap
    /// enforcement only ever needs to pull *down* from there).
    pub fn new(cap: PowerCap) -> CappedGovernor {
        CappedGovernor {
            cap,
            current_idx: 0,
            initialized: false,
        }
    }
}

impl CpufreqGovernor for CappedGovernor {
    fn select(&mut self, core: usize, _utilization: f64, table: &PStateTable) -> MegaHertz {
        let freqs = table.frequencies();
        if !self.initialized {
            self.current_idx = freqs.len() - 1;
            self.initialized = true;
        }
        // Apply the controller's verdict once per governor round (core 0
        // leads; other cores follow the same index).
        if core == 0 {
            match self.cap.take_pending() {
                d if d < 0 && self.current_idx > 0 => self.current_idx -= 1,
                d if d > 0 && self.current_idx + 1 < freqs.len() => self.current_idx += 1,
                _ => {}
            }
        }
        freqs[self.current_idx.min(freqs.len() - 1)]
    }

    fn name(&self) -> &'static str {
        "powercap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::freq::ladder;

    fn table() -> PStateTable {
        PStateTable::without_turbo(ladder(&[1600, 2000, 2400, 2800, 3300], 0.85, 1.05).unwrap())
            .unwrap()
    }

    #[test]
    fn cap_handle_roundtrip() {
        let cap = PowerCap::new(50.0);
        assert_eq!(cap.cap_w(), 50.0);
        cap.set_cap_w(40.0);
        assert_eq!(cap.cap_w(), 40.0);
        cap.set_cap_w(-5.0);
        assert_eq!(cap.cap_w(), 0.0);
        cap.on_estimate(38.0);
        assert_eq!(cap.last_estimate_w(), 38.0);
    }

    #[test]
    fn governor_steps_down_when_over_cap() {
        let cap = PowerCap::new(50.0);
        let mut g = CappedGovernor::new(cap.clone());
        let t = table();
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(3300), "starts at max");
        cap.on_estimate(60.0); // over cap
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2800));
        cap.on_estimate(55.0);
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2400));
        // Verdict consumed: holding without new estimates.
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2400));
        assert_eq!(g.name(), "powercap");
    }

    #[test]
    fn governor_steps_up_with_headroom_and_floors() {
        let cap = PowerCap::new(50.0);
        let mut g = CappedGovernor::new(cap.clone());
        let t = table();
        g.select(0, 1.0, &t);
        // Walk down to the floor.
        for _ in 0..10 {
            cap.on_estimate(99.0);
            g.select(0, 1.0, &t);
        }
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(1600), "clamps at min");
        // Comfortably under: walk back up.
        cap.on_estimate(30.0);
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2000));
        // In the hysteresis band (0.92 · 50 = 46): hold.
        cap.on_estimate(47.0);
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2000));
    }

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

    #[test]
    fn secondary_cores_follow_without_consuming_verdicts() {
        let cap = PowerCap::new(50.0);
        let mut g = CappedGovernor::new(cap.clone());
        let t = table();
        g.select(0, 1.0, &t);
        cap.on_estimate(60.0);
        // Core 1 asks first: must not consume the pending verdict.
        assert_eq!(g.select(1, 1.0, &t), MegaHertz(3300));
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2800));
        assert_eq!(g.select(1, 1.0, &t), MegaHertz(2800), "follows the leader");
    }
}
