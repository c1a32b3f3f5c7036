//! Adaptive sampling: a self-cost ledger and a closed-loop rate
//! controller.
//!
//! The paper prices its own presence — "the overhead of PowerAPI … less
//! than 3 W" — as one number. This module breaks that number down and
//! then *acts* on it:
//!
//! * the [`SelfCostLedger`] extends the [`SELF_PID`]/e8 machinery into
//!   per-stage, per-tick accounting: sensor counter reads (priced by
//!   volume and multiplexing pressure), formula evaluation, aggregation,
//!   reporting, telemetry harvest and fleet transport each get a priced
//!   column, exported as `powerapi_selfcost_*` counters and summarised on
//!   [`RunOutcome::selfcost`];
//! * the [`SamplingController`] closes the loop: while the
//!   [`ResidualMonitor`] reports in-band residuals the controller doubles
//!   the monitoring period (and optionally sheds PMU slots), and snaps
//!   back to full rate the moment a drift alarm, fault window or quality
//!   downgrade suggests the model needs watching again. Every transition
//!   journals as [`EventKind::RateChange`] with its cause and evidence.
//!
//! The decision rule is deterministic: a xorshift64 stream from the one
//! [`JITTER_SEED`] adds 0..=[`INBAND_JITTER`] extra required in-band
//! ticks per backoff, so identical schedules replay bit-identical
//! transition journals (the e15 goldens rely on this). Every controller
//! draws the same stream — the jitter varies the streak from one backoff
//! to the next, not from one host to another. A caller chooses only the
//! ladder ceiling and the slot cap ([`SamplingConfig`]); the rest of the
//! tuning is the constants below.
//!
//! [`SELF_PID`]: crate::telemetry::SELF_PID
//! [`ResidualMonitor`]: crate::health::ResidualMonitor
//! [`EventKind::RateChange`]: crate::telemetry::EventKind::RateChange
//! [`RunOutcome::selfcost`]: crate::runtime::RunOutcome

use crate::telemetry::metrics::{Counter, MetricsRegistry};
use crate::telemetry::Stage;
use parking_lot::Mutex;
use std::sync::Arc;

/// Modeled wall cost of one PMU counter read, ns. Sized like a real
/// `read(2)` on a perf fd (syscall entry + copyout); the simulated clock
/// has no such cost, so the ledger prices reads instead of timing them.
pub const COUNTER_READ_COST_NS: u64 = 1_200;

/// Per-stage, per-tick accounting of the middleware's own monitoring
/// cost. Clones share one ledger; all columns are lock-free counters
/// registered as `powerapi_selfcost_*` so the Prometheus dump, the
/// telemetry JSON lines and [`SelfCostSummary`] all read the same cells.
#[derive(Debug, Clone)]
pub struct SelfCostLedger {
    ticks: Counter,
    sensor_reads: Counter,
    sensor_read_ns: Counter,
    stage_ns: [Counter; 6],
    telemetry_ns: Counter,
    fleet_ns: Counter,
}

impl SelfCostLedger {
    /// Creates the ledger, registering its columns on `registry`.
    pub fn register(registry: &MetricsRegistry) -> SelfCostLedger {
        let stage_ns = Stage::ALL.map(|s| {
            registry.counter(&format!(
                "powerapi_selfcost_stage_ns_total{{stage=\"{}\"}}",
                s.label()
            ))
        });
        SelfCostLedger {
            ticks: registry.counter("powerapi_selfcost_ticks_total"),
            sensor_reads: registry.counter("powerapi_selfcost_sensor_reads_total"),
            sensor_read_ns: registry.counter("powerapi_selfcost_sensor_read_ns_total"),
            stage_ns,
            telemetry_ns: registry.counter("powerapi_selfcost_telemetry_ns_total"),
            fleet_ns: registry.counter("powerapi_selfcost_fleet_ns_total"),
        }
    }

    /// Counts one priced monitoring tick.
    pub fn note_tick(&self) {
        self.ticks.inc();
    }

    /// Prices one harvest's counter reads: `reads` syscalls, each scaled
    /// by the multiplexing `pressure` (`time_enabled / time_running`,
    /// ≥ 1.0) — a time-sliced counter costs extra scheduling work per
    /// read, so shedding slots shows up as a *higher* unit price on a
    /// *much smaller* volume.
    pub fn charge_sensor_reads(&self, reads: u64, pressure: f64) {
        self.sensor_reads.add(reads);
        let priced = (reads as f64 * COUNTER_READ_COST_NS as f64 * pressure.max(1.0)) as u64;
        self.sensor_read_ns.add(priced);
    }

    /// Charges measured wall ns to one pipeline stage's column.
    pub fn charge_stage(&self, stage: Stage, ns: u64) {
        self.stage_ns[stage.index()].add(ns);
    }

    /// Charges measured snapshot-harvest ns to the telemetry column.
    pub fn charge_telemetry(&self, ns: u64) {
        self.telemetry_ns.add(ns);
    }

    /// Charges fleet-transport ns (encode + link + decode; the fleet
    /// driver owns the clock, so it reports its own wall cost here).
    pub fn charge_fleet(&self, ns: u64) {
        self.fleet_ns.add(ns);
    }

    /// Snapshot of every column.
    pub fn summary(&self) -> SelfCostSummary {
        SelfCostSummary {
            ticks: self.ticks.get(),
            sensor_reads: self.sensor_reads.get(),
            sensor_read_ns: self.sensor_read_ns.get(),
            stage_ns: [0, 1, 2, 3, 4, 5].map(|i| self.stage_ns[i].get()),
            telemetry_ns: self.telemetry_ns.get(),
            fleet_ns: self.fleet_ns.get(),
        }
    }
}

/// The ledger's bottom line, attached to [`RunOutcome::selfcost`].
/// All-zero when the ledger was not enabled.
///
/// [`RunOutcome::selfcost`]: crate::runtime::RunOutcome
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfCostSummary {
    /// Priced monitoring ticks.
    pub ticks: u64,
    /// PMU counter reads performed by the sensor harvest.
    pub sensor_reads: u64,
    /// Priced cost of those reads (volume × unit cost × pressure), ns.
    pub sensor_read_ns: u64,
    /// Measured actor-handler ns per pipeline stage, [`Stage::ALL`]
    /// order (sensor, formula, aggregator, reporter, control, other).
    pub stage_ns: [u64; 6],
    /// Measured snapshot-harvest ns (the telemetry column).
    pub telemetry_ns: u64,
    /// Fleet transport ns charged by the fleet driver.
    pub fleet_ns: u64,
}

impl SelfCostSummary {
    /// One stage's column.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Every priced column summed, ns.
    pub fn total_ns(&self) -> u64 {
        self.sensor_read_ns + self.stage_ns.iter().sum::<u64>() + self.telemetry_ns + self.fleet_ns
    }

    /// Mean priced cost per monitoring tick, ns (0 when no ticks ran).
    pub fn per_tick_ns(&self) -> u64 {
        self.total_ns().checked_div(self.ticks).unwrap_or(0)
    }
}

/// Minimum observed ticks between any two transitions — the hysteresis
/// window that stops the controller flapping.
pub const HYSTERESIS_TICKS: u32 = 3;

/// Consecutive in-band ticks required before each backoff step.
pub const INBAND_TICKS: u32 = 5;

/// Extra in-band ticks (0..=jitter) drawn per backoff from the seeded
/// stream.
pub const INBAND_JITTER: u32 = 2;

/// Early-warning threshold as a fraction of the out-of-band envelope: a
/// live residual beyond `GUARD_FRACTION × (band + margin)` counts as a
/// breach even though it is still technically in band. The guard must
/// trip while the residual *plus one stretched period of drift growth*
/// still sits inside the change detectors' slack — a quarter of the
/// envelope leaves that room at the 8× ceiling, so a backed-off monitor
/// detects drift as fast as an always-on one.
pub const GUARD_FRACTION: f64 = 0.25;

/// Seed of the deterministic jitter stream (non-zero, as xorshift64
/// needs).
pub const JITTER_SEED: u64 = 0x005e_ed0f_ada9;

/// What a caller chooses about the closed-loop sampling controller.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Ceiling of the period ladder: the monitoring period stretches
    /// 1× → 2× → 4× … up to `max_factor` × the configured clock period.
    pub max_factor: u32,
    /// PMU slot cap to apply while backed off (`None` = keep all slots).
    pub shed_slots: Option<usize>,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            max_factor: 8,
            shed_slots: None,
        }
    }
}

/// Why a rate transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateCause {
    /// Sustained in-band residuals earned a backoff step.
    InBand,
    /// A drift detector alarmed: snap to full rate.
    DriftAlarm,
    /// The live residual left the prediction band: snap to full rate.
    OutOfBand,
    /// The live residual crossed the early-warning guard
    /// ([`GUARD_FRACTION`] of the band): snap to full rate before the
    /// detectors starve.
    NearBand,
    /// Estimates arrived at degraded quality: snap to full rate.
    QualityDegraded,
    /// A fault window opened on the sensing substrate: snap to full rate.
    FaultWindow,
}

impl RateCause {
    /// Journal-stable label.
    pub fn label(&self) -> &'static str {
        match self {
            RateCause::InBand => "in-band",
            RateCause::DriftAlarm => "drift-alarm",
            RateCause::OutOfBand => "out-of-band",
            RateCause::NearBand => "near-band",
            RateCause::QualityDegraded => "quality-degraded",
            RateCause::FaultWindow => "fault-window",
        }
    }
}

/// One rate transition, as returned by [`SamplingController::observe`]
/// for the caller to journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateTransition {
    /// Period multiplier before the transition.
    pub old_factor: u32,
    /// Period multiplier after it.
    pub new_factor: u32,
    /// What provoked it.
    pub cause: RateCause,
    /// Consecutive in-band ticks observed when the decision fired (the
    /// evidence for a backoff; the length of the streak a snap-back cut
    /// short).
    pub inband_streak: u32,
}

#[derive(Debug)]
struct SamplingState {
    factor: u32,
    ticks_since_transition: u32,
    consecutive_inband: u32,
    /// In-band ticks the *next* backoff requires (base + current jitter).
    required_inband: u32,
    rng: u64,
    /// Set by the runtime when a fault window opens; consumed by the next
    /// observed tick.
    fault_pending: bool,
    transitions: u64,
}

fn xorshift64(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x
}

/// The in-band streak the next backoff requires: the base plus the next
/// draw of the jitter stream.
fn required_inband(rng: &mut u64) -> u32 {
    INBAND_TICKS + (xorshift64(rng) % (u64::from(INBAND_JITTER) + 1)) as u32
}

/// Shared handle between the [`RateControlActor`] (which decides, on the
/// loop thread) and the runtime (which stretches the tick boundary and
/// sheds slots, on the producer thread). The runtime reads the factor
/// only after [`ActorSystem::settle`] — the verdict on every aggregate
/// published so far is in by then — so the hand-off needs no channel
/// and leaves no timing to chance.
///
/// [`RateControlActor`]: crate::control::RateControlActor
/// [`ActorSystem::settle`]: crate::actor::ActorSystem::settle
#[derive(Debug, Clone)]
pub struct SamplingController {
    cfg: SamplingConfig,
    state: Arc<Mutex<SamplingState>>,
}

impl SamplingController {
    /// Creates the controller at full rate.
    pub fn new(cfg: SamplingConfig) -> SamplingController {
        let mut rng = JITTER_SEED;
        let required_inband = required_inband(&mut rng);
        SamplingController {
            cfg,
            state: Arc::new(Mutex::new(SamplingState {
                factor: 1,
                ticks_since_transition: 0,
                consecutive_inband: 0,
                required_inband,
                rng,
                fault_pending: false,
                transitions: 0,
            })),
        }
    }

    /// The current period multiplier (1 = full rate).
    pub fn factor(&self) -> u32 {
        self.state.lock().factor
    }

    /// The slot cap to apply while backed off.
    pub fn shed_slots(&self) -> Option<usize> {
        self.cfg.shed_slots
    }

    /// Total transitions so far.
    pub fn transitions(&self) -> u64 {
        self.state.lock().transitions
    }

    /// Flags an open fault window (runtime-side; the sensing substrates
    /// sit below the bus, so the runtime polls their fault stats and
    /// relays any activity here). The next observed tick snaps to full
    /// rate regardless of residual state.
    pub fn note_fault(&self) {
        self.state.lock().fault_pending = true;
    }

    /// Feeds one machine-scope tick verdict: `breach` is `None` while
    /// the residual sits in band at full quality, or the reason it does
    /// not. Returns the transition this tick provoked, if any, for the
    /// caller to journal.
    ///
    /// Rules: any breach (or a pending fault) zeroes the in-band streak
    /// and — when backed off — snaps straight to full rate (safety needs
    /// no hysteresis). A backoff step requires the streak to reach the
    /// seeded requirement *and* the hysteresis window to have passed
    /// since the previous transition.
    pub fn observe(&self, breach: Option<RateCause>) -> Option<RateTransition> {
        let ceiling = self.cfg.max_factor.max(1);
        let mut s = self.state.lock();
        s.ticks_since_transition = s.ticks_since_transition.saturating_add(1);
        let breach = if std::mem::take(&mut s.fault_pending) {
            Some(RateCause::FaultWindow)
        } else {
            breach
        };
        if let Some(cause) = breach {
            let streak = std::mem::take(&mut s.consecutive_inband);
            if s.factor > 1 {
                let old = s.factor;
                s.factor = 1;
                s.ticks_since_transition = 0;
                s.transitions += 1;
                return Some(RateTransition {
                    old_factor: old,
                    new_factor: 1,
                    cause,
                    inband_streak: streak,
                });
            }
            return None;
        }
        s.consecutive_inband = s.consecutive_inband.saturating_add(1);
        if s.factor < ceiling
            && s.ticks_since_transition >= HYSTERESIS_TICKS
            && s.consecutive_inband >= s.required_inband
        {
            let old = s.factor;
            let streak = s.consecutive_inband;
            s.factor = (s.factor * 2).min(ceiling);
            s.ticks_since_transition = 0;
            s.consecutive_inband = 0;
            s.transitions += 1;
            s.required_inband = required_inband(&mut s.rng);
            return Some(RateTransition {
                old_factor: old,
                new_factor: s.factor,
                cause: RateCause::InBand,
                inband_streak: streak,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds in-band ticks until the controller reaches `factor`.
    fn climb_to(c: &SamplingController, factor: u32) {
        for _ in 0..100 {
            if c.factor() == factor {
                return;
            }
            c.observe(None);
        }
        panic!("never reached factor {factor}");
    }

    #[test]
    fn ledger_prices_reads_by_volume_and_pressure() {
        let reg = MetricsRegistry::new();
        let ledger = SelfCostLedger::register(&reg);
        ledger.note_tick();
        ledger.charge_sensor_reads(10, 1.0);
        ledger.charge_sensor_reads(5, 2.0);
        ledger.charge_stage(Stage::Formula, 4_000);
        ledger.charge_telemetry(500);
        ledger.charge_fleet(250);
        let s = ledger.summary();
        assert_eq!(s.ticks, 1);
        assert_eq!(s.sensor_reads, 15);
        // 10 reads at 1× + 5 reads at 2× the unit cost.
        assert_eq!(s.sensor_read_ns, 20 * COUNTER_READ_COST_NS);
        assert_eq!(s.stage_ns(Stage::Formula), 4_000);
        assert_eq!(s.stage_ns(Stage::Sensor), 0);
        assert_eq!(s.telemetry_ns, 500);
        assert_eq!(s.fleet_ns, 250);
        assert_eq!(s.total_ns(), 20 * COUNTER_READ_COST_NS + 4_000 + 500 + 250);
        assert_eq!(s.per_tick_ns(), s.total_ns());
        // The columns are live registry series.
        let prom = reg.render_prometheus();
        assert!(prom.contains("powerapi_selfcost_sensor_reads_total 15"));
        assert!(prom.contains("powerapi_selfcost_stage_ns_total{stage=\"formula\"} 4000"));
        // Sub-unit pressure never discounts below the unit cost.
        ledger.charge_sensor_reads(1, 0.25);
        assert_eq!(ledger.summary().sensor_read_ns, 21 * COUNTER_READ_COST_NS);
    }

    #[test]
    fn controller_backs_off_after_sustained_inband() {
        let c = SamplingController::new(SamplingConfig::default());
        assert_eq!(c.factor(), 1);
        let mut transitions = Vec::new();
        for _ in 0..30 {
            if let Some(t) = c.observe(None) {
                transitions.push(t);
            }
        }
        // At most 5 + 2 in-band ticks per step: three steps to the 8×
        // ceiling within 21 ticks.
        assert_eq!(c.factor(), 8, "reached the ladder ceiling");
        assert_eq!(transitions.len(), 3);
        assert!(transitions
            .iter()
            .all(|t| t.cause == RateCause::InBand && t.new_factor == t.old_factor * 2));
        assert_eq!(c.transitions(), 3);
    }

    #[test]
    fn breaches_snap_to_full_rate_immediately() {
        let c = SamplingController::new(SamplingConfig::default());
        climb_to(&c, 4);
        let t = c.observe(Some(RateCause::DriftAlarm)).expect("snap back");
        assert_eq!(
            (t.old_factor, t.new_factor, t.cause),
            (4, 1, RateCause::DriftAlarm)
        );
        assert_eq!(c.factor(), 1);
        // A breach at full rate is a no-op (nothing to snap back from).
        assert_eq!(c.observe(Some(RateCause::OutOfBand)), None);
        assert_eq!(c.factor(), 1);
    }

    #[test]
    fn fault_note_overrides_an_inband_tick() {
        let c = SamplingController::new(SamplingConfig::default());
        climb_to(&c, 4);
        c.note_fault();
        let t = c.observe(None).expect("fault snaps back");
        assert_eq!(t.cause, RateCause::FaultWindow);
        assert_eq!(c.factor(), 1);
        // The flag was consumed: the next clean tick is plain in-band.
        assert_eq!(c.observe(None), None);
    }

    #[test]
    fn backoffs_wait_for_the_seeded_streak_and_the_hysteresis_window() {
        let c = SamplingController::new(SamplingConfig::default());
        let mut gap = 0u32;
        let mut streaks = Vec::new();
        for _ in 0..40 {
            gap += 1;
            if let Some(t) = c.observe(None) {
                // On a clean run the streak and the gap are the same
                // count: both restart at every backoff.
                assert_eq!(t.inband_streak, gap);
                assert!(gap >= HYSTERESIS_TICKS, "transition after only {gap} ticks");
                assert!(
                    (INBAND_TICKS..=INBAND_TICKS + INBAND_JITTER).contains(&gap),
                    "streak {gap} outside the jitter band"
                );
                streaks.push(gap);
                gap = 0;
            }
        }
        assert_eq!(streaks.len(), 3, "the ladder climbs to its ceiling");
    }

    #[test]
    fn identical_seeds_replay_identical_decisions() {
        let run = || -> Vec<(u64, RateTransition)> {
            let c = SamplingController::new(SamplingConfig::default());
            let mut out = Vec::new();
            for i in 0..200u64 {
                // A fixed breach schedule exercises both directions.
                let breach = (i % 37 == 36).then_some(RateCause::OutOfBand);
                if let Some(t) = c.observe(breach) {
                    out.push((i, t));
                }
            }
            out
        };
        assert_eq!(run(), run(), "same seed, same schedule, same journal");
        assert!(!run().is_empty());
    }

    #[test]
    fn max_factor_one_pins_full_rate() {
        let c = SamplingController::new(SamplingConfig {
            max_factor: 1,
            ..SamplingConfig::default()
        });
        for _ in 0..50 {
            assert_eq!(c.observe(None), None);
        }
        assert_eq!(c.factor(), 1);
        assert_eq!(c.transitions(), 0);
    }
}
