//! Formula actors: "Formula get the sensor messages from the event bus in
//! order to estimate the power consumption of a given process" (§3).
//!
//! [`per_freq::PerFrequencyFormula`] is the one linear formula: the
//! paper's learned model and the baselines the paper compares against
//! — Bertran et al.'s decomposable model, HaPPy's hyperthread-aware
//! split and Versick et al.'s CPU load — are [`per_freq::Kind`]s of it,
//! differing only in the features fed to one
//! [`PerFrequencyPowerModel`](crate::model::power_model::PerFrequencyPowerModel).
//! [`FormulaActor`] is the formula stage's one actor: it hosts the
//! pipeline's one formula, and, when the pipeline degrades to a backup,
//! the per-process staleness watchdog that hands a silent process to it.

pub mod per_freq;

use crate::actor::{Actor, Context};
use crate::frame::{PowerBatch, SensorBatch};
use crate::health::ModelHealth;
use crate::msg::{CorunSplit, Message, ProcTimeDelta, Quality, SensorReport};
use crate::telemetry::EventKind;
use os_sim::process::Pid;
use simcpu::units::{Nanos, Watts};
use std::collections::{BTreeMap, BTreeSet};
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

/// The formula stage's one actor: hosts the pipeline's [`PowerFormula`]
/// on the bus — subscribes to sensor batches, filters by source,
/// publishes power batches. Given a [`ModelHealth`] handle, it marks
/// every estimate [`Quality::Degraded`] while the live residual sits
/// outside the prediction band. Given a backup formula, a per-pid
/// staleness watchdog hands a process to it, tagged
/// [`Quality::Degraded`], while the primary's rows for that pid have
/// been missing longer than `max_age`: a stalled or reset PMU drops the
/// process from the hpc source (see `sensor::hpc`) while procfs keeps
/// reporting its CPU time.
pub struct FormulaActor {
    formula: Box<dyn PowerFormula>,
    health: Option<ModelHealth>,
    backup: Option<Watchdog>,
}

/// The backup formula and the per-pid state its watchdog keys on.
struct Watchdog {
    formula: Box<dyn PowerFormula>,
    max_age: Nanos,
    /// Per-pid timestamp of the last row the primary formula estimated.
    /// Pruned against every backup-source batch, so it tracks the live
    /// monitored set instead of every pid ever seen.
    last_primary: BTreeMap<Pid, Nanos>,
    /// Pids currently served by the backup, so the flight recorder sees
    /// one event per degrade/recover *transition*, not per estimate.
    degraded_pids: BTreeSet<Pid>,
}

impl FormulaActor {
    /// Hosts `formula`, reading `health`'s out-of-band verdict when given
    /// one and falling back per process to `backup`'s formula once the
    /// primary has been silent for that pid longer than its `max_age`.
    pub fn new(
        formula: Box<dyn PowerFormula>,
        health: Option<ModelHealth>,
        backup: Option<(Box<dyn PowerFormula>, Nanos)>,
    ) -> FormulaActor {
        let backup = backup.map(|(formula, max_age)| Watchdog {
            formula,
            max_age: max_age.max(Nanos(1)),
            last_primary: BTreeMap::new(),
            degraded_pids: BTreeSet::new(),
        });
        FormulaActor {
            formula,
            health,
            backup,
        }
    }
}

impl Actor for FormulaActor {
    /// One [`PowerBatch`] out per consumed [`SensorBatch`]: the formula's
    /// estimates for its own source, the backup's for pids whose primary
    /// stream has been silent longer than `max_age`.
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::SensorBatch(batch) = msg else {
            return;
        };
        let out = if batch.source == self.formula.source() {
            // Health is a per-tick property, so the whole batch shares one
            // quality verdict.
            let quality = match &self.health {
                Some(h) if h.out_of_band() => Quality::Degraded,
                _ => Quality::Full,
            };
            let mut out = PowerBatch::estimating(&batch, self.formula.name());
            self.formula.estimate_batch(&batch, quality, &mut out);
            if let Some(watchdog) = &mut self.backup {
                watchdog.primary_estimated(&out, &batch, self.formula.name(), ctx);
            }
            out
        } else {
            match &mut self.backup {
                Some(w) if batch.source == w.formula.source() => w.estimate_silent(&batch, ctx),
                _ => return,
            }
        };
        if !out.is_empty() {
            ctx.bus().publish(Message::PowerBatch(Arc::new(out)));
        }
    }
}

impl Watchdog {
    /// Restarts the clock of every pid the primary estimated (rows it
    /// skipped do not count), journaling each one back from the backup.
    fn primary_estimated(
        &mut self,
        out: &PowerBatch,
        batch: &SensorBatch,
        primary: &'static str,
        ctx: &Context,
    ) {
        let ts = batch.timestamp();
        for &pid in &out.pids {
            self.last_primary.insert(pid, ts);
            if self.degraded_pids.remove(&pid) {
                ctx.telemetry().journal().emit_at(
                    ts,
                    EventKind::QualityRecovered,
                    format!("pid-{}", pid.0),
                    format!("primary formula {primary} resumed"),
                    batch.trace,
                );
            }
        }
    }

    /// The backup's estimates, tagged [`Quality::Degraded`], for the rows
    /// of a backup-source batch whose pid the primary has left silent
    /// longer than `max_age` (empty when there are none).
    fn estimate_silent(&mut self, batch: &SensorBatch, ctx: &Context) -> PowerBatch {
        let ts = batch.timestamp();
        let mut silent = SensorBatch {
            source: batch.source,
            frame: batch.frame.clone(),
            rows: Vec::new(),
            trace: batch.trace,
        };
        for row in &batch.rows {
            // First sighting starts the watchdog: the primary gets a full
            // grace period before the backup may speak for this pid. The
            // sensor stage publishes primary before backup, tick by tick,
            // so `last` never leads `ts`; on a bus wired otherwise a late,
            // older backup batch reads as age zero, not as 2⁶⁴ ns.
            let last = *self.last_primary.entry(row.pid).or_insert(ts);
            if ts.saturating_sub(last) > self.max_age {
                silent.rows.push(*row);
            }
        }
        self.prune_to(batch);
        let mut out = PowerBatch::estimating(&silent, self.formula.name());
        self.formula
            .estimate_batch(&silent, Quality::Degraded, &mut out);
        for &pid in &out.pids {
            if self.degraded_pids.insert(pid) {
                ctx.telemetry().journal().emit_at(
                    ts,
                    EventKind::QualityDegraded,
                    format!("pid-{}", pid.0),
                    format!(
                        "primary silent > {} ms; serving {}",
                        self.max_age.as_u64() / 1_000_000,
                        self.formula.name()
                    ),
                    batch.trace,
                );
            }
        }
        out
    }

    /// Forgets every tracked pid the backup-source batch no longer
    /// lists. That sensor lists every monitored pid every tick, so
    /// absence means unmonitored or exited — without this the watchdog
    /// maps grow for the life of the run under container churn. Every
    /// listed pid is tracked by the time this runs, so equal sizes mean
    /// equal sets and the steady state pays one comparison.
    fn prune_to(&mut self, batch: &SensorBatch) {
        if self.last_primary.len() == batch.rows.len() {
            return;
        }
        let live: BTreeSet<Pid> = batch.rows.iter().map(|r| r.pid).collect();
        self.last_primary.retain(|pid, _| live.contains(pid));
        self.degraded_pids.retain(|pid| live.contains(pid));
    }
}

impl std::fmt::Debug for FormulaActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FormulaActor")
            .field("formula", &self.formula.name())
            .field("backup", &self.backup.as_ref().map(|w| w.formula.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::formula::per_freq::PerFrequencyFormula;
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
        let formula = sys.spawn(
            "formula",
            Box::new(FormulaActor::new(Box::new(Fixed), None, None)),
        );
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
        let formula = sys.spawn(
            "formula",
            Box::new(FormulaActor::new(Box::new(Fixed), None, None)),
        );
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
        // The verdict reaches the formula's rows whether or not a backup
        // is armed (this run never lets the backup speak).
        for armed in [false, true] {
            let health = ModelHealth::new(&crate::telemetry::MetricsRegistry::new());
            let backup = armed.then(|| {
                let cpu_load: Box<dyn PowerFormula> =
                    Box::new(PerFrequencyFormula::cpu_load(30.0, 10.0));
                (cpu_load, Nanos::from_secs(2))
            });
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut sys = ActorSystem::new();
            let actor = FormulaActor::new(Box::new(Fixed), Some(health.clone()), backup);
            let formula = sys.spawn("formula", Box::new(actor));
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
    }

    #[test]
    fn debug_names_the_formula() {
        let fa = FormulaActor::new(Box::new(Fixed), None, None);
        assert!(format!("{fa:?}").contains("fixed"));
    }

    /// Primary stand-in sourcing from the HPC sensor.
    struct Hpc;
    impl PowerFormula for Hpc {
        fn name(&self) -> &'static str {
            "hpc-fixed"
        }
        fn idle_w(&self) -> f64 {
            30.0
        }
        fn estimate(&mut self, _r: &SensorReport) -> Option<Watts> {
            Some(Watts(5.0))
        }
        fn boxed_clone(&self) -> Box<dyn PowerFormula> {
            Box::new(Hpc)
        }
    }

    /// One batch from `source` listing `pids`, each half-busy over a 1 s
    /// interval.
    fn batch(source: &'static str, ts_s: u64, pids: &[u32]) -> Message {
        let mut b = FrameBuilder::new();
        for &pid in pids {
            b.push_time_row(Pid(pid), Nanos::from_millis(500), |_| {});
        }
        let frame = Arc::new(b.finish(
            Nanos::from_secs(ts_s),
            Nanos::from_secs(1),
            Arc::from([]),
            None,
        ));
        Message::SensorBatch(Arc::new(SensorBatch {
            source,
            ..procfs::observe(frame, crate::telemetry::TraceId::NONE)
        }))
    }

    fn sensor(source: &'static str, ts_s: u64, pid: u32) -> Message {
        batch(source, ts_s, &[pid])
    }

    fn watchdog() -> FormulaActor {
        FormulaActor::new(
            Box::new(Hpc),
            None,
            Some((
                Box::new(PerFrequencyFormula::cpu_load(30.0, 10.0)),
                Nanos::from_secs(2),
            )),
        )
    }

    fn run(msgs: Vec<Message>) -> Vec<PowerReport> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let f = sys.spawn("fallback", Box::new(watchdog()));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Sensor, &f);
        sys.bus().subscribe(Topic::Power, &sink);
        for m in msgs {
            sys.bus().publish(m);
        }
        sys.shutdown();
        let out = seen.lock().clone();
        out
    }

    const HPC: &str = crate::sensor::hpc::SOURCE;
    const PROCFS: &str = crate::sensor::procfs::SOURCE;

    #[test]
    fn primary_path_while_reports_flow() {
        let out = run(vec![
            sensor(HPC, 1, 1),
            sensor(PROCFS, 1, 1),
            sensor(HPC, 2, 1),
            sensor(PROCFS, 2, 1),
        ]);
        assert_eq!(out.len(), 2, "backup stays silent while primary is fresh");
        assert!(out.iter().all(|p| p.quality == Quality::Full));
        assert!(out.iter().all(|p| p.formula == "hpc-fixed"));
    }

    #[test]
    fn falls_back_when_primary_goes_silent() {
        // HPC reports stop after t=1; procfs keeps ticking. With a 2 s
        // watchdog, t=4 onward is served by cpu-load, tagged Degraded.
        let out = run(vec![
            sensor(HPC, 1, 1),
            sensor(PROCFS, 1, 1),
            sensor(PROCFS, 2, 1),
            sensor(PROCFS, 3, 1),
            sensor(PROCFS, 4, 1),
            sensor(PROCFS, 5, 1),
        ]);
        let full: Vec<_> = out.iter().filter(|p| p.quality == Quality::Full).collect();
        let degraded: Vec<_> = out
            .iter()
            .filter(|p| p.quality == Quality::Degraded)
            .collect();
        assert_eq!(full.len(), 1);
        assert_eq!(degraded.len(), 2, "t=4 and t=5 fell back");
        assert!(degraded.iter().all(|p| p.formula == "cpu-load"));
        // cpu-load: 0.5 CPU · 10 W/CPU.
        assert!((degraded[0].power.as_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_returns_to_primary() {
        let out = run(vec![
            sensor(HPC, 1, 1),
            sensor(PROCFS, 2, 1),
            sensor(PROCFS, 3, 1),
            sensor(PROCFS, 4, 1), // degraded
            sensor(HPC, 5, 1),    // primary back
            sensor(PROCFS, 5, 1), // fresh again → silent
            sensor(PROCFS, 6, 1),
        ]);
        let kinds: Vec<Quality> = out.iter().map(|p| p.quality).collect();
        assert_eq!(
            kinds,
            vec![Quality::Full, Quality::Degraded, Quality::Full],
            "degraded only while silent: {kinds:?}"
        );
    }

    #[test]
    fn unseen_pid_gets_grace_period_not_immediate_fallback() {
        // procfs-only traffic for a pid the primary never reported:
        // the first max_age worth of reports stays silent (no double
        // estimation during startup races), then degrades.
        let out = run(vec![
            sensor(PROCFS, 1, 7),
            sensor(PROCFS, 2, 7),
            sensor(PROCFS, 3, 7),
            sensor(PROCFS, 4, 7),
        ]);
        assert_eq!(out.len(), 1, "t=4 is the first past the grace period");
        assert_eq!(out[0].quality, Quality::Degraded);
    }

    #[test]
    fn tracks_processes_independently() {
        let out = run(vec![
            batch(HPC, 1, &[1, 2]),
            // pid 1 keeps its HPC stream, pid 2 loses it.
            batch(HPC, 4, &[1]),
            batch(PROCFS, 4, &[1, 2]),
        ]);
        let pid1: Vec<_> = out.iter().filter(|p| p.pid == Pid(1)).collect();
        let pid2: Vec<_> = out.iter().filter(|p| p.pid == Pid(2)).collect();
        assert!(pid1.iter().all(|p| p.quality == Quality::Full));
        assert_eq!(pid2.len(), 2);
        assert_eq!(pid2[1].quality, Quality::Degraded);
    }

    #[test]
    fn quality_transitions_are_journaled_once() {
        let telemetry = crate::telemetry::Telemetry::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::with_telemetry(telemetry.clone());
        let f = sys.spawn("fallback", Box::new(watchdog()));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Sensor, &f);
        sys.bus().subscribe(Topic::Power, &sink);
        for m in [
            sensor(HPC, 1, 1),
            sensor(PROCFS, 2, 1),
            sensor(PROCFS, 3, 1),
            sensor(PROCFS, 4, 1), // degrade transition
            sensor(PROCFS, 5, 1), // still degraded: no second event
            sensor(HPC, 6, 1),    // recover transition
            // Out of order, older than the last primary estimate: its age
            // saturates at zero instead of wrapping to 2⁶⁴ ns of silence,
            // so no estimate, no second degrade event, no panic.
            sensor(PROCFS, 5, 1),
        ] {
            sys.bus().publish(m);
        }
        assert!(sys.shutdown().is_clean());
        let served: Vec<Quality> = seen.lock().iter().map(|p| p.quality).collect();
        let (d, f) = (Quality::Degraded, Quality::Full);
        assert_eq!(served, [f, d, d, f], "t=1, 4, 5, 6 — not the late batch");
        let journal = telemetry.journal();
        assert_eq!(journal.count(EventKind::QualityDegraded), 1);
        assert_eq!(journal.count(EventKind::QualityRecovered), 1);
        let degrade = journal
            .events()
            .into_iter()
            .find(|e| e.kind == EventKind::QualityDegraded)
            .expect("degrade journaled");
        assert_eq!(degrade.subject, "pid-1");
        assert_eq!(degrade.at, Nanos::from_secs(4));
    }

    /// Forwards to the watchdog and records its tracked-set sizes after
    /// every message.
    struct Probe {
        inner: FormulaActor,
        sizes: Arc<Mutex<Vec<(usize, usize)>>>,
    }
    impl Actor for Probe {
        fn handle(&mut self, msg: Message, ctx: &Context) {
            self.inner.handle(msg, ctx);
            let watchdog = self.inner.backup.as_ref().expect("armed");
            self.sizes
                .lock()
                .push((watchdog.last_primary.len(), watchdog.degraded_pids.len()));
        }
    }

    #[test]
    fn retired_pids_are_forgotten_and_live_estimates_unchanged() {
        // Pid 1 lives the whole run with its HPC stream lost after t=1
        // (so it degrades from t=4). Each tick also spawns one pid that
        // never gets an HPC row, lives four ticks (degrading on its
        // last) and is gone — container churn.
        let churn = |with_churn: bool| {
            let sizes = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let mut sys = ActorSystem::new();
            let f = sys.spawn(
                "fallback",
                Box::new(Probe {
                    inner: watchdog(),
                    sizes: sizes.clone(),
                }),
            );
            let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
            sys.bus().subscribe(Topic::Sensor, &f);
            sys.bus().subscribe(Topic::Power, &sink);
            sys.bus().publish(sensor(HPC, 1, 1));
            for ts in 1..=40u64 {
                let mut pids = vec![1];
                if with_churn {
                    pids.extend((ts.saturating_sub(3).max(1)..=ts).map(|k| 100 + k as u32));
                }
                sys.bus().publish(batch(PROCFS, ts, &pids));
            }
            sys.shutdown();
            let live: Vec<PowerReport> = seen
                .lock()
                .iter()
                .filter(|p| p.pid == Pid(1))
                .cloned()
                .collect();
            let sizes = sizes.lock().clone();
            (live, sizes)
        };
        let (with_churn, sizes) = churn(true);
        let (without, _) = churn(false);
        assert_eq!(with_churn, without, "live pid's estimates unaffected");
        assert_eq!(with_churn.len(), 38, "t=1 primary, t=4..=40 degraded");
        // 40 distinct short-lived pids passed through; the watchdog never
        // tracked more than the five alive at once, nor remembered a
        // degraded pid past its exit.
        let (max_tracked, max_degraded) = sizes
            .iter()
            .fold((0, 0), |(a, b), &(t, d)| (a.max(t), b.max(d)));
        assert_eq!(max_tracked, 5, "tracked set bounded by the live set");
        assert_eq!(
            max_degraded, 2,
            "pid 1 plus the one churn pid on its last tick"
        );
    }

    #[test]
    fn accessors_and_debug() {
        let f = watchdog();
        assert_eq!(f.formula.name(), "hpc-fixed");
        assert_eq!(f.formula.idle_w(), 30.0);
        assert!(format!("{f:?}").contains("cpu-load"));
    }
}
