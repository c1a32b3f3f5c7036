//! Graceful degradation for the formula chain: a staleness watchdog that
//! estimates with the primary (HPC) formula while its sensor reports keep
//! flowing, and falls back per-process to a backup (cpu-load) formula when
//! they stop — tagging the fallback estimates [`Quality::Degraded`] so
//! consumers know the number came from the weaker metric.
//!
//! The trigger is *absence*: when the PMU stalls or resets, the hpc
//! source stops listing the affected process (see `sensor::hpc`), while
//! the procfs source keeps reporting CPU time. This actor watches both
//! streams and keys the fallback on the age of the last usable HPC report.

use crate::actor::{Actor, Context};
use crate::formula::PowerFormula;
use crate::frame::{PowerBatch, SensorBatch};
use crate::msg::{Message, Quality};
use crate::telemetry::EventKind;
use os_sim::process::Pid;
use simcpu::units::Nanos;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The watchdog actor wrapping a primary/backup formula pair.
pub struct FallbackFormula {
    primary: Box<dyn PowerFormula>,
    backup: Box<dyn PowerFormula>,
    max_age: Nanos,
    /// Per-pid timestamp of the last row the primary formula estimated.
    /// Pruned against every backup-source batch, so it tracks the live
    /// monitored set instead of every pid ever seen.
    last_primary: BTreeMap<Pid, Nanos>,
    /// Pids currently served by the backup path, so the flight recorder
    /// sees one event per degrade/recover *transition*, not per estimate.
    degraded_pids: BTreeSet<Pid>,
}

impl FallbackFormula {
    /// Wraps `primary` (consulted on its own sensor source) and `backup`
    /// (consulted on *its* source only once the primary has been silent
    /// for a pid longer than `max_age`).
    pub fn new(
        primary: Box<dyn PowerFormula>,
        backup: Box<dyn PowerFormula>,
        max_age: Nanos,
    ) -> FallbackFormula {
        FallbackFormula {
            primary,
            backup,
            max_age: max_age.max(Nanos(1)),
            last_primary: BTreeMap::new(),
            degraded_pids: BTreeSet::new(),
        }
    }

    /// The primary formula's name (the actor reports under it).
    pub fn name(&self) -> &'static str {
        self.primary.name()
    }

    /// The primary formula's idle floor.
    pub fn idle_w(&self) -> f64 {
        self.primary.idle_w()
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

impl Actor for FallbackFormula {
    /// One [`PowerBatch`] out per consumed [`SensorBatch`]: the primary's
    /// estimates for its own source, the backup's for pids whose primary
    /// stream has been silent longer than `max_age`.
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::SensorBatch(batch) = msg else {
            return;
        };
        let ts = batch.timestamp();
        if batch.source == self.primary.source() {
            let mut out = PowerBatch::estimating(&batch, self.primary.name());
            self.primary.estimate_batch(&batch, Quality::Full, &mut out);
            // Only rows the primary actually estimated feed the watchdog.
            for &pid in &out.pids {
                self.last_primary.insert(pid, ts);
                if self.degraded_pids.remove(&pid) {
                    ctx.telemetry().journal().emit_at(
                        ts,
                        EventKind::QualityRecovered,
                        format!("pid-{}", pid.0),
                        format!("primary formula {} resumed", self.primary.name()),
                        batch.trace,
                    );
                }
            }
            if !out.is_empty() {
                ctx.bus().publish(Message::PowerBatch(Arc::new(out)));
            }
            return;
        }
        if batch.source != self.backup.source() {
            return;
        }
        let mut rows = Vec::new();
        for row in &batch.rows {
            // First sighting starts the watchdog: the primary gets a full
            // grace period before the backup may speak for this pid. The
            // sensor stage publishes primary before backup, tick by tick,
            // so `last` never leads `ts`; on a bus wired otherwise a late,
            // older backup batch reads as age zero, not as 2⁶⁴ ns.
            let last = *self.last_primary.entry(row.pid).or_insert(ts);
            if ts.saturating_sub(last) <= self.max_age {
                continue;
            }
            rows.push(*row);
        }
        self.prune_to(&batch);
        if rows.is_empty() {
            return;
        }
        let filtered = SensorBatch {
            source: batch.source,
            frame: batch.frame.clone(),
            rows,
            trace: batch.trace,
        };
        let mut out = PowerBatch::estimating(&filtered, self.backup.name());
        self.backup
            .estimate_batch(&filtered, Quality::Degraded, &mut out);
        for &pid in &out.pids {
            if self.degraded_pids.insert(pid) {
                ctx.telemetry().journal().emit_at(
                    ts,
                    EventKind::QualityDegraded,
                    format!("pid-{}", pid.0),
                    format!(
                        "primary silent > {} ms; serving {}",
                        self.max_age.as_u64() / 1_000_000,
                        self.backup.name()
                    ),
                    batch.trace,
                );
            }
        }
        if !out.is_empty() {
            ctx.bus().publish(Message::PowerBatch(Arc::new(out)));
        }
    }
}

impl std::fmt::Debug for FallbackFormula {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FallbackFormula")
            .field("primary", &self.primary.name())
            .field("backup", &self.backup.name())
            .field("max_age", &self.max_age)
            .field("degraded_pids", &self.degraded_pids.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::formula::per_freq::PerFrequencyFormula;
    use crate::frame::FrameBuilder;
    use crate::msg::{PowerReport, SensorReport, Topic};
    use crate::sensor::procfs;
    use parking_lot::Mutex;
    use simcpu::units::Watts;

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

    struct Capture(Arc<Mutex<Vec<PowerReport>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::PowerBatch(b) = msg {
                self.0.lock().extend(b.reports());
            }
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

    fn watchdog() -> FallbackFormula {
        FallbackFormula::new(
            Box::new(Hpc),
            Box::new(PerFrequencyFormula::cpu_load(30.0, 10.0)),
            Nanos::from_secs(2),
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
        use crate::telemetry::EventKind;
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
        inner: FallbackFormula,
        sizes: Arc<Mutex<Vec<(usize, usize)>>>,
    }
    impl Actor for Probe {
        fn handle(&mut self, msg: Message, ctx: &Context) {
            self.inner.handle(msg, ctx);
            self.sizes.lock().push((
                self.inner.last_primary.len(),
                self.inner.degraded_pids.len(),
            ));
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
        assert_eq!(f.name(), "hpc-fixed");
        assert_eq!(f.idle_w(), 30.0);
        assert!(format!("{f:?}").contains("cpu-load"));
    }
}
