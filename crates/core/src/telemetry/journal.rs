//! Flight-recorder event journal: a bounded, lock-cheap ring of
//! severity-tagged structured events recording everything *notable* that
//! happens to the pipeline — actor lifecycle (start/restart/escalate/
//! stop), injected faults surfaced by the sensor substrates, quality
//! downgrades, drift alarms and recalibration triggers, and fleet
//! shedding. Each event is stamped with the tick's [`TraceId`] where one
//! is in scope, so journal lines join against [`Tracer`] spans in the
//! Chrome-trace export (see [`export`]).
//!
//! The journal follows the hub's enabled discipline: a disabled journal
//! rejects every emit with a single branch, so dark runs pay nothing.
//! When the ring is full the oldest event is shed and counted in
//! `powerapi_journal_dropped_total` — the recorder never blocks the
//! pipeline and never caps silently.
//!
//! [`Tracer`]: crate::telemetry::trace::Tracer
//! [`export`]: crate::telemetry::export

use crate::telemetry::metrics::Counter;
use crate::telemetry::trace::TraceId;
use simcpu::units::Nanos;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring capacity: generous for hour-long simulated runs (events
/// are emitted on *state changes*, not per message) while bounding a
/// pathological fault storm to a few MiB.
pub const JOURNAL_CAP: usize = 16_384;

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected lifecycle (actor start/stop, requested dumps).
    Info,
    /// Degradation the pipeline absorbed (restart, shed frame, fault
    /// window, quality downgrade, drift alarm).
    Warn,
    /// Something died or escalated.
    Error,
}

impl Severity {
    /// Lowercase label used by the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::label`].
    pub fn from_label(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// What class of thing happened. Labels are kebab-case and stable: they
/// are the JSONL `kind` strings and the Chrome-trace instant names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A supervised actor's thread started (first spawn or respawn).
    ActorStart,
    /// A supervised actor exited cleanly.
    ActorStop,
    /// A handler panicked and was caught by the supervisor.
    ActorPanic,
    /// The supervisor restarted the actor after a panic.
    ActorRestart,
    /// The supervisor gave up and escalated.
    ActorEscalate,
    /// An injected fault window touched the meter or the PMU this tick.
    FaultInjected,
    /// The fallback formula started serving degraded estimates for a pid.
    QualityDegraded,
    /// The primary formula resumed for a previously degraded pid.
    QualityRecovered,
    /// The residual monitor's changepoint detectors alarmed.
    DriftAlarm,
    /// A drift alarm latched a recalibration request.
    Recalibration,
    /// The fleet transport shed a frame (sender backlog or shard ingest
    /// overflow).
    FleetShed,
    /// A fleet sender retransmitted an unacked frame (or exhausted its
    /// retransmit budget — see the event detail).
    FleetRetry,
    /// A fleet host missed its delivery deadline and was marked stale.
    FleetTimeout,
    /// A fleet link partition window opened or closed.
    FleetPartition,
    /// The hierarchical attribution ledger failed its conservation check
    /// (child sums ≠ parent, or root ≠ machine aggregate).
    HierarchyViolation,
    /// A fleet lag SLO burned error budget faster than the alert
    /// threshold over the trailing window.
    SloBurnRate,
    /// A fleet lag SLO spent its whole error budget; the post-mortem
    /// dump is triggered (once) when one is configured.
    SloBudgetExhausted,
    /// The adaptive sampling controller changed the monitoring rate
    /// (backed off while residuals were in-band, or snapped back to full
    /// rate on a drift alarm, fault window or quality downgrade).
    RateChange,
}

impl EventKind {
    /// Every kind, for tests and exhaustive tallies.
    pub const ALL: [EventKind; 18] = [
        EventKind::ActorStart,
        EventKind::ActorStop,
        EventKind::ActorPanic,
        EventKind::ActorRestart,
        EventKind::ActorEscalate,
        EventKind::FaultInjected,
        EventKind::QualityDegraded,
        EventKind::QualityRecovered,
        EventKind::DriftAlarm,
        EventKind::Recalibration,
        EventKind::FleetShed,
        EventKind::FleetRetry,
        EventKind::FleetTimeout,
        EventKind::FleetPartition,
        EventKind::HierarchyViolation,
        EventKind::SloBurnRate,
        EventKind::SloBudgetExhausted,
        EventKind::RateChange,
    ];

    /// Stable kebab-case label (JSONL `kind` field).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::ActorStart => "actor-start",
            EventKind::ActorStop => "actor-stop",
            EventKind::ActorPanic => "actor-panic",
            EventKind::ActorRestart => "actor-restart",
            EventKind::ActorEscalate => "actor-escalate",
            EventKind::FaultInjected => "fault-injected",
            EventKind::QualityDegraded => "quality-degraded",
            EventKind::QualityRecovered => "quality-recovered",
            EventKind::DriftAlarm => "drift-alarm",
            EventKind::Recalibration => "recalibration",
            EventKind::FleetShed => "fleet-shed",
            EventKind::FleetRetry => "fleet-retry",
            EventKind::FleetTimeout => "fleet-timeout",
            EventKind::FleetPartition => "fleet-partition",
            EventKind::HierarchyViolation => "hierarchy-violation",
            EventKind::SloBurnRate => "slo-burn-rate",
            EventKind::SloBudgetExhausted => "slo-budget-exhausted",
            EventKind::RateChange => "rate-change",
        }
    }

    /// Inverse of [`EventKind::label`].
    pub fn from_label(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// The severity this kind is journaled at.
    pub fn severity(self) -> Severity {
        match self {
            EventKind::ActorStart | EventKind::ActorStop | EventKind::RateChange => Severity::Info,
            EventKind::ActorPanic
            | EventKind::ActorEscalate
            | EventKind::HierarchyViolation
            | EventKind::SloBudgetExhausted => Severity::Error,
            EventKind::ActorRestart
            | EventKind::FaultInjected
            | EventKind::QualityDegraded
            | EventKind::QualityRecovered
            | EventKind::DriftAlarm
            | EventKind::Recalibration
            | EventKind::FleetShed
            | EventKind::FleetRetry
            | EventKind::FleetTimeout
            | EventKind::FleetPartition
            | EventKind::SloBurnRate => Severity::Warn,
        }
    }
}

/// One journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Emission order (monotone per journal) — the causal tiebreak for
    /// events sharing a timestamp.
    pub seq: u64,
    /// Simulated time the event refers to (the journal's clock, advanced
    /// by the runtime at each tick boundary, unless the site knew better).
    pub at: Nanos,
    /// Loudness.
    pub severity: Severity,
    /// Event class.
    pub kind: EventKind,
    /// Who/what it concerns: actor name, fault-kind label, pid…
    pub subject: String,
    /// Free-form context (kept short; one clause, no newlines).
    pub detail: String,
    /// The tick trace the event belongs to ([`TraceId::NONE`] when no
    /// tick was in scope).
    pub trace: TraceId,
}

/// A subject or detail as an emit site hands it over: text it already
/// has, or up to two numbers with the function that spells them. Spelled
/// text is formatted when the journal is read, so a per-frame site (the
/// fleet's retransmits and sheds) records its line without formatting
/// or allocating.
#[derive(Debug, Clone)]
pub enum Text {
    /// Text the site already built.
    Owned(String),
    /// Numbers and their spelling, formatted on read.
    Spelled(
        fn(&[u64; 2], &mut fmt::Formatter<'_>) -> fmt::Result,
        [u64; 2],
    ),
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Text::Owned(s) => f.write_str(s),
            Text::Spelled(spell, args) => spell(args, f),
        }
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::Owned(s)
    }
}

impl<T: AsRef<str> + ?Sized> From<&T> for Text {
    fn from(s: &T) -> Text {
        Text::Owned(s.as_ref().to_owned())
    }
}

/// One retained line as recorded; [`Journal::events`] spells it out.
struct Entry {
    seq: u64,
    at: Nanos,
    kind: EventKind,
    subject: Text,
    detail: Text,
    trace: TraceId,
}

impl Entry {
    fn event(&self) -> JournalEvent {
        JournalEvent {
            seq: self.seq,
            at: self.at,
            severity: self.kind.severity(),
            kind: self.kind,
            subject: self.subject.to_string(),
            detail: self.detail.to_string(),
            trace: self.trace,
        }
    }
}

/// Ring slots an enabled journal reserves up front: a fleet run's few
/// hundred fault lines land without regrowing the ring.
const RING_RESERVE: usize = 256;

struct JournalState {
    ring: VecDeque<Entry>,
    seq: u64,
}

/// The bounded event journal. Cheap to clone (everything behind an
/// `Arc`); all emit paths are one branch when the journal is disabled.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

struct JournalInner {
    enabled: bool,
    cap: usize,
    /// Simulated "now" in ns, advanced by the runtime each tick boundary.
    now_ns: AtomicU64,
    state: Mutex<JournalState>,
    /// `powerapi_journal_events_total`.
    emitted: Counter,
    /// `powerapi_journal_dropped_total` — ring evictions, never silent.
    dropped: Counter,
}

impl Journal {
    /// Builds a journal. `emitted`/`dropped` are registry counters so the
    /// recorder's own shedding shows up in the Prometheus dump.
    pub fn new(enabled: bool, cap: usize, emitted: Counter, dropped: Counter) -> Journal {
        Journal {
            inner: Arc::new(JournalInner {
                enabled,
                cap: cap.max(1),
                now_ns: AtomicU64::new(0),
                state: Mutex::new(JournalState {
                    ring: VecDeque::with_capacity(if enabled {
                        cap.clamp(1, RING_RESERVE)
                    } else {
                        0
                    }),
                    seq: 0,
                }),
                emitted,
                dropped,
            }),
        }
    }

    /// A dark journal (every emit is one rejected branch).
    pub fn disabled() -> Journal {
        Journal::new(false, 1, Counter::default(), Counter::default())
    }

    /// Whether the journal records anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Advances the journal's simulated clock (runtime tick boundaries).
    pub fn set_now(&self, now: Nanos) {
        if !self.inner.enabled {
            return;
        }
        self.inner.now_ns.store(now.as_u64(), Ordering::Relaxed);
    }

    /// The journal's current simulated time.
    pub fn now(&self) -> Nanos {
        Nanos(self.inner.now_ns.load(Ordering::Relaxed))
    }

    /// Records an event stamped with the journal clock.
    pub fn emit(
        &self,
        kind: EventKind,
        subject: impl Into<Text>,
        detail: impl Into<Text>,
        trace: TraceId,
    ) {
        if !self.inner.enabled {
            return;
        }
        self.emit_at(self.now(), kind, subject, detail, trace);
    }

    /// Records an event at an explicit simulated time (sites that know
    /// the exact tick, e.g. the residual monitor).
    pub fn emit_at(
        &self,
        at: Nanos,
        kind: EventKind,
        subject: impl Into<Text>,
        detail: impl Into<Text>,
        trace: TraceId,
    ) {
        if !self.inner.enabled {
            return;
        }
        let mut state = self.inner.state.lock().expect("journal");
        state.seq += 1;
        let entry = Entry {
            seq: state.seq,
            at,
            kind,
            subject: subject.into(),
            detail: detail.into(),
            trace,
        };
        state.ring.push_back(entry);
        self.inner.emitted.inc();
        while state.ring.len() > self.inner.cap {
            state.ring.pop_front();
            self.inner.dropped.inc();
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner
            .state
            .lock()
            .expect("journal")
            .ring
            .iter()
            .map(Entry::event)
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.state.lock().expect("journal").ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever emitted (including since-shed ones).
    pub fn emitted(&self) -> u64 {
        self.inner.emitted.get()
    }

    /// Events shed by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// How many retained events are of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.inner
            .state
            .lock()
            .expect("journal")
            .ring
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("enabled", &self.inner.enabled)
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_rejects_everything() {
        let j = Journal::disabled();
        assert!(!j.enabled());
        j.set_now(Nanos::from_secs(5));
        j.emit(EventKind::ActorPanic, "formula", "boom", TraceId(3));
        assert!(j.is_empty());
        assert_eq!(j.emitted(), 0);
        assert_eq!(j.now(), Nanos(0), "clock never advances dark");
    }

    #[test]
    fn events_are_stamped_in_causal_order() {
        let j = Journal::new(true, 64, Counter::default(), Counter::default());
        j.set_now(Nanos::from_secs(1));
        j.emit(
            EventKind::ActorStart,
            "sensor-hpc",
            "spawned",
            TraceId::NONE,
        );
        j.set_now(Nanos::from_secs(2));
        j.emit(
            EventKind::FaultInjected,
            "disconnect",
            "3 samples",
            TraceId(7),
        );
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[0].at, Nanos::from_secs(1));
        assert_eq!(events[1].at, Nanos::from_secs(2));
        assert_eq!(events[1].trace, TraceId(7));
        assert_eq!(events[0].severity, Severity::Info);
        assert_eq!(events[1].severity, Severity::Warn);
        assert_eq!(j.count(EventKind::FaultInjected), 1);
    }

    #[test]
    fn ring_sheds_oldest_and_counts_drops() {
        let j = Journal::new(true, 4, Counter::default(), Counter::default());
        for i in 0..10u64 {
            j.emit_at(
                Nanos(i),
                EventKind::FleetShed,
                "shard-0",
                format!("{i}"),
                TraceId::NONE,
            );
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.emitted(), 10);
        assert_eq!(j.dropped(), 6, "evictions are counted, never silent");
        assert_eq!(j.events()[0].detail, "6", "oldest retained is #6");
    }

    #[test]
    fn spelled_text_reads_as_the_string_it_spells() {
        let j = Journal::new(true, 8, Counter::default(), Counter::default());
        j.emit(
            EventKind::FleetRetry,
            Text::Spelled(|[h, _], f| write!(f, "host-{h}"), [3, 0]),
            Text::Spelled(
                |[seq, attempt], f| write!(f, "seq {seq} retransmit, attempt {attempt}"),
                [41, 2],
            ),
            TraceId(9),
        );
        j.emit(
            EventKind::FleetShed,
            "shard-1",
            String::from("owned"),
            TraceId(9),
        );
        let events = j.events();
        assert_eq!(events[0].subject, "host-3");
        assert_eq!(events[0].detail, "seq 41 retransmit, attempt 2");
        assert_eq!(
            (events[1].subject.as_str(), events[1].detail.as_str()),
            ("shard-1", "owned")
        );
    }

    #[test]
    fn kind_labels_round_trip_and_have_severities() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_label(kind.label()), Some(kind));
            assert!(!kind.severity().label().is_empty());
        }
        assert_eq!(EventKind::from_label("nope"), None);
        for sev in [Severity::Info, Severity::Warn, Severity::Error] {
            assert_eq!(Severity::from_label(sev.label()), Some(sev));
        }
    }
}
