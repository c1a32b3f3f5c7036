//! The lightweight actor runtime: each actor owns a FIFO mailbox and runs
//! on its own thread, processing messages event-driven — the property the
//! paper leans on for real-time estimation ("an actor … can handle
//! millions of messages per second"; see the `middleware` bench).
//!
//! The runtime is *supervised*: a panic inside [`Actor::handle`] is caught
//! and handled per the actor's [`RestartPolicy`] — rebuild the actor from
//! its factory (with backoff, up to a cap), escalate to the system, or
//! stop. Mailboxes are bounded with an explicit [`OverflowPolicy`], and
//! every drop, restart and panic is counted and queryable via
//! [`ActorSystem::health`].
//!
//! Shutdown is ordered: [`ActorSystem::shutdown`] stops actors in spawn
//! order, joining each before stopping the next. Spawning pipeline stages
//! upstream-first therefore guarantees every in-flight message drains
//! through the whole pipeline before the system stops. `shutdown` returns
//! a [`ShutdownSummary`] naming any actor that died panicking instead of
//! swallowing the `JoinHandle` result.

use crate::bus::EventBus;
use crate::msg::Message;
use crate::telemetry::{Counter, EventKind, Gauge, Histogram, Journal, Stage, Telemetry, TraceId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of concurrent, event-driven message processing.
pub trait Actor: Send {
    /// Handles one message. Publishing to `ctx.bus()` is how results move
    /// down the pipeline.
    fn handle(&mut self, msg: Message, ctx: &Context);

    /// Called once after the last message, before the thread exits.
    fn on_stop(&mut self, _ctx: &Context) {}
}

/// Execution context handed to [`Actor::handle`].
#[derive(Debug, Clone)]
pub struct Context {
    bus: EventBus,
    name: Arc<str>,
    telemetry: Telemetry,
}

impl Context {
    /// The system's event bus.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// This actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The system's observability hub (a disabled no-op hub unless the
    /// system was built with [`ActorSystem::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// What a full mailbox does with the next message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// The sender blocks until space frees up. Lossless; backpressure
    /// propagates upstream (and a publish can stall the publisher).
    #[default]
    Block,
    /// Evict the oldest queued message to admit the newest (ring-buffer
    /// semantics; freshest data wins — right for periodic sensor ticks).
    DropOldest,
    /// Reject the incoming message, keeping the queued backlog.
    DropNewest,
}

/// What the supervisor does when [`Actor::handle`] panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// The actor dies; its mailbox closes. The panic is reported in the
    /// [`ShutdownSummary`].
    #[default]
    Stop,
    /// Rebuild the actor from its factory after `backoff`, at most `max`
    /// times over the actor's lifetime; the `max + 1`-th panic stops it.
    Restart {
        /// Lifetime cap on rebuilds.
        max: u32,
        /// Pause before each rebuild (crash-loop damper).
        backoff: Duration,
    },
    /// The actor dies *and* the failure is flagged system-wide
    /// ([`ActorSystem::escalated`]), for faults that invalidate the whole
    /// pipeline rather than one stage.
    Escalate,
}

/// Per-actor spawn configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnOptions {
    /// Mailbox capacity; `None` is unbounded (the pre-supervision
    /// behaviour).
    pub capacity: Option<usize>,
    /// Applied when a bounded mailbox is full.
    pub overflow: OverflowPolicy,
    /// Applied when `handle` panics.
    pub restart: RestartPolicy,
    /// Pipeline stage for telemetry attribution (default
    /// [`Stage::Other`]).
    pub stage: Stage,
}

impl SpawnOptions {
    /// Bounded mailbox of `capacity` messages.
    #[must_use]
    pub fn bounded(mut self, capacity: usize) -> SpawnOptions {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Sets the overflow policy.
    #[must_use]
    pub fn overflow(mut self, policy: OverflowPolicy) -> SpawnOptions {
        self.overflow = policy;
        self
    }

    /// Sets the restart policy.
    #[must_use]
    pub fn restart(mut self, policy: RestartPolicy) -> SpawnOptions {
        self.restart = policy;
        self
    }

    /// Sets the telemetry stage.
    #[must_use]
    pub fn stage(mut self, stage: Stage) -> SpawnOptions {
        self.stage = stage;
        self
    }
}

enum Envelope {
    /// A message plus its enqueue instant (present only when the system
    /// is instrumented, so the uninstrumented hot path never reads the
    /// clock).
    Message(Message, Option<Instant>),
    Stop,
}

/// Live mailbox gauges, mirrored into the metrics registry, plus the
/// flight-recorder handle so overflow shedding leaves a journal line.
struct MailboxMetrics {
    depth: Gauge,
    dropped: Counter,
    /// Shared per-stage shed tally (`powerapi_mailbox_shed_total{stage=…}`)
    /// — every actor of a stage increments the same counter, so overflow
    /// shedding is attributable per pipeline stage / fleet shard, not just
    /// per actor.
    stage_shed: Counter,
    journal: Journal,
    owner: Arc<str>,
}

/// A bounded MPSC mailbox on std primitives (the vendored channel stub is
/// unbounded-only). `Stop` bypasses the capacity check so shutdown can
/// never deadlock behind a full queue.
struct Mailbox {
    inner: Mutex<MailboxInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: Option<usize>,
    policy: OverflowPolicy,
    dropped: AtomicU64,
    /// Registry mirrors (depth gauge, drop counter); `None` keeps the
    /// uninstrumented hot path free of clock reads and gauge updates.
    metrics: Option<MailboxMetrics>,
}

struct MailboxInner {
    queue: VecDeque<Envelope>,
    closed: bool,
}

impl Mailbox {
    fn new(
        capacity: Option<usize>,
        policy: OverflowPolicy,
        metrics: Option<MailboxMetrics>,
    ) -> Mailbox {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            policy,
            dropped: AtomicU64::new(0),
            metrics,
        }
    }

    fn note_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.dropped.inc();
            m.stage_shed.inc();
            m.journal.emit(
                EventKind::MailboxDrop,
                &m.owner,
                "bounded mailbox shed a message",
                TraceId::NONE,
            );
        }
    }

    /// Enqueues a message; `false` once the mailbox is closed. Under
    /// `DropOldest`/`DropNewest` a full queue still returns `true` — the
    /// actor is alive, the loss is recorded in the drop counter.
    fn send(&self, msg: Message) -> bool {
        let enqueued = self.metrics.as_ref().map(|_| Instant::now());
        let mut inner = self.inner.lock().expect("mailbox lock");
        if inner.closed {
            return false;
        }
        if let Some(cap) = self.capacity {
            if inner.queue.len() >= cap {
                match self.policy {
                    OverflowPolicy::Block => {
                        while inner.queue.len() >= cap && !inner.closed {
                            inner = self.not_full.wait(inner).expect("mailbox lock");
                        }
                        if inner.closed {
                            return false;
                        }
                    }
                    OverflowPolicy::DropOldest => {
                        // Never evict a queued Stop: losing it would leak
                        // the actor thread at shutdown.
                        match inner.queue.pop_front() {
                            Some(Envelope::Stop) => {
                                inner.queue.push_front(Envelope::Stop);
                                self.note_drop();
                                return true;
                            }
                            Some(Envelope::Message(..)) => {
                                self.note_drop();
                                if let Some(m) = &self.metrics {
                                    m.depth.dec();
                                }
                            }
                            None => {}
                        }
                    }
                    OverflowPolicy::DropNewest => {
                        self.note_drop();
                        return true;
                    }
                }
            }
        }
        inner.queue.push_back(Envelope::Message(msg, enqueued));
        drop(inner);
        if let Some(m) = &self.metrics {
            m.depth.inc();
        }
        self.not_empty.notify_one();
        true
    }

    /// Enqueues `Stop` behind the current backlog, ignoring capacity.
    fn send_stop(&self) {
        let mut inner = self.inner.lock().expect("mailbox lock");
        if inner.closed {
            return;
        }
        inner.queue.push_back(Envelope::Stop);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Blocks for the next envelope; `None` once closed and drained.
    fn recv(&self) -> Option<Envelope> {
        let mut inner = self.inner.lock().expect("mailbox lock");
        loop {
            if let Some(env) = inner.queue.pop_front() {
                drop(inner);
                if let (Some(m), Envelope::Message(..)) = (&self.metrics, &env) {
                    m.depth.dec();
                }
                self.not_full.notify_one();
                return Some(env);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("mailbox lock");
        }
    }

    /// Closes the mailbox, waking blocked senders and the receiver.
    fn close(&self) {
        self.inner.lock().expect("mailbox lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Shared per-actor counters, updated live by the mailbox and the
/// supervision loop.
#[derive(Default)]
struct ActorCounters {
    restarts: AtomicU64,
    panics: AtomicU64,
}

/// Address of a running actor: send it messages, or hold it in the bus's
/// subscription lists.
#[derive(Clone)]
pub struct ActorRef {
    mailbox: Arc<Mailbox>,
    name: Arc<str>,
}

impl ActorRef {
    /// Enqueues a message; returns `false` when the actor has stopped.
    pub fn send(&self, msg: Message) -> bool {
        self.mailbox.send(msg)
    }

    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Messages this actor's mailbox has dropped to overflow.
    pub fn dropped(&self) -> u64 {
        self.mailbox.dropped.load(Ordering::Relaxed)
    }

    fn stop(&self) {
        self.mailbox.send_stop();
    }
}

impl std::fmt::Debug for ActorRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorRef")
            .field("name", &self.name)
            .finish()
    }
}

/// How one actor's thread ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExitKind {
    /// Drained and stopped cleanly.
    Clean,
    /// Died panicking (policy `Stop`, or restart cap exhausted).
    Panicked,
    /// Died panicking with policy `Escalate`.
    Escalated,
}

/// Live health counters for one actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorHealth {
    /// The actor's name.
    pub name: String,
    /// Messages its mailbox dropped to overflow.
    pub dropped: u64,
    /// Supervised rebuilds performed.
    pub restarts: u64,
    /// Panics caught in `handle`.
    pub panics: u64,
}

/// What [`ActorSystem::shutdown`] observed while joining the actors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownSummary {
    /// Names of actors whose thread ended in an unrecovered panic.
    pub panicked: Vec<String>,
    /// Total supervised restarts across all actors.
    pub restarts: u64,
    /// Total messages dropped by mailbox overflow across all actors.
    pub dropped: u64,
    /// Total panics caught (including ones recovered by restart).
    pub panics: u64,
    /// Whether any actor escalated its failure.
    pub escalated: bool,
}

impl ShutdownSummary {
    /// No panics, no escalation (drops and successful restarts are
    /// recoverable by design and do not make a shutdown unclean).
    pub fn is_clean(&self) -> bool {
        self.panicked.is_empty() && !self.escalated
    }
}

struct ActorEntry {
    actor_ref: ActorRef,
    handle: JoinHandle<ExitKind>,
    counters: Arc<ActorCounters>,
}

/// Owns the actor threads and the event bus.
pub struct ActorSystem {
    bus: EventBus,
    actors: Vec<ActorEntry>,
    escalated: Arc<AtomicU64>,
    telemetry: Telemetry,
}

impl ActorSystem {
    /// Creates an empty system with a fresh bus and telemetry *disabled*
    /// (the zero-overhead hot path; see the `middleware` bench).
    pub fn new() -> ActorSystem {
        ActorSystem::with_telemetry(Telemetry::disabled())
    }

    /// Creates an empty system observed by `telemetry`: every spawned
    /// actor gets mailbox-depth gauges, handled/dropped counters, latency
    /// histograms and trace hops recorded into the hub.
    pub fn with_telemetry(telemetry: Telemetry) -> ActorSystem {
        ActorSystem {
            bus: EventBus::with_telemetry(telemetry.clone()),
            actors: Vec::new(),
            escalated: Arc::new(AtomicU64::new(0)),
            telemetry,
        }
    }

    /// The system's telemetry hub (disabled unless built with
    /// [`ActorSystem::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The system's event bus.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Number of live actors.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether no actors run.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Whether any actor has escalated a failure so far.
    pub fn escalated(&self) -> bool {
        self.escalated.load(Ordering::Relaxed) > 0
    }

    /// Live per-actor drop/restart/panic counters, in spawn order.
    pub fn health(&self) -> Vec<ActorHealth> {
        self.actors
            .iter()
            .map(|e| ActorHealth {
                name: e.actor_ref.name().to_string(),
                dropped: e.actor_ref.dropped(),
                restarts: e.counters.restarts.load(Ordering::Relaxed),
                panics: e.counters.panics.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Spawns an actor on its own thread with default options (unbounded
    /// mailbox, `Stop` on panic — the pre-supervision behaviour). **Spawn
    /// pipeline stages in upstream-to-downstream order** so shutdown
    /// drains correctly.
    pub fn spawn(&mut self, name: impl Into<String>, actor: Box<dyn Actor>) -> ActorRef {
        self.spawn_with(name, actor, SpawnOptions::default())
    }

    /// Spawns a one-shot actor with explicit options. The restart policy
    /// must not be `Restart` (there is no factory to rebuild from); use
    /// [`ActorSystem::spawn_supervised`] for restartable actors.
    pub fn spawn_with(
        &mut self,
        name: impl Into<String>,
        actor: Box<dyn Actor>,
        options: SpawnOptions,
    ) -> ActorRef {
        let mut slot = Some(actor);
        self.spawn_supervised(
            name,
            move || slot.take().expect("one-shot actor cannot be rebuilt"),
            options,
        )
    }

    /// Spawns a supervised actor built (and, under `Restart`, rebuilt)
    /// from `factory`, with an explicitly configured mailbox.
    pub fn spawn_supervised(
        &mut self,
        name: impl Into<String>,
        mut factory: impl FnMut() -> Box<dyn Actor> + Send + 'static,
        options: SpawnOptions,
    ) -> ActorRef {
        let name: Arc<str> = Arc::from(name.into());
        let (mailbox_metrics, instruments) = if self.telemetry.enabled() {
            let reg = self.telemetry.registry();
            (
                Some(MailboxMetrics {
                    depth: reg.gauge(&format!("powerapi_mailbox_depth{{actor=\"{name}\"}}")),
                    dropped: reg
                        .counter(&format!("powerapi_actor_dropped_total{{actor=\"{name}\"}}")),
                    stage_shed: reg.counter(&format!(
                        "powerapi_mailbox_shed_total{{stage=\"{}\"}}",
                        options.stage.label()
                    )),
                    journal: self.telemetry.journal().clone(),
                    owner: name.clone(),
                }),
                Some(ActorInstruments {
                    stage: options.stage,
                    handled: reg
                        .counter(&format!("powerapi_actor_handled_total{{actor=\"{name}\"}}")),
                    handle_ns: reg
                        .histogram(&format!("powerapi_actor_handle_ns{{actor=\"{name}\"}}")),
                    queue_ns: reg
                        .histogram(&format!("powerapi_actor_queue_ns{{actor=\"{name}\"}}")),
                    restarts: reg.counter(&format!(
                        "powerapi_actor_restarts_total{{actor=\"{name}\"}}"
                    )),
                    panics: reg
                        .counter(&format!("powerapi_actor_panics_total{{actor=\"{name}\"}}")),
                    stage_handle_ns: self.telemetry.stage_histogram(options.stage),
                    tick_lag_ns: self.telemetry.tick_lag_histogram(),
                    telemetry: self.telemetry.clone(),
                }),
            )
        } else {
            (None, None)
        };
        let mailbox = Arc::new(Mailbox::new(
            options.capacity,
            options.overflow,
            mailbox_metrics,
        ));
        let actor_ref = ActorRef {
            mailbox: mailbox.clone(),
            name: name.clone(),
        };
        let ctx = Context {
            bus: self.bus.clone(),
            name: name.clone(),
            telemetry: self.telemetry.clone(),
        };
        let counters = Arc::new(ActorCounters::default());
        let thread_counters = counters.clone();
        let escalated = self.escalated.clone();
        let handle = std::thread::Builder::new()
            .name(format!("actor-{name}"))
            .spawn(move || {
                let exit = supervise(
                    &mut factory,
                    &ctx,
                    &mailbox,
                    options.restart,
                    &thread_counters,
                    instruments.as_ref(),
                );
                if exit == ExitKind::Escalated {
                    escalated.fetch_add(1, Ordering::Relaxed);
                }
                // Whatever the exit path, wake blocked senders.
                mailbox.close();
                exit
            })
            .expect("spawning an actor thread");
        self.actors.push(ActorEntry {
            actor_ref: actor_ref.clone(),
            handle,
            counters,
        });
        actor_ref
    }

    /// Stops every actor in spawn order, joining each before stopping the
    /// next, so in-flight messages drain through the pipeline. Returns
    /// which actors panicked (plus drop/restart totals) rather than
    /// discarding the join results.
    pub fn shutdown(self) -> ShutdownSummary {
        let mut summary = ShutdownSummary::default();
        for entry in self.actors {
            entry.actor_ref.stop();
            let exit = entry.handle.join().unwrap_or(ExitKind::Panicked);
            // Counters are read only after the join: the actor may still
            // be draining (and restarting) between stop() and exit.
            summary.dropped += entry.actor_ref.dropped();
            summary.restarts += entry.counters.restarts.load(Ordering::Relaxed);
            summary.panics += entry.counters.panics.load(Ordering::Relaxed);
            match exit {
                ExitKind::Clean => {}
                ExitKind::Panicked => {
                    summary.panicked.push(entry.actor_ref.name().to_string());
                }
                ExitKind::Escalated => {
                    summary.panicked.push(entry.actor_ref.name().to_string());
                    summary.escalated = true;
                }
            }
        }
        if !summary.panicked.is_empty() {
            eprintln!(
                "actor system shutdown: {} actor(s) died panicking: {}",
                summary.panicked.len(),
                summary.panicked.join(", ")
            );
        }
        summary
    }
}

/// Per-actor telemetry handles, created once at spawn so the supervision
/// loop never touches the registry's mutex.
struct ActorInstruments {
    stage: Stage,
    handled: Counter,
    handle_ns: Histogram,
    queue_ns: Histogram,
    restarts: Counter,
    panics: Counter,
    stage_handle_ns: Histogram,
    tick_lag_ns: Histogram,
    telemetry: Telemetry,
}

/// The per-thread supervision loop: run the actor, catch panics, apply
/// the restart policy.
fn supervise(
    factory: &mut dyn FnMut() -> Box<dyn Actor>,
    ctx: &Context,
    mailbox: &Mailbox,
    policy: RestartPolicy,
    counters: &ActorCounters,
    instruments: Option<&ActorInstruments>,
) -> ExitKind {
    let journal = ctx.telemetry.journal();
    let mut actor = factory();
    journal.emit(EventKind::ActorStart, &ctx.name, "spawned", TraceId::NONE);
    loop {
        let panicked = loop {
            let Some(env) = mailbox.recv() else {
                break false;
            };
            let (msg, enqueued) = match env {
                Envelope::Message(msg, enqueued) => (msg, enqueued),
                Envelope::Stop => break false,
            };
            let caught = if let Some(ins) = instruments {
                // Capture what the recording needs before the message
                // moves into the handler.
                let queue_ns = enqueued.map_or(0, |t| t.elapsed().as_nanos() as u64);
                // Ticks are trace roots: resolve the tick's span (opened
                // at publish) by its timestamp — this is what puts the
                // sensor stage on the exported trace.
                let trace = match &msg {
                    Message::Frame(frame) => ins.telemetry.trace_for_tick(frame.timestamp),
                    _ => msg.trace(),
                };
                let is_tick = matches!(msg, Message::Frame(_));
                let start = Instant::now();
                let caught = catch_unwind(AssertUnwindSafe(|| actor.handle(msg, ctx))).is_err();
                let handle_ns = start.elapsed().as_nanos() as u64;
                ins.handled.inc();
                ins.handle_ns.record(handle_ns);
                ins.queue_ns.record(queue_ns);
                ins.stage_handle_ns.record(handle_ns);
                if is_tick {
                    // How far behind the monitoring clock this actor ran.
                    ins.tick_lag_ns.record(queue_ns);
                }
                ins.telemetry.overhead().record_handle(handle_ns);
                ins.telemetry
                    .tracer()
                    .record_hop(trace, ins.stage, &ctx.name, queue_ns, handle_ns);
                caught
            } else {
                catch_unwind(AssertUnwindSafe(|| actor.handle(msg, ctx))).is_err()
            };
            if caught {
                break true;
            }
        };
        if !panicked {
            // A panicking on_stop still counts against the actor, but
            // there is nothing left to restart.
            if catch_unwind(AssertUnwindSafe(|| actor.on_stop(ctx))).is_err() {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                if let Some(ins) = instruments {
                    ins.panics.inc();
                }
                journal.emit(
                    EventKind::ActorPanic,
                    &ctx.name,
                    "panicked in on_stop",
                    TraceId::NONE,
                );
                return ExitKind::Panicked;
            }
            journal.emit(
                EventKind::ActorStop,
                &ctx.name,
                "exited cleanly",
                TraceId::NONE,
            );
            return ExitKind::Clean;
        }
        counters.panics.fetch_add(1, Ordering::Relaxed);
        if let Some(ins) = instruments {
            ins.panics.inc();
        }
        journal.emit(
            EventKind::ActorPanic,
            &ctx.name,
            "panicked in handle",
            TraceId::NONE,
        );
        match policy {
            RestartPolicy::Stop => return ExitKind::Panicked,
            RestartPolicy::Escalate => {
                journal.emit(
                    EventKind::ActorEscalate,
                    &ctx.name,
                    "supervisor escalated the failure",
                    TraceId::NONE,
                );
                return ExitKind::Escalated;
            }
            RestartPolicy::Restart { max, backoff } => {
                if counters.restarts.load(Ordering::Relaxed) >= u64::from(max) {
                    return ExitKind::Panicked;
                }
                if backoff > Duration::ZERO {
                    std::thread::sleep(backoff);
                }
                // The poisoned instance is dropped; state comes back
                // fresh from the factory.
                actor = factory();
                counters.restarts.fetch_add(1, Ordering::Relaxed);
                if let Some(ins) = instruments {
                    ins.restarts.inc();
                }
                journal.emit(
                    EventKind::ActorRestart,
                    &ctx.name,
                    format!(
                        "rebuilt after panic (restart #{})",
                        counters.restarts.load(Ordering::Relaxed)
                    ),
                    TraceId::NONE,
                );
            }
        }
    }
}

impl Default for ActorSystem {
    fn default() -> ActorSystem {
        ActorSystem::new()
    }
}

impl std::fmt::Debug for ActorSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorSystem")
            .field("actors", &self.actors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Topic;
    use crate::testing::wait_until;
    use simcpu::units::{Nanos, Watts};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    struct Counter {
        hits: Arc<AtomicU64>,
        stopped: Arc<AtomicU64>,
    }

    impl Actor for Counter {
        fn handle(&mut self, _msg: Message, _ctx: &Context) {
            self.hits.fetch_add(1, Ordering::SeqCst);
        }
        fn on_stop(&mut self, _ctx: &Context) {
            self.stopped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The lightest message there is: a bare meter reading of `w` watts.
    fn reading(w: f64) -> Message {
        Message::Meter(Nanos(1), Watts(w))
    }

    #[test]
    fn messages_are_delivered_and_drained_on_shutdown() {
        let hits = Arc::new(AtomicU64::new(0));
        let stopped = Arc::new(AtomicU64::new(0));
        let mut sys = ActorSystem::new();
        let a = sys.spawn(
            "counter",
            Box::new(Counter {
                hits: hits.clone(),
                stopped: stopped.clone(),
            }),
        );
        assert_eq!(a.name(), "counter");
        for i in 0..1000 {
            assert!(a.send(reading(i as f64)));
        }
        let summary = sys.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 1000, "drain before stop");
        assert_eq!(stopped.load(Ordering::SeqCst), 1, "on_stop ran once");
        assert!(summary.is_clean());
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn send_after_shutdown_returns_false() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn(
            "c",
            Box::new(Counter {
                hits: Arc::new(AtomicU64::new(0)),
                stopped: Arc::new(AtomicU64::new(0)),
            }),
        );
        sys.shutdown();
        assert!(!a.send(reading(1.0)));
    }

    /// A two-stage pipeline: stage 1 republishes every Meter message to
    /// the Rapl topic; stage 2 records what it sees. Shutdown order must
    /// drain stage 1 into stage 2.
    struct Relay;
    impl Actor for Relay {
        fn handle(&mut self, msg: Message, ctx: &Context) {
            if let Message::Meter(at, w) = msg {
                ctx.bus().publish(Message::Rapl(at, w));
            }
        }
    }

    struct Sink {
        seen: Arc<Mutex<Vec<f64>>>,
    }
    impl Actor for Sink {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::Rapl(_, w) = msg {
                self.seen.lock().unwrap().push(w.as_f64());
            }
        }
    }

    #[test]
    fn pipeline_drains_in_spawn_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        // Upstream first.
        let relay = sys.spawn("relay", Box::new(Relay));
        let sink = sys.spawn("sink", Box::new(Sink { seen: seen.clone() }));
        sys.bus().subscribe(Topic::Meter, &relay);
        sys.bus().subscribe(Topic::Rapl, &sink);
        for i in 0..500 {
            sys.bus().publish(reading(i as f64));
        }
        sys.shutdown();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 500, "all messages flowed through both stages");
        // FIFO order preserved end to end.
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn system_accessors() {
        let mut sys = ActorSystem::new();
        assert!(sys.is_empty());
        sys.spawn(
            "x",
            Box::new(Counter {
                hits: Arc::new(AtomicU64::new(0)),
                stopped: Arc::new(AtomicU64::new(0)),
            }),
        );
        assert_eq!(sys.len(), 1);
        assert!(!sys.is_empty());
        assert!(format!("{sys:?}").contains("ActorSystem"));
        sys.shutdown();
    }

    /// Panics on power readings above a threshold; counts what it handled.
    struct Fragile {
        threshold: f64,
        handled: Arc<AtomicU64>,
    }
    impl Actor for Fragile {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::Meter(_, w) = msg {
                assert!(
                    w.as_f64() < self.threshold,
                    "injected fault: power {} over {}",
                    w.as_f64(),
                    self.threshold
                );
                self.handled.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn quiet_panics() -> impl Drop {
        // Silence the default hook's backtrace spam for intentional
        // panics; restore on drop so other tests are unaffected.
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                // take_hook itself panics on a panicking thread; a failed
                // assertion must not turn into a double-panic abort.
                if !std::thread::panicking() {
                    let _ = std::panic::take_hook();
                }
            }
        }
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
        Restore
    }

    #[test]
    fn panic_with_stop_policy_is_reported_not_swallowed() {
        let _quiet = quiet_panics();
        let handled = Arc::new(AtomicU64::new(0));
        let mut sys = ActorSystem::new();
        let a = sys.spawn(
            "fragile",
            Box::new(Fragile {
                threshold: 100.0,
                handled: handled.clone(),
            }),
        );
        assert!(a.send(reading(1.0)));
        a.send(reading(1000.0)); // boom
        let summary = sys.shutdown();
        assert_eq!(summary.panicked, vec!["fragile".to_string()]);
        assert_eq!(summary.panics, 1);
        assert!(!summary.is_clean());
        assert!(!summary.escalated);
        assert_eq!(handled.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn restart_policy_rebuilds_state_and_respects_cap() {
        let _quiet = quiet_panics();
        let built = Arc::new(AtomicU64::new(0));
        let handled = Arc::new(AtomicU64::new(0));
        let mut sys = ActorSystem::new();
        let factory_built = built.clone();
        let factory_handled = handled.clone();
        let a = sys.spawn_supervised(
            "phoenix",
            move || {
                factory_built.fetch_add(1, Ordering::SeqCst);
                Box::new(Fragile {
                    threshold: 100.0,
                    handled: factory_handled.clone(),
                })
            },
            SpawnOptions::default().restart(RestartPolicy::Restart {
                max: 2,
                backoff: Duration::from_millis(1),
            }),
        );
        // Two panics are absorbed by restarts; messages in between are
        // handled by the rebuilt instances.
        a.send(reading(1000.0));
        a.send(reading(1.0));
        a.send(reading(1000.0));
        a.send(reading(1.0));
        // Third panic exceeds the cap → actor dies.
        a.send(reading(1000.0));
        let summary = sys.shutdown();
        assert_eq!(built.load(Ordering::SeqCst), 3, "initial + 2 rebuilds");
        assert_eq!(handled.load(Ordering::SeqCst), 2);
        assert_eq!(summary.restarts, 2);
        assert_eq!(summary.panics, 3);
        assert_eq!(summary.panicked, vec!["phoenix".to_string()]);
    }

    #[test]
    fn escalate_policy_flags_the_system() {
        let _quiet = quiet_panics();
        let mut sys = ActorSystem::new();
        let handled = Arc::new(AtomicU64::new(0));
        let h = handled.clone();
        let a = sys.spawn_supervised(
            "critical",
            move || {
                Box::new(Fragile {
                    threshold: 100.0,
                    handled: h.clone(),
                })
            },
            SpawnOptions::default().restart(RestartPolicy::Escalate),
        );
        assert!(!sys.escalated());
        a.send(reading(1000.0));
        // The escalation flag flips as soon as the thread exits; wait for
        // it rather than racing it.
        assert!(wait_until(Duration::from_secs(10), || sys.escalated()));
        let summary = sys.shutdown();
        assert!(summary.escalated);
        assert_eq!(summary.panicked, vec!["critical".to_string()]);
    }

    #[test]
    fn restarted_actor_keeps_consuming_its_mailbox() {
        let _quiet = quiet_panics();
        let handled = Arc::new(AtomicU64::new(0));
        let h = handled.clone();
        let mut sys = ActorSystem::new();
        let a = sys.spawn_supervised(
            "worker",
            move || {
                Box::new(Fragile {
                    threshold: 100.0,
                    handled: h.clone(),
                })
            },
            SpawnOptions::default().restart(RestartPolicy::Restart {
                max: 10,
                backoff: Duration::ZERO,
            }),
        );
        // Queue a burst with one poison pill in the middle; everything
        // after the pill must still be processed by the rebuilt actor.
        for i in 0..50 {
            a.send(reading(if i == 25 { 1000.0 } else { 1.0 }));
        }
        let summary = sys.shutdown();
        assert_eq!(handled.load(Ordering::SeqCst), 49);
        assert_eq!(summary.restarts, 1);
        assert!(summary.is_clean(), "recovered panics leave a clean system");
    }

    /// Slow consumer for overflow tests: parks on a gate until released.
    struct Gated {
        gate: Arc<(Mutex<bool>, Condvar)>,
        seen: Arc<AtomicU64>,
    }
    impl Actor for Gated {
        fn handle(&mut self, _msg: Message, _ctx: &Context) {
            let (lock, cv) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            self.seen.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    #[test]
    fn drop_oldest_overflow_counts_and_keeps_freshest() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let mut sys = ActorSystem::new();
        let g = gate.clone();
        let s = seen.clone();
        let a = sys.spawn_supervised(
            "ring",
            move || {
                Box::new(Gated {
                    gate: g.clone(),
                    seen: s.clone(),
                })
            },
            SpawnOptions::default()
                .bounded(4)
                .overflow(OverflowPolicy::DropOldest),
        );
        // Consumer is gated: the queue fills at 4, then each send evicts.
        for i in 0..20 {
            assert!(a.send(reading(i as f64)), "overflow is not an error");
        }
        assert!(a.dropped() >= 15, "evictions counted, got {}", a.dropped());
        open_gate(&gate);
        let summary = sys.shutdown();
        assert!(summary.dropped >= 15);
        let processed = seen.load(Ordering::SeqCst);
        assert_eq!(processed + summary.dropped, 20, "every message accounted");
    }

    #[test]
    fn drop_newest_overflow_rejects_incoming() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let mut sys = ActorSystem::new();
        let g = gate.clone();
        let s = seen.clone();
        let a = sys.spawn_supervised(
            "tail-drop",
            move || {
                Box::new(Gated {
                    gate: g.clone(),
                    seen: s.clone(),
                })
            },
            SpawnOptions::default()
                .bounded(4)
                .overflow(OverflowPolicy::DropNewest),
        );
        for i in 0..20 {
            a.send(reading(i as f64));
        }
        assert!(a.dropped() >= 15);
        open_gate(&gate);
        let summary = sys.shutdown();
        // The backlog (≤ capacity + one in-flight) survived, the rest
        // were rejected at the door.
        assert!(seen.load(Ordering::SeqCst) <= 5);
        assert_eq!(seen.load(Ordering::SeqCst) + summary.dropped, 20);
    }

    #[test]
    fn overflow_sheds_are_attributed_per_stage() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let telemetry = Telemetry::new();
        let mut sys = ActorSystem::with_telemetry(telemetry.clone());
        let g = gate.clone();
        let s = seen.clone();
        let a = sys.spawn_supervised(
            "agg-0",
            move || {
                Box::new(Gated {
                    gate: g.clone(),
                    seen: s.clone(),
                })
            },
            SpawnOptions::default()
                .bounded(2)
                .overflow(OverflowPolicy::DropNewest)
                .stage(Stage::Aggregator),
        );
        for i in 0..12 {
            a.send(reading(i as f64));
        }
        open_gate(&gate);
        sys.shutdown();
        let dump = telemetry.render_prometheus();
        let line = dump
            .lines()
            .find(|l| l.starts_with("powerapi_mailbox_shed_total{stage=\"aggregator\"}"))
            .expect("per-stage shed counter in the Prometheus dump");
        let shed: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("counter value");
        assert!(shed >= 8, "sheds attributed to the stage, got {shed}");
    }

    #[test]
    fn block_overflow_never_loses_messages() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let mut sys = ActorSystem::with_telemetry(Telemetry::new());
        let g = gate.clone();
        let s = seen.clone();
        let a = sys.spawn_supervised(
            "lossless",
            move || {
                Box::new(Gated {
                    gate: g.clone(),
                    seen: s.clone(),
                })
            },
            SpawnOptions::default()
                .bounded(2)
                .overflow(OverflowPolicy::Block),
        );
        // Sender thread pushes 50 through a 2-slot mailbox while the
        // consumer is released shortly after: every send must land.
        let sender = {
            let a = a.clone();
            std::thread::spawn(move || {
                let mut ok = 0;
                for i in 0..50 {
                    if a.send(reading(i as f64)) {
                        ok += 1;
                    }
                }
                ok
            })
        };
        // Wait until the sender is actually wedged against the full
        // mailbox (depth gauge at capacity, one message in-flight) before
        // releasing the consumer — deterministic, unlike a fixed sleep.
        let depth = sys
            .telemetry()
            .registry()
            .gauge("powerapi_mailbox_depth{actor=\"lossless\"}");
        assert!(wait_until(Duration::from_secs(10), || depth.get() >= 2));
        open_gate(&gate);
        let sent = sender.join().unwrap();
        let summary = sys.shutdown();
        assert_eq!(sent, 50);
        assert_eq!(summary.dropped, 0, "Block loses nothing");
        assert_eq!(seen.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn health_reports_live_counters() {
        let _quiet = quiet_panics();
        let handled = Arc::new(AtomicU64::new(0));
        let h = handled.clone();
        let mut sys = ActorSystem::new();
        let a = sys.spawn_supervised(
            "observed",
            move || {
                Box::new(Fragile {
                    threshold: 100.0,
                    handled: h.clone(),
                })
            },
            SpawnOptions::default().restart(RestartPolicy::Restart {
                max: 5,
                backoff: Duration::ZERO,
            }),
        );
        a.send(reading(1000.0));
        a.send(reading(1.0));
        // Wait until the recovery is visible.
        assert!(wait_until(Duration::from_secs(10), || {
            handled.load(Ordering::SeqCst) == 1
        }));
        let health = sys.health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].name, "observed");
        assert_eq!(health[0].restarts, 1);
        assert_eq!(health[0].panics, 1);
        sys.shutdown();
    }

    #[test]
    fn instrumented_system_records_metrics_and_hops() {
        let telemetry = Telemetry::new();
        let mut sys = ActorSystem::with_telemetry(telemetry.clone());
        let hits = Arc::new(AtomicU64::new(0));
        let a = sys.spawn_with(
            "formula-t",
            Box::new(Counter {
                hits: hits.clone(),
                stopped: Arc::new(AtomicU64::new(0)),
            }),
            SpawnOptions::default().stage(Stage::Formula),
        );
        // Open a span, then route a traced estimate through the actor.
        let trace = telemetry.trace_for_tick(Nanos::from_secs(1));
        assert!(trace.is_traced());
        a.send(Message::aggregates(Vec::new(), trace));
        a.send(reading(2.0)); // untraced: metrics only, no hop
        sys.shutdown();
        let reg = telemetry.registry();
        assert_eq!(
            reg.counter("powerapi_actor_handled_total{actor=\"formula-t\"}")
                .get(),
            2
        );
        assert_eq!(
            reg.histogram("powerapi_actor_handle_ns{actor=\"formula-t\"}")
                .count(),
            2
        );
        assert_eq!(telemetry.stage_histogram(Stage::Formula).count(), 2);
        assert_eq!(
            reg.gauge("powerapi_mailbox_depth{actor=\"formula-t\"}")
                .get(),
            0,
            "drained mailbox reads empty"
        );
        let spans = telemetry.tracer().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].hops.len(), 1, "only the traced message hopped");
        assert_eq!(spans[0].hops[0].stage, Stage::Formula);
        assert_eq!(&*spans[0].hops[0].actor, "formula-t");
        assert!(spans[0].end_to_end_ns() > 0);
        let summary = telemetry.summary();
        assert_eq!(summary.messages_handled, 2);
        assert_eq!(summary.ticks_traced, 1);
        assert!(summary.overhead.middleware_busy_ns > 0);
    }

    #[test]
    fn uninstrumented_system_stays_dark() {
        let mut sys = ActorSystem::new();
        assert!(!sys.telemetry().enabled());
        let hits = Arc::new(AtomicU64::new(0));
        let a = sys.spawn(
            "dark",
            Box::new(Counter {
                hits: hits.clone(),
                stopped: Arc::new(AtomicU64::new(0)),
            }),
        );
        a.send(reading(1.0));
        sys.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
