//! The lightweight actor runtime: each actor owns a FIFO mailbox and
//! processes its messages event-driven — the property the paper leans on
//! for real-time estimation ("an actor … can handle millions of messages
//! per second"). All the actors of an [`ActorSystem`] share **one
//! event-loop thread** (`actor-loop`): every message is one entry in the
//! loop's queue, and the loop runs handlers to completion, one at a time,
//! in global arrival order. A pipeline tick therefore costs one
//! cross-thread wake-up — the producer's — however many stages it
//! crosses, and what a handler publishes is handled only after the
//! handler has returned.
//!
//! That queue is the only one, and like Akka's default mailbox it has no
//! capacity: [`ActorRef::send`] refuses a closed actor, else pushes and
//! wakes the loop — it never blocks and never drops. Load is shed where
//! it arrives from outside, at the fleet shard's
//! [ingest queue](crate::fleet::shard).
//!
//! Arrival order gives every mailbox FIFO delivery, and more: a message
//! sent before another is handled before it, whoever the receivers are.
//! The [sensor stage](crate::sensor)'s "frame *T* before frame *T+1*"
//! contract holds by construction.
//!
//! The runtime is *supervised*: a panic inside [`Actor::handle`] is caught
//! and handled per the actor's [`RestartPolicy`] — rebuild the actor from
//! its factory (up to a cap), escalate to the system, or stop. Every
//! restart and panic is counted and queryable via [`ActorSystem::health`].
//!
//! A producer waits for the loop one way: [`ActorSystem::settle`] returns
//! once everything sent so far, and everything that caused, has been
//! handled. It queues a marker, so the wait is a hand-off, not a poll.
//!
//! Shutdown is ordered: [`ActorSystem::shutdown`] stops actors in spawn
//! order, each once everything sent to it so far has been handled.
//! Spawning pipeline stages upstream-first therefore guarantees every
//! in-flight message drains through the whole pipeline before the system
//! stops. `shutdown` returns a [`ShutdownSummary`] naming any actor that
//! died panicking. Dropping the system without calling it stops the
//! actors the same way and discards the summary.

use crate::bus::EventBus;
use crate::msg::Message;
use crate::telemetry::{Counter, EventKind, Gauge, Histogram, Stage, Telemetry, TraceId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of event-driven message processing.
pub trait Actor: Send {
    /// Handles one message. Publishing to `ctx.bus()` is how results move
    /// down the pipeline; what it publishes is handled after it returns.
    fn handle(&mut self, msg: Message, ctx: &Context);

    /// Called once after the last message, before the actor is dropped.
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

/// What the supervisor does when [`Actor::handle`] panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// The actor dies; its mailbox closes. The panic is reported in the
    /// [`ShutdownSummary`].
    #[default]
    Stop,
    /// Rebuild the actor from its factory, at most `max` times over the
    /// actor's lifetime; the `max + 1`-th panic stops it.
    Restart {
        /// Lifetime cap on rebuilds.
        max: u32,
    },
    /// The actor dies *and* the failure is flagged system-wide
    /// ([`ActorSystem::escalated`]), for faults that invalidate the whole
    /// pipeline rather than one stage.
    Escalate,
}

/// Per-actor spawn configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnOptions {
    /// Applied when `handle` panics.
    pub restart: RestartPolicy,
    /// Pipeline stage for telemetry attribution (default
    /// [`Stage::Other`]).
    pub stage: Stage,
}

impl SpawnOptions {
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

/// One entry of the event loop's queue.
enum Envelope {
    /// A message for actor `to`, plus its enqueue instant (present only
    /// when the system is instrumented, so the uninstrumented hot path
    /// never reads the clock).
    Message {
        to: usize,
        msg: Message,
        enqueued: Option<Instant>,
    },
    /// A newly spawned actor moving in; ids are handed out in spawn
    /// order, so it becomes the loop's next resident.
    Spawn(Box<Resident>),
    /// Everything sent to actor `.0` before this point has been handled:
    /// the loop queues one for itself per actor while shutting down.
    Drained(usize),
    /// [`ActorSystem::settle`]'s marker: signalled once the loop reaches
    /// it with nothing but other markers queued behind it.
    Settle(mpsc::Sender<()>),
    /// Stop every actor in spawn order, then exit.
    Shutdown,
}

/// What an actor's supervisor and [`ActorSystem::health`] share: the
/// live counters. The queued messages themselves sit in the loop's queue.
struct Mailbox {
    name: Arc<str>,
    /// The registry's `powerapi_actor_{restarts,panics}_total` series
    /// (standalone counters when telemetry is dark).
    restarts: Counter,
    panics: Counter,
    /// Registry mirror of the queued-message count; `None` keeps the
    /// uninstrumented hot path free of clock reads and gauge updates.
    depth: Option<Gauge>,
}

struct LoopState {
    /// Every actor's pending mail, in arrival order.
    queue: VecDeque<Envelope>,
    /// Whether the loop sleeps on `wake`; the send that finds it set
    /// clears it and notifies, so a running loop costs its senders no
    /// system call.
    parked: bool,
    /// By actor id: cleared when the actor stops or dies, after which
    /// sends to it are refused.
    open: Vec<bool>,
    /// Set when the loop has ended: nobody will reach a settle marker.
    stopped: bool,
}

/// What the event loop shares with every [`ActorRef`].
struct Shared {
    state: Mutex<LoopState>,
    /// The loop parks here when its queue runs dry.
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, LoopState> {
        // Handlers run outside the lock, so no panic can poison it.
        self.state.lock().expect("the loop's queue lock")
    }

    /// Queues `env`, waking the loop if it sleeps.
    fn push(&self, mut state: MutexGuard<'_, LoopState>, env: Envelope) {
        state.queue.push_back(env);
        let wake = std::mem::take(&mut state.parked);
        drop(state);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Closes mailbox `id`.
    fn close(&self, id: usize) {
        self.lock().open[id] = false;
    }
}

/// Address of a running actor: send it messages, or hold it in the bus's
/// subscription lists.
#[derive(Clone)]
pub struct ActorRef {
    shared: Arc<Shared>,
    id: usize,
    mailbox: Arc<Mailbox>,
}

impl ActorRef {
    /// Enqueues a message; returns `false` when the actor has stopped.
    /// Never blocks and never drops: the queue has no capacity.
    pub fn send(&self, msg: Message) -> bool {
        let depth = self.mailbox.depth.as_ref();
        let enqueued = depth.map(|_| Instant::now());
        let to = self.id;
        let env = Envelope::Message { to, msg, enqueued };
        let state = self.shared.lock();
        if !state.open[to] {
            return false;
        }
        self.shared.push(state, env);
        if let Some(depth) = depth {
            depth.inc();
        }
        true
    }

    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.mailbox.name
    }
}

impl std::fmt::Debug for ActorRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorRef")
            .field("name", &self.mailbox.name)
            .finish()
    }
}

/// How one actor ended.
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
    /// Supervised rebuilds performed.
    pub restarts: u64,
    /// Panics caught in `handle`.
    pub panics: u64,
}

/// What [`ActorSystem::shutdown`] observed while stopping the actors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownSummary {
    /// Names of actors that ended in an unrecovered panic.
    pub panicked: Vec<String>,
    /// Total supervised restarts across all actors.
    pub restarts: u64,
    /// Total panics caught (including ones recovered by restart).
    pub panics: u64,
    /// Whether any actor escalated its failure.
    pub escalated: bool,
}

impl ShutdownSummary {
    /// No panics, no escalation (successful restarts are recoverable by
    /// design and do not make a shutdown unclean).
    pub fn is_clean(&self) -> bool {
        self.panicked.is_empty() && !self.escalated
    }
}

/// Owns the event loop, its actors and the event bus.
pub struct ActorSystem {
    bus: EventBus,
    shared: Arc<Shared>,
    /// The loop thread; `None` once it has been stopped and joined.
    thread: Option<JoinHandle<Vec<ExitKind>>>,
    /// In spawn order; the index is the actor's id.
    actors: Vec<ActorRef>,
    escalated: Arc<AtomicU64>,
    telemetry: Telemetry,
}

impl ActorSystem {
    /// Creates an empty system with a fresh bus and telemetry *disabled*
    /// (the zero-overhead hot path).
    pub fn new() -> ActorSystem {
        ActorSystem::with_telemetry(Telemetry::disabled())
    }

    /// Creates an empty system observed by `telemetry`: every spawned
    /// actor gets a mailbox-depth gauge, handle- and queue-latency
    /// histograms and trace hops recorded into the hub.
    pub fn with_telemetry(telemetry: Telemetry) -> ActorSystem {
        let shared = Arc::new(Shared {
            state: Mutex::new(LoopState {
                queue: VecDeque::new(),
                parked: false,
                open: Vec::new(),
                stopped: false,
            }),
            wake: Condvar::new(),
        });
        let escalated = Arc::new(AtomicU64::new(0));
        let event_loop = EventLoop {
            shared: shared.clone(),
            residents: Vec::new(),
            escalated: escalated.clone(),
        };
        let thread = std::thread::Builder::new()
            .name("actor-loop".into())
            .spawn(move || event_loop.run())
            .expect("spawning the actor loop thread");
        ActorSystem {
            bus: EventBus::with_telemetry(telemetry.clone()),
            shared,
            thread: Some(thread),
            actors: Vec::new(),
            escalated,
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

    /// Number of actors spawned.
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

    /// Live per-actor restart/panic counters, in spawn order.
    pub fn health(&self) -> Vec<ActorHealth> {
        self.actors
            .iter()
            .map(|a| ActorHealth {
                name: a.name().to_string(),
                restarts: a.mailbox.restarts.get(),
                panics: a.mailbox.panics.get(),
            })
            .collect()
    }

    /// Spawns an actor with default options (`Stop` on panic — the
    /// pre-supervision behaviour). **Spawn pipeline stages in
    /// upstream-to-downstream order** so shutdown drains correctly.
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

    /// Spawns a supervised actor built here (and, under `Restart`,
    /// rebuilt on the loop thread) from `factory`.
    pub fn spawn_supervised(
        &mut self,
        name: impl Into<String>,
        mut factory: impl FnMut() -> Box<dyn Actor> + Send + 'static,
        options: SpawnOptions,
    ) -> ActorRef {
        let name: Arc<str> = Arc::from(name.into());
        let mut mailbox = Mailbox {
            name: name.clone(),
            restarts: Counter::default(),
            panics: Counter::default(),
            depth: None,
        };
        let mut instruments = None;
        if self.telemetry.enabled() {
            let reg = self.telemetry.registry();
            let series = |family: &str| format!("powerapi_{family}{{actor=\"{name}\"}}");
            mailbox.restarts = reg.counter(&series("actor_restarts_total"));
            mailbox.panics = reg.counter(&series("actor_panics_total"));
            mailbox.depth = Some(reg.gauge(&series("mailbox_depth")));
            let (handle_ns, queue_ns) = self.telemetry.actor_series(&name, options.stage);
            instruments = Some(ActorInstruments {
                stage: options.stage,
                handle_ns,
                queue_ns,
                telemetry: self.telemetry.clone(),
            });
        }
        let mailbox = Arc::new(mailbox);
        let actor = factory();
        self.telemetry
            .journal()
            .emit(EventKind::ActorStart, &name, "spawned", TraceId::NONE);
        let resident = Resident {
            mailbox: mailbox.clone(),
            ctx: Context {
                bus: self.bus.clone(),
                name,
                telemetry: self.telemetry.clone(),
            },
            factory: Box::new(factory),
            policy: options.restart,
            instruments,
            actor: Some(actor),
            exit: ExitKind::Clean,
        };
        let actor_ref = ActorRef {
            shared: self.shared.clone(),
            id: self.actors.len(),
            mailbox,
        };
        let mut state = self.shared.lock();
        state.open.push(true);
        self.shared.push(state, Envelope::Spawn(Box::new(resident)));
        self.actors.push(actor_ref.clone());
        actor_ref
    }

    /// Returns once the loop has handled everything sent before the call
    /// and everything those handlers published in turn — the one way to
    /// wait for the loop. Returns at once on an idle system, and without
    /// waiting once the loop has stopped.
    pub fn settle(&self) {
        let (done, settled) = mpsc::channel();
        let state = self.shared.lock();
        if state.stopped {
            return;
        }
        self.shared.push(state, Envelope::Settle(done));
        // An error means the loop ended and dropped the marker unanswered.
        let _ = settled.recv();
    }

    /// Stops every actor in spawn order — each after everything sent to
    /// it so far has been handled, so in-flight messages drain through
    /// the pipeline — and joins the loop. Returns which actors panicked
    /// (plus restart and panic totals).
    pub fn shutdown(mut self) -> ShutdownSummary {
        let exits = self.stop_loop();
        let mut summary = ShutdownSummary::default();
        for (i, actor) in self.actors.iter().enumerate() {
            // Same-named actors share their registry counters: count once.
            let earlier = &self.actors[..i];
            if !(self.telemetry.enabled() && earlier.iter().any(|a| a.name() == actor.name())) {
                summary.restarts += actor.mailbox.restarts.get();
                summary.panics += actor.mailbox.panics.get();
            }
            // A loop that did not come back took its actors with it.
            match exits.get(i).copied().unwrap_or(ExitKind::Panicked) {
                ExitKind::Clean => {}
                ExitKind::Panicked => summary.panicked.push(actor.name().to_string()),
                ExitKind::Escalated => {
                    summary.panicked.push(actor.name().to_string());
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

    /// Runs the ordered stop and joins the loop thread; how each actor
    /// ended, by id (empty when already stopped).
    fn stop_loop(&mut self) -> Vec<ExitKind> {
        let Some(thread) = self.thread.take() else {
            return Vec::new();
        };
        self.shared.push(self.shared.lock(), Envelope::Shutdown);
        thread.join().unwrap_or_default()
    }
}

impl Drop for ActorSystem {
    /// A system dropped without [`ActorSystem::shutdown`] still stops its
    /// actors in order and joins the loop, so no thread outlives it.
    fn drop(&mut self) {
        self.stop_loop();
    }
}

/// Per-actor telemetry handles, created once at spawn so the event loop
/// never touches the registry's mutex. The two series are the one record
/// of each handled message; every per-stage, count and busy-time figure
/// is read from them ([`Telemetry::handle_totals`]).
struct ActorInstruments {
    stage: Stage,
    handle_ns: Histogram,
    queue_ns: Histogram,
    telemetry: Telemetry,
}

/// An actor as the event loop holds it: the live instance, what rebuilds
/// it, and how it is supervised and observed.
struct Resident {
    mailbox: Arc<Mailbox>,
    ctx: Context,
    factory: Box<dyn FnMut() -> Box<dyn Actor> + Send>,
    policy: RestartPolicy,
    instruments: Option<ActorInstruments>,
    /// `None` once the actor has stopped or died; mail still queued for
    /// it is discarded.
    actor: Option<Box<dyn Actor>>,
    exit: ExitKind,
}

impl Resident {
    fn note_panic(&self, what: &'static str) {
        self.mailbox.panics.inc();
        let journal = self.ctx.telemetry.journal();
        journal.emit(EventKind::ActorPanic, &self.ctx.name, what, TraceId::NONE);
    }

    /// Runs the handler on one message; whether it panicked.
    fn deliver(&mut self, msg: Message, enqueued: Option<Instant>) -> bool {
        let Some(actor) = self.actor.as_mut() else {
            return false;
        };
        let ctx = &self.ctx;
        let Some(ins) = &self.instruments else {
            return catch_unwind(AssertUnwindSafe(|| actor.handle(msg, ctx))).is_err();
        };
        // Capture what the recording needs before the message moves
        // into the handler.
        let queue_ns = enqueued.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Ticks are trace roots: resolve the tick's span (opened at
        // publish) by its timestamp — this is what puts the sensor stage
        // on the exported trace.
        let trace = match &msg {
            Message::Frame(frame) => ins.telemetry.trace_for_tick(frame.timestamp),
            _ => msg.trace(),
        };
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| actor.handle(msg, ctx))).is_err();
        let handle_ns = start.elapsed().as_nanos() as u64;
        ins.handle_ns.record(handle_ns);
        ins.queue_ns.record(queue_ns);
        ins.telemetry
            .tracer()
            .record_hop(trace, ins.stage, &ctx.name, queue_ns, handle_ns);
        caught
    }

    /// Applies the restart policy after a handler panic; how the actor
    /// ended if it did not survive.
    fn supervise(&mut self) -> Option<ExitKind> {
        self.note_panic("panicked in handle");
        let journal = self.ctx.telemetry.journal();
        let max = match self.policy {
            RestartPolicy::Stop => return Some(ExitKind::Panicked),
            RestartPolicy::Escalate => {
                journal.emit(
                    EventKind::ActorEscalate,
                    &self.ctx.name,
                    "supervisor escalated the failure",
                    TraceId::NONE,
                );
                return Some(ExitKind::Escalated);
            }
            RestartPolicy::Restart { max } => max,
        };
        if self.mailbox.restarts.get() >= u64::from(max) {
            return Some(ExitKind::Panicked);
        }
        // The poisoned instance is dropped; state comes back fresh from
        // the factory. A factory that cannot rebuild (a one-shot actor
        // spawned under `Restart`) ends the actor like a spent cap.
        let factory = &mut self.factory;
        let Ok(fresh) = catch_unwind(AssertUnwindSafe(factory)) else {
            return Some(ExitKind::Panicked);
        };
        self.actor = Some(fresh);
        self.mailbox.restarts.inc();
        let restarts = self.mailbox.restarts.get();
        journal.emit(
            EventKind::ActorRestart,
            &self.ctx.name,
            format!("rebuilt after panic (restart #{restarts})"),
            TraceId::NONE,
        );
        None
    }

    /// The ordered stop: `on_stop`, then the instance is dropped.
    fn stop(&mut self) {
        let Some(mut actor) = self.actor.take() else {
            return;
        };
        // A panicking on_stop still counts against the actor, but there
        // is nothing left to restart.
        if catch_unwind(AssertUnwindSafe(|| actor.on_stop(&self.ctx))).is_err() {
            self.note_panic("panicked in on_stop");
            self.exit = ExitKind::Panicked;
            return;
        }
        self.ctx.telemetry.journal().emit(
            EventKind::ActorStop,
            &self.ctx.name,
            "exited cleanly",
            TraceId::NONE,
        );
    }
}

/// The one thread every actor of a system runs on.
struct EventLoop {
    shared: Arc<Shared>,
    /// By actor id.
    residents: Vec<Resident>,
    escalated: Arc<AtomicU64>,
}

impl EventLoop {
    fn run(mut self) -> Vec<ExitKind> {
        loop {
            match self.next() {
                Envelope::Shutdown => break,
                env => self.dispatch(env),
            }
        }
        // The system is gone, so nobody spawns any more: stop each actor
        // once the mail queued ahead of its marker has been handled —
        // which is when its upstream, stopped just before, has flushed.
        for id in 0..self.residents.len() {
            self.shared.push(self.shared.lock(), Envelope::Drained(id));
            loop {
                match self.next() {
                    Envelope::Drained(i) if i == id => break,
                    env => self.dispatch(env),
                }
            }
            self.residents[id].stop();
            self.shared.close(id);
        }
        self.residents.iter().map(|r| r.exit).collect()
    }

    /// The next envelope in arrival order, parking while there is none.
    fn next(&self) -> Envelope {
        let mut state = self.shared.lock();
        loop {
            if let Some(env) = state.queue.pop_front() {
                return env;
            }
            state.parked = true;
            state = self.shared.wake.wait(state).expect("the loop's queue lock");
            state.parked = false;
        }
    }

    fn dispatch(&mut self, env: Envelope) {
        match env {
            Envelope::Message { to, msg, enqueued } => {
                let resident = &mut self.residents[to];
                if let Some(depth) = &resident.mailbox.depth {
                    depth.dec();
                }
                if !resident.deliver(msg, enqueued) {
                    return;
                }
                if let Some(exit) = resident.supervise() {
                    resident.actor = None;
                    resident.exit = exit;
                    if exit == ExitKind::Escalated {
                        self.escalated.fetch_add(1, Ordering::Relaxed);
                    }
                    self.shared.close(to);
                }
            }
            Envelope::Spawn(resident) => self.residents.push(*resident),
            Envelope::Settle(done) => {
                let mut state = self.shared.lock();
                // What a handler published is queued behind the marker:
                // go round again until only markers are left.
                if state.queue.iter().all(|e| matches!(e, Envelope::Settle(_))) {
                    drop(state);
                    let _ = done.send(());
                } else {
                    state.queue.push_back(Envelope::Settle(done));
                }
            }
            // Markers the loop reads in `run`.
            Envelope::Drained(_) | Envelope::Shutdown => {}
        }
    }
}

impl Drop for EventLoop {
    /// However the loop ends, nothing can be delivered any more: refuse
    /// every later send and settle, and release the queued mail (a
    /// waiting [`ActorSystem::settle`] returns when its marker goes).
    fn drop(&mut self) {
        // Not `lock()`: this also runs while the loop unwinds, and a
        // `Drop` must not panic on the poison that leaves behind.
        let mut state = match self.shared.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.open.fill(false);
        state.stopped = true;
        let undelivered = std::mem::take(&mut state.queue);
        // Freeing frames must not run under the queue lock.
        drop(state);
        drop(undelivered);
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
    use crate::frame::FrameBuilder;
    use crate::msg::Topic;
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
        // Nothing queued: returns at once.
        sys.settle();
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
            SpawnOptions::default().restart(RestartPolicy::Restart { max: 2 }),
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
        sys.settle();
        assert!(sys.escalated(), "flagged once the panic was handled");
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
            SpawnOptions::default().restart(RestartPolicy::Restart { max: 10 }),
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

    /// Parks on a gate until released.
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

    /// Who handled how many watts, in handling order.
    type Log = Arc<Mutex<Vec<(&'static str, f64)>>>;

    /// Appends its tag and the watts it was sent to a shared log; its
    /// `on_stop` logs infinity.
    struct Logger {
        tag: &'static str,
        log: Log,
    }
    impl Actor for Logger {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::Meter(_, w) | Message::Rapl(_, w) = msg {
                self.log.lock().unwrap().push((self.tag, w.as_f64()));
            }
        }
        fn on_stop(&mut self, _ctx: &Context) {
            self.log.lock().unwrap().push((self.tag, f64::INFINITY));
        }
    }

    /// A system whose loop is held inside a gated handler, so a test can
    /// queue mail in an order it chose before any of it is handled.
    fn held_system() -> (ActorSystem, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut sys = ActorSystem::new();
        let holder = sys.spawn(
            "holder",
            Box::new(Gated {
                gate: gate.clone(),
                seen: Arc::new(AtomicU64::new(0)),
            }),
        );
        holder.send(reading(0.0));
        (sys, gate)
    }

    #[test]
    fn mail_is_handled_in_arrival_order_across_actors() {
        let (mut sys, gate) = held_system();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut spawn = |tag| {
            let log = log.clone();
            sys.spawn(tag, Box::new(Logger { tag, log }))
        };
        let (a, b, c) = (spawn("a"), spawn("b"), spawn("c"));
        // Ten picked by hand, then 10 000 more than any handler takes
        // off while the loop is held.
        let picked = [&a, &b, &b, &c, &a, &c, &c, &a, &b, &a];
        let order: Vec<_> = picked
            .into_iter()
            .chain([&c, &a, &b].into_iter().cycle().take(10_000))
            .collect();
        // From an outside thread, joined before the gate opens: a send
        // neither waits for the loop nor drops.
        let admitted = std::thread::scope(|scope| {
            let mut sends = order.iter().enumerate();
            let sender = scope.spawn(move || sends.all(|(i, a)| a.send(reading(i as f64))));
            sender.join().unwrap()
        });
        assert!(admitted, "every send admitted");
        open_gate(&gate);
        assert!(sys.shutdown().is_clean());
        let sent = order.iter().enumerate();
        let want: Vec<_> = sent
            .map(|(i, actor)| (actor.name().to_string(), i as f64))
            .chain(["a", "b", "c"].map(|tag| (tag.to_string(), f64::INFINITY)))
            .collect();
        let got: Vec<_> = log
            .lock()
            .unwrap()
            .iter()
            .map(|&(tag, w)| (tag.to_string(), w))
            .collect();
        assert_eq!(got, want, "arrival order, then on_stop in spawn order");
    }

    /// Publishes every meter reading `copies` times as a RAPL one, then
    /// logs that it is done with it.
    struct LoggingRelay {
        copies: usize,
        log: Log,
    }
    impl Actor for LoggingRelay {
        fn handle(&mut self, msg: Message, ctx: &Context) {
            if let Message::Meter(at, w) = msg {
                for _ in 0..self.copies {
                    assert_eq!(ctx.bus().publish(Message::Rapl(at, w)), 1);
                }
                self.log.lock().unwrap().push(("relay", w.as_f64()));
            }
        }
    }

    /// A relay publishing `copies` per reading into a `sink`; the log
    /// they share.
    fn relay_into_sink(copies: usize) -> (ActorSystem, Log) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let relay = LoggingRelay {
            copies,
            log: log.clone(),
        };
        let relay = sys.spawn("relay", Box::new(relay));
        let sink = Logger {
            tag: "sink",
            log: log.clone(),
        };
        let sink = sys.spawn("sink", Box::new(sink));
        sys.bus().subscribe(Topic::Meter, &relay);
        sys.bus().subscribe(Topic::Rapl, &sink);
        (sys, log)
    }

    #[test]
    fn what_a_handler_publishes_runs_after_it_returns() {
        let (sys, log) = relay_into_sink(3);
        for i in 0..50 {
            sys.bus().publish(reading(f64::from(i)));
        }
        // Settled means the copies the relay published were handled too,
        // for two callers settling at once as well.
        std::thread::scope(|scope| {
            scope.spawn(|| sys.settle());
            sys.settle();
        });
        let sunk = log.lock().unwrap().iter().filter(|e| e.0 == "sink").count();
        assert_eq!(sunk, 50 * 3, "every copy, before any on_stop");
        sys.shutdown();
        let log = log.lock().unwrap();
        let sunk = log.iter().filter(|e| e.0 == "sink").count();
        assert_eq!(sunk, 50 * 3 + 1, "every copy, and the sink's on_stop");
        for i in 0..50 {
            let at = |tag| log.iter().position(|&e| e == (tag, f64::from(i)));
            assert!(at("relay") < at("sink"), "reading {i}: {log:?}");
        }
    }

    #[test]
    fn a_dead_actor_has_its_mail_discarded_and_later_sends_refused() {
        let _quiet = quiet_panics();
        let (mut sys, gate) = held_system();
        let handled = Arc::new(AtomicU64::new(0));
        let fragile = Fragile {
            threshold: 100.0,
            handled: handled.clone(),
        };
        let fragile = sys.spawn("fragile", Box::new(fragile));
        let bystander = Counter {
            hits: Arc::new(AtomicU64::new(0)),
            stopped: Arc::new(AtomicU64::new(0)),
        };
        let hits = bystander.hits.clone();
        let bystander = sys.spawn("bystander", Box::new(bystander));
        // Queued behind the poison pill while the loop is held.
        assert!(fragile.send(reading(1000.0)));
        for _ in 0..3 {
            assert!(fragile.send(reading(1.0)));
            assert!(bystander.send(reading(1.0)));
        }
        open_gate(&gate);
        sys.settle();
        assert!(!fragile.send(reading(1.0)), "the pill closed its mailbox");
        let summary = sys.shutdown();
        assert_eq!(handled.load(Ordering::SeqCst), 0, "nothing after the pill");
        assert_eq!(hits.load(Ordering::SeqCst), 3, "the loop carries on");
        assert_eq!(summary.panicked, vec!["fragile".to_string()]);
        assert_eq!((summary.panics, summary.restarts), (1, 0));
    }

    #[test]
    fn dropping_the_system_stops_the_actors_in_order_and_joins_the_loop() {
        let (sys, log) = relay_into_sink(1);
        let relay = sys.actors[0].clone();
        for i in 0..100 {
            sys.bus().publish(reading(f64::from(i)));
        }
        // The loop owns the actors, and each of them a handle on the log.
        drop(sys);
        assert_eq!(Arc::strong_count(&log), 1, "the loop is gone, joined");
        assert!(!relay.send(reading(1.0)), "as after shutdown()");
        let log = log.lock().unwrap();
        let sunk = log.iter().filter(|e| e.0 == "sink").count();
        assert_eq!(sunk, 100 + 1, "drained, then stopped");
        assert_eq!(log.last(), Some(&("sink", f64::INFINITY)));
    }

    #[test]
    fn settle_returns_once_the_loop_has_stopped() {
        let (sys, gate) = held_system();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| sys.settle());
            // The loop stops whether the marker is queued yet or not:
            // dropping it, or finding the loop gone, releases the waiter.
            sys.shared.push(sys.shared.lock(), Envelope::Shutdown);
            open_gate(&gate);
            waiter.join().unwrap();
        });
        sys.settle();
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
            SpawnOptions::default().restart(RestartPolicy::Restart { max: 5 }),
        );
        a.send(reading(1000.0));
        a.send(reading(1.0));
        sys.settle();
        assert_eq!(handled.load(Ordering::SeqCst), 1, "the rebuilt actor ran");
        let health = sys.health();
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].name, "observed");
        assert_eq!(health[0].restarts, 1);
        assert_eq!(health[0].panics, 1);
        sys.shutdown();
    }

    #[test]
    fn same_named_actors_share_one_tally() {
        let _quiet = quiet_panics();
        for telemetry in [Telemetry::new(), Telemetry::disabled()] {
            let mut sys = ActorSystem::with_telemetry(telemetry);
            for _ in 0..2 {
                let fragile = Fragile {
                    threshold: 100.0,
                    handled: Arc::new(AtomicU64::new(0)),
                };
                sys.spawn_with("twin", Box::new(fragile), SpawnOptions::default())
                    .send(reading(1000.0));
            }
            let summary = sys.shutdown();
            assert_eq!(summary.panics, 2, "each panic counted once");
            assert_eq!(summary.panicked, ["twin", "twin"]);
        }
    }

    #[test]
    fn instrumented_system_records_metrics_and_hops() {
        let telemetry = Telemetry::new();
        let mut sys = ActorSystem::with_telemetry(telemetry.clone());
        let counter = || -> Box<dyn Actor> {
            Box::new(Counter {
                hits: Arc::new(AtomicU64::new(0)),
                stopped: Arc::new(AtomicU64::new(0)),
            })
        };
        let formula = SpawnOptions::default().stage(Stage::Formula);
        let a = sys.spawn_with("formula-t", counter(), formula);
        let b = sys.spawn_with("formula-u", counter(), formula);
        // A name spawned twice shares its series: one count per message.
        let twin = sys.spawn_with("formula-u", counter(), formula);
        let sensor = sys.spawn_with(
            "sensor",
            counter(),
            SpawnOptions::default().stage(Stage::Sensor),
        );
        // Open a span, then route a traced estimate through the actor.
        let trace = telemetry.trace_for_tick(Nanos::from_secs(1));
        assert!(trace.is_traced());
        a.send(Message::aggregates(Vec::new(), trace));
        a.send(reading(2.0)); // untraced: metrics only, no hop
        b.send(reading(3.0));
        twin.send(reading(4.0));
        twin.send(reading(5.0));
        for ts in [1, 2, 3] {
            let frame = FrameBuilder::new().finish(
                Nanos::from_secs(ts),
                Nanos::from_secs(1),
                Arc::from([]),
                None,
            );
            sensor.send(Message::Frame(Arc::new(frame)));
        }
        sys.shutdown();
        let reg = telemetry.registry();
        let handle =
            |actor: &str| reg.histogram(&format!("powerapi_actor_handle_ns{{actor=\"{actor}\"}}"));
        let (t, u, sense) = (handle("formula-t"), handle("formula-u"), handle("sensor"));
        assert_eq!((t.count(), u.count(), sense.count()), (2, 3, 3));
        assert_eq!(
            reg.gauge("powerapi_mailbox_depth{actor=\"formula-t\"}")
                .get(),
            0,
            "drained mailbox reads empty"
        );
        // Frames are trace roots: each opens its tick's span.
        let spans = telemetry.tracer().spans();
        assert_eq!(spans.len(), 3);
        let formula_hops: Vec<_> = spans
            .iter()
            .flat_map(|s| &s.hops)
            .filter(|h| h.stage == Stage::Formula)
            .collect();
        assert_eq!(formula_hops.len(), 1, "only the traced message hopped");
        assert_eq!(&*formula_hops[0].actor, "formula-t");
        assert!(spans[0].end_to_end_ns() > 0);
        // Every figure is a view of the per-actor series.
        let stage = telemetry.stage_latency(Stage::Formula);
        assert_eq!(stage.count(), t.count() + u.count());
        assert_eq!(stage.sum(), t.sum() + u.sum());
        assert_eq!(stage.max(), t.max().max(u.max()));
        let lag = telemetry.tick_lag();
        let sensor_queue = reg.histogram("powerapi_actor_queue_ns{actor=\"sensor\"}");
        assert_eq!(lag.count(), 3, "one lag per frame");
        assert_eq!(lag.sum(), sensor_queue.sum());
        let (messages, busy_ns) = telemetry.handle_totals();
        assert_eq!(messages, 8);
        assert_eq!(busy_ns, t.sum() + u.sum() + sense.sum());
        assert!(busy_ns > 0);
        assert_eq!(telemetry.stage_latency(Stage::Formula).count(), 5);
        assert_eq!(telemetry.stage_latency(Stage::Sensor).count(), 3);
        assert_eq!(telemetry.tracer().end_to_end().count(), 3);
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
