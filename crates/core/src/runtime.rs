//! The toolkit facade: wire a simulated kernel, sensors, a formula, an
//! aggregator and reporters into a running PowerAPI instance, drive
//! simulated time, and collect the estimates.
//!
//! ```
//! use powerapi::prelude::*;
//! use powerapi::model::power_model::PerFrequencyPowerModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = os_sim::kernel::Kernel::new(simcpu::presets::intel_i3_2120());
//! let pid = kernel.spawn(
//!     "worker",
//!     vec![os_sim::task::SteadyTask::boxed(
//!         simcpu::workunit::WorkUnit::cpu_intensive(1.0),
//!     )],
//! );
//! let mut papi = PowerApi::builder(kernel)
//!     .formula(PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example()))
//!     .report_to_memory()
//!     .build()?;
//! papi.monitor(pid)?;
//! papi.run_for(simcpu::Nanos::from_secs(3))?;
//! let outcome = papi.finish()?;
//! assert_eq!(outcome.machine_estimates().len(), 3);
//! # Ok(())
//! # }
//! ```

use crate::actor::{ActorSystem, RestartPolicy, ShutdownSummary, SpawnOptions};
use crate::adaptive::{SamplingConfig, SamplingController, SelfCostLedger, SelfCostSummary};
use crate::aggregator::{Aggregator, Dimension};
use crate::control::{RateControlActor, RecalibrationTrigger};
use crate::formula::{FormulaActor, PowerFormula};
use crate::frame::FramePool;
use crate::health::{ModelHealth, ModelHealthSummary, ResidualMonitor};
use crate::host::SimHost;
use crate::msg::{AggregateReport, Message, Scope, Topic};
use crate::reporter::{MemoryHandle, MemoryReporter, TextReporter};
use crate::sensor::SensorStage;
use crate::telemetry::export::{self, PostMortemReport};
use crate::telemetry::{EventKind, Stage, Telemetry, SELF_PID};
use crate::{Error, Result};
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use perf_sim::events::{Event, PAPER_EVENTS};
use perf_sim::session::CounterFaultStats;
use powermeter::powerspy::{MeterFaultStats, PowerSpyConfig};
use simcpu::fault::FaultPlan;
use simcpu::units::{Nanos, Watts};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A rebuildable actor constructor, as supervisors need after a panic.
type ActorFactory = Box<dyn FnMut() -> Box<dyn crate::actor::Actor> + Send>;

/// What the memory and text reporters subscribe to: the estimates and
/// both measured streams.
const REPORTED: &[Topic] = &[Topic::Aggregate, Topic::Meter, Topic::Rapl];

/// Builder for a [`PowerApi`] instance.
pub struct PowerApiBuilder {
    kernel: Kernel,
    formulas: Vec<Box<dyn PowerFormula>>,
    events: Vec<Event>,
    slots: usize,
    quantum: Nanos,
    clock_period: Nanos,
    meter: PowerSpyConfig,
    dimension: Option<Dimension>,
    hierarchy: Option<crate::hierarchy::Hierarchy>,
    /// The built-in reporters asked for: actor name, actor, topics.
    reporters: Vec<(&'static str, Box<dyn crate::actor::Actor>, &'static [Topic])>,
    memory: Option<MemoryHandle>,
    extra: Vec<(String, Box<dyn crate::actor::Actor>, Vec<Topic>)>,
    extra_supervised: Vec<(String, ActorFactory, Vec<Topic>)>,
    faults: FaultPlan,
    restart: RestartPolicy,
    degrade: Option<(Box<dyn PowerFormula>, Nanos)>,
    telemetry: bool,
    profile_self: Option<f64>,
    model_health: bool,
    adaptive: Option<SamplingConfig>,
    post_mortem_dir: Option<PathBuf>,
}

impl PowerApiBuilder {
    fn new(kernel: Kernel) -> PowerApiBuilder {
        PowerApiBuilder {
            kernel,
            formulas: Vec::new(),
            events: PAPER_EVENTS.to_vec(),
            slots: 4,
            quantum: Nanos::from_millis(1),
            clock_period: Nanos::from_secs(1),
            meter: PowerSpyConfig::default(),
            dimension: None,
            hierarchy: None,
            reporters: Vec::new(),
            memory: None,
            extra: Vec::new(),
            extra_supervised: Vec::new(),
            faults: FaultPlan::none(),
            restart: RestartPolicy::Restart { max: 3 },
            degrade: None,
            telemetry: true,
            profile_self: None,
            model_health: false,
            adaptive: None,
            post_mortem_dir: None,
        }
    }

    /// Sets the pipeline's formula. Exactly one is required: a second
    /// call makes [`PowerApiBuilder::build`] fail.
    #[must_use]
    pub fn formula(mut self, formula: impl PowerFormula + 'static) -> PowerApiBuilder {
        self.formulas.push(Box::new(formula));
        self
    }

    /// Overrides the HPC events the sensor counts.
    #[must_use]
    pub fn events(mut self, events: Vec<Event>) -> PowerApiBuilder {
        self.events = events;
        self
    }

    /// Overrides the PMU slot count. Zero is rejected by
    /// [`PowerApiBuilder::build`] — silently clamping it would hide a
    /// caller bug behind an unexpectedly multiplexed session.
    #[must_use]
    pub fn slots(mut self, slots: usize) -> PowerApiBuilder {
        self.slots = slots;
        self
    }

    /// Overrides the scheduler quantum driving the simulation. Zero is
    /// rejected by [`PowerApiBuilder::build`].
    #[must_use]
    pub fn quantum(mut self, quantum: Nanos) -> PowerApiBuilder {
        self.quantum = quantum;
        self
    }

    /// Overrides the monitoring clock period (default 1 s, the paper's
    /// trace granularity). Zero is rejected by [`PowerApiBuilder::build`].
    #[must_use]
    pub fn clock_period(mut self, period: Nanos) -> PowerApiBuilder {
        self.clock_period = period;
        self
    }

    /// Overrides the meter configuration.
    #[must_use]
    pub fn meter(mut self, config: PowerSpyConfig) -> PowerApiBuilder {
        self.meter = config;
        self
    }

    /// Overrides the aggregation dimension (default: per-process and
    /// machine).
    #[must_use]
    pub fn dimension(mut self, dimension: Dimension) -> PowerApiBuilder {
        self.dimension = Some(dimension);
        self
    }

    /// Adds the in-memory reporter (required for [`PowerApi::finish`] to
    /// return data).
    #[must_use]
    pub fn report_to_memory(mut self) -> PowerApiBuilder {
        let reporter = MemoryReporter::new();
        self.memory = Some(reporter.handle());
        self.reporter("reporter-memory", reporter, REPORTED)
    }

    /// Adds a CSV reporter writing to `out` (pass `std::io::stdout()` for
    /// the console).
    #[must_use]
    pub fn report_to_csv(self, out: impl Write + Send + 'static) -> PowerApiBuilder {
        self.reporter("reporter-csv", TextReporter::new(out), REPORTED)
    }

    /// Lists a built-in reporter for [`PowerApiBuilder::build`] to spawn.
    /// Asking for the same reporter again replaces it, as every other
    /// setter does.
    fn reporter(
        mut self,
        name: &'static str,
        actor: impl crate::actor::Actor + 'static,
        topics: &'static [Topic],
    ) -> PowerApiBuilder {
        self.reporters.retain(|(listed, ..)| *listed != name);
        self.reporters.push((name, Box::new(actor), topics));
        self
    }

    /// Folds the power stream by cgroup leaf as well, into the shared
    /// `hierarchy` handle: one [`Scope::Group`]-scoped report per
    /// declared cgroup node per tick, bands widened bottom-up, with the
    /// `__ungrouped__` catch-all and per-tick flush ledger that
    /// [`crate::hierarchy::Hierarchy::conservation`] audits after the
    /// run. The root adds the machine aggregate's idle floor. Every node
    /// of the kernel's cgroup tree is declared here; nodes created later
    /// are declared when a frame first names them. Each row lands in the
    /// leaf its tick's frame recorded, so the kernel's cgroups are the
    /// one membership record.
    #[must_use]
    pub fn hierarchy(mut self, hierarchy: &crate::hierarchy::Hierarchy) -> PowerApiBuilder {
        for (path, _) in self.kernel.cgroups().nodes() {
            hierarchy.declare(path);
        }
        self.hierarchy = Some(hierarchy.clone());
        self
    }

    /// Plugs a custom actor into the pipeline, subscribed to the given
    /// topics — the extension point for controllers (e.g.
    /// [`CapControlActor`]) and bespoke reporters. Extra actors are
    /// spawned downstream of the built-in stages.
    ///
    /// [`CapControlActor`]: crate::control::CapControlActor
    #[must_use]
    pub fn with_actor(
        mut self,
        name: impl Into<String>,
        actor: Box<dyn crate::actor::Actor>,
        topics: Vec<Topic>,
    ) -> PowerApiBuilder {
        self.extra.push((name.into(), actor, topics));
        self
    }

    /// Plugs a *supervised* custom actor into the pipeline: `factory`
    /// rebuilds it after a handler panic per the configured restart
    /// policy (see [`PowerApiBuilder::supervision`]). The chaos-injection
    /// harness uses this to survive its own induced panics.
    #[must_use]
    pub fn with_supervised_actor(
        mut self,
        name: impl Into<String>,
        factory: impl FnMut() -> Box<dyn crate::actor::Actor> + Send + 'static,
        topics: Vec<Topic>,
    ) -> PowerApiBuilder {
        self.extra_supervised
            .push((name.into(), Box::new(factory), topics));
        self
    }

    /// Injects a deterministic fault schedule: meter faults arm the
    /// PowerSpy, counter faults arm the perf session. Windows activate by
    /// simulated time, so the same plan over the same run reproduces the
    /// same failures.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> PowerApiBuilder {
        self.faults = plan;
        self
    }

    /// Overrides the restart policy supervised pipeline stages use when a
    /// message handler panics (default: up to 3 rebuilds).
    #[must_use]
    pub fn supervision(mut self, policy: RestartPolicy) -> PowerApiBuilder {
        self.restart = policy;
        self
    }

    /// Arms the formula actor's staleness watchdog: when the formula's
    /// sensor goes quiet for a process longer than `max_age`, estimates
    /// degrade to `backup` (tagged [`Quality::Degraded`]) until the
    /// primary stream resumes.
    ///
    /// [`Quality::Degraded`]: crate::msg::Quality::Degraded
    #[must_use]
    pub fn degrade_to(
        mut self,
        backup: impl PowerFormula + 'static,
        max_age: Nanos,
    ) -> PowerApiBuilder {
        self.degrade = Some((Box::new(backup), max_age));
        self
    }

    /// Toggles the observability hub (default: on). When off, the
    /// pipeline runs completely dark: no clock reads, no counters, and
    /// every trace id is [`TraceId::NONE`].
    ///
    /// [`TraceId::NONE`]: crate::telemetry::TraceId::NONE
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> PowerApiBuilder {
        self.telemetry = enabled;
        self
    }

    /// Attributes the middleware's own cost as a synthetic "powerapi"
    /// process ([`SELF_PID`]) in the per-process estimates: each tick
    /// publishes a power report of `watts_per_busy_core` scaled by the
    /// fraction of one core the middleware kept busy since the previous
    /// tick. Requires telemetry (a dark hub has no busy-time data).
    #[must_use]
    pub fn profile_self(mut self, watts_per_busy_core: f64) -> PowerApiBuilder {
        self.profile_self = Some(watts_per_busy_core);
        self
    }

    /// Enables online model-health monitoring: a [`ResidualMonitor`]
    /// actor compares each machine-level estimate against the live meter
    /// sample, feeds the residual to CUSUM and Page–Hinkley drift
    /// detectors, downgrades formula report quality while the residual
    /// sits outside the prediction band, and raises a
    /// [`RecalibrationTrigger`] on sustained drift. The detector tuning
    /// is fixed (the `health` module's constants). Off by default — when
    /// off, the hot path carries no health state at all.
    #[must_use]
    pub fn model_health(mut self) -> PowerApiBuilder {
        self.model_health = true;
        self
    }

    /// Enables closed-loop adaptive sampling: a [`RateControlActor`]
    /// watches the machine aggregates (plus the model-health view when
    /// [`PowerApiBuilder::model_health`] is also on), stretches the
    /// monitoring period by powers of two while residuals stay in band —
    /// optionally shedding PMU slots — and snaps back to full rate the
    /// moment a drift alarm, fault window or quality downgrade appears.
    /// Every rate transition journals as [`EventKind::RateChange`]. Also
    /// enables the [`SelfCostLedger`] (when telemetry is on) so the
    /// saved sampling work is priced, not just counted.
    #[must_use]
    pub fn adaptive_sampling(mut self, config: SamplingConfig) -> PowerApiBuilder {
        self.adaptive = Some(config);
        self
    }

    /// Arms the flight recorder's post-mortem dump: [`PowerApi::finish`]
    /// writes the retained journal (`journal.jsonl`), the retained trace
    /// spans as Chrome trace-event JSON (`trace.json`) and a metrics
    /// snapshot (`metrics.prom`) into `dir`, surfacing the result via
    /// [`RunOutcome::flight_recorder`]. The report's reason names what
    /// went wrong — panic-escalation, a degraded shutdown, a latched
    /// recalibration trigger — or is `requested` on a clean run.
    /// Requires telemetry.
    #[must_use]
    pub fn post_mortem_to(mut self, dir: impl Into<PathBuf>) -> PowerApiBuilder {
        self.post_mortem_dir = Some(dir.into());
        self
    }

    /// Assembles and starts the actor pipeline.
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] unless exactly one formula was given, when
    /// the PMU slot count, the quantum or the clock period is zero, or
    /// when [`PowerApiBuilder::post_mortem_to`] or
    /// [`PowerApiBuilder::profile_self`] is asked of a dark hub.
    pub fn build(mut self) -> Result<PowerApi> {
        if self.formulas.len() != 1 {
            return Err(Error::Middleware(
                "a pipeline runs exactly one formula".into(),
            ));
        }
        let formula = self.formulas.pop().expect("checked above");
        if self.slots == 0 {
            return Err(Error::Middleware(
                "PMU slot count must be at least 1".into(),
            ));
        }
        if self.quantum == Nanos::ZERO {
            return Err(Error::Middleware("quantum must be non-zero".into()));
        }
        if self.clock_period == Nanos::ZERO {
            return Err(Error::Middleware("clock period must be non-zero".into()));
        }
        if self.post_mortem_dir.is_some() && !self.telemetry {
            return Err(Error::Middleware(
                "post_mortem_to requires telemetry (a dark hub records nothing to dump)".into(),
            ));
        }
        if self.profile_self.is_some() && !self.telemetry {
            return Err(Error::Middleware(
                "profile_self requires telemetry (a dark hub times no handler to attribute)".into(),
            ));
        }
        let dimension = self.dimension.unwrap_or(Dimension::both());
        // Read before the formula moves into its actor's factory.
        let idle_w = formula.idle_w();

        let meter_config = self.meter.with_fault_plan(self.faults.clone());
        let telemetry = if self.telemetry {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let mut host = SimHost::new(self.kernel, self.events, self.slots, meter_config);
        host.set_telemetry(telemetry.clone());
        if !self.faults.is_empty() {
            host.set_fault_plan(self.faults.clone());
        }

        // Spawn pipeline stages upstream-first so shutdown drains them.
        // The sensor stage and the formula are supervised: their
        // factories rebuild them after a handler panic, per the configured
        // restart policy.
        let mut system = ActorSystem::with_telemetry(telemetry.clone());
        let bus = system.bus().clone();
        let options = SpawnOptions::default().restart(self.restart);
        let sensor = system.spawn_supervised(
            "sensor",
            move || Box::new(SensorStage::new(self.profile_self)),
            options.stage(Stage::Sensor),
        );
        bus.subscribe(Topic::Tick, &sensor);
        // Model-health plumbing: one shared handle the monitor writes and
        // the formula reads, plus the recalibration hook. All `None`-cost
        // when the builder didn't ask for it.
        let model_health = self.model_health.then(|| {
            (
                ModelHealth::new(telemetry.registry()),
                RecalibrationTrigger::new(),
            )
        });
        let formula_health = model_health.as_ref().map(|(h, _)| h.clone());

        let health = formula_health.clone();
        let backup = self.degrade;
        let r = system.spawn_supervised(
            format!("formula-0-{}", formula.name()),
            move || {
                Box::new(FormulaActor::new(
                    formula.boxed_clone(),
                    health.clone(),
                    backup
                        .as_ref()
                        .map(|(b, max_age)| (b.boxed_clone(), *max_age)),
                ))
            },
            options.stage(Stage::Formula),
        );
        bus.subscribe(Topic::Sensor, &r);
        let mut aggregator = Aggregator::new(dimension, idle_w);
        if let Some(hierarchy) = self.hierarchy {
            if telemetry.enabled() {
                hierarchy.bind_telemetry(telemetry.clone());
            }
            aggregator = aggregator.with_hierarchy(hierarchy);
        }
        let agg = system.spawn_with(
            "aggregator",
            Box::new(aggregator),
            SpawnOptions::default().stage(Stage::Aggregator),
        );
        bus.subscribe(Topic::Power, &agg);

        // The residual monitor sits after the aggregator: it consumes the
        // machine aggregates and the raw meter stream.
        if let Some((health, trigger)) = &model_health {
            let monitor = ResidualMonitor::new(health.clone(), Some(trigger.clone()));
            let r = system.spawn_with(
                "model-health",
                Box::new(monitor),
                SpawnOptions::default().stage(Stage::Control),
            );
            bus.subscribe(Topic::Aggregate, &r);
            bus.subscribe(Topic::Meter, &r);
        }

        // The rate controller sits beside it in the control stage: same
        // aggregate stream, plus the shared health view for its verdicts.
        let sampling = self.adaptive.map(SamplingController::new);
        if let Some(ctrl) = &sampling {
            let health = formula_health.clone();
            let r = system.spawn_with(
                "rate-control",
                Box::new(RateControlActor::new(
                    ctrl.clone(),
                    health,
                    self.clock_period,
                )),
                SpawnOptions::default().stage(Stage::Control),
            );
            bus.subscribe(Topic::Aggregate, &r);
        }

        // The self-cost ledger prices the monitoring work itself. It
        // rides with the self-observation features — profile_self (e8's
        // attribution) or adaptive sampling (which trades that cost
        // against accuracy) — and needs telemetry, whose records the
        // measured columns are read from.
        let selfcost = (telemetry.enabled() && (self.profile_self.is_some() || sampling.is_some()))
            .then(|| SelfCostLedger::register(telemetry.registry()));

        // Extra actors (controllers, custom aggregators) sit between the
        // built-in pipeline and the reporters so their final flushes still
        // reach the reporters during ordered shutdown.
        for (name, actor, topics) in self.extra {
            let r = system.spawn(name, actor);
            for t in topics {
                bus.subscribe(t, &r);
            }
        }
        for (name, factory, topics) in self.extra_supervised {
            let r = system.spawn_supervised(name, factory, options);
            for t in topics {
                bus.subscribe(t, &r);
            }
        }

        let reporter_opts = SpawnOptions::default().stage(Stage::Reporter);
        for (name, actor, topics) in self.reporters {
            let r = system.spawn_with(name, actor, reporter_opts);
            for &t in topics {
                bus.subscribe(t, &r);
            }
        }

        let next_boundary = host.kernel().machine().now() + self.clock_period;
        Ok(PowerApi {
            host,
            system: Some(system),
            quantum: self.quantum,
            clock_period: self.clock_period,
            next_boundary,
            memory: self.memory,
            telemetry,
            model_health,
            sampling,
            selfcost,
            post_mortem: self.post_mortem_dir,
            fault_prev_meter: MeterFaultStats::default(),
            fault_prev_counters: CounterFaultStats::default(),
            pool: FramePool::new(),
        })
    }
}

/// A running PowerAPI instance.
pub struct PowerApi {
    host: SimHost,
    system: Option<ActorSystem>,
    quantum: Nanos,
    clock_period: Nanos,
    next_boundary: Nanos,
    memory: Option<MemoryHandle>,
    telemetry: Telemetry,
    /// Shared model-health handle + recalibration hook (when enabled).
    model_health: Option<(ModelHealth, RecalibrationTrigger)>,
    /// The adaptive sampling controller (when enabled): the runtime
    /// reads its factor to stretch the tick boundary and shed slots.
    sampling: Option<SamplingController>,
    /// The self-cost ledger (when enabled): priced per tick boundary.
    selfcost: Option<SelfCostLedger>,
    /// Where the post-mortem dump goes, when armed.
    post_mortem: Option<PathBuf>,
    /// Meter fault stats at the previous tick boundary, so each boundary
    /// journals only the *new* fault activity.
    fault_prev_meter: MeterFaultStats,
    /// PMU fault stats at the previous tick boundary.
    fault_prev_counters: CounterFaultStats,
    /// Free list recycling frame storage across ticks — O(1) allocation
    /// in the steady state.
    pool: FramePool,
}

impl PowerApi {
    /// Starts the builder.
    pub fn builder(kernel: Kernel) -> PowerApiBuilder {
        PowerApiBuilder::new(kernel)
    }

    /// The kernel under observation (spawn/kill processes here).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        self.host.kernel_mut()
    }

    /// Read-only kernel access.
    pub fn kernel(&self) -> &Kernel {
        self.host.kernel()
    }

    /// Starts estimating a process.
    ///
    /// # Errors
    ///
    /// Propagates perf-session errors.
    pub fn monitor(&mut self, pid: Pid) -> Result<()> {
        self.host.monitor(pid)
    }

    /// Stops estimating a process.
    pub fn unmonitor(&mut self, pid: Pid) {
        self.host.unmonitor(pid);
    }

    /// What the fault plan has done to the meter so far.
    pub fn meter_fault_stats(&self) -> powermeter::powerspy::MeterFaultStats {
        self.host.meter_fault_stats()
    }

    /// What the fault plan has done to the perf session so far.
    pub fn counter_fault_stats(&self) -> perf_sim::session::CounterFaultStats {
        self.host.counter_fault_stats()
    }

    /// Advances simulated time by `duration`, publishing a monitoring
    /// tick (and thus a round of estimates) every clock period.
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] when called after [`PowerApi::finish`].
    pub fn run_for(&mut self, duration: Nanos) -> Result<()> {
        let bus = self
            .system
            .as_ref()
            .ok_or_else(|| Error::Middleware("run_for after finish".into()))?
            .bus()
            .clone();
        let deadline = self.host.kernel().machine().now() + duration;
        // Host stepping is timed per tick-to-tick batch (two clock reads
        // per tick), never per quantum — the overhead split must not
        // itself become the overhead.
        let instrumented = self.telemetry.enabled();
        let mut batch = instrumented.then(Instant::now);
        while self.host.kernel().machine().now() < deadline {
            let remaining = deadline - self.host.kernel().machine().now();
            let step = Nanos(remaining.as_u64().min(self.quantum.as_u64()));
            self.host.step(step);
            if self.host.kernel().machine().now() >= self.next_boundary {
                if let Some(t) = batch.take() {
                    self.telemetry
                        .overhead()
                        .record_host(t.elapsed().as_nanos() as u64);
                }
                let frame = self.host.snapshot_frame(&self.pool);
                let timestamp = frame.timestamp;
                if instrumented {
                    // Advance the flight-recorder clock first so every
                    // event this tick provokes carries its timestamp.
                    self.telemetry.journal().set_now(timestamp);
                }
                // Fault deltas relay *before* the tick publishes: the
                // controller's fault note must happen-before the rate
                // actor sees this tick's aggregate, so a fault window
                // snaps the rate back on the tick that opened it.
                self.journal_fault_deltas(timestamp);
                bus.publish(Message::Frame(Arc::new(frame)));
                self.settle_selfcost_tick();
                self.advance_boundary();
                batch = instrumented.then(Instant::now);
            }
        }
        if let Some(t) = batch {
            self.telemetry
                .overhead()
                .record_host(t.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Journals one `FaultInjected` event per fault kind whose counter
    /// advanced since the previous tick boundary, and relays the
    /// activity to the sampling controller (a fault window must snap the
    /// rate back to full). The sensor substrates (powermeter, perf-sim)
    /// cannot reach the journal themselves — they sit below the
    /// middleware — so the runtime polls their stats and stamps the
    /// events with the tick's trace id. The journal writes are no-ops on
    /// a dark hub; the fault relay works either way.
    fn journal_fault_deltas(&mut self, timestamp: Nanos) {
        let meter = self.host.meter_fault_stats();
        let counters = self.host.counter_fault_stats();
        if meter == self.fault_prev_meter && counters == self.fault_prev_counters {
            return;
        }
        let meter_deltas = meter.delta_kinds(&self.fault_prev_meter);
        let counter_deltas = counters.delta_kinds(&self.fault_prev_counters);
        // `emitted` advancing is normal meter throughput, not a fault —
        // only genuine fault-kind deltas open a window for the sampler.
        if !meter_deltas.is_empty() || !counter_deltas.is_empty() {
            if let Some(s) = &self.sampling {
                s.note_fault();
            }
        }
        let journal = self.telemetry.journal();
        let trace = self.telemetry.trace_for_tick(timestamp);
        for (kind, n) in meter_deltas {
            journal.emit_at(
                timestamp,
                EventKind::FaultInjected,
                kind,
                format!("{n} meter sample(s) affected"),
                trace,
            );
        }
        for (kind, n) in counter_deltas {
            journal.emit_at(
                timestamp,
                EventKind::FaultInjected,
                kind,
                format!("{n} PMU tick(s) affected"),
                trace,
            );
        }
        self.fault_prev_meter = meter;
        self.fault_prev_counters = counters;
    }

    /// Advances the next tick boundary by the sampling controller's
    /// current period factor (1 when adaptive sampling is off) and
    /// applies the configured slot shedding while backed off.
    ///
    /// With adaptive sampling on, the boundary first settles the loop:
    /// the verdict on the aggregate this tick's frame flushed paces the
    /// T→T+1 gap, whatever the thread timing. With it off the producer
    /// does not wait, and keeps overlapping the loop.
    fn advance_boundary(&mut self) {
        let factor = match &self.sampling {
            Some(s) => {
                self.settle();
                s.factor().max(1)
            }
            None => 1,
        };
        self.next_boundary += Nanos(self.clock_period.as_u64().saturating_mul(factor as u64));
        if let Some(s) = &self.sampling {
            let limit = if factor > 1 { s.shed_slots() } else { None };
            if limit != self.host.slot_limit() {
                self.host.set_slot_limit(limit);
            }
        }
    }

    /// Prices the tick that just published on the self-cost ledger: one
    /// tick row and the harvest's counter reads, priced by volume ×
    /// multiplexing pressure.
    fn settle_selfcost_tick(&self) {
        if let Some(ledger) = &self.selfcost {
            ledger.note_tick();
            let pressure = self.host.sampling_pressure();
            ledger.charge_sensor_reads(pressure.reads, pressure.ratio());
        }
    }

    /// Returns once the pipeline has handled everything published so far
    /// and everything that caused ([`ActorSystem::settle`]). Call it
    /// between `run_for` slices before reading or writing a handle the
    /// actors share — a [`PowerCap`](crate::control::PowerCap) set-point,
    /// the [`ModelHealth`] view — so the access lands at a tick boundary.
    /// A no-op after [`PowerApi::finish`].
    pub fn settle(&self) {
        if let Some(system) = &self.system {
            system.settle();
        }
    }

    /// The observability hub (disabled unless the builder enabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The live model-health view (`None` unless the builder enabled
    /// [`PowerApiBuilder::model_health`]). Readable mid-run: operator
    /// loops read `out_of_band()` / `alarms()` between `run_for` slices,
    /// after [`PowerApi::settle`].
    pub fn model_health(&self) -> Option<&ModelHealth> {
        self.model_health.as_ref().map(|(h, _)| h)
    }

    /// The recalibration hook (`None` unless model health is enabled).
    /// Take [`RecalibrationTrigger::take_pending`] between `run_for`
    /// slices, after [`PowerApi::settle`], to schedule calibration sweeps
    /// on drift.
    pub fn recalibration_trigger(&self) -> Option<&RecalibrationTrigger> {
        self.model_health.as_ref().map(|(_, t)| t)
    }

    /// The adaptive sampling controller (`None` unless the builder
    /// enabled [`PowerApiBuilder::adaptive_sampling`]). Readable mid-run:
    /// `factor()` is the period multiplier the last tick boundary settled
    /// on.
    pub fn sampling_controller(&self) -> Option<&SamplingController> {
        self.sampling.as_ref()
    }

    /// Stops the pipeline, drains in-flight messages, and returns every
    /// collected report (empty unless `report_to_memory` was enabled)
    /// together with the pipeline's health summary and its telemetry hub.
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] when called twice.
    pub fn finish(mut self) -> Result<RunOutcome> {
        let system = self
            .system
            .take()
            .ok_or_else(|| Error::Middleware("finish called twice".into()))?;
        let health = system.shutdown();
        let (reports, meter, rapl) = match &self.memory {
            Some(h) => (h.aggregates(), h.meter(), h.rapl()),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        // Summarise only after shutdown so every in-flight hop is drained.
        let model_health = match &self.model_health {
            Some((h, t)) => {
                let mut s = h.summary();
                s.recalibrations = t.fired();
                s
            }
            None => ModelHealthSummary::default(),
        };
        // The measured columns read the hub after the drain above: the
        // work between the final boundary and shutdown is cost too.
        let selfcost = self
            .selfcost
            .as_ref()
            .map_or_else(SelfCostSummary::default, |l| l.summary(&self.telemetry));
        let flight_recorder = self.write_post_mortem(&health)?;
        Ok(RunOutcome {
            reports,
            meter,
            rapl,
            health,
            telemetry: self.telemetry,
            model_health,
            selfcost,
            flight_recorder,
        })
    }

    /// What went wrong, if anything: panic-escalation (any actor died or
    /// escalated), degraded shutdown (the run ended with at least one pid
    /// still served by the backup formula), or a latched, unconsumed
    /// recalibration trigger.
    fn post_mortem_reason(&self, health: &ShutdownSummary) -> Option<String> {
        let mut reasons: Vec<&str> = Vec::new();
        if !health.panicked.is_empty() || health.escalated {
            reasons.push("panic-escalation");
        }
        let journal = self.telemetry.journal();
        if journal.count(EventKind::QualityDegraded) > journal.count(EventKind::QualityRecovered) {
            reasons.push("degraded-shutdown");
        }
        if self
            .model_health
            .as_ref()
            .is_some_and(|(_, t)| t.is_pending())
        {
            reasons.push("recalibration-latched");
        }
        if reasons.is_empty() {
            None
        } else {
            Some(reasons.join("+"))
        }
    }

    /// Writes the post-mortem dump when armed.
    fn write_post_mortem(&self, health: &ShutdownSummary) -> Result<Option<PostMortemReport>> {
        let Some(dir) = &self.post_mortem else {
            return Ok(None);
        };
        let reason = self
            .post_mortem_reason(health)
            .unwrap_or_else(|| "requested".to_string());
        export::write_post_mortem(dir, &self.telemetry, None, &reason)
            .map(Some)
            .map_err(|e| Error::Middleware(format!("post-mortem dump to {}: {e}", dir.display())))
    }
}

impl std::fmt::Debug for PowerApi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerApi")
            .field("now", &self.host.kernel().machine().now())
            .field("clock_period", &self.clock_period)
            .field("running", &self.system.is_some())
            .finish()
    }
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// All aggregate reports, in arrival order.
    pub reports: Vec<AggregateReport>,
    /// Meter (PowerSpy) samples.
    pub meter: Vec<(Nanos, Watts)>,
    /// RAPL package-power samples (empty on unsupported machines).
    pub rapl: Vec<(Nanos, Watts)>,
    /// Pipeline health at shutdown: which actors panicked, how many
    /// panics were caught and how many restarts the supervisors
    /// performed.
    pub health: ShutdownSummary,
    /// The observability hub the run recorded into, drained: every
    /// figure is a view of it ([`Telemetry::stage_latency`],
    /// [`Telemetry::tick_lag`], [`Telemetry::handle_totals`], the
    /// tracer, the journal, [`Telemetry::render_prometheus`]). A
    /// disabled hub, reading zero and rendering nothing, when the
    /// builder turned telemetry off.
    pub telemetry: Telemetry,
    /// What online model-health tracking observed: residual statistics,
    /// drift alarms, out-of-band ticks, recalibration requests. All-zero
    /// when the builder did not enable
    /// [`PowerApiBuilder::model_health`].
    pub model_health: ModelHealthSummary,
    /// The self-cost ledger's bottom line: what the monitoring itself
    /// cost, per column (priced sensor reads; pipeline stages and
    /// telemetry harvest, read from the hub at finish). All-zero unless
    /// [`PowerApiBuilder::profile_self`] or
    /// [`PowerApiBuilder::adaptive_sampling`] enabled the ledger.
    pub selfcost: SelfCostSummary,
    /// Where (and why) the flight recorder wrote a post-mortem dump —
    /// `None` unless [`PowerApiBuilder::post_mortem_to`] was armed.
    pub flight_recorder: Option<PostMortemReport>,
}

impl RunOutcome {
    /// Whether the run finished with no unrecovered panic and no escalation.
    pub fn is_healthy(&self) -> bool {
        self.health.is_clean()
    }

    /// How many aggregate reports carry less-than-full quality (served by
    /// a fallback formula or folded from degraded inputs).
    pub fn degraded_reports(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.quality != crate::msg::Quality::Full)
            .count()
    }

    /// The estimates whose scope `keep` accepts, as `(timestamp, watts)`,
    /// time-ordered (stable: same-timestamp reports keep arrival order).
    fn estimates(&self, keep: impl Fn(&Scope) -> bool) -> Vec<(Nanos, Watts)> {
        let mut v: Vec<(Nanos, Watts)> = self
            .reports
            .iter()
            .filter(|r| keep(&r.scope))
            .map(|r| (r.timestamp, r.power))
            .collect();
        v.sort_by_key(|(t, _)| *t);
        v
    }

    /// Machine-scope estimates as `(timestamp, watts)`, time-ordered.
    pub fn machine_estimates(&self) -> Vec<(Nanos, Watts)> {
        self.estimates(|s| *s == Scope::Machine)
    }

    /// One process's estimates as `(timestamp, watts)`, time-ordered.
    pub fn process_estimates(&self, pid: Pid) -> Vec<(Nanos, Watts)> {
        self.estimates(|s| *s == Scope::Process(pid))
    }

    /// The middleware's own estimates as `(timestamp, watts)` — empty
    /// unless [`PowerApiBuilder::profile_self`] was enabled.
    pub fn self_estimates(&self) -> Vec<(Nanos, Watts)> {
        self.process_estimates(SELF_PID)
    }

    /// One named group's estimates as `(timestamp, watts)`, time-ordered
    /// (see [`PowerApiBuilder::hierarchy`]).
    pub fn group_estimates(&self, group: &str) -> Vec<(Nanos, Watts)> {
        self.estimates(|s| matches!(s, Scope::Group(g) if &**g == group))
    }

    /// Machine estimates as a [`powermeter::trace::PowerTrace`].
    pub fn estimate_trace(&self) -> powermeter::trace::PowerTrace {
        let mut t = powermeter::trace::PowerTrace::new();
        for (at, w) in self.machine_estimates() {
            t.push_at(at, w);
        }
        t
    }

    /// Meter samples as a [`powermeter::trace::PowerTrace`].
    pub fn meter_trace(&self) -> powermeter::trace::PowerTrace {
        let mut t = powermeter::trace::PowerTrace::new();
        for &(at, w) in &self.meter {
            t.push_at(at, w);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::per_freq::PerFrequencyFormula;
    use crate::model::power_model::PerFrequencyPowerModel;
    use os_sim::task::SteadyTask;
    use simcpu::presets;
    use simcpu::workunit::WorkUnit;

    fn busy_kernel() -> (Kernel, Pid) {
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
        (kernel, pid)
    }

    fn paper_formula() -> PerFrequencyFormula {
        PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example())
    }

    #[test]
    fn build_requires_a_formula() {
        let (kernel, _) = busy_kernel();
        assert!(matches!(
            PowerApi::builder(kernel).build(),
            Err(Error::Middleware(_))
        ));
    }

    #[test]
    fn zero_quantum_or_clock_period_is_a_build_error_not_a_silent_clamp() {
        let (kernel, _) = busy_kernel();
        let err = PowerApi::builder(kernel)
            .formula(paper_formula())
            .quantum(Nanos::ZERO)
            .build();
        assert!(matches!(err, Err(Error::Middleware(m)) if m.contains("quantum")));
        let (kernel, _) = busy_kernel();
        let err = PowerApi::builder(kernel)
            .formula(paper_formula())
            .clock_period(Nanos::ZERO)
            .build();
        assert!(matches!(err, Err(Error::Middleware(m)) if m.contains("clock period")));
    }

    #[test]
    fn a_second_formula_is_rejected() {
        // Machine aggregation would sum two formulas' estimates of one
        // process; per pid, a backup would shadow both. Neither builds.
        for (dimension, degrade) in [(Dimension::both(), false), (Dimension::pid(), true)] {
            let (kernel, _) = busy_kernel();
            let mut b = PowerApi::builder(kernel)
                .formula(paper_formula())
                .formula(PerFrequencyFormula::cpu_load(31.5, 12.0))
                .dimension(dimension);
            if degrade {
                b = b.degrade_to(
                    PerFrequencyFormula::cpu_load(31.5, 12.0),
                    Nanos::from_secs(2),
                );
            }
            let err = b.build();
            assert!(matches!(err, Err(Error::Middleware(m)) if m.contains("one formula")));
        }
    }

    #[test]
    fn end_to_end_estimates_track_the_meter() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(4)).unwrap();
        let out = papi.finish().unwrap();

        let est = out.machine_estimates();
        assert_eq!(est.len(), 8, "one machine estimate per tick");
        // Estimates = idle + active > idle.
        assert!(est.iter().all(|(_, w)| w.as_f64() > 31.48));
        // Meter (1 Hz default) produced samples too.
        assert_eq!(out.meter.len(), 4);
        // RAPL present on the i3.
        assert!(!out.rapl.is_empty());
        // Both traces convertible.
        assert_eq!(out.estimate_trace().len(), 8);
        assert_eq!(out.meter_trace().len(), 4);
        // The paper-constant model on simulated counters won't be exact,
        // but it must land in a plausible band of the measured power.
        let (a, b) = out.meter_trace().align(&out.estimate_trace());
        let report = mathkit::metrics::ErrorReport::compute(&a, &b).unwrap();
        assert!(report.median_ape < 40.0, "median err {}", report.median_ape);
    }

    #[test]
    fn model_health_wires_through_the_pipeline() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .model_health()
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        assert!(papi.model_health().is_some());
        assert!(papi.recalibration_trigger().is_some());
        papi.run_for(Nanos::from_secs(8)).unwrap();
        let out = papi.finish().unwrap();
        let mh = &out.model_health;
        assert!(mh.ticks >= 6, "estimate/meter pairs flowed: {mh:?}");
        assert!(mh.mae_w.is_finite() && mh.mae_w >= 0.0);
        // The Prometheus dump carries the health series.
        assert!(out
            .telemetry
            .render_prometheus()
            .contains("powerapi_model_residual_ticks_total"));
    }

    #[test]
    fn model_health_downgrades_the_primary_under_degrade_to() {
        // E9's drift: a model learned on a leak-free i3 serves the stock
        // one at full load, whose thermal leakage pushes the residual out
        // of band. No fault plan, so the watchdog never hands a pid to
        // the backup: every downgrade is the health verdict's.
        let mut cold = presets::intel_i3_2120();
        cold.power = simcpu::power::PowerModel::builder()
            .platform_idle_w(26.0)
            .package_idle_w(5.5)
            .core_baseline_w_per_ghz_v2(2.7)
            .smt_second_thread_factor(0.10)
            .vref(1.05)
            .thermal_tau_s(30.0)
            .thermal_resistance_c_per_w(1.2)
            .thermal_leak_w_per_c(0.0)
            .build();
        let model =
            crate::model::learn::learn_model(cold, &crate::model::learn::LearnConfig::quick())
                .unwrap();
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let tasks = (0..4)
            .map(|_| SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
            .collect();
        let pid = kernel.spawn("steady-load", tasks);
        let mut papi = PowerApi::builder(kernel)
            .formula(PerFrequencyFormula::new(model))
            .model_health()
            .degrade_to(
                PerFrequencyFormula::cpu_load(31.5, 12.0),
                Nanos::from_secs(2),
            )
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(80)).unwrap();
        let out = papi.finish().unwrap();
        assert!(
            out.model_health.out_of_band_ticks > 0,
            "{:?}",
            out.model_health
        );
        let journal = out.telemetry.journal();
        assert_eq!(
            journal.count(EventKind::QualityDegraded),
            0,
            "backup stayed silent"
        );
        assert!(
            out.degraded_reports() > 0,
            "out of band, so some aggregates are degraded"
        );
    }

    #[test]
    fn model_health_off_has_no_summary_and_no_metrics() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        assert!(papi.model_health().is_none());
        assert!(papi.recalibration_trigger().is_none());
        papi.run_for(Nanos::from_secs(2)).unwrap();
        let out = papi.finish().unwrap();
        assert_eq!(out.model_health, ModelHealthSummary::default());
        assert!(!out
            .telemetry
            .render_prometheus()
            .contains("powerapi_model_"));
    }

    #[test]
    fn finish_twice_and_run_after_finish_error() {
        let (kernel, _) = busy_kernel();
        let papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .build()
            .unwrap();
        let debug = format!("{papi:?}");
        assert!(debug.contains("running: true"));
        let out = papi.finish().unwrap();
        assert!(out.reports.is_empty(), "no memory reporter configured");
    }

    #[test]
    fn default_pipeline_runs_one_actor_per_stage() {
        let (kernel, _) = busy_kernel();
        let papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .report_to_csv(std::io::sink())
            .report_to_csv(std::io::sink())
            .build()
            .unwrap();
        let health = papi.system.as_ref().expect("running").health();
        let named = |p: &str| health.iter().filter(|h| h.name.starts_with(p)).count();
        assert_eq!(named("sensor"), 1, "one sensor stage");
        assert_eq!(named("reporter-csv"), 1, "asked for twice, listed once");
        assert_eq!(health.len(), 5, "+ formula, aggregator, memory reporter");
        papi.finish().unwrap();
    }

    #[test]
    fn zero_slots_is_a_build_error_not_a_silent_clamp() {
        let (kernel, _) = busy_kernel();
        let err = PowerApi::builder(kernel)
            .formula(paper_formula())
            .slots(0)
            .build();
        assert!(matches!(err, Err(Error::Middleware(m)) if m.contains("slot")));
    }

    #[test]
    fn clean_run_reports_healthy_outcome() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(1)).unwrap();
        let out = papi.finish().unwrap();
        assert!(out.is_healthy(), "{:?}", out.health);
        assert_eq!(out.degraded_reports(), 0);
    }

    /// Σ of the `powerapi_actor_{handle_ns_count,restarts_total,
    /// panics_total}` series of `hub`'s registry, per family.
    fn actor_series_sums(hub: &Telemetry) -> (u64, u64, u64) {
        let reg = hub.registry();
        let mut handled = 0;
        for stage in Stage::ALL {
            handled += hub.stage_latency(stage).count();
        }
        let sum_of = |family: &str| {
            let mut total = 0;
            reg.for_each_counter(family, |_, v| total += v);
            total
        };
        (
            handled,
            sum_of("powerapi_actor_restarts_total"),
            sum_of("powerapi_actor_panics_total"),
        )
    }

    #[test]
    fn the_outcome_hands_back_the_hub_it_recorded_into() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(2)).unwrap();
        let out = papi.finish().unwrap();
        let hub = &out.telemetry;
        assert!(hub.enabled(), "telemetry defaults on");
        // Every pipeline stage saw traffic and was timed.
        for stage in [
            Stage::Sensor,
            Stage::Formula,
            Stage::Aggregator,
            Stage::Reporter,
        ] {
            assert!(hub.stage_latency(stage).count() > 0, "{stage:?} timed");
        }
        // The Σ count of the handle series, by stage or by actor, is
        // every message the bus delivered: each was handled once.
        let (messages, busy_ns) = hub.handle_totals();
        assert!(messages > 0 && busy_ns > 0);
        assert_eq!(actor_series_sums(hub).0, messages);
        let mut delivered = 0;
        hub.registry()
            .for_each_counter("powerapi_bus_delivered_total", |_, n| delivered += n);
        assert_eq!(delivered, messages);
        // Each of the 4 ticks produced a traced end-to-end span.
        assert_eq!(hub.tracer().end_to_end().count(), 4);
        assert!(hub.tracer().end_to_end().max() > 0);
        assert_eq!(hub.tick_lag().count(), 4, "one frame per tick");
        // Every report descends from a traced tick.
        assert!(out.reports.iter().all(|r| r.trace.is_traced()));
        assert!(hub.overhead().host_ns() > 0 && hub.overhead().snapshot_ns() > 0);
        assert!(hub.journal().emitted() > 0, "actor starts and stops");
    }

    #[test]
    fn shutdown_counts_are_the_registry_sums() {
        /// Panics on every whole-second tick; the supervisor rebuilds it.
        struct Flaky;
        impl crate::actor::Actor for Flaky {
            fn handle(&mut self, msg: Message, _: &crate::actor::Context) {
                if let Message::Frame(f) = msg {
                    assert!(f.timestamp.as_u64() % 1_000_000_000 != 0, "flaky");
                }
            }
        }
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .with_supervised_actor("flaky", || Box::new(Flaky), vec![Topic::Tick])
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(2)).unwrap();
        let out = papi.finish().unwrap();
        assert_eq!((out.health.restarts, out.health.panics), (2, 2));
        let (_, restarts, panics) = actor_series_sums(&out.telemetry);
        assert_eq!((out.health.restarts, out.health.panics), (restarts, panics));
    }

    #[test]
    fn telemetry_off_runs_dark() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .telemetry(false)
            .report_to_memory()
            .model_health()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(1)).unwrap();
        let out = papi.finish().unwrap();
        let hub = &out.telemetry;
        assert!(!hub.enabled());
        assert_eq!(hub.handle_totals(), (0, 0));
        assert_eq!(actor_series_sums(hub), (0, 0, 0));
        assert_eq!(hub.tick_lag().count(), 0);
        assert_eq!(hub.tracer().end_to_end().count(), 0);
        assert_eq!((hub.journal().emitted(), hub.journal().dropped()), (0, 0));
        assert_eq!(
            (hub.overhead().host_ns(), hub.overhead().snapshot_ns()),
            (0, 0)
        );
        assert_eq!(
            hub.render_prometheus(),
            "",
            "no family, not even model health's"
        );
        assert!(out.reports.iter().all(|r| !r.trace.is_traced()));
        assert_eq!(out.machine_estimates().len(), 2, "estimation unaffected");
    }

    #[test]
    fn profile_self_requires_telemetry() {
        let (kernel, _) = busy_kernel();
        let err = PowerApi::builder(kernel)
            .formula(paper_formula())
            .telemetry(false)
            .profile_self(12.0)
            .build();
        assert!(matches!(err, Err(Error::Middleware(m)) if m.contains("profile_self")));
    }

    #[test]
    fn profile_self_reports_the_middleware_as_a_process() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .profile_self(12.0)
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(2)).unwrap();
        let out = papi.finish().unwrap();
        let own = out.self_estimates();
        assert_eq!(own.len(), 4, "one self report per tick");
        // The middleware is nearly idle relative to wall time, so its
        // attributed power is a small fraction of a busy core's.
        assert!(own.iter().all(|(_, w)| w.as_f64() >= 0.0));
        assert!(own.iter().any(|(_, w)| w.as_f64() < 12.0));
        // The workload's own estimates are unaffected.
        assert_eq!(out.process_estimates(pid).len(), 4);
        // The self-cost ledger rides with it.
        assert!(out
            .telemetry
            .render_prometheus()
            .contains("powerapi_selfcost_ticks_total"));
    }

    #[test]
    fn counter_faults_degrade_estimates_via_fallback() {
        use simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
        let (kernel, pid) = busy_kernel();
        // PMU stalls from 2 s onward: the HPC sensor goes quiet and the
        // watchdog must hand estimation to the cpu-load backup.
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::CounterStall,
            start: Nanos::from_secs(2),
            end: Nanos::from_secs(60),
            magnitude: 0.0,
        }]);
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .degrade_to(
                crate::formula::per_freq::PerFrequencyFormula::cpu_load(31.5, 12.0),
                Nanos::from_millis(1500),
            )
            .fault_plan(plan)
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(6)).unwrap();
        let out = papi.finish().unwrap();
        let degraded = out.degraded_reports();
        assert!(degraded > 0, "stall after 2 s must trip the fallback");
        // Estimation resumes through the stall (modulo the watchdog's
        // grace window), just at degraded quality: 4 full ticks before
        // the stall plus the degraded tail.
        assert!(out.machine_estimates().len() >= 8);
        assert!(out.is_healthy(), "{:?}", out.health);
    }

    #[test]
    fn adaptive_sampling_stretches_the_tick_schedule() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .clock_period(Nanos::from_millis(500))
            .adaptive_sampling(SamplingConfig {
                shed_slots: Some(2),
                ..SamplingConfig::default()
            })
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(20)).unwrap();
        let ctrl = papi.sampling_controller().expect("controller wired");
        assert!(ctrl.factor() > 1, "clean run backs off");
        let out = papi.finish().unwrap();
        let n = out.machine_estimates().len();
        assert!(
            (5..40).contains(&n),
            "40 full-rate ticks shrink under backoff, got {n}"
        );
        // The ledger priced every tick that actually ran.
        assert_eq!(out.selfcost.ticks as usize, n);
        assert!(out.selfcost.sensor_reads > 0);
        assert!(out.selfcost.sensor_read_ns > 0);
        assert!(out.selfcost.total_ns() >= out.selfcost.sensor_read_ns);
        // The measured columns are the hub's records, read at finish:
        // each stage's handler ns is the sum of its actors' series.
        let prom = out.telemetry.render_prometheus();
        let sum_of = |actor: &str| {
            let key = format!("powerapi_actor_handle_ns_sum{{actor=\"{actor}\"}} ");
            let line = prom.lines().find_map(|l| l.strip_prefix(key.as_str()));
            line.map_or(0, |v| v.parse::<u64>().unwrap())
        };
        let formula = format!("formula-0-{}", paper_formula().name());
        for (stage, actors) in [
            (Stage::Sensor, &["sensor"][..]),
            (Stage::Formula, &[formula.as_str()][..]),
            (Stage::Aggregator, &["aggregator"][..]),
            (Stage::Control, &["rate-control"][..]),
            (Stage::Reporter, &["reporter-memory"][..]),
            (Stage::Other, &[][..]),
        ] {
            let sum: u64 = actors.iter().map(|a| sum_of(a)).sum();
            assert_eq!(out.selfcost.stage_ns(stage), sum, "{stage:?}");
        }
        assert!(out.selfcost.stage_ns(Stage::Formula) > 0);
        assert_eq!(
            out.selfcost.telemetry_ns,
            out.telemetry.overhead().snapshot_ns()
        );
        assert!(out.selfcost.telemetry_ns > 0);
        assert!(prom.contains("powerapi_selfcost_ticks_total"));
        // Backoff transitions were journaled.
        assert!(out.telemetry.journal().count(EventKind::RateChange) > 0);
    }

    #[test]
    fn adaptive_sampling_off_leaves_ledger_and_schedule_alone() {
        let (kernel, pid) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        assert!(papi.sampling_controller().is_none());
        papi.run_for(Nanos::from_secs(2)).unwrap();
        let out = papi.finish().unwrap();
        assert_eq!(out.machine_estimates().len(), 4, "full rate");
        assert_eq!(out.selfcost, SelfCostSummary::default());
        assert!(!out
            .telemetry
            .render_prometheus()
            .contains("powerapi_selfcost_"));
    }

    #[test]
    fn post_mortem_requires_telemetry() {
        let (kernel, _) = busy_kernel();
        let err = PowerApi::builder(kernel)
            .formula(paper_formula())
            .telemetry(false)
            .post_mortem_to(std::env::temp_dir().join("powerapi-never-written"))
            .build();
        assert!(matches!(err, Err(Error::Middleware(_))));
    }

    #[test]
    fn flight_recorder_dumps_journal_spans_and_metrics() {
        use simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
        let (kernel, pid) = busy_kernel();
        let dir = std::env::temp_dir().join(format!("powerapi-fr-{}", std::process::id()));
        // A meter dropout window guarantees FaultInjected journal lines.
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::SampleDropout,
            start: Nanos::from_secs(1),
            end: Nanos::from_secs(3),
            magnitude: 1.0,
        }]);
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .fault_plan(plan)
            .report_to_memory()
            .quantum(Nanos::from_millis(2))
            .clock_period(Nanos::from_millis(500))
            .post_mortem_to(&dir)
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        papi.run_for(Nanos::from_secs(4)).unwrap();
        let out = papi.finish().unwrap();
        let report = out.flight_recorder.as_ref().expect("an armed dump");
        assert_eq!(report.reason, "requested", "clean run dumps as requested");
        assert!(report.events > 0 && report.spans > 0 && report.bytes > 0);
        // The dump parses back and reconstructs what happened.
        let jsonl = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let events = crate::telemetry::parse_jsonl(&jsonl).unwrap();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::ActorStart && e.subject == "sensor"));
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::FaultInjected && e.subject == "SampleDropout"),
            "dropout window must be journaled"
        );
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let doc = export::parse_json(&trace).expect("valid Chrome trace");
        assert!(doc.get("traceEvents").is_some());
        assert!(std::fs::read_to_string(dir.join("metrics.prom"))
            .unwrap()
            .contains("powerapi_journal_events_total"));
        assert!(out.telemetry.journal().emitted() >= report.events as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn post_mortem_covers_the_whole_retained_journal() {
        let (kernel, pid) = busy_kernel();
        let dir = std::env::temp_dir().join(format!("powerapi-fr-whole-{}", std::process::id()));
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .quantum(Nanos::from_millis(10))
            .post_mortem_to(&dir)
            .build()
            .unwrap();
        papi.monitor(pid).unwrap();
        // Longer than a minute: the dump is not a trailing window.
        papi.run_for(Nanos::from_secs(70)).unwrap();
        let out = papi.finish().unwrap();
        let report = out.flight_recorder.as_ref().expect("an armed dump");
        assert_eq!(report.events, out.telemetry.journal().len());
        assert_eq!(report.spans, out.telemetry.tracer().spans().len());
        let jsonl = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let events = crate::telemetry::parse_jsonl(&jsonl).unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::ActorStart && e.at == Nanos::ZERO),
            "the spawn-time events are in the dump"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unmonitored_runs_produce_zero_active_power() {
        let (kernel, _) = busy_kernel();
        let mut papi = PowerApi::builder(kernel)
            .formula(paper_formula())
            .report_to_memory()
            .quantum(Nanos::from_millis(5))
            .clock_period(Nanos::from_millis(500))
            .build()
            .unwrap();
        // Nothing monitored: ticks happen, but no sensor reports flow.
        papi.run_for(Nanos::from_secs(1)).unwrap();
        let out = papi.finish().unwrap();
        assert!(out.machine_estimates().is_empty());
        assert!(!out.meter.is_empty() || !out.rapl.is_empty());
    }
}
