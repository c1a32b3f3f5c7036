//! Shared chaos-injection pieces for the fault experiments (E7's chaos
//! replay and E10's black-box flight recorder): the one chaos pipeline
//! both build, its actor-panic monkey, the panic-hook silencer, and the
//! seeded fault schedule both binaries replay so their runs are
//! comparable event-for-event.

use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use powerapi::actor::{Actor, Context, RestartPolicy};
use powerapi::formula::PowerFormula;
use powerapi::msg::{Message, Topic};
use powerapi::runtime::{PowerApi, PowerApiBuilder};
use simcpu::fault::{FaultKind, FaultPlan, FaultPlanConfig};
use simcpu::presets;
use simcpu::units::Nanos;
use std::sync::{Arc, Mutex};
use workloads::specjbb::{self, SpecJbbConfig};

/// Seed for the fault schedule (separate from every simulation seed).
pub const CHAOS_SEED: u64 = 0xE7_C4A0_5EED;

/// The pipeline E7 and E10 replay: `jbb`'s SPECjbb2013 excerpt on the
/// i3, estimated by `formula`, which degrades per process to `backup`
/// after 2.5 s of hpc silence, all under `plan`. A supervised
/// `ChaosMonkey` turns the plan's `ActorPanic` windows into panics,
/// and every supervised stage may be rebuilt 16 times. Returns the
/// builder, reporting to memory, and the workload's pid.
pub fn chaos_pipeline(
    jbb: &SpecJbbConfig,
    formula: impl PowerFormula + 'static,
    backup: impl PowerFormula + 'static,
    plan: FaultPlan,
) -> (PowerApiBuilder, Pid) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("specjbb2013", specjbb::tasks(jbb));
    let monkey_plan = plan.clone();
    let fired = Arc::new(Mutex::new(Vec::new()));
    let builder = PowerApi::builder(kernel)
        .formula(formula)
        .degrade_to(backup, Nanos::from_millis(2500))
        .fault_plan(plan)
        .supervision(RestartPolicy::Restart { max: 16 })
        .with_supervised_actor(
            "chaos-monkey",
            move || {
                Box::new(ChaosMonkey {
                    plan: monkey_plan.clone(),
                    fired: fired.clone(),
                })
            },
            vec![Topic::Tick],
        )
        .report_to_memory();
    (builder, pid)
}

/// A supervised actor that panics on entry to each `ActorPanic` window.
/// The fired-window log lives *outside* the actor (shared with the
/// factory), so the supervisor's rebuild doesn't re-trigger the same
/// window and the panic count stays exactly one per window.
struct ChaosMonkey {
    /// The schedule whose `ActorPanic` windows trigger the panics.
    plan: FaultPlan,
    /// Shared log of windows already fired (survives restarts).
    fired: Arc<Mutex<Vec<Nanos>>>,
}

impl Actor for ChaosMonkey {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        let Some(w) = self.plan.active(FaultKind::ActorPanic, frame.timestamp) else {
            return;
        };
        let start = w.start;
        {
            let mut fired = self.fired.lock().expect("chaos log");
            if fired.contains(&start) {
                return;
            }
            fired.push(start);
            // Guard dropped before the panic: a poisoned log would wedge
            // the rebuilt actor.
        }
        panic!("chaos monkey: injected actor fault at {start:?}");
    }
}

/// Forwards every panic to the default hook except the monkey's own.
pub fn quiet_chaos_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("chaos monkey"));
        if !injected {
            default(info);
        }
    }));
}

/// The fault-plan configuration E7 and E10 share: every host fault kind
/// plus `ActorPanic`, with shorter windows in `--quick` mode so the full
/// kind roster still fires inside the 200 s excerpt.
pub fn chaos_fault_config(quick: bool) -> FaultPlanConfig {
    let mut cfg = FaultPlanConfig::default();
    cfg.kinds.push(FaultKind::ActorPanic);
    if quick {
        cfg.min_window = Nanos::from_secs(2);
        cfg.max_window = Nanos::from_secs(5);
    }
    cfg
}
