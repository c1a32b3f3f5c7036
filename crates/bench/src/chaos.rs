//! Shared chaos-injection pieces for the fault experiments (E7's chaos
//! replay and E10's black-box flight recorder): the actor-panic monkey,
//! the panic-hook silencer, and the seeded fault schedule both binaries
//! replay so their runs are comparable event-for-event.

use powerapi::actor::{Actor, Context};
use powerapi::msg::Message;
use simcpu::fault::{FaultKind, FaultPlan, FaultPlanConfig};
use simcpu::units::Nanos;
use std::sync::{Arc, Mutex};

/// Seed for the fault schedule (separate from every simulation seed).
pub const CHAOS_SEED: u64 = 0xE7_C4A0_5EED;

/// A supervised actor that panics on entry to each `ActorPanic` window.
/// The fired-window log lives *outside* the actor (shared with the
/// factory), so the supervisor's rebuild doesn't re-trigger the same
/// window and the panic count stays exactly one per window.
pub struct ChaosMonkey {
    /// The schedule whose `ActorPanic` windows trigger the panics.
    pub plan: FaultPlan,
    /// Shared log of windows already fired (survives restarts).
    pub fired: Arc<Mutex<Vec<Nanos>>>,
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
