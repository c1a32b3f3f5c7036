//! C-states: processor idle states. The paper's motivation section singles
//! them out ("lower the clock speed, turn off some units") — an idle core
//! parked in a deep C-state draws a small fraction of its C0 idle power,
//! at the cost of wakeup latency.

use crate::units::Nanos;
use crate::{Error, Result};

/// One idle state of a core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CState {
    name: &'static str,
    /// Fraction of the core's C0-idle power still drawn in this state.
    power_fraction: f64,
    /// Latency to wake back into C0.
    exit_latency: Nanos,
    /// Minimum residency for entering this state to pay off.
    target_residency: Nanos,
}

impl CState {
    /// Creates a C-state.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `power_fraction` is outside `[0, 1]`.
    pub fn new(
        name: &'static str,
        power_fraction: f64,
        exit_latency: Nanos,
        target_residency: Nanos,
    ) -> Result<CState> {
        if !(0.0..=1.0).contains(&power_fraction) {
            return Err(Error::InvalidConfig(
                "c-state power fraction must be in [0, 1]",
            ));
        }
        Ok(CState {
            name,
            power_fraction,
            exit_latency,
            target_residency,
        })
    }

    /// Marketing name (`"C1"`, `"C6"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Fraction of C0-idle power drawn while parked here.
    pub fn power_fraction(&self) -> f64 {
        self.power_fraction
    }

    /// Wakeup latency.
    pub fn exit_latency(&self) -> Nanos {
        self.exit_latency
    }

    /// Break-even residency.
    pub fn target_residency(&self) -> Nanos {
        self.target_residency
    }
}

/// The ordered menu of idle states a core supports (shallow → deep), plus
/// residency accounting per state.
#[derive(Debug, Clone, PartialEq)]
pub struct CStateMenu {
    states: Vec<CState>,
}

impl CStateMenu {
    /// Builds a menu; states must be ordered shallow→deep, i.e. strictly
    /// decreasing power fraction and non-decreasing exit latency.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an empty or mis-ordered menu.
    pub fn new(states: Vec<CState>) -> Result<CStateMenu> {
        if states.is_empty() {
            return Err(Error::InvalidConfig("c-state menu must not be empty"));
        }
        for w in states.windows(2) {
            if w[1].power_fraction() >= w[0].power_fraction() {
                return Err(Error::InvalidConfig(
                    "c-state menu must strictly decrease in power",
                ));
            }
            if w[1].exit_latency() < w[0].exit_latency() {
                return Err(Error::InvalidConfig(
                    "deeper c-states cannot wake faster than shallow ones",
                ));
            }
        }
        Ok(CStateMenu { states })
    }

    /// The standard Sandy-Bridge-era menu: C1 (halt), C3, C6 (power gate).
    pub fn sandy_bridge() -> CStateMenu {
        CStateMenu::new(vec![
            CState::new("C1", 0.60, Nanos(2_000), Nanos(4_000)).expect("valid"),
            CState::new("C3", 0.25, Nanos(80_000), Nanos(200_000)).expect("valid"),
            CState::new("C6", 0.05, Nanos(110_000), Nanos(400_000)).expect("valid"),
        ])
        .expect("hardcoded menu is valid")
    }

    /// A menu with only C1 — for old parts without deep idle.
    pub fn halt_only() -> CStateMenu {
        CStateMenu::new(vec![
            CState::new("C1", 0.60, Nanos(2_000), Nanos(4_000)).expect("valid")
        ])
        .expect("hardcoded menu is valid")
    }

    /// All states, shallow → deep.
    pub fn states(&self) -> &[CState] {
        &self.states
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false (menus are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Picks the deepest state whose target residency fits the predicted
    /// idle duration — a simplified Linux *menu* governor decision.
    pub fn pick(&self, predicted_idle: Nanos) -> CState {
        let mut chosen = self.states[0];
        for s in &self.states {
            if s.target_residency() <= predicted_idle {
                chosen = *s;
            }
        }
        chosen
    }
}

/// Per-core residency bookkeeping: nanoseconds spent in C0 (busy), C0-idle
/// (awake but no work) and each deeper state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Residency {
    busy: Nanos,
    idle: Vec<(&'static str, Nanos)>,
}

impl Residency {
    /// Empty residency record.
    pub fn new() -> Residency {
        Residency::default()
    }

    /// Accounts busy (C0, executing) time.
    pub fn add_busy(&mut self, dt: Nanos) {
        self.busy += dt;
    }

    /// Accounts time parked in `state`.
    pub fn add_idle(&mut self, state: &CState, dt: Nanos) {
        // Every quantum parks each core in a state of the same menu, so
        // the name is almost always the very string already listed: a
        // pointer match settles it without comparing bytes.
        let name = state.name();
        let listed = (self.idle.iter())
            .position(|&(n, _)| std::ptr::eq(n, name))
            .or_else(|| self.idle.iter().position(|&(n, _)| n == name));
        match listed {
            Some(at) => self.idle[at].1 += dt,
            None => self.idle.push((name, dt)),
        }
    }

    /// Total busy (C0-executing) time.
    pub fn busy(&self) -> Nanos {
        self.busy
    }

    /// Time in a named idle state (zero when never entered).
    pub fn in_state(&self, name: &str) -> Nanos {
        self.idle
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or(Nanos::ZERO)
    }

    /// Total idle time across all states.
    pub fn total_idle(&self) -> Nanos {
        Nanos(self.idle.iter().map(|(_, t)| t.as_u64()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cstate_validation() {
        assert!(CState::new("Cx", 1.5, Nanos(1), Nanos(1)).is_err());
        assert!(CState::new("Cx", -0.1, Nanos(1), Nanos(1)).is_err());
        assert!(CState::new("Cx", 0.5, Nanos(1), Nanos(1)).is_ok());
    }

    #[test]
    fn menu_ordering_enforced() {
        let asc = vec![
            CState::new("C1", 0.2, Nanos(1), Nanos(1)).unwrap(),
            CState::new("C3", 0.5, Nanos(10), Nanos(10)).unwrap(),
        ];
        assert!(CStateMenu::new(asc).is_err());
        let latency_backwards = vec![
            CState::new("C1", 0.6, Nanos(100), Nanos(100)).unwrap(),
            CState::new("C3", 0.2, Nanos(10), Nanos(200)).unwrap(),
        ];
        assert!(CStateMenu::new(latency_backwards).is_err());
        assert!(CStateMenu::new(Vec::new()).is_err());
    }

    #[test]
    fn sandy_bridge_menu_sane() {
        let m = CStateMenu::sandy_bridge();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.states()[0].name(), "C1");
        assert_eq!(m.states()[2].name(), "C6");
        assert!(m.states()[2].power_fraction() < m.states()[0].power_fraction());
    }

    #[test]
    fn pick_matches_predicted_idle() {
        let m = CStateMenu::sandy_bridge();
        // Very short idle: stay shallow.
        assert_eq!(m.pick(Nanos(1_000)).name(), "C1");
        // Medium idle: C3 pays off.
        assert_eq!(m.pick(Nanos(250_000)).name(), "C3");
        // Long idle: deepest.
        assert_eq!(m.pick(Nanos::from_millis(5)).name(), "C6");
    }

    #[test]
    fn residency_accumulates() {
        let m = CStateMenu::sandy_bridge();
        let mut r = Residency::new();
        r.add_busy(Nanos(500));
        r.add_busy(Nanos(250));
        r.add_idle(&m.states()[0], Nanos(100));
        r.add_idle(&m.states()[2], Nanos(1_000));
        r.add_idle(&m.states()[0], Nanos(50));
        assert_eq!(r.busy(), Nanos(750));
        assert_eq!(r.in_state("C1"), Nanos(150));
        assert_eq!(r.in_state("C6"), Nanos(1_000));
        assert_eq!(r.in_state("C3"), Nanos::ZERO);
        assert_eq!(r.total_idle(), Nanos(1_150));

        // A state named by another string of the same text is the same
        // state: its time joins the listed entry.
        let c1: &'static str = String::from("C1").leak();
        r.add_idle(&CState::new(c1, 0.6, Nanos(1), Nanos(1)).unwrap(), Nanos(5));
        assert_eq!(r.in_state("C1"), Nanos(155));
        assert_eq!(r.total_idle(), Nanos(1_155));
    }
}
