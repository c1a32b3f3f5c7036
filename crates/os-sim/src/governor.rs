//! cpufreq governors: the policy layer that drives the machine's DVFS —
//! the "different frequencies whether is necessary" knob the paper's
//! motivation section describes.

use simcpu::freq::PStateTable;
use simcpu::units::MegaHertz;

/// A per-core frequency-selection policy.
pub trait CpufreqGovernor: Send {
    /// Chooses the next requested frequency for `core`, given the busy
    /// fraction observed over the last sampling period.
    fn select(&mut self, core: usize, utilization: f64, table: &PStateTable) -> MegaHertz;

    /// Governor name as it would appear in
    /// `/sys/devices/system/cpu/cpufreq/scaling_governor`.
    fn name(&self) -> &'static str;
}

/// Always runs at the highest nominal frequency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Performance;

impl CpufreqGovernor for Performance {
    fn select(&mut self, _core: usize, _utilization: f64, table: &PStateTable) -> MegaHertz {
        table.max().frequency()
    }

    fn name(&self) -> &'static str {
        "performance"
    }
}

/// Always runs at the lowest frequency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Powersave;

impl CpufreqGovernor for Powersave {
    fn select(&mut self, _core: usize, _utilization: f64, table: &PStateTable) -> MegaHertz {
        table.min().frequency()
    }

    fn name(&self) -> &'static str {
        "powersave"
    }
}

/// Pins a fixed frequency chosen by user space — what the model-learning
/// pipeline uses to sample each frequency in turn (Figure 1: "benchmarks
/// are executed for each frequency made available by the processor").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Userspace {
    frequency: MegaHertz,
}

impl Userspace {
    /// Pins `frequency` (validated by the machine when applied).
    pub fn new(frequency: MegaHertz) -> Userspace {
        Userspace { frequency }
    }

    /// Re-pins a different frequency.
    pub fn set(&mut self, frequency: MegaHertz) {
        self.frequency = frequency;
    }
}

impl CpufreqGovernor for Userspace {
    fn select(&mut self, _core: usize, _utilization: f64, _table: &PStateTable) -> MegaHertz {
        self.frequency
    }

    fn name(&self) -> &'static str {
        "userspace"
    }
}

/// Utilization above which [`Ondemand`] jumps to the maximum frequency
/// (the Linux default `up_threshold`).
pub const UP_THRESHOLD: f64 = 0.80;

/// Utilization below which [`Ondemand`] steps down one state.
pub const DOWN_THRESHOLD: f64 = 0.30;

/// The classic `ondemand` policy: jump straight to the maximum when
/// utilization crosses [`UP_THRESHOLD`], then step down one state at a
/// time while it stays under [`DOWN_THRESHOLD`].
#[derive(Debug, Clone)]
pub struct Ondemand {
    current: Vec<Option<MegaHertz>>,
}

impl Ondemand {
    /// Creates the governor for `cores` cores, each starting at the lowest
    /// frequency.
    pub fn new(cores: usize) -> Ondemand {
        Ondemand {
            current: vec![None; cores],
        }
    }
}

impl CpufreqGovernor for Ondemand {
    fn select(&mut self, core: usize, utilization: f64, table: &PStateTable) -> MegaHertz {
        if core >= self.current.len() {
            self.current.resize(core + 1, None);
        }
        let cur = self.current[core].unwrap_or_else(|| table.min().frequency());
        let next = if utilization > UP_THRESHOLD {
            table.max().frequency()
        } else if utilization < DOWN_THRESHOLD {
            // Only a step down needs to know where the current state sits.
            let states = table.states();
            match states.iter().position(|s| s.frequency() == cur) {
                Some(idx) if idx > 0 => states[idx - 1].frequency(),
                _ => cur,
            }
        } else {
            cur
        };
        self.current[core] = Some(next);
        next
    }

    fn name(&self) -> &'static str {
        "ondemand"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::freq::ladder;

    fn table() -> PStateTable {
        PStateTable::without_turbo(ladder(&[1600, 2000, 2400, 2800, 3300], 0.85, 1.05).unwrap())
            .unwrap()
    }

    #[test]
    fn performance_and_powersave_extremes() {
        let t = table();
        assert_eq!(Performance.select(0, 0.0, &t), MegaHertz(3300));
        assert_eq!(Powersave.select(0, 1.0, &t), MegaHertz(1600));
        assert_eq!(Performance.name(), "performance");
        assert_eq!(Powersave.name(), "powersave");
    }

    #[test]
    fn userspace_pins_and_repins() {
        let t = table();
        let mut g = Userspace::new(MegaHertz(2400));
        assert_eq!(g.select(0, 1.0, &t), MegaHertz(2400));
        g.set(MegaHertz(2800));
        assert_eq!(g.select(0, 0.0, &t), MegaHertz(2800));
        assert_eq!(g.name(), "userspace");
    }

    #[test]
    fn ondemand_jumps_up_steps_down() {
        let t = table();
        let mut g = Ondemand::new(1);
        // Starts at min.
        assert_eq!(g.select(0, 0.5, &t), MegaHertz(1600));
        // High load: straight to max.
        assert_eq!(g.select(0, 0.95, &t), MegaHertz(3300));
        // Stays at max while load is moderate.
        assert_eq!(g.select(0, 0.5, &t), MegaHertz(3300));
        // Low load: steps down one state at a time.
        assert_eq!(g.select(0, 0.1, &t), MegaHertz(2800));
        assert_eq!(g.select(0, 0.1, &t), MegaHertz(2400));
        assert_eq!(g.select(0, 0.1, &t), MegaHertz(2000));
        assert_eq!(g.select(0, 0.1, &t), MegaHertz(1600));
        // Floor.
        assert_eq!(g.select(0, 0.1, &t), MegaHertz(1600));
    }

    #[test]
    fn ondemand_tracks_cores_independently() {
        let t = table();
        let mut g = Ondemand::new(2);
        assert_eq!(g.select(0, 0.95, &t), MegaHertz(3300));
        assert_eq!(g.select(1, 0.05, &t), MegaHertz(1600));
        // Auto-resizes for unseen cores.
        assert_eq!(g.select(5, 0.95, &t), MegaHertz(3300));
    }

    /// `ondemand` against its old form, which located the current state
    /// before knowing whether it would step down: seeded utilizations over
    /// two tables, one of which lacks the state a core sits at.
    #[test]
    fn lazy_step_down_equals_the_eager_lookup() {
        let eager = |cur: &mut Option<MegaHertz>, util: f64, t: &PStateTable| {
            let at = cur.unwrap_or_else(|| t.min().frequency());
            let states = t.states();
            let idx = states.iter().position(|s| s.frequency() == at).unwrap_or(0);
            let next = if util > 0.80 {
                t.max().frequency()
            } else if util < 0.30 && idx > 0 {
                states[idx - 1].frequency()
            } else {
                at
            };
            *cur = Some(next);
            next
        };
        let coarse =
            PStateTable::without_turbo(ladder(&[1600, 2200, 3300], 0.85, 1.05).unwrap()).unwrap();
        let tables = [table(), coarse];
        let mut g = Ondemand::new(2);
        let mut cur = [None; 2];
        let mut seed = 2014u64;
        for i in 0..2_000 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let util = (seed >> 11) as f64 / (1u64 << 53) as f64;
            let (core, t) = ((seed >> 7) as usize % 2, &tables[i / 500 % 2]);
            assert_eq!(
                g.select(core, util, t),
                eager(&mut cur[core], util, t),
                "{i}"
            );
        }
    }
}
