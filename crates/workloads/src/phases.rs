//! Phase scripting: a workload as a time-ordered sequence of
//! `(work unit, duration)` phases, optionally looping, runnable as an
//! [`os_sim::task::TaskBehavior`].
//!
//! The kernel asks every scheduled thread for its work unit once per
//! quantum, so the phase lookup is on the simulator's hottest path. A
//! script keeps the running sum of its phase durations beside the phases
//! (maintained by [`PhaseScript::then`], the only way a phase gets in),
//! which makes [`PhaseScript::at`] a stateless binary search and the total
//! O(1), however long the script is (SPECjbb's is ~270 phases per thread).
//! A [`PhasedTask`] asks for nearly the same instant every quantum, so it
//! first checks the phase it returned last and only searches on a miss.

use os_sim::task::{Slice, TaskBehavior};
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

/// One phase of a scripted workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// What to execute during the phase.
    pub work: WorkUnit,
    /// How long the phase lasts.
    pub duration: Nanos,
}

impl Phase {
    /// Creates a phase.
    pub fn new(work: WorkUnit, duration: Nanos) -> Phase {
        Phase { work, duration }
    }
}

/// An ordered list of phases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseScript {
    phases: Vec<Phase>,
    /// `ends[i]` is when phase `i` ends, from the start of an iteration.
    ends: Vec<Nanos>,
    repeat: bool,
}

impl PhaseScript {
    /// An empty, non-repeating script.
    pub fn new() -> PhaseScript {
        PhaseScript::default()
    }

    /// Appends a phase (builder style).
    pub fn then(mut self, work: WorkUnit, duration: Nanos) -> PhaseScript {
        self.phases.push(Phase::new(work, duration));
        self.ends.push(self.total_duration() + duration);
        self
    }

    /// Makes the script loop forever.
    pub fn repeating(mut self) -> PhaseScript {
        self.repeat = true;
        self
    }

    /// The phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total scripted duration (one iteration).
    pub fn total_duration(&self) -> Nanos {
        self.ends.last().copied().unwrap_or(Nanos::ZERO)
    }

    /// The work unit active `elapsed` into the script, or `None` when the
    /// script has finished (never `None` for repeating scripts unless the
    /// script is empty).
    pub fn at(&self, elapsed: Nanos) -> Option<WorkUnit> {
        let t = self.offset(elapsed)?;
        Some(self.phases[self.search(t)].work)
    }

    /// [`PhaseScript::at`], trying phase `*last` before searching and
    /// leaving the active phase's index there.
    fn at_from(&self, elapsed: Nanos, last: &mut usize) -> Option<WorkUnit> {
        let t = self.offset(elapsed)?;
        let start = last.checked_sub(1).map_or(Nanos::ZERO, |i| self.ends[i]);
        if !(start <= t && self.ends.get(*last).is_some_and(|&end| t < end)) {
            *last = self.search(t);
        }
        Some(self.phases[*last].work)
    }

    /// Where `elapsed` falls within one iteration, or `None` once a
    /// non-repeating (or empty) script has finished.
    fn offset(&self, elapsed: Nanos) -> Option<Nanos> {
        let total = self.total_duration();
        if total == Nanos::ZERO {
            None
        } else if self.repeat {
            Some(Nanos(elapsed.as_u64() % total.as_u64()))
        } else {
            (elapsed < total).then_some(elapsed)
        }
    }

    /// The phase active at offset `t < total`: the first that ends after
    /// `t`. Zero-length phases end with their predecessor and are never
    /// active.
    fn search(&self, t: Nanos) -> usize {
        self.ends.partition_point(|&end| end <= t)
    }
}

/// Runs a [`PhaseScript`] as a schedulable task. The script clock starts
/// at the first scheduling decision, so spawn time does not shift phases.
#[derive(Debug, Clone)]
pub struct PhasedTask {
    script: PhaseScript,
    label: String,
    started: Option<Nanos>,
    /// Index of the phase the last lookup returned.
    phase: usize,
}

impl PhasedTask {
    /// Wraps a script.
    pub fn new(label: impl Into<String>, script: PhaseScript) -> PhasedTask {
        PhasedTask {
            script,
            label: label.into(),
            started: None,
            phase: 0,
        }
    }

    /// Boxed convenience constructor.
    pub fn boxed(label: impl Into<String>, script: PhaseScript) -> Box<dyn TaskBehavior> {
        Box::new(PhasedTask::new(label, script))
    }
}

impl TaskBehavior for PhasedTask {
    fn next_slice(&mut self, now: Nanos, _dt: Nanos) -> Slice {
        let started = *self.started.get_or_insert(now);
        match self.script.at_from(now - started, &mut self.phase) {
            Some(work) => Slice::Run(work),
            None => Slice::Done,
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SEC: Nanos = Nanos(1_000_000_000);

    impl PhaseScript {
        /// The oracle: re-sum the durations and scan for the active phase.
        fn at_by_scan(&self, elapsed: Nanos) -> Option<WorkUnit> {
            let total = Nanos(self.phases.iter().map(|p| p.duration.as_u64()).sum());
            if total == Nanos::ZERO {
                return None;
            }
            let t = if self.repeat {
                Nanos(elapsed.as_u64() % total.as_u64())
            } else if elapsed >= total {
                return None;
            } else {
                elapsed
            };
            let mut acc = Nanos::ZERO;
            for p in &self.phases {
                acc += p.duration;
                if t < acc {
                    return Some(p.work);
                }
            }
            None
        }
    }

    /// Every instant where the answer can change, ± 1 ns: each phase
    /// boundary, the total, and the same offsets into later iterations.
    fn probes(script: &PhaseScript) -> Vec<Nanos> {
        let total = script.phases().iter().map(|p| p.duration.as_u64()).sum();
        let mut edges = vec![0u64, total];
        let mut acc = 0;
        for p in script.phases() {
            acc += p.duration.as_u64();
            edges.push(acc);
        }
        let mut out = Vec::new();
        for lap in [0, 1, 2, 7] {
            for &e in &edges {
                let at = lap * total + e;
                out.extend([at.saturating_sub(1), at, at + 1].map(Nanos));
            }
        }
        out
    }

    #[test]
    fn indexed_lookup_matches_the_linear_scan() {
        let mut rng = StdRng::seed_from_u64(2014);
        let mut scripts = vec![
            PhaseScript::new(),
            PhaseScript::new().then(cpu(0.5), SEC),
            PhaseScript::new().then(cpu(0.5), Nanos::ZERO),
            PhaseScript::new()
                .then(cpu(0.1), Nanos::ZERO)
                .then(cpu(0.2), Nanos(1))
                .then(cpu(0.3), Nanos::ZERO)
                .then(cpu(0.4), Nanos::ZERO)
                .then(cpu(0.5), Nanos(2))
                .then(cpu(0.6), Nanos::ZERO),
        ];
        for _ in 0..200 {
            let mut s = PhaseScript::new();
            for _ in 0..rng.gen_range(0..40) {
                let duration = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => rng.gen_range(1..4u64),
                    _ => rng.gen_range(1..5_000_000_000u64),
                };
                s = s.then(cpu(rng.gen_range(0.0..1.0)), Nanos(duration));
            }
            scripts.push(s);
        }
        for script in scripts {
            for script in [script.clone(), script.repeating()] {
                assert_eq!(
                    script.total_duration(),
                    Nanos(script.phases().iter().map(|p| p.duration.as_u64()).sum())
                );
                for at in probes(&script) {
                    assert_eq!(script.at(at), script.at_by_scan(at), "{at:?} in {script:?}");
                }
            }
        }
    }

    fn cpu(i: f64) -> WorkUnit {
        WorkUnit::cpu_intensive(i)
    }

    /// The cursor's oracle: every `next_slice` answer equals the stateless
    /// `at` at the same offset, under steady 1 ms, 250 ms and 1 s steps,
    /// across laps of repeating scripts and zero-length phases, and after
    /// `now` jumps back.
    #[test]
    fn the_phase_cursor_answers_as_the_stateless_lookup() {
        const STEPS: [Nanos; 3] = [Nanos(1_000_000), Nanos(250_000_000), SEC];
        let mut rng = StdRng::seed_from_u64(2014);
        let ms = Nanos(1_000_000);
        let mut scripts = vec![PhaseScript::new()
            .then(cpu(0.1), Nanos::ZERO)
            .then(cpu(0.2), ms)
            .then(cpu(0.3), Nanos::ZERO)
            .then(cpu(0.4), Nanos::ZERO)
            .then(cpu(0.5), Nanos(2_500_000))
            .then(cpu(0.6), Nanos(250_000_000))
            .then(cpu(0.7), Nanos::ZERO)];
        for _ in 0..50 {
            let mut s = PhaseScript::new();
            for _ in 0..rng.gen_range(1..40) {
                let duration = match rng.gen_range(0..4) {
                    0 => Nanos::ZERO,
                    1 => Nanos(rng.gen_range(1..4u64)),
                    _ => Nanos(rng.gen_range(1..3_000_000_000u64)),
                };
                s = s.then(cpu(rng.gen_range(0.0..1.0)), duration);
            }
            scripts.push(s);
        }
        let mut laps = 0;
        for script in scripts {
            for script in [script.clone(), script.repeating()] {
                let start = Nanos(rng.gen_range(0..5_000_000_000u64));
                let mut task = PhasedTask::new("p", script.clone());
                let (mut now, mut step) = (start, STEPS[0]);
                for call in 0..3_000 {
                    let expected = script.at(now - start).map_or(Slice::Done, Slice::Run);
                    assert_eq!(
                        task.next_slice(now, step),
                        expected,
                        "call {call} at {now:?}"
                    );
                    match rng.gen_range(0..100) {
                        0 => now = Nanos(rng.gen_range(start.as_u64()..=now.as_u64())),
                        1..=3 => step = STEPS[rng.gen_range(0..STEPS.len())],
                        _ => now += step,
                    }
                }
                if script.repeat {
                    laps += (now - start) / script.total_duration().max(Nanos(1));
                }
            }
        }
        assert!(laps > 100, "repeating scripts ran {laps} laps");
    }

    #[test]
    fn script_lookup_by_elapsed() {
        let s = PhaseScript::new().then(cpu(0.2), SEC).then(cpu(0.8), SEC);
        assert_eq!(s.total_duration(), Nanos(2_000_000_000));
        assert_eq!(s.at(Nanos::ZERO).unwrap().intensity(), 0.2);
        assert_eq!(s.at(Nanos(999_999_999)).unwrap().intensity(), 0.2);
        assert_eq!(s.at(SEC).unwrap().intensity(), 0.8);
        assert_eq!(s.at(Nanos(2_000_000_000)), None, "finished");
    }

    #[test]
    fn repeating_script_wraps() {
        let s = PhaseScript::new()
            .then(cpu(0.1), SEC)
            .then(cpu(0.9), SEC)
            .repeating();
        assert_eq!(s.at(Nanos(2_500_000_000)).unwrap().intensity(), 0.1);
        assert_eq!(s.at(Nanos(3_500_000_000)).unwrap().intensity(), 0.9);
    }

    #[test]
    fn empty_script_yields_nothing() {
        assert_eq!(PhaseScript::new().at(Nanos::ZERO), None);
        assert_eq!(PhaseScript::new().repeating().at(Nanos::ZERO), None);
    }

    #[test]
    fn phased_task_is_spawn_time_relative() {
        let s = PhaseScript::new().then(cpu(0.5), SEC);
        let mut t = PhasedTask::new("p", s);
        // First consultation at t = 10 s: phase clock starts there.
        let late = Nanos(10_000_000_000);
        assert!(matches!(t.next_slice(late, Nanos(1)), Slice::Run(_)));
        assert!(matches!(
            t.next_slice(late + Nanos(999_999_999), Nanos(1)),
            Slice::Run(_)
        ));
        assert_eq!(t.next_slice(late + SEC, Nanos(1)), Slice::Done);
        assert_eq!(t.label(), "p");
    }

    #[test]
    fn phases_accessor() {
        let s = PhaseScript::new().then(cpu(1.0), SEC);
        assert_eq!(s.phases().len(), 1);
        assert_eq!(s.phases()[0], Phase::new(cpu(1.0), SEC));
    }
}
