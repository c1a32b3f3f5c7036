//! Energy unit-testing helpers, after the authors' companion work the
//! paper cites as \[7\]: *"Unit Testing of Energy Consumption of Software
//! Libraries"* (Noureddine, Rouvoy, Seinturier, SAC'14). The idea: treat
//! the energy of a code path like any other testable property — measure
//! it under a controlled harness and assert a budget on it.
//!
//! ```
//! use powerapi::testing::EnergyTest;
//! use simcpu::workunit::WorkUnit;
//!
//! # fn main() -> Result<(), powerapi::Error> {
//! let measured = EnergyTest::on(simcpu::presets::intel_i3_2120())
//!     .run_workload(WorkUnit::cpu_intensive(1.0), simcpu::Nanos::from_secs(2))?;
//! // Whole-machine energy for 2 s of one busy core: well under 200 J.
//! assert!(measured.total.as_f64() < 200.0);
//! assert!(measured.active.as_f64() > 0.0, "the workload cost something");
//! # Ok(())
//! # }
//! ```

use crate::model::sampling::measure_idle;
use crate::{Error, Result};
use os_sim::kernel::Kernel;
use os_sim::task::{SteadyTask, TaskBehavior};
use simcpu::machine::MachineConfig;
use simcpu::units::{Joules, Nanos};
use simcpu::workunit::WorkUnit;

/// Energy measured for one test run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyMeasurement {
    /// Total machine energy over the run.
    pub total: Joules,
    /// Energy above the idle floor — what the code under test *cost*.
    pub active: Joules,
    /// The idle floor used for the subtraction.
    pub idle_w: f64,
    /// Wall (simulated) duration of the run.
    pub duration: Nanos,
}

impl EnergyMeasurement {
    /// Average active power over the run.
    pub fn active_power_w(&self) -> f64 {
        if self.duration == Nanos::ZERO {
            return 0.0;
        }
        self.active.as_f64() / self.duration.as_secs_f64()
    }
}

/// A reusable energy-test harness bound to one machine configuration.
#[derive(Debug, Clone)]
pub struct EnergyTest {
    machine: MachineConfig,
    quantum: Nanos,
}

impl EnergyTest {
    /// Creates a harness on a machine.
    pub fn on(machine: MachineConfig) -> EnergyTest {
        EnergyTest {
            machine,
            quantum: Nanos::from_millis(1),
        }
    }

    /// Overrides the scheduler quantum (a zero one fails the run).
    pub fn quantum(mut self, quantum: Nanos) -> EnergyTest {
        self.quantum = quantum;
        self
    }

    /// Measures a steady workload running on one thread for `duration`.
    ///
    /// # Errors
    ///
    /// As [`EnergyTest::run_tasks`].
    pub fn run_workload(&self, work: WorkUnit, duration: Nanos) -> Result<EnergyMeasurement> {
        self.run_tasks(vec![SteadyTask::boxed(work)], duration)
    }

    /// Measures an arbitrary task set for `duration`.
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] for a zero quantum; propagates
    /// idle-measurement errors.
    pub fn run_tasks(
        &self,
        tasks: Vec<Box<dyn TaskBehavior>>,
        duration: Nanos,
    ) -> Result<EnergyMeasurement> {
        if self.quantum == Nanos::ZERO {
            return Err(Error::Middleware("quantum must be non-zero".into()));
        }
        // The idle baseline uses a noiseless meter: unit tests want
        // repeatable budgets, not metrology realism.
        let idle_w = measure_idle(
            &self.machine,
            Nanos::from_millis(500).max(self.quantum),
            self.quantum,
            0.0,
            0,
        )?;
        let mut kernel = Kernel::new(self.machine.clone());
        kernel.spawn("energy-test", tasks);
        let steps = (duration.as_u64() / self.quantum.as_u64()).max(1);
        for _ in 0..steps {
            kernel.tick(self.quantum);
        }
        let total = kernel.machine().machine_energy();
        let elapsed = kernel.machine().now();
        let active = Joules((total.as_f64() - idle_w * elapsed.as_secs_f64()).max(0.0));
        Ok(EnergyMeasurement {
            total,
            active,
            idle_w,
            duration: elapsed,
        })
    }

    /// Asserts that a workload stays within an active-energy budget —
    /// the energy analogue of a unit-test assertion.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors.
    ///
    /// # Panics
    ///
    /// Panics (like any test assertion) when the budget is exceeded.
    pub fn assert_active_energy_under(
        &self,
        work: WorkUnit,
        duration: Nanos,
        budget: Joules,
    ) -> Result<EnergyMeasurement> {
        let m = self.run_workload(work, duration)?;
        assert!(
            m.active <= budget,
            "energy budget exceeded: {} active > {} allowed ({} total over {})",
            m.active,
            budget,
            m.total,
            m.duration
        );
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::presets;

    #[test]
    fn heavier_work_costs_more_active_energy() {
        let harness = EnergyTest::on(presets::intel_i3_2120()).quantum(Nanos::from_millis(2));
        let d = Nanos::from_secs(2);
        let light = harness
            .run_workload(WorkUnit::cpu_intensive(0.2), d)
            .expect("measure light");
        let heavy = harness
            .run_workload(WorkUnit::cpu_intensive(1.0), d)
            .expect("measure heavy");
        assert!(heavy.active.as_f64() > 2.0 * light.active.as_f64());
        assert!(heavy.total.as_f64() > light.total.as_f64());
        assert!(heavy.active_power_w() > 5.0);
        assert_eq!(heavy.duration, d);
    }

    #[test]
    fn idle_workload_costs_nearly_nothing() {
        let harness = EnergyTest::on(presets::intel_i3_2120()).quantum(Nanos::from_millis(2));
        let m = harness
            .run_workload(WorkUnit::cpu_intensive(0.0), Nanos::from_secs(1))
            .expect("measure idle");
        assert!(
            m.active.as_f64() < 1.0,
            "idle active energy ≈ 0: {}",
            m.active
        );
    }

    #[test]
    fn a_zero_quantum_is_refused_not_clamped() {
        let harness = EnergyTest::on(presets::intel_i3_2120()).quantum(Nanos::ZERO);
        let err = harness
            .run_workload(WorkUnit::cpu_intensive(0.5), Nanos::from_millis(10))
            .expect_err("a zero quantum must fail the run");
        assert!(
            matches!(&err, Error::Middleware(m) if m.contains("quantum")),
            "{err}"
        );
    }

    #[test]
    fn budget_assertion_passes_and_fails() {
        let harness = EnergyTest::on(presets::intel_i3_2120()).quantum(Nanos::from_millis(2));
        harness
            .assert_active_energy_under(
                WorkUnit::cpu_intensive(0.3),
                Nanos::from_secs(1),
                Joules(30.0),
            )
            .expect("within budget");
        let result = std::panic::catch_unwind(|| {
            let h = EnergyTest::on(presets::intel_i3_2120()).quantum(Nanos::from_millis(2));
            let _ = h.assert_active_energy_under(
                WorkUnit::cpu_intensive(1.0),
                Nanos::from_secs(1),
                Joules(0.01),
            );
        });
        assert!(result.is_err(), "tiny budget must trip the assertion");
    }
}
