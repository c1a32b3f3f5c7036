//! Intel RAPL (Running Average Power Limit) emulation.
//!
//! The paper's related work singles RAPL out: it reports package energy
//! through MSRs, but "is architecture dependent and is limited to few
//! architectures" (Sandy Bridge onward). This module reproduces both the
//! mechanism — a 32-bit energy counter in 2⁻¹⁶ J units, updated every
//! millisecond, wrapping around — and the gate.
//!
//! [`Rapl::observe`] integrates a whole step in closed form, so its cost
//! does not depend on how many millisecond refreshes the step spans (250
//! at the fleet's quantum, 150 000 over a thermal-settling step). That is
//! bit-identical to refreshing once per elapsed millisecond: the energy
//! unit is a power of two, so `pending / unit`, `counts × unit` and their
//! difference from `pending` are all exact in `f64` (below 2⁴⁸ J, where
//! the count would saturate `u64`). A step's first refresh therefore
//! leaves `pending < unit`, and every later refresh of the same step
//! would publish 0 counts and carry the same remainder.

use crate::{Error, Result};
use simcpu::machine::MachineConfig;
use simcpu::units::{Nanos, Watts};

/// Energy unit: RAPL's default `2⁻¹⁶` joules per count.
pub const ENERGY_UNIT_J: f64 = 1.0 / 65536.0;

/// MSR update granularity: real RAPL refreshes roughly every 1 ms.
pub const UPDATE_PERIOD: Nanos = Nanos(1_000_000);

/// The emulated `MSR_PKG_ENERGY_STATUS` register.
#[derive(Debug, Clone)]
pub struct Rapl {
    machine_name: String,
    counter: u32,
    pending_j: f64,
    since_update: Nanos,
}

impl Rapl {
    /// Opens the package energy MSR on a machine.
    ///
    /// # Errors
    ///
    /// [`Error::RaplUnsupported`] on pre-Sandy-Bridge or non-Intel parts —
    /// the exact limitation the paper criticizes.
    pub fn open(config: &MachineConfig) -> Result<Rapl> {
        let machine_name = format!("{} {} {}", config.vendor, config.family, config.model);
        let supported = config.vendor == "Intel" && !config.family.contains("Core 2");
        if !supported {
            return Err(Error::RaplUnsupported {
                machine: machine_name,
            });
        }
        Ok(Rapl {
            machine_name,
            counter: 0,
            pending_j: 0.0,
            since_update: Nanos::ZERO,
        })
    }

    /// The machine this MSR belongs to.
    pub fn machine_name(&self) -> &str {
        &self.machine_name
    }

    /// Feeds the true package power over a simulation step. The visible
    /// counter only advances on millisecond update boundaries: a step that
    /// crosses at least one publishes every whole unit accumulated so far
    /// and carries the sub-unit remainder.
    pub fn observe(&mut self, package_power: Watts, dt: Nanos) {
        self.pending_j += package_power.as_f64() * dt.as_secs_f64();
        self.since_update += dt;
        if self.since_update >= UPDATE_PERIOD {
            self.since_update = Nanos(self.since_update.as_u64() % UPDATE_PERIOD.as_u64());
            let counts = (self.pending_j / ENERGY_UNIT_J) as u64;
            self.pending_j -= counts as f64 * ENERGY_UNIT_J;
            self.counter = self.counter.wrapping_add(counts as u32);
        }
    }

    /// Reads the raw 32-bit energy counter (wraps around like the MSR).
    pub fn read_raw(&self) -> u32 {
        self.counter
    }

    /// Reads the counter in joules (still subject to wraparound).
    pub fn read_joules(&self) -> f64 {
        self.counter as f64 * ENERGY_UNIT_J
    }

    /// Energy consumed between two raw readings, wraparound-corrected.
    pub fn delta_joules(before: u32, after: u32) -> f64 {
        after.wrapping_sub(before) as f64 * ENERGY_UNIT_J
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simcpu::presets;

    impl Rapl {
        /// The oracle: the MSR refreshed once per elapsed millisecond, as
        /// the hardware does it.
        fn observe_per_ms(&mut self, package_power: Watts, dt: Nanos) {
            self.pending_j += package_power.as_f64() * dt.as_secs_f64();
            self.since_update += dt;
            while self.since_update >= UPDATE_PERIOD {
                self.since_update = self.since_update - UPDATE_PERIOD;
                let counts = (self.pending_j / ENERGY_UNIT_J) as u64;
                self.pending_j -= counts as f64 * ENERGY_UNIT_J;
                self.counter = self.counter.wrapping_add(counts as u32);
            }
        }
    }

    /// Feeds the same steps to the closed form and to the oracle and
    /// compares the register and the carried state after every call.
    fn assert_matches_oracle(steps: impl IntoIterator<Item = (f64, u64)>) {
        let mut fast = Rapl::open(&presets::intel_i3_2120()).unwrap();
        let mut slow = fast.clone();
        for (i, (watts, dt)) in steps.into_iter().enumerate() {
            fast.observe(Watts(watts), Nanos(dt));
            slow.observe_per_ms(Watts(watts), Nanos(dt));
            let at = format!("step {i}: {watts} W over {dt} ns");
            assert_eq!(fast.read_raw(), slow.read_raw(), "{at}");
            assert_eq!(fast.pending_j.to_bits(), slow.pending_j.to_bits(), "{at}");
            assert_eq!(fast.since_update, slow.since_update, "{at}");
        }
    }

    #[test]
    fn closed_form_matches_the_per_millisecond_loop() {
        const MS: u64 = 1_000_000;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let steps: Vec<(f64, u64)> = (0..400)
                .map(|_| {
                    let dt = match rng.gen_range(0..6) {
                        0 => rng.gen_range(0..MS),         // below one refresh
                        1 => rng.gen_range(MS..40 * MS),   // not a multiple
                        2 => rng.gen_range(1..40u64) * MS, // exact multiples
                        3 => 250 * MS,                     // the fleet's quantum
                        4 => MS,
                        _ => rng.gen_range(0..3 * MS),
                    };
                    let watts = match rng.gen_range(0..4) {
                        0 => rng.gen_range(0.0..0.01), // sub-unit carry
                        1 => 0.0,
                        _ => rng.gen_range(1.0..130.0),
                    };
                    (watts, dt)
                })
                .collect();
            assert_matches_oracle(steps);
        }
    }

    #[test]
    fn closed_form_matches_the_loop_over_a_settling_step_and_the_wrap() {
        // One 150 s thermal-settling step, as the fleet's set-up takes.
        assert_matches_oracle([
            (31.6, 150_000_000_000),
            (0.001, 999_999),
            (40.0, 250_000_000),
        ]);
        // 2³² counts are 65 536 J: 100 kW over 250 ms steps wraps the
        // register every third call.
        let mut rng = StdRng::seed_from_u64(2014);
        let mut wrapped = Rapl::open(&presets::intel_i3_2120()).unwrap();
        let steps: Vec<(f64, u64)> = (0..64)
            .map(|_| (rng.gen_range(90_000.0..110_000.0), 250_000_000))
            .collect();
        for &(w, dt) in &steps {
            wrapped.observe(Watts(w), Nanos(dt));
        }
        let total_j: f64 = steps.iter().map(|(w, dt)| w * *dt as f64 / 1e9).sum();
        assert!(total_j > 20.0 * 65536.0, "crossed the wrap many times");
        assert!(wrapped.read_joules() < 65536.0);
        assert_matches_oracle(steps);
    }

    #[test]
    fn gate_matches_generations() {
        assert!(Rapl::open(&presets::intel_i3_2120()).is_ok());
        assert!(Rapl::open(&presets::xeon_smt_turbo()).is_ok());
        let err = Rapl::open(&presets::core2duo_e6600()).unwrap_err();
        assert!(matches!(err, Error::RaplUnsupported { .. }));
        assert!(err.to_string().contains("Core 2"));
    }

    #[test]
    fn counter_tracks_energy() {
        let mut r = Rapl::open(&presets::intel_i3_2120()).unwrap();
        // 10 W for 1 s in 1 ms steps → 10 J.
        for _ in 0..1000 {
            r.observe(Watts(10.0), Nanos::from_millis(1));
        }
        assert!(
            (r.read_joules() - 10.0).abs() < 0.001,
            "{}",
            r.read_joules()
        );
    }

    #[test]
    fn no_update_between_boundaries() {
        let mut r = Rapl::open(&presets::intel_i3_2120()).unwrap();
        r.observe(Watts(50.0), Nanos(400_000)); // 0.4 ms: below granularity
        assert_eq!(r.read_raw(), 0, "MSR must not have refreshed yet");
        r.observe(Watts(50.0), Nanos(700_000)); // total 1.1 ms
        assert!(r.read_raw() > 0);
    }

    #[test]
    fn sub_unit_energy_is_carried_not_lost() {
        let mut r = Rapl::open(&presets::intel_i3_2120()).unwrap();
        // Tiny power: far less than one unit per update period.
        // 0.001 W · 1 ms = 1e-6 J < 15.26 µJ/unit.
        for _ in 0..100_000 {
            r.observe(Watts(0.001), Nanos::from_millis(1));
        }
        // 100 s · 1 mW = 0.1 J total; must be within one unit.
        assert!((r.read_joules() - 0.1).abs() < 2.0 * ENERGY_UNIT_J);
    }

    #[test]
    fn wraparound_delta() {
        assert!((Rapl::delta_joules(u32::MAX - 10, 10) - 21.0 * ENERGY_UNIT_J).abs() < 1e-12);
        assert!((Rapl::delta_joules(100, 200) - 100.0 * ENERGY_UNIT_J).abs() < 1e-12);
    }

    #[test]
    fn machine_name_exposed() {
        let r = Rapl::open(&presets::intel_i3_2120()).unwrap();
        assert_eq!(r.machine_name(), "Intel i3 2120");
    }
}
