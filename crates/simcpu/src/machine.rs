//! The machine: topology + DVFS + C-states + caches + counters + the
//! ground-truth power model, advanced tick by tick.
//!
//! The OS layer drives a [`Machine`] by assigning at most one [`WorkUnit`]
//! per logical CPU per tick; the machine executes the work, accumulates
//! hardware counters and energy, and reports per-CPU event deltas plus the
//! slice's average power.

use crate::cache::CacheHierarchy;
use crate::counters::{CounterBank, ExecDelta};
use crate::cstate::{CStateMenu, Residency};
use crate::exec::{exec_key, execute, ExecContext, ExecKey, ExecOutcome};
use crate::freq::PStateTable;
use crate::power::{CoreSlice, PowerBreakdown, PowerModel};
use crate::topology::Topology;
use crate::units::{CpuId, Joules, MegaHertz, Nanos, Watts};
use crate::workunit::WorkUnit;
use crate::{Error, Result};
use std::borrow::Borrow;

/// Full static description of a machine (used by [`Machine::new`] and the
/// presets).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Vendor string, e.g. `"Intel"`.
    pub vendor: String,
    /// Processor family, e.g. `"i3"`.
    pub family: String,
    /// Model designation, e.g. `"2120"`.
    pub model: String,
    /// CPU layout.
    pub topology: Topology,
    /// DVFS table (+turbo bins when supported).
    pub pstates: PStateTable,
    /// Idle-state menu.
    pub cstates: CStateMenu,
    /// Cache hierarchy.
    pub caches: CacheHierarchy,
    /// Hidden ground-truth power model.
    pub power: PowerModel,
    /// Thermal design power, watts (documentation/Table-1 only).
    pub tdp_w: f64,
}

/// Result of advancing the machine one tick.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickReport {
    /// Per-logical-CPU retired events for the slice (indexed by `CpuId`).
    pub deltas: Vec<ExecDelta>,
    /// Average whole-machine power over the slice.
    pub power: Watts,
    /// Average CPU-package power over the slice (the RAPL PKG view).
    pub package_power: Watts,
    /// Detailed decomposition (test/diagnostic use; a real machine would
    /// not expose this).
    pub breakdown: PowerBreakdown,
    /// Machine time at the *end* of the tick.
    pub now: Nanos,
}

/// A running machine instance.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    requested_freq: Vec<MegaHertz>,
    idle_hint: Vec<Option<Nanos>>,
    banks: Vec<CounterBank>,
    residency: Vec<Residency>,
    last_busy: Vec<f64>,
    /// Per-core activity of the tick in flight (scratch, reused).
    slices: Vec<CoreSlice>,
    /// Per logical CPU, the key and outcome of its last [`execute`] call.
    /// A thread keeps one work unit, P-state and sibling pattern for many
    /// quanta, and `execute` is pure in the key for this machine's fixed
    /// caches, so an equal key reuses the outcome.
    memo: Vec<Option<(ExecKey, ExecOutcome)>>,
    time: Nanos,
    temp_c: f64,
    temp_ref_c: f64,
    machine_energy: Joules,
    package_energy: Joules,
    last_power: Watts,
}

impl Machine {
    /// Boots a machine from its configuration. All cores start at the
    /// lowest P-state (as an `ondemand`-governed Linux box would).
    pub fn new(config: MachineConfig) -> Machine {
        let cpus = config.topology.logical_cpus();
        let cores = config.topology.physical_cores();
        let f0 = config.pstates.min().frequency();
        // Boot thermally settled at the idle operating point: leakage is
        // measured relative to this reference.
        let idle_pkg = config
            .power
            .idle_machine_power(cores, &config.cstates.states()[config.cstates.len() - 1])
            .as_f64()
            * 0.2; // rough package share of the idle floor
        let temp0 = config.power.steady_temp_c(idle_pkg);
        Machine {
            requested_freq: vec![f0; cores],
            idle_hint: vec![None; cores],
            banks: vec![CounterBank::new(); cpus],
            residency: vec![Residency::new(); cores],
            last_busy: vec![0.0; cpus],
            slices: Vec::with_capacity(cores),
            memo: vec![None; cpus],
            time: Nanos::ZERO,
            temp_c: temp0,
            temp_ref_c: temp0,
            machine_energy: Joules::ZERO,
            package_energy: Joules::ZERO,
            last_power: config
                .power
                .idle_machine_power(cores, &config.cstates.states()[config.cstates.len() - 1]),
            config,
        }
    }

    /// The machine's static configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Topology shortcut.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// P-state table shortcut.
    pub fn pstates(&self) -> &PStateTable {
        &self.config.pstates
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.time
    }

    /// Total machine energy consumed so far.
    pub fn machine_energy(&self) -> Joules {
        self.machine_energy
    }

    /// Total CPU-package energy consumed so far (the RAPL PKG quantity).
    pub fn package_energy(&self) -> Joules {
        self.package_energy
    }

    /// Whole-machine power averaged over the most recent tick.
    pub fn last_power(&self) -> Watts {
        self.last_power
    }

    /// Current die temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Cumulative hardware counters of a logical CPU.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCpu`] for out-of-range ids.
    pub fn counters(&self, cpu: CpuId) -> Result<&CounterBank> {
        self.banks.get(cpu.as_usize()).ok_or(Error::NoSuchCpu {
            cpu,
            available: self.banks.len(),
        })
    }

    /// Busy fraction of a logical CPU during the most recent tick — the
    /// signal the `ondemand` governor keys on.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCpu`] for out-of-range ids.
    pub fn utilization(&self, cpu: CpuId) -> Result<f64> {
        self.last_busy
            .get(cpu.as_usize())
            .copied()
            .ok_or(Error::NoSuchCpu {
                cpu,
                available: self.last_busy.len(),
            })
    }

    /// Sets the requested (nominal) frequency of a core. Turbo, when
    /// present, may transparently raise the *effective* frequency.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCpu`] for a bad core index (reported via its first
    /// logical CPU) or [`Error::UnsupportedFrequency`] for a frequency not
    /// in the nominal table.
    pub fn set_frequency(&mut self, core: usize, f: MegaHertz) -> Result<()> {
        if core >= self.requested_freq.len() {
            return Err(Error::NoSuchCpu {
                cpu: CpuId(core * self.config.topology.threads_per_core()),
                available: self.banks.len(),
            });
        }
        // Validate against the nominal states only.
        if !self
            .config
            .pstates
            .states()
            .iter()
            .any(|s| s.frequency() == f)
        {
            return Err(Error::UnsupportedFrequency { requested: f });
        }
        self.requested_freq[core] = f;
        Ok(())
    }

    /// The requested frequency of a core.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn frequency(&self, core: usize) -> MegaHertz {
        self.requested_freq[core]
    }

    /// Supplies the OS idle governor's predicted idle duration for a core;
    /// the machine uses it to choose the C-state for the core's idle
    /// residue (in place of the per-slice default).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchCpu`] for a bad core index.
    pub fn set_idle_hint(&mut self, core: usize, predicted_idle: Nanos) -> Result<()> {
        if core >= self.idle_hint.len() {
            return Err(Error::NoSuchCpu {
                cpu: CpuId(core * self.config.topology.threads_per_core()),
                available: self.banks.len(),
            });
        }
        self.idle_hint[core] = Some(predicted_idle);
        Ok(())
    }

    /// C-state/busy residency bookkeeping for a core.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn residency(&self, core: usize) -> &Residency {
        &self.residency[core]
    }

    /// Advances the machine by `dt_ns`, running the given work assignment.
    ///
    /// `assignment[i]` is the work for logical CPU `i` (`None` = idle).
    /// Extra entries are ignored; missing entries count as idle.
    pub fn tick(&mut self, assignment: &[Option<&WorkUnit>], dt_ns: u64) -> TickReport {
        let mut report = TickReport::default();
        self.tick_into(assignment, dt_ns, &mut report);
        report
    }

    /// [`Machine::tick`] into a caller-kept report, whose `deltas` keep
    /// their storage: the per-quantum form, taking the work by value or by
    /// reference.
    pub fn tick_into<W: Borrow<WorkUnit>>(
        &mut self,
        assignment: &[Option<W>],
        dt_ns: u64,
        report: &mut TickReport,
    ) {
        let dt = Nanos(dt_ns);
        let topo = self.config.topology.clone();
        let n_cpus = topo.logical_cpus();
        let smt = topo.threads_per_core();

        // Active cores (any thread with real work) determine turbo bins.
        let work_of = |cpu: usize| assignment.get(cpu).and_then(Option::as_ref).map(W::borrow);
        let busy_of = |cpu: usize| work_of(cpu).map_or(0.0, WorkUnit::intensity);
        let active_cores = topo
            .cores()
            .filter(|c| topo.threads_of(*c).any(|t| busy_of(t.as_usize()) > 0.0))
            .count();

        let deltas = &mut report.deltas;
        deltas.clear();
        deltas.resize(n_cpus, ExecDelta::zero());
        self.slices.clear();

        for core in topo.cores() {
            let threads = topo.threads_of(core);
            let requested = self.requested_freq[core.as_usize()];
            let pstate = self
                .config
                .pstates
                .effective(requested, active_cores)
                .expect("requested frequency validated at set time");

            let mut thread_busy = [0.0f64; 2];
            let mut thread_deltas = [ExecDelta::zero(), ExecDelta::zero()];
            for (slot, t) in threads.clone().enumerate() {
                let i = t.as_usize();
                let sibling_busy = threads
                    .clone()
                    .any(|t2| t2 != t && busy_of(t2.as_usize()) > 0.0);
                if let Some(work) = work_of(i) {
                    let ctx = ExecContext {
                        pstate,
                        reference_clock: self.config.pstates.max().frequency(),
                        sibling_active: sibling_busy,
                    };
                    // Word by word: `==` on the arrays is a `bcmp` call; the
                    // inline loop keeps a miss (most lookups on a host that
                    // rotates many threads) close to `execute` alone.
                    let key = exec_key(work, &ctx, dt);
                    let out = match self.memo[i] {
                        Some((last, out)) if last.iter().zip(&key).all(|(a, b)| a == b) => out,
                        _ => {
                            let out = execute(work, &ctx, &self.config.caches, dt);
                            self.memo[i] = Some((key, out));
                            out
                        }
                    };
                    thread_busy[slot] = out.busy_fraction;
                    thread_deltas[slot] = out.delta;
                    deltas[i] = out.delta;
                    self.banks[i].apply(&out.delta);
                    self.last_busy[i] = out.busy_fraction;
                } else {
                    self.last_busy[i] = 0.0;
                }
            }

            // Residency: busy by the most-utilized thread, idle residue in
            // the state the menu picks for this slice length.
            let core_busy = thread_busy[0].max(if smt > 1 { thread_busy[1] } else { 0.0 });
            let predicted = self.idle_hint[core.as_usize()].unwrap_or(dt);
            let idle_state = self.config.cstates.pick(predicted);
            let ridx = core.as_usize();
            self.residency[ridx].add_busy(Nanos((dt_ns as f64 * core_busy) as u64));
            self.residency[ridx].add_idle(
                &idle_state,
                Nanos((dt_ns as f64 * (1.0 - core_busy)) as u64),
            );

            self.slices.push(CoreSlice {
                pstate,
                thread_busy,
                deltas: thread_deltas,
                idle_state,
            });
        }

        let breakdown = self.config.power.slice_power(&self.slices, dt);
        // Temperature-dependent leakage: follows load history, not
        // counters — the history-dependent error source real linear
        // models face (McCullough et al., the paper's ref. [5]).
        let leak = self
            .config
            .power
            .thermal_leakage_w(self.temp_c, self.temp_ref_c)
            .max(0.0);
        let power = Watts(breakdown.machine().as_f64() + leak);
        let package_power = Watts(breakdown.package().as_f64() + leak);
        let tau = self.config.power.thermal_tau_s();
        if tau > 0.0 {
            let target = self.config.power.steady_temp_c(package_power.as_f64());
            let alpha = (dt.as_secs_f64() / tau).min(1.0);
            self.temp_c += alpha * (target - self.temp_c);
        }
        self.machine_energy += power.over(dt);
        self.package_energy += package_power.over(dt);
        self.time += dt;
        self.last_power = power;

        report.power = power;
        report.package_power = package_power;
        report.breakdown = breakdown;
        report.now = self.time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    const MS: u64 = 1_000_000;

    #[test]
    fn boots_at_lowest_pstate_and_idle_power() {
        let m = Machine::new(presets::intel_i3_2120());
        assert_eq!(m.frequency(0), m.pstates().min().frequency());
        assert_eq!(m.now(), Nanos::ZERO);
        assert!(m.last_power().as_f64() > 25.0 && m.last_power().as_f64() < 40.0);
    }

    #[test]
    fn idle_tick_accumulates_floor_energy_only() {
        let mut m = Machine::new(presets::intel_i3_2120());
        let r = m.tick(&[None, None, None, None], 1_000 * MS);
        assert!(r.deltas.iter().all(|d| d.is_zero()));
        // ~31.6 W for 1 s.
        let e = m.machine_energy().as_f64();
        assert!((e - 31.62).abs() < 0.5, "idle energy = {e}");
        assert_eq!(m.now(), Nanos::from_secs(1));
    }

    #[test]
    fn busy_tick_produces_counters_and_power() {
        let mut m = Machine::new(presets::intel_i3_2120());
        m.set_frequency(0, MegaHertz(3300)).unwrap();
        let w = WorkUnit::cpu_intensive(1.0);
        let r = m.tick(&[Some(&w), None, None, None], 100 * MS);
        assert!(r.deltas[0].instructions > 0);
        assert!(r.deltas[1].is_zero());
        assert!(r.power.as_f64() > 32.0, "busy > idle: {}", r.power);
        assert_eq!(
            m.counters(CpuId(0)).unwrap().snapshot().instructions,
            r.deltas[0].instructions
        );
        assert!((m.utilization(CpuId(0)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.utilization(CpuId(1)).unwrap(), 0.0);
    }

    #[test]
    fn set_frequency_validation() {
        let mut m = Machine::new(presets::intel_i3_2120());
        assert!(m.set_frequency(0, MegaHertz(3300)).is_ok());
        assert!(matches!(
            m.set_frequency(0, MegaHertz(12345)),
            Err(Error::UnsupportedFrequency { .. })
        ));
        assert!(matches!(
            m.set_frequency(99, MegaHertz(3300)),
            Err(Error::NoSuchCpu { .. })
        ));
    }

    #[test]
    fn counters_out_of_range_rejected() {
        let m = Machine::new(presets::intel_i3_2120());
        assert!(m.counters(CpuId(4)).is_err());
        assert!(m.utilization(CpuId(4)).is_err());
    }

    #[test]
    fn smt_corun_consumes_less_than_two_cores() {
        let mut m = Machine::new(presets::intel_i3_2120());
        for c in 0..2 {
            m.set_frequency(c, MegaHertz(3300)).unwrap();
        }
        let w = WorkUnit::cpu_intensive(1.0);
        // Co-run on one core (cpus 0,1 are siblings).
        let smt = m.tick(&[Some(&w), Some(&w), None, None], 100 * MS);
        // Spread over two cores (cpus 0,2).
        let spread = m.tick(&[Some(&w), None, Some(&w), None], 100 * MS);
        assert!(
            smt.power < spread.power,
            "SMT co-run {} must be cheaper than two cores {}",
            smt.power,
            spread.power
        );
        // But the spread run retires more instructions in total.
        let smt_inst: u64 = smt.deltas.iter().map(|d| d.instructions).sum();
        let spread_inst: u64 = spread.deltas.iter().map(|d| d.instructions).sum();
        assert!(spread_inst > smt_inst);
    }

    #[test]
    fn turbo_machine_upgrades_at_max_nominal() {
        let mut m = Machine::new(presets::xeon_smt_turbo());
        let cores = m.topology().physical_cores();
        let max = m.pstates().max().frequency();
        for c in 0..cores {
            m.set_frequency(c, max).unwrap();
        }
        let w = WorkUnit::cpu_intensive(1.0);
        // One active core: deepest turbo bin → more instructions per tick
        // than nominal max would allow.
        let mut solo = vec![None; m.topology().logical_cpus()];
        solo[0] = Some(&w);
        let r = m.tick(&solo, 100 * MS);
        let nominal_cycles = max.cycles_over(Nanos(100 * MS));
        assert!(
            r.deltas[0].cycles > nominal_cycles,
            "turbo: {} cycles vs nominal {}",
            r.deltas[0].cycles,
            nominal_cycles
        );
    }

    #[test]
    fn i3_has_no_turbo_as_per_table_1() {
        let mut m = Machine::new(presets::intel_i3_2120());
        m.set_frequency(0, MegaHertz(3300)).unwrap();
        let w = WorkUnit::cpu_intensive(1.0);
        let r = m.tick(&[Some(&w), None, None, None], 100 * MS);
        assert_eq!(
            r.deltas[0].cycles,
            MegaHertz(3300).cycles_over(Nanos(100 * MS))
        );
    }

    #[test]
    fn residency_tracks_busy_and_idle() {
        let mut m = Machine::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(0.5);
        m.tick(&[Some(&w), None, None, None], 1_000 * MS);
        let r0 = m.residency(0);
        assert!((r0.busy().as_secs_f64() - 0.5).abs() < 0.01);
        assert!((r0.total_idle().as_secs_f64() - 0.5).abs() < 0.01);
        let r1 = m.residency(1);
        assert_eq!(r1.busy(), Nanos::ZERO);
        assert!((r1.total_idle().as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn energy_is_monotone_nondecreasing() {
        let mut m = Machine::new(presets::intel_i3_2120());
        let w = WorkUnit::memory_intensive(65536.0, 0.7);
        let mut last = 0.0;
        for i in 0..10 {
            let assign: Vec<Option<&WorkUnit>> = if i % 2 == 0 {
                vec![Some(&w), None, None, None]
            } else {
                vec![None, None, None, None]
            };
            m.tick(&assign, 50 * MS);
            let e = m.machine_energy().as_f64();
            assert!(e > last);
            last = e;
        }
        assert!(m.package_energy().as_f64() < m.machine_energy().as_f64());
    }
}

#[cfg(test)]
mod idle_hint_tests {
    use super::*;
    use crate::presets;

    #[test]
    fn idle_hint_steers_cstate_choice() {
        // A short predicted idle forces shallow C1 (60 % of idle power)
        // instead of deep C6 (5 %), so idle power must rise.
        let mut deep = Machine::new(presets::intel_i3_2120());
        let mut shallow = Machine::new(presets::intel_i3_2120());
        for core in 0..2 {
            shallow.set_idle_hint(core, Nanos(1_000)).unwrap();
        }
        let pd = deep.tick(&[None; 4], 10_000_000).power;
        let ps = shallow.tick(&[None; 4], 10_000_000).power;
        assert!(ps > pd, "shallow idle {ps} must exceed deep idle {pd}");
    }

    #[test]
    fn idle_hint_validates_core() {
        let mut m = Machine::new(presets::intel_i3_2120());
        assert!(m.set_idle_hint(0, Nanos(1)).is_ok());
        assert!(m.set_idle_hint(7, Nanos(1)).is_err());
    }
}

#[cfg(test)]
mod thermal_tests {
    use super::*;
    use crate::presets;
    use crate::workunit::WorkUnit;

    #[test]
    fn sustained_load_heats_the_die_and_raises_power() {
        let mut m = Machine::new(presets::intel_i3_2120());
        for c in 0..2 {
            m.set_frequency(c, MegaHertz(3300)).unwrap();
        }
        let t0 = m.temperature_c();
        let w = WorkUnit::cpu_intensive(1.0);
        let assign = [Some(&w), Some(&w), Some(&w), Some(&w)];
        let cold = m.tick(&assign, 100_000_000).power;
        // 120 s of sustained full load (several thermal time constants).
        for _ in 0..1200 {
            m.tick(&assign, 100_000_000);
        }
        let hot = m.tick(&assign, 100_000_000).power;
        assert!(
            m.temperature_c() > t0 + 10.0,
            "die heated: {}",
            m.temperature_c()
        );
        assert!(
            hot.as_f64() > cold.as_f64() + 2.0,
            "thermal leakage raises power: cold {cold}, hot {hot}"
        );
    }

    #[test]
    fn idle_machine_stays_at_reference_temperature() {
        let mut m = Machine::new(presets::intel_i3_2120());
        let t0 = m.temperature_c();
        for _ in 0..600 {
            m.tick(&[None; 4], 100_000_000);
        }
        assert!(
            (m.temperature_c() - t0).abs() < 3.0,
            "{}",
            m.temperature_c()
        );
        // Idle power essentially unchanged.
        let p = m.tick(&[None; 4], 100_000_000).power.as_f64();
        assert!((p - 31.6).abs() < 1.5, "idle stays ~31.6 W: {p}");
    }

    #[test]
    fn cooling_after_load_decays_back() {
        let mut m = Machine::new(presets::intel_i3_2120());
        let w = WorkUnit::cpu_intensive(1.0);
        let assign = [Some(&w), Some(&w), Some(&w), Some(&w)];
        for _ in 0..900 {
            m.tick(&assign, 100_000_000);
        }
        let hot = m.temperature_c();
        for _ in 0..1800 {
            m.tick(&[None; 4], 100_000_000);
        }
        assert!(
            m.temperature_c() < hot - 10.0,
            "cooled from {hot} to {}",
            m.temperature_c()
        );
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::presets;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DTS: [u64; 3] = [1_000_000, 250_000_000, 1_000_000_000];

    /// Everything a tick leaves behind, floats as bits: the report, and
    /// the machine's counter banks, residency, energy and temperature.
    fn state(m: &Machine, r: &TickReport) -> (Vec<u64>, Vec<ExecDelta>, Vec<Residency>) {
        let b = r.breakdown;
        let mut floats = vec![
            r.power.as_f64(),
            r.package_power.as_f64(),
            b.platform,
            b.package_idle,
            b.core_baseline,
            b.core_idle,
            b.core_events,
            b.uncore,
            b.dram,
            m.machine_energy().as_f64(),
            m.package_energy().as_f64(),
            m.temperature_c(),
        ];
        floats.extend(m.last_busy.iter());
        let mut bits: Vec<u64> = floats.into_iter().map(f64::to_bits).collect();
        bits.push(r.now.as_u64());
        let mut deltas = r.deltas.clone();
        deltas.extend(m.banks.iter().map(CounterBank::snapshot));
        (bits, deltas, m.residency.clone())
    }

    /// The oracle: a machine that forgets its memo before every tick, so
    /// every busy CPU calls `execute`, must match the memoizing machine
    /// bit for bit over runs of repeated work, frequency changes (turbo
    /// bins included), SMT siblings coming and going, three `dt`s and idle
    /// CPUs.
    #[test]
    fn the_memo_never_changes_a_tick() {
        let units = [
            WorkUnit::cpu_intensive(1.0),
            WorkUnit::cpu_intensive(0.0),
            WorkUnit::memory_intensive(65_536.0, 0.7),
            WorkUnit::mixed(0.5, 2_048.0, 0.4),
        ];
        for (seed, config) in [presets::intel_i3_2120(), presets::xeon_smt_turbo()]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(2014 + seed as u64);
            let mut memo = Machine::new(config.clone());
            let mut fresh = Machine::new(config);
            let cpus = memo.topology().logical_cpus();
            let cores = memo.topology().physical_cores();
            let freqs = memo.pstates().frequencies();
            let mut running: Vec<Option<usize>> = vec![None; cpus];
            let mut dt = DTS[0];
            let (mut hits, mut report) = (0, TickReport::default());
            for tick in 0..3_000 {
                for slot in &mut running {
                    if rng.gen::<f64>() < 0.05 {
                        let idle = rng.gen::<f64>() < 0.3;
                        *slot = (!idle).then(|| rng.gen_range(0..units.len()));
                    }
                }
                if rng.gen::<f64>() < 0.05 {
                    let f = freqs[rng.gen_range(0..freqs.len())];
                    let core = rng.gen_range(0..cores);
                    memo.set_frequency(core, f).unwrap();
                    fresh.set_frequency(core, f).unwrap();
                }
                if rng.gen::<f64>() < 0.03 {
                    dt = DTS[rng.gen_range(0..DTS.len())];
                }
                let assignment: Vec<Option<&WorkUnit>> =
                    running.iter().map(|u| u.map(|i| &units[i])).collect();
                let before = memo.memo.clone();
                memo.tick_into(&assignment, dt, &mut report);
                hits += (0..cpus)
                    .filter(|&i| assignment[i].is_some() && memo.memo[i] == before[i])
                    .count();
                fresh.memo.fill(None);
                let expected = fresh.tick(&assignment, dt);
                assert_eq!(
                    state(&memo, &report),
                    state(&fresh, &expected),
                    "seed {seed}, tick {tick}"
                );
            }
            assert!(hits > 3_000, "the sequence reuses outcomes: {hits} hits");
        }
    }
}
