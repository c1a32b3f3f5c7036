//! Calibration sampling: the data-gathering half of Figure 1. For every
//! DVFS frequency, run the stress grid while the perf session counts and
//! the PowerSpy meter measures; each monitoring window becomes one
//! `(counter rates, wall watts)` observation.

use crate::frame::{FramePool, TickFrame};
use crate::host::SimHost;
use crate::{Error, Result};
use mathkit::matrix::Matrix;
use mathkit::par;
use os_sim::kernel::Kernel;
use os_sim::task::SteadyTask;
use perf_sim::events::{Event, PAPER_EVENTS};
use powermeter::powerspy::PowerSpyConfig;
use simcpu::machine::MachineConfig;
use simcpu::units::{MegaHertz, Nanos};
use workloads::stress::{calibration_grid, quick_grid, StressPoint};

/// PowerSpy noise (RMS watts) of every calibration and idle-floor
/// meter: the meter's own default, so the model learns under the noise
/// it will be scored against.
pub const METER_NOISE_W: f64 = 0.35;

/// Sampling configuration (Figure 1, steps 1–3).
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// The stress workloads to run at each frequency.
    pub grid: Vec<StressPoint>,
    /// Worker threads per point (0 = one per physical core, the default
    /// that loads every core without forcing SMT co-runs).
    pub threads_per_point: usize,
    /// Settling time discarded before measuring.
    pub warmup: Nanos,
    /// Observations taken per (frequency, workload) pair.
    pub samples_per_point: usize,
    /// Length of one observation window.
    pub sample_period: Nanos,
    /// Scheduler quantum driving the simulation.
    pub quantum: Nanos,
    /// Counters to sample.
    pub events: Vec<Event>,
    /// PMU slots (fewer than `events.len()` exercises multiplexing).
    pub slots: usize,
    /// Base RNG seed (each frequency/point derives its own).
    pub seed: u64,
    /// Cap on how many frequencies to sample (`None` = every P-state);
    /// when capped, frequencies are picked evenly across the table.
    pub max_frequencies: Option<usize>,
    /// When `threads_per_point` is automatic (0) and the machine has SMT,
    /// sample every grid point at *both* loading levels — one thread per
    /// core and one per hyperthread — so the regression sees co-run
    /// behaviour too (stressing "the supported features", as §1 puts it).
    pub both_smt_levels: bool,
    /// Worker threads for the sweep itself (0 = all available cores).
    /// Every (frequency, SMT level, grid point) cell is independent — it
    /// builds its own kernel, host and seeded meter — so the sweep fans
    /// out across threads and is bit-identical to a serial run at any
    /// setting.
    pub parallelism: usize,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            grid: calibration_grid(),
            threads_per_point: 0,
            warmup: Nanos::from_millis(200),
            samples_per_point: 4,
            sample_period: Nanos::from_millis(500),
            quantum: Nanos::from_millis(1),
            events: PAPER_EVENTS.to_vec(),
            slots: 4,
            seed: 0x0F16_44EE,
            max_frequencies: None,
            both_smt_levels: true,
            parallelism: 0,
        }
    }
}

impl SamplingConfig {
    /// A small configuration for tests and doctests: the quick grid, two
    /// short windows per point, three frequencies.
    pub fn quick() -> SamplingConfig {
        SamplingConfig {
            grid: quick_grid(),
            warmup: Nanos::from_millis(40),
            samples_per_point: 2,
            sample_period: Nanos::from_millis(200),
            quantum: Nanos::from_millis(2),
            max_frequencies: Some(3),
            ..SamplingConfig::default()
        }
    }
}

/// One calibration observation.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSample {
    /// Pinned frequency during the observation.
    pub frequency: MegaHertz,
    /// Workload label.
    pub workload: String,
    /// Event rates (events/second), in `SampleSet::events` order, from
    /// the multiplex-scaled perf session.
    pub rates: Vec<f64>,
    /// Raw event rates retired with an idle SMT sibling.
    pub solo_rates: Vec<f64>,
    /// Raw event rates retired with a busy SMT sibling.
    pub corun_rates: Vec<f64>,
    /// Measured wall power (meter average over the window).
    pub power_w: f64,
}

/// The collected calibration data.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    /// The sampled events, defining the rate-vector order.
    pub events: Vec<Event>,
    /// All observations across frequencies and workloads.
    pub samples: Vec<CalibrationSample>,
}

impl SampleSet {
    /// Distinct frequencies present, ascending.
    pub fn frequencies(&self) -> Vec<MegaHertz> {
        let mut f: Vec<MegaHertz> = self.samples.iter().map(|s| s.frequency).collect();
        f.sort();
        f.dedup();
        f
    }

    /// Design matrix (rates) and target (watts) for one frequency.
    ///
    /// # Errors
    ///
    /// [`Error::InsufficientSamples`] when the frequency has fewer samples
    /// than events (+1), making a fit impossible.
    pub fn design_for(&self, f: MegaHertz) -> Result<(Matrix, Vec<f64>)> {
        let cols = self.events.len();
        let mut data = Vec::new();
        let mut y = Vec::new();
        for s in self.samples.iter().filter(|s| s.frequency == f) {
            data.extend_from_slice(&s.rates);
            y.push(s.power_w);
        }
        if y.len() < cols + 1 {
            return Err(Error::InsufficientSamples {
                got: y.len(),
                needed: cols + 1,
            });
        }
        Ok((Matrix::from_flat(y.len(), cols, data)?, y))
    }

    /// Pooled design across all frequencies (for counter screening).
    ///
    /// # Errors
    ///
    /// [`Error::InsufficientSamples`] when empty.
    pub fn pooled(&self) -> Result<(Matrix, Vec<f64>)> {
        if self.samples.is_empty() {
            return Err(Error::InsufficientSamples { got: 0, needed: 1 });
        }
        let cols = self.events.len();
        let mut data = Vec::with_capacity(self.samples.len() * cols);
        for s in &self.samples {
            data.extend_from_slice(&s.rates);
        }
        let y: Vec<f64> = self.samples.iter().map(|s| s.power_w).collect();
        Ok((Matrix::from_flat(self.samples.len(), cols, data)?, y))
    }

    /// Projects the set onto a subset of its events (columns reordered to
    /// match `events`).
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] when an event is not in the set.
    pub fn project(&self, events: &[Event]) -> Result<SampleSet> {
        let idx: Vec<usize> = events
            .iter()
            .map(|e| {
                self.events
                    .iter()
                    .position(|x| x == e)
                    .ok_or_else(|| Error::Middleware(format!("event {e} not in sample set")))
            })
            .collect::<Result<_>>()?;
        let samples = self
            .samples
            .iter()
            .map(|s| CalibrationSample {
                frequency: s.frequency,
                workload: s.workload.clone(),
                rates: idx.iter().map(|&i| s.rates[i]).collect(),
                solo_rates: idx.iter().map(|&i| s.solo_rates[i]).collect(),
                corun_rates: idx.iter().map(|&i| s.corun_rates[i]).collect(),
                power_w: s.power_w,
            })
            .collect();
        Ok(SampleSet {
            events: events.to_vec(),
            samples,
        })
    }
}

/// Picks the frequencies to sample, honouring `max_frequencies`.
pub fn pick_frequencies(machine: &MachineConfig, cap: Option<usize>) -> Vec<MegaHertz> {
    let all = machine.pstates.frequencies();
    match cap {
        Some(k) if k > 0 && k < all.len() => {
            // Evenly spaced including both ends.
            (0..k)
                .map(|i| all[i * (all.len() - 1) / (k - 1).max(1)])
                .collect()
        }
        _ => all,
    }
}

/// Measures the idle machine power over `duration` using the meter.
///
/// # Errors
///
/// [`Error::InsufficientSamples`] when the duration is too short for a
/// single meter window.
pub fn measure_idle(
    machine: &MachineConfig,
    duration: Nanos,
    quantum: Nanos,
    noise_w: f64,
    seed: u64,
) -> Result<f64> {
    let kernel = Kernel::new(machine.clone());
    let mut host = SimHost::new(
        kernel,
        PAPER_EVENTS.to_vec(),
        4,
        PowerSpyConfig::default()
            .with_sample_period(Nanos::from_millis(100))
            .with_noise_std_w(noise_w)
            .with_seed(seed),
    );
    let steps = (duration.as_u64() / quantum.as_u64()).max(1);
    for _ in 0..steps {
        host.step(quantum);
    }
    mean_meter_w(&host.snapshot_frame(&FramePool::new()))
        .ok_or(Error::InsufficientSamples { got: 0, needed: 1 })
}

/// Mean of the meter samples a frame carries, in arrival order (`None`
/// when the interval completed no meter window).
pub(crate) fn mean_meter_w(frame: &TickFrame) -> Option<f64> {
    let meter = frame.meter();
    (!meter.is_empty())
        .then(|| meter.iter().map(|(_, w)| w.as_f64()).sum::<f64>() / meter.len() as f64)
}

/// One independent unit of sweep work: a `(frequency, SMT level, grid
/// point)` cell. Indices are carried alongside the values because the
/// meter seed is derived from them — the same formula the serial sweep
/// used — so a cell computes the same observations no matter which worker
/// thread runs it.
#[derive(Debug, Clone, Copy)]
struct SweepCell<'a> {
    freq: MegaHertz,
    fi: usize,
    threads: usize,
    li: usize,
    pi: usize,
    point: &'a StressPoint,
}

/// Runs one calibration cell: spin up a fresh kernel and host, pin the
/// frequency, warm up, then take `samples_per_point` observations.
fn sample_cell(
    machine: &MachineConfig,
    cfg: &SamplingConfig,
    cell: &SweepCell<'_>,
) -> Result<Vec<CalibrationSample>> {
    let SweepCell {
        freq,
        fi,
        threads,
        li,
        pi,
        point,
    } = *cell;
    let mut kernel = Kernel::new(machine.clone());
    kernel.pin_frequency(freq)?;
    let pid = kernel.spawn(
        point.name.clone(),
        (0..threads)
            .map(|_| SteadyTask::boxed(point.work))
            .collect(),
    );
    let meter_period = Nanos((cfg.sample_period.as_u64() / 5).max(1));
    let mut host = SimHost::new(
        kernel,
        cfg.events.clone(),
        cfg.slots,
        PowerSpyConfig::default()
            .with_sample_period(meter_period)
            .with_noise_std_w(METER_NOISE_W)
            .with_seed(cfg.seed ^ ((fi as u64) << 32) ^ ((li as u64) << 16) ^ pi as u64),
    );
    host.monitor(pid)?;

    // Per-cell invariants hoisted out of the observation loop: the
    // workload label and the event→architectural-counter mapping are the
    // same for every window.
    let label = point.label(threads);
    let event_counters: Vec<Option<simcpu::counters::HwCounter>> =
        cfg.events.iter().map(|e| e.counter()).collect();
    let pool = FramePool::new();

    let q = cfg.quantum.as_u64().max(1);
    // Warmup, then discard the first window.
    for _ in 0..(cfg.warmup.as_u64() / q).max(1) {
        host.step(Nanos(q));
    }
    drop(host.snapshot_frame(&pool));

    let mut samples = Vec::with_capacity(cfg.samples_per_point);
    for _ in 0..cfg.samples_per_point {
        for _ in 0..(cfg.sample_period.as_u64() / q).max(1) {
            host.step(Nanos(q));
        }
        let snap = host.snapshot_frame(&pool);
        let interval_s = snap.interval.as_secs_f64();
        if interval_s <= 0.0 {
            continue;
        }
        let Some(power_w) = mean_meter_w(&snap) else {
            continue;
        };
        // The monitored process's counter row, borrowed from the frame
        // (its slot layout is `cfg.events`; an untracked pid reads zero).
        let counters: &[u64] = (0..snap.hpc_len())
            .find(|&i| snap.hpc_pid(i) == pid)
            .map_or(&[], |i| snap.hpc_row(i));
        let rates: Vec<f64> = (0..cfg.events.len())
            .map(|slot| counters.get(slot).map_or(0.0, |v| *v as f64 / interval_s))
            .collect();
        let split = snap
            .corun_row(pid, 0)
            .map(|row| snap.corun_split(row))
            .unwrap_or_default();
        let raw_rates = |d: &simcpu::counters::ExecDelta| -> Vec<f64> {
            event_counters
                .iter()
                .map(|c| c.map(|c| d.get(c) as f64 / interval_s).unwrap_or(0.0))
                .collect()
        };
        samples.push(CalibrationSample {
            frequency: freq,
            workload: label.clone(),
            rates,
            solo_rates: raw_rates(&split.solo),
            corun_rates: raw_rates(&split.corun),
            power_w,
        });
    }
    Ok(samples)
}

/// Runs the full sampling campaign (Figure 1, steps 1–3) on a machine.
///
/// The `(frequency, SMT level, grid point)` nest is flattened into a work
/// list of independent cells and fanned across `cfg.parallelism` threads
/// (`0` = all cores). Each cell builds its own kernel, host and meter —
/// the meter seed derives from the cell's indices, not from sweep order —
/// and results are stitched back together by cell index, so the returned
/// `SampleSet` is bit-identical to a serial sweep at any thread count.
///
/// # Errors
///
/// Propagates substrate errors; [`Error::InsufficientSamples`] when the
/// configuration yields no observations.
pub fn collect(machine: &MachineConfig, cfg: &SamplingConfig) -> Result<SampleSet> {
    let thread_levels: Vec<usize> = if cfg.threads_per_point == 0 {
        let cores = machine.topology.physical_cores();
        let logical = machine.topology.logical_cpus();
        if cfg.both_smt_levels && logical > cores {
            vec![cores, logical]
        } else {
            vec![cores]
        }
    } else {
        vec![cfg.threads_per_point]
    };

    let frequencies = pick_frequencies(machine, cfg.max_frequencies);
    let mut cells = Vec::with_capacity(frequencies.len() * thread_levels.len() * cfg.grid.len());
    for (fi, &freq) in frequencies.iter().enumerate() {
        for (li, &threads) in thread_levels.iter().enumerate() {
            for (pi, point) in cfg.grid.iter().enumerate() {
                cells.push(SweepCell {
                    freq,
                    fi,
                    threads,
                    li,
                    pi,
                    point,
                });
            }
        }
    }

    let workers = par::resolve_threads(cfg.parallelism);
    let per_cell = par::par_map(&cells, workers, |_, cell| sample_cell(machine, cfg, cell));

    let mut samples = Vec::with_capacity(cells.len() * cfg.samples_per_point);
    for result in per_cell {
        samples.extend(result?);
    }

    if samples.is_empty() {
        return Err(Error::InsufficientSamples { got: 0, needed: 1 });
    }
    Ok(SampleSet {
        events: cfg.events.clone(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::presets;

    #[test]
    fn pick_frequencies_caps_evenly() {
        let m = presets::intel_i3_2120();
        let all = pick_frequencies(&m, None);
        assert_eq!(all.len(), 10);
        let three = pick_frequencies(&m, Some(3));
        assert_eq!(three.len(), 3);
        assert_eq!(three[0], all[0], "includes min");
        assert_eq!(three[2], all[9], "includes max");
        assert_eq!(pick_frequencies(&m, Some(0)).len(), 10, "0 means no cap");
        assert_eq!(pick_frequencies(&m, Some(99)).len(), 10);
    }

    #[test]
    fn measure_idle_near_truth() {
        let m = presets::intel_i3_2120();
        let idle =
            measure_idle(&m, Nanos::from_millis(500), Nanos::from_millis(2), 0.2, 7).unwrap();
        // Ground truth is ~31.6 W; the meter is noisy but close.
        assert!((idle - 31.6).abs() < 1.0, "idle measured {idle}");
    }

    #[test]
    fn collect_quick_produces_consistent_samples() {
        let m = presets::intel_i3_2120();
        let cfg = SamplingConfig::quick();
        let set = collect(&m, &cfg).unwrap();
        assert_eq!(set.events.len(), 3);
        // 3 freqs × 2 SMT levels × 6 points × 2 samples.
        assert_eq!(set.samples.len(), 72, "{}", set.samples.len());
        assert_eq!(set.frequencies().len(), 3);
        for s in &set.samples {
            assert_eq!(s.rates.len(), 3);
            assert!(s.power_w > 20.0 && s.power_w < 120.0, "{}", s.power_w);
            assert!(s.rates.iter().all(|r| r.is_finite() && *r >= 0.0));
        }
        // CPU-heavy points must out-rate idle points on instructions.
        let idle_inst = set
            .samples
            .iter()
            .find(|s| s.workload.starts_with("idle/"))
            .unwrap()
            .rates[0];
        let busy_inst = set
            .samples
            .iter()
            .find(|s| s.workload.starts_with("cpu-100%/"))
            .unwrap()
            .rates[0];
        assert!(busy_inst > idle_inst * 100.0 + 1.0);
    }

    #[test]
    fn design_matrices_split_by_frequency() {
        let m = presets::intel_i3_2120();
        let set = collect(&m, &SamplingConfig::quick()).unwrap();
        let f = set.frequencies()[0];
        let (x, y) = set.design_for(f).unwrap();
        assert_eq!(x.rows(), 24, "2 SMT levels × 6 points × 2 samples");
        assert_eq!(x.cols(), 3);
        assert_eq!(y.len(), 24);
        let (xp, yp) = set.pooled().unwrap();
        assert_eq!(xp.rows(), 72);
        assert_eq!(yp.len(), 72);
    }

    #[test]
    fn project_subsets_columns() {
        let m = presets::intel_i3_2120();
        let set = collect(&m, &SamplingConfig::quick()).unwrap();
        let sub = set.project(&[set.events[2], set.events[0]]).unwrap();
        assert_eq!(sub.events.len(), 2);
        assert_eq!(sub.samples[0].rates[0], set.samples[0].rates[2]);
        assert_eq!(sub.samples[0].rates[1], set.samples[0].rates[0]);
        assert!(set.project(&[perf_sim::events::Event::Raw(0x1)]).is_err());
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        // The tentpole guarantee: thread count must not leak into the
        // data. One worker vs eight must produce *equal* SampleSets —
        // same samples, same order, same noise — for the quick config.
        let m = presets::intel_i3_2120();
        let mut serial_cfg = SamplingConfig::quick();
        serial_cfg.parallelism = 1;
        let mut parallel_cfg = SamplingConfig::quick();
        parallel_cfg.parallelism = 8;
        let serial = collect(&m, &serial_cfg).unwrap();
        let parallel = collect(&m, &parallel_cfg).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn collect_is_deterministic_per_seed() {
        let m = presets::intel_i3_2120();
        let mut cfg = SamplingConfig::quick();
        cfg.grid.truncate(2);
        cfg.samples_per_point = 1;
        let a = collect(&m, &cfg).unwrap();
        let b = collect(&m, &cfg).unwrap();
        assert_eq!(a, b);
        cfg.seed ^= 1;
        let c = collect(&m, &cfg).unwrap();
        assert_ne!(a, c, "meter noise differs per seed");
    }
}
