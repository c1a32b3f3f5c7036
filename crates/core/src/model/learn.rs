//! The regression half of Figure 1: turn a [`SampleSet`] into the
//! per-frequency power model (`Power = idle + Σ_f coef·rate`), plus the
//! calibration entry points for the baseline formulas, which differ only
//! in the features they fit.

use crate::formula::per_freq::{Kind, PerFrequencyFormula, CORUN_PREFIX};
use crate::model::power_model::PerFrequencyPowerModel;
use crate::model::sampling::{self, SampleSet, SamplingConfig};
use crate::{Error, Result};
use mathkit::linreg::{FitOptions, LinearModel};
use mathkit::matrix::Matrix;
use mathkit::par;
use os_sim::kernel::Kernel;
use os_sim::task::SteadyTask;
use simcpu::machine::MachineConfig;
use simcpu::units::{MegaHertz, Nanos};
use simcpu::workunit::WorkUnit;

/// Learning configuration: sampling campaign + idle measurement length.
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// The sampling campaign.
    pub sampling: SamplingConfig,
    /// How long to measure the idle floor.
    pub idle_duration: Nanos,
}

impl Default for LearnConfig {
    fn default() -> LearnConfig {
        LearnConfig {
            sampling: SamplingConfig::default(),
            idle_duration: Nanos::from_secs(2),
        }
    }
}

impl LearnConfig {
    /// Small configuration for tests/doctests.
    pub fn quick() -> LearnConfig {
        LearnConfig {
            sampling: SamplingConfig::quick(),
            idle_duration: Nanos::from_millis(400),
        }
    }
}

/// Fits one frequency's coefficient vector: `(power − idle) ~ rates`,
/// through the origin. Columns are scaled to unit max before the fit (the
/// rates span 10⁶…10¹⁰, which would otherwise wreck conditioning) and a
/// small ridge keeps nearly-collinear counters finite.
fn fit_rates(x: &Matrix, y_active: &[f64]) -> Result<Vec<f64>> {
    let (rows, cols) = x.shape();
    let mut scales = Vec::with_capacity(cols);
    for c in 0..cols {
        let m = x.col(c).iter().fold(0.0f64, |a, v| a.max(v.abs()));
        scales.push(if m > 0.0 { m } else { 1.0 });
    }
    // Scale into one flat buffer: no per-row Vec allocations.
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        data.extend(x.row(r).iter().zip(&scales).map(|(v, s)| v / s));
    }
    let xs = Matrix::from_flat(rows, cols, data)?;
    let model = LinearModel::fit_with(
        &xs,
        y_active,
        &FitOptions::new().intercept(false).ridge(1e-6),
    )?;
    Ok(model
        .coefficients()
        .iter()
        .zip(&scales)
        .map(|(c, s)| c / s)
        .collect())
}

/// Residual standard deviation of a through-the-origin fit, in watts:
/// `sqrt(Σ (y − X·coefs)² / max(n − p, 1))`. This is the calibration-time
/// uncertainty the prediction intervals are built from.
fn residual_sigma(x: &Matrix, y_active: &[f64], coefs: &[f64]) -> f64 {
    let (rows, _) = x.shape();
    let mut ss = 0.0;
    for (r, &yv) in y_active.iter().enumerate().take(rows) {
        let pred: f64 = x.row(r).iter().zip(coefs).map(|(v, c)| v * c).sum();
        let e = yv - pred;
        ss += e * e;
    }
    let dof = rows.saturating_sub(coefs.len()).max(1);
    (ss / dof as f64).sqrt()
}

/// Measures the idle floor (the paper's 31.48 W constant).
///
/// # Errors
///
/// Propagates sampling errors.
pub fn measure_idle_power(machine: &MachineConfig, cfg: &LearnConfig) -> Result<f64> {
    sampling::measure_idle(
        machine,
        cfg.idle_duration,
        cfg.sampling.quantum,
        sampling::METER_NOISE_W,
        cfg.sampling.seed,
    )
}

/// Fits the per-frequency model from an existing sample set.
///
/// # Errors
///
/// [`Error::InsufficientSamples`] when the set has no frequency or any
/// frequency lacks data.
pub fn fit_from_samples(idle_w: f64, set: &SampleSet) -> Result<PerFrequencyPowerModel> {
    let names = set.events.iter().map(|e| e.to_string()).collect();
    fit_named(idle_w, names, set)
}

/// The one per-frequency fit loop: each frequency's `(power − idle) ~
/// rates` over the set's design, the model's features named `names`
/// (one per rate column), with each fit's residual σ recorded.
fn fit_named(idle_w: f64, names: Vec<String>, set: &SampleSet) -> Result<PerFrequencyPowerModel> {
    let freqs = set.frequencies();
    if freqs.is_empty() {
        return Err(Error::InsufficientSamples {
            got: 0,
            needed: names.len() + 1,
        });
    }
    // Each frequency's regression is independent; fit them concurrently,
    // collecting in frequency order so the model (and any error surfaced)
    // matches a serial pass exactly.
    let fits = par::par_map(
        &freqs,
        par::available_threads().min(freqs.len()),
        |_, &f| {
            let (x, y) = set.design_for(f)?;
            let y_active: Vec<f64> = y.iter().map(|p| (p - idle_w).max(0.0)).collect();
            let coefs = fit_rates(&x, &y_active)?;
            let sigma = residual_sigma(&x, &y_active, &coefs);
            Ok::<_, Error>((f, coefs, sigma))
        },
    );
    let mut per_freq = Vec::with_capacity(freqs.len());
    let mut sigmas = Vec::with_capacity(freqs.len());
    for fit in fits {
        let (f, coefs, sigma) = fit?;
        sigmas.push((f, sigma));
        per_freq.push((f, coefs));
    }
    let mut model = PerFrequencyPowerModel::from_parts(idle_w, names, per_freq)?;
    for (f, sigma) in sigmas {
        model.set_residual_sigma(f, sigma);
    }
    Ok(model)
}

/// The full Figure 1 pipeline: measure idle, run the stress campaign at
/// every frequency, regress — returns the machine's energy profile.
///
/// # Errors
///
/// Propagates sampling and regression errors.
pub fn learn_model(machine: MachineConfig, cfg: &LearnConfig) -> Result<PerFrequencyPowerModel> {
    let idle = measure_idle_power(&machine, cfg)?;
    let set = sampling::collect(&machine, &cfg.sampling)?;
    fit_from_samples(idle, &set)
}

/// Learns a HaPPy-style hyperthread-aware model: the campaign runs twice
/// (solo: one thread per core; co-run: one per logical CPU) and each
/// frequency is fit over `[solo rates ‖ corun rates]`, the features
/// [`PerFrequencyFormula::happy`] reads (`e`, then `corun:e`).
///
/// # Errors
///
/// Propagates sampling and regression errors.
pub fn learn_happy(machine: MachineConfig, cfg: &LearnConfig) -> Result<PerFrequencyPowerModel> {
    let idle = measure_idle_power(&machine, cfg)?;
    let mut solo_cfg = cfg.sampling.clone();
    solo_cfg.threads_per_point = machine.topology.physical_cores();
    let mut corun_cfg = cfg.sampling.clone();
    corun_cfg.threads_per_point = machine.topology.logical_cpus();
    corun_cfg.seed ^= 0xC0;

    let mut set = sampling::collect(&machine, &solo_cfg)?;
    set.samples
        .extend(sampling::collect(&machine, &corun_cfg)?.samples);

    let counters: Vec<simcpu::counters::HwCounter> =
        set.events.iter().filter_map(|e| e.counter()).collect();
    if counters.len() != set.events.len() {
        return Err(Error::Middleware(
            "happy learning needs directly-mapped hardware events".into(),
        ));
    }
    // The `[solo ‖ corun]` design: one rate column per feature, so the
    // set lists its events twice.
    set.events.extend_from_within(..);
    for s in &mut set.samples {
        s.rates = [&s.solo_rates[..], &s.corun_rates[..]].concat();
    }
    let solo = counters.iter().map(|c| c.name().to_string());
    let corun = counters
        .iter()
        .map(|c| format!("{CORUN_PREFIX}{}", c.name()));
    fit_named(idle, solo.chain(corun).collect(), &set)
}

/// Calibrates the Versick-style CPU-load baseline: measure idle, run one
/// fully-busy CPU-bound thread at maximum frequency, and take the power
/// delta per unit load. The model's σ is the spread of the window's meter
/// samples around that one-sample fit.
///
/// # Errors
///
/// Propagates sampling errors.
pub fn calibrate_cpuload(machine: MachineConfig, cfg: &LearnConfig) -> Result<PerFrequencyFormula> {
    let idle = measure_idle_power(&machine, cfg)?;
    let max: MegaHertz = machine.pstates.max().frequency();

    let mut kernel = Kernel::new(machine.clone());
    kernel.pin_frequency(max)?;
    let pid = kernel.spawn(
        "cpuload-cal",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
    );
    let mut host = crate::host::SimHost::new(
        kernel,
        cfg.sampling.events.clone(),
        cfg.sampling.slots,
        powermeter::powerspy::PowerSpyConfig::default()
            .with_sample_period(Nanos::from_millis(100))
            .with_noise_std_w(sampling::METER_NOISE_W)
            .with_seed(cfg.sampling.seed ^ 0x10AD),
    );
    host.monitor(pid)?;
    let q = cfg.sampling.quantum;
    let steps = (cfg.idle_duration.as_u64() / q.as_u64()).max(1);
    for _ in 0..steps {
        host.step(q);
    }
    let snap = host.snapshot_frame(&crate::frame::FramePool::new());
    let power = crate::model::sampling::mean_meter_w(&snap)
        .ok_or(Error::InsufficientSamples { got: 0, needed: 1 })?;
    let load = if snap.time_len() > 0 {
        snap.busy(0).as_secs_f64() / snap.interval.as_secs_f64()
    } else {
        1.0
    }
    .max(0.05);
    let slope = (power - idle).max(0.0) / load;
    let active = snap
        .meter()
        .iter()
        .map(|(_, w)| (w.as_f64() - idle).max(0.0));
    let y_active: Vec<f64> = active.collect();
    let x = Matrix::from_flat(y_active.len(), 1, vec![load; y_active.len()])?;
    let sigma = residual_sigma(&x, &y_active, &[slope]);
    let mut model = PerFrequencyFormula::cpu_load(idle, slope).model().clone();
    model.set_residual_sigma(model.first_frequency(), sigma);
    Ok(PerFrequencyFormula::of_kind(Kind::CpuLoad, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::PowerFormula;
    use simcpu::presets;

    #[test]
    fn learned_model_has_paper_shape() {
        let m = presets::intel_i3_2120();
        let model = learn_model(m, &LearnConfig::quick()).unwrap();
        // Idle constant close to the simulated floor (~31.6 W) — the
        // analogue of the paper's 31.48.
        assert!(
            (model.idle_w() - 31.6).abs() < 1.5,
            "idle = {}",
            model.idle_w()
        );
        assert_eq!(model.frequencies().len(), 3);
        // At the top frequency: per-event energy ordering matches the
        // paper's equation — misses cost more than references, which cost
        // more than instructions.
        let coefs = model.coefficients(MegaHertz(3300)).unwrap();
        let (i, r, mm) = (coefs[0], coefs[1], coefs[2]);
        assert!(i > 0.0, "instruction coefficient positive: {i:e}");
        assert!(mm > r, "miss {mm:e} > reference {r:e}");
        assert!(r > i, "reference {r:e} > instruction {i:e}");
        // Same orders of magnitude as the published 2.22e-9 / 2.48e-8 /
        // 1.87e-7 (within a decade).
        assert!(i > 1e-10 && i < 1e-7, "i = {i:e}");
        assert!(mm > 1e-9 && mm < 1e-5, "m = {mm:e}");
    }

    #[test]
    fn learned_model_carries_residual_sigma() {
        let m = presets::intel_i3_2120();
        let model = learn_model(m, &LearnConfig::quick()).unwrap();
        for f in model.frequencies() {
            let s = model
                .residual_sigma(f)
                .expect("sigma recorded per frequency");
            assert!(s.is_finite() && s >= 0.0, "sigma at {f} = {s}");
            assert!(s < 5.0, "calibration residual implausibly wide: {s} W");
        }
        // A 2-sigma band is a usable, non-degenerate interval.
        let top = *model.frequencies().last().unwrap();
        let band = model.prediction_band_w(top, 2.0);
        assert!(band > 0.0, "meter noise makes a zero band implausible");
    }

    #[test]
    fn coefficients_grow_with_frequency() {
        // Higher frequency → higher voltage → more joules per event: the
        // reason the paper fits one model per frequency.
        let m = presets::intel_i3_2120();
        let model = learn_model(m, &LearnConfig::quick()).unwrap();
        let freqs = model.frequencies();
        let lo = model.coefficients(freqs[0]).unwrap()[0];
        let hi = model.coefficients(*freqs.last().unwrap()).unwrap()[0];
        assert!(
            hi > lo,
            "instruction energy at max ({hi:e}) vs min ({lo:e}) frequency"
        );
    }

    #[test]
    fn fit_from_samples_rejects_thin_data() {
        let mut set = SampleSet {
            events: perf_sim::events::PAPER_EVENTS.to_vec(),
            samples: vec![],
        };
        // No frequency at all.
        assert!(matches!(
            fit_from_samples(30.0, &set),
            Err(Error::InsufficientSamples { got: 0, needed: 4 })
        ));
        // One frequency with fewer samples than events + 1.
        let sample = crate::model::sampling::CalibrationSample {
            frequency: MegaHertz(1600),
            workload: "thin".into(),
            rates: vec![1.0, 2.0, 3.0],
            solo_rates: vec![1.0, 2.0, 3.0],
            corun_rates: vec![0.0; 3],
            power_w: 40.0,
        };
        set.samples = vec![sample; 2];
        assert!(matches!(
            fit_from_samples(30.0, &set),
            Err(Error::InsufficientSamples { got: 2, needed: 4 })
        ));
    }

    /// The calibrated slope, its recorded σ, and the model's one text
    /// format.
    #[test]
    fn cpuload_calibration_is_positive_and_reasonable() {
        let m = presets::intel_i3_2120();
        let f = calibrate_cpuload(m, &LearnConfig::quick()).unwrap();
        assert_eq!(f.name(), "cpu-load");
        assert!(f.idle_w() > 28.0 && f.idle_w() < 35.0);
        // One busy core at 3.3 GHz adds roughly 12–16 W in the simulator.
        let model = f.model();
        let (coefs, at) = model.nearest_coefficients(MegaHertz(3300));
        let slope = coefs[0];
        assert!(slope > 5.0 && slope < 30.0, "slope = {slope}");
        let sigma = model.residual_sigma(at).expect("sigma recorded");
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma = {sigma}");
        assert_eq!(
            &PerFrequencyPowerModel::from_text(&model.to_text()).unwrap(),
            model
        );
    }

    #[test]
    fn happy_model_learns_cheaper_corun_coefficients() {
        let m = presets::xeon_smt_turbo();
        let mut cfg = LearnConfig::quick();
        cfg.sampling.max_frequencies = Some(2);
        cfg.sampling.grid = workloads::stress::quick_grid();
        let happy = learn_happy(m, &cfg).unwrap();
        let k = 3;
        let names = happy.event_names();
        assert_eq!(names.len(), 2 * k);
        assert_eq!(names[0], "instructions");
        assert_eq!(names[k], "corun:instructions");
        // Compare instruction coefficients at the top frequency: the
        // co-run coefficient should be cheaper (pipeline already paid
        // for), the HaPPy insight.
        let (coefs, _) = happy.nearest_coefficients(MegaHertz(2600));
        let (solo, corun) = coefs.split_at(k);
        assert!(
            corun[0] < solo[0],
            "corun inst {:.3e} should be < solo inst {:.3e}",
            corun[0],
            solo[0]
        );
        // One fit loop for every kind: a finite residual σ per frequency,
        // and the one text format round-trips the model whole.
        for f in happy.frequencies() {
            let s = happy.residual_sigma(f).expect("sigma recorded");
            assert!(s.is_finite() && s >= 0.0, "sigma at {f} = {s}");
        }
        assert_eq!(
            PerFrequencyPowerModel::from_text(&happy.to_text()).unwrap(),
            happy
        );
    }
}
