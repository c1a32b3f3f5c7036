//! The PowerSpy-like wall-socket meter: integrates true machine power
//! between sample boundaries, then emits a reading corrupted by Gaussian
//! noise and ADC quantization, framed like a serial-over-bluetooth device.

use crate::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcpu::fault::{FaultKind, FaultPlan};
use simcpu::units::{Nanos, Watts};

/// Meter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpyConfig {
    sample_period: Nanos,
    noise_std_w: f64,
    quantization_w: f64,
    seed: u64,
    faults: FaultPlan,
}

impl Default for PowerSpyConfig {
    /// 1 Hz sampling (the rate the paper's trace uses), 0.35 W RMS noise,
    /// 0.1 W quantization.
    fn default() -> PowerSpyConfig {
        PowerSpyConfig {
            sample_period: Nanos::from_secs(1),
            noise_std_w: 0.35,
            quantization_w: 0.1,
            seed: 0xB1_7E,
            faults: FaultPlan::none(),
        }
    }
}

impl PowerSpyConfig {
    /// Starts from the defaults.
    pub fn new() -> PowerSpyConfig {
        PowerSpyConfig::default()
    }

    /// Sets the sampling period.
    pub fn with_sample_period(mut self, period: Nanos) -> PowerSpyConfig {
        self.sample_period = if period == Nanos::ZERO {
            Nanos(1)
        } else {
            period
        };
        self
    }

    /// Sets the Gaussian noise standard deviation in watts.
    pub fn with_noise_std_w(mut self, std: f64) -> PowerSpyConfig {
        self.noise_std_w = std.max(0.0);
        self
    }

    /// Sets the ADC quantization step in watts (0 disables).
    pub fn with_quantization_w(mut self, q: f64) -> PowerSpyConfig {
        self.quantization_w = q.max(0.0);
        self
    }

    /// Sets the RNG seed (simulations are deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> PowerSpyConfig {
        self.seed = seed;
        self
    }

    /// Installs a fault schedule. Only the meter-class windows matter
    /// here; counter-class windows are ignored. The default (empty) plan
    /// makes the meter behave exactly like the fault-free build.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> PowerSpyConfig {
        self.faults = plan.filtered(FaultKind::is_meter);
        self
    }
}

/// Running totals of the faults a meter actually experienced, queryable
/// via [`PowerSpy::fault_stats`]. A sample is counted in exactly one
/// bucket (disconnect wins over dropout, dropout over corruption).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterFaultStats {
    /// Samples emitted successfully (possibly noise-bursted).
    pub emitted: u64,
    /// Samples silently dropped by a [`FaultKind::SampleDropout`] window.
    pub dropped: u64,
    /// Samples lost to frame corruption detected at decode.
    pub corrupted: u64,
    /// Sample windows swallowed by a full disconnect.
    pub disconnected: u64,
    /// Emitted samples whose noise was amplified by a burst window.
    pub noise_bursts: u64,
}

impl MeterFaultStats {
    /// Total samples lost to any fault.
    pub fn lost(&self) -> u64 {
        self.dropped + self.corrupted + self.disconnected
    }

    /// Per-kind activity since `prev`, labelled with the [`FaultKind`]
    /// variant names. Runtimes poll the stats once per monitoring tick
    /// and journal one event per kind that advanced, so the labels must
    /// join against a fault plan's kind list.
    pub fn delta_kinds(&self, prev: &MeterFaultStats) -> Vec<(&'static str, u64)> {
        [
            ("SampleDropout", self.dropped, prev.dropped),
            ("FrameCorruption", self.corrupted, prev.corrupted),
            ("Disconnect", self.disconnected, prev.disconnected),
            ("NoiseBurst", self.noise_bursts, prev.noise_bursts),
        ]
        .into_iter()
        .filter(|&(_, now, before)| now > before)
        .map(|(name, now, before)| (name, now - before))
        .collect()
    }
}

/// One meter reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Timestamp of the end of the integration window.
    pub at: Nanos,
    /// Measured (noisy) power.
    pub power: Watts,
}

/// The meter itself. Feed it the true power every simulation step via
/// [`PowerSpy::observe`]; it emits samples at its own rate.
#[derive(Debug, Clone)]
pub struct PowerSpy {
    config: PowerSpyConfig,
    rng: StdRng,
    fault_rng: StdRng,
    stats: MeterFaultStats,
    window_energy: f64,
    window_elapsed: Nanos,
    last_time: Nanos,
    next_boundary: Nanos,
}

impl PowerSpy {
    /// Plugs in the meter.
    pub fn new(config: PowerSpyConfig) -> PowerSpy {
        let next = config.sample_period;
        PowerSpy {
            rng: StdRng::seed_from_u64(config.seed),
            // Separate stream: corruption choices never perturb the noise
            // sequence, so an empty plan is bit-identical to no plan.
            fault_rng: StdRng::seed_from_u64(config.seed ^ 0xC0_55_0C_55),
            stats: MeterFaultStats::default(),
            config,
            window_energy: 0.0,
            window_elapsed: Nanos::ZERO,
            last_time: Nanos::ZERO,
            next_boundary: next,
        }
    }

    /// The meter's configuration.
    pub fn config(&self) -> &PowerSpyConfig {
        &self.config
    }

    /// What the installed fault plan has done to this meter so far.
    pub fn fault_stats(&self) -> MeterFaultStats {
        self.stats
    }

    /// Feeds the true power that was drawn from `last observed time` to
    /// `now`. Returns every sample whose window completed in the interval
    /// (typically zero or one). Samples falling inside an active fault
    /// window may be dropped, corrupted in transit, or swallowed by a
    /// disconnect — see [`PowerSpy::fault_stats`] for the tally.
    pub fn observe(&mut self, truth: Watts, now: Nanos) -> Vec<PowerSample> {
        let mut out = Vec::new();
        self.observe_each(truth, now, |sample| out.push(sample));
        out
    }

    /// [`PowerSpy::observe`] handing each completed sample to `emit`
    /// instead of collecting them: the per-quantum form, which allocates
    /// nothing.
    pub fn observe_each(&mut self, truth: Watts, now: Nanos, mut emit: impl FnMut(PowerSample)) {
        if now <= self.last_time {
            return;
        }
        let mut t = self.last_time;
        while t < now {
            let seg_end = self.next_boundary.min(now);
            let seg = seg_end - t;
            self.window_energy += truth.as_f64() * seg.as_secs_f64();
            self.window_elapsed += seg;
            t = seg_end;
            if t == self.next_boundary {
                if let Some(sample) = self.emit(t) {
                    emit(sample);
                }
                self.next_boundary += self.config.sample_period;
            }
        }
        self.last_time = now;
    }

    /// Completes one sample window; `None` when a fault ate the sample.
    fn emit(&mut self, at: Nanos) -> Option<PowerSample> {
        if self.config.faults.is_active(FaultKind::Disconnect, at) {
            // Disconnected: the device integrates nothing; reconnecting
            // restarts the window from scratch.
            self.window_energy = 0.0;
            self.window_elapsed = Nanos::ZERO;
            self.stats.disconnected += 1;
            return None;
        }
        let avg = if self.window_elapsed == Nanos::ZERO {
            0.0
        } else {
            self.window_energy / self.window_elapsed.as_secs_f64()
        };
        self.window_energy = 0.0;
        self.window_elapsed = Nanos::ZERO;
        let noise_mult = self
            .config
            .faults
            .active(FaultKind::NoiseBurst, at)
            .map_or(1.0, |w| w.magnitude.max(1.0));
        // Box-Muller Gaussian from two uniforms (keeps us off rand_distr).
        let noise = if self.config.noise_std_w > 0.0 {
            let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt()
                * (std::f64::consts::TAU * u2).cos()
                * self.config.noise_std_w
                * noise_mult
        } else {
            0.0
        };
        let mut w = (avg + noise).max(0.0);
        if self.config.quantization_w > 0.0 {
            w = (w / self.config.quantization_w).round() * self.config.quantization_w;
        }
        let sample = PowerSample {
            at,
            power: Watts(w),
        };
        if self.config.faults.is_active(FaultKind::SampleDropout, at) {
            self.stats.dropped += 1;
            return None;
        }
        if self.config.faults.is_active(FaultKind::FrameCorruption, at) {
            // The sample rides the serial frame; corrupt it in transit
            // and keep it only if the checksum somehow survives.
            let frame = corrupt_frame(&encode_frame(&sample), &mut self.fault_rng);
            match decode_frame(&frame) {
                Ok(s) => {
                    self.stats.emitted += 1;
                    return Some(s);
                }
                Err(_) => {
                    self.stats.corrupted += 1;
                    return None;
                }
            }
        }
        if noise_mult > 1.0 {
            self.stats.noise_bursts += 1;
        }
        self.stats.emitted += 1;
        Some(sample)
    }
}

/// Flips one byte of a frame with a random nonzero mask — the transport
/// corruption a [`FaultKind::FrameCorruption`] window injects.
fn corrupt_frame(frame: &str, rng: &mut StdRng) -> String {
    let mut bytes = frame.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let i = rng.gen_range(0..bytes.len());
    let mask = rng.gen_range(1u8..=255);
    bytes[i] ^= mask;
    // Non-UTF-8 garbage is as undecodable as a bad checksum.
    String::from_utf8(bytes).unwrap_or_default()
}

/// Encodes a sample as the device's ASCII line frame:
/// `PWR <millis> <milliwatts> *<checksum>` where the checksum is the XOR
/// of all preceding bytes, in hex.
pub fn encode_frame(sample: &PowerSample) -> String {
    let body = format!(
        "PWR {} {}",
        sample.at.as_u64() / 1_000_000,
        (sample.power.as_f64() * 1000.0).round() as u64
    );
    let checksum = body.bytes().fold(0u8, |a, b| a ^ b);
    format!("{body} *{checksum:02x}")
}

/// Decodes a frame produced by [`encode_frame`].
///
/// # Errors
///
/// [`Error::BadFrame`] on malformed syntax or checksum mismatch.
pub fn decode_frame(frame: &str) -> Result<PowerSample> {
    let bad = || Error::BadFrame(frame.to_string());
    let (body, check) = frame.rsplit_once(" *").ok_or_else(bad)?;
    let expected = body.bytes().fold(0u8, |a, b| a ^ b);
    let got = u8::from_str_radix(check, 16).map_err(|_| bad())?;
    if expected != got {
        return Err(bad());
    }
    let mut parts = body.split(' ');
    if parts.next() != Some("PWR") {
        return Err(bad());
    }
    let millis: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let milliwatts: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(PowerSample {
        at: Nanos::from_millis(millis),
        power: Watts(milliwatts as f64 / 1000.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_power_measured_within_noise() {
        let mut m = PowerSpy::new(PowerSpyConfig::default().with_seed(1));
        let mut samples = Vec::new();
        for i in 1..=5000 {
            samples.extend(m.observe(Watts(31.5), Nanos::from_millis(i)));
        }
        assert_eq!(samples.len(), 5, "1 Hz over 5 s");
        let mean: f64 = samples.iter().map(|s| s.power.as_f64()).sum::<f64>() / 5.0;
        assert!((mean - 31.5).abs() < 0.5, "mean = {mean}");
        for s in &samples {
            assert!((s.power.as_f64() - 31.5).abs() < 2.0);
        }
    }

    #[test]
    fn integrates_varying_power() {
        // 500 ms at 20 W then 500 ms at 40 W → sample ≈ 30 W.
        let mut m = PowerSpy::new(
            PowerSpyConfig::default()
                .with_noise_std_w(0.0)
                .with_quantization_w(0.0),
        );
        let s1 = m.observe(Watts(20.0), Nanos::from_millis(500));
        assert!(s1.is_empty());
        let s2 = m.observe(Watts(40.0), Nanos::from_millis(1000));
        assert_eq!(s2.len(), 1);
        assert!((s2[0].power.as_f64() - 30.0).abs() < 1e-9);
        assert_eq!(s2[0].at, Nanos::from_secs(1));
    }

    #[test]
    fn multiple_windows_in_one_observation() {
        let mut m = PowerSpy::new(
            PowerSpyConfig::default()
                .with_noise_std_w(0.0)
                .with_quantization_w(0.0),
        );
        let s = m.observe(Watts(10.0), Nanos::from_secs(3));
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|x| (x.power.as_f64() - 10.0).abs() < 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = PowerSpy::new(PowerSpyConfig::default().with_seed(seed));
            let mut v = Vec::new();
            for i in 1..=3000 {
                v.extend(m.observe(Watts(25.0), Nanos::from_millis(i)));
            }
            v.iter().map(|s| s.power.as_f64()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn quantization_snaps_to_grid() {
        let mut m = PowerSpy::new(
            PowerSpyConfig::default()
                .with_noise_std_w(0.0)
                .with_quantization_w(0.5),
        );
        let s = m.observe(Watts(30.3), Nanos::from_secs(1));
        assert!((s[0].power.as_f64() - 30.5).abs() < 1e-9);
    }

    #[test]
    fn non_monotone_time_ignored() {
        let mut m = PowerSpy::new(PowerSpyConfig::default());
        m.observe(Watts(10.0), Nanos::from_millis(10));
        assert!(m.observe(Watts(10.0), Nanos::from_millis(5)).is_empty());
        assert!(m.observe(Watts(10.0), Nanos::from_millis(10)).is_empty());
    }

    #[test]
    fn frame_roundtrip() {
        let s = PowerSample {
            at: Nanos::from_millis(123456),
            power: Watts(31.48),
        };
        let f = encode_frame(&s);
        let back = decode_frame(&f).unwrap();
        assert_eq!(back.at, s.at);
        assert!((back.power.as_f64() - 31.48).abs() < 1e-9);
    }

    #[test]
    fn frame_corruption_detected() {
        let s = PowerSample {
            at: Nanos::from_millis(1000),
            power: Watts(30.0),
        };
        let f = encode_frame(&s);
        // Flip a digit in the payload.
        let corrupted = f.replace("30000", "31000");
        assert!(matches!(decode_frame(&corrupted), Err(Error::BadFrame(_))));
        for bad in ["", "PWR 1", "PWR a b *00", "PWR 1 2 3 *??", "X 1 2 *33"] {
            assert!(decode_frame(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let run = |plan: FaultPlan| {
            let mut m = PowerSpy::new(PowerSpyConfig::default().with_seed(7).with_fault_plan(plan));
            let mut v = Vec::new();
            for i in 1..=5000 {
                v.extend(m.observe(Watts(25.0), Nanos::from_millis(i)));
            }
            v.iter()
                .map(|s| s.power.as_f64().to_bits())
                .collect::<Vec<_>>()
        };
        let baseline = {
            let mut m = PowerSpy::new(PowerSpyConfig::default().with_seed(7));
            let mut v = Vec::new();
            for i in 1..=5000 {
                v.extend(m.observe(Watts(25.0), Nanos::from_millis(i)));
            }
            v.iter()
                .map(|s| s.power.as_f64().to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(FaultPlan::none()), baseline);
    }

    #[test]
    fn dropout_window_loses_samples_and_counts() {
        use simcpu::fault::FaultWindow;
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::SampleDropout,
            start: Nanos::from_secs(2),
            end: Nanos::from_secs(4),
            magnitude: 1.0,
        }]);
        let mut m = PowerSpy::new(PowerSpyConfig::default().with_seed(7).with_fault_plan(plan));
        let mut v = Vec::new();
        for i in 1..=6000 {
            v.extend(m.observe(Watts(25.0), Nanos::from_millis(i)));
        }
        // Boundaries at 1..=6 s; 2 s and 3 s fall inside [2 s, 4 s).
        assert_eq!(v.len(), 4);
        let stats = m.fault_stats();
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.emitted, 4);
        assert_eq!(stats.lost(), 2);
    }

    #[test]
    fn delta_kinds_reports_only_advanced_counters() {
        let prev = MeterFaultStats {
            emitted: 10,
            dropped: 1,
            corrupted: 2,
            disconnected: 0,
            noise_bursts: 5,
        };
        let now = MeterFaultStats {
            emitted: 20,
            dropped: 4,
            corrupted: 2,
            disconnected: 1,
            noise_bursts: 5,
        };
        assert_eq!(
            now.delta_kinds(&prev),
            vec![("SampleDropout", 3), ("Disconnect", 1)]
        );
        assert!(now.delta_kinds(&now).is_empty(), "no change, no events");
    }

    #[test]
    fn disconnect_resets_window_integration() {
        use simcpu::fault::FaultWindow;
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::Disconnect,
            start: Nanos::from_millis(500),
            end: Nanos::from_millis(1500),
            magnitude: 1.0,
        }]);
        let mut m = PowerSpy::new(
            PowerSpyConfig::default()
                .with_noise_std_w(0.0)
                .with_quantization_w(0.0)
                .with_fault_plan(plan),
        );
        // 1 s boundary is inside the disconnect → swallowed, window reset.
        assert!(m.observe(Watts(20.0), Nanos::from_secs(1)).is_empty());
        // 2 s boundary integrates only the post-reset second at 40 W.
        let s = m.observe(Watts(40.0), Nanos::from_secs(2));
        assert_eq!(s.len(), 1);
        assert!((s[0].power.as_f64() - 40.0).abs() < 1e-9);
        assert_eq!(m.fault_stats().disconnected, 1);
    }

    #[test]
    fn corruption_window_never_yields_wrong_sample() {
        use simcpu::fault::FaultWindow;
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::FrameCorruption,
            start: Nanos::ZERO,
            end: Nanos::from_secs(100),
            magnitude: 1.0,
        }]);
        let mut m = PowerSpy::new(
            PowerSpyConfig::default()
                .with_seed(11)
                .with_noise_std_w(0.0)
                .with_quantization_w(0.0)
                .with_fault_plan(plan),
        );
        let mut got = Vec::new();
        for i in 1..=60 {
            got.extend(m.observe(Watts(33.0), Nanos::from_secs(i)));
        }
        let stats = m.fault_stats();
        assert_eq!(stats.corrupted + stats.emitted, 60);
        assert!(
            stats.corrupted > 0,
            "single-byte flips should break checksums"
        );
        // Any frame that survived decoded to the true value, never garbage.
        for s in &got {
            assert!((s.power.as_f64() - 33.0).abs() < 1e-9, "{:?}", s);
        }
    }

    #[test]
    fn noise_burst_inflates_variance() {
        use simcpu::fault::FaultWindow;
        let run = |plan: FaultPlan| {
            let mut m = PowerSpy::new(
                PowerSpyConfig::default()
                    .with_seed(3)
                    .with_quantization_w(0.0)
                    .with_fault_plan(plan),
            );
            let mut v = Vec::new();
            for i in 1..=200 {
                v.extend(m.observe(Watts(30.0), Nanos::from_secs(i)));
            }
            let var = v
                .iter()
                .map(|s| (s.power.as_f64() - 30.0).powi(2))
                .sum::<f64>()
                / v.len() as f64;
            (var, m.fault_stats().noise_bursts)
        };
        let (clean_var, _) = run(FaultPlan::none());
        let (burst_var, bursts) = run(FaultPlan::from_windows(vec![FaultWindow {
            kind: FaultKind::NoiseBurst,
            start: Nanos::ZERO,
            end: Nanos::from_secs(1000),
            magnitude: 8.0,
        }]));
        assert_eq!(bursts, 200);
        assert!(
            burst_var > clean_var * 4.0,
            "burst {burst_var} vs clean {clean_var}"
        );
    }

    #[test]
    fn non_meter_faults_filtered_out() {
        let plan = FaultPlan::generate(
            9,
            Nanos::from_secs(100),
            &simcpu::fault::FaultPlanConfig::default(),
        );
        let cfg = PowerSpyConfig::default().with_fault_plan(plan);
        assert!(cfg.faults.kinds().iter().all(|k| k.is_meter()));
    }

    #[test]
    fn config_builders_clamp() {
        let c = PowerSpyConfig::new()
            .with_sample_period(Nanos::ZERO)
            .with_noise_std_w(-1.0)
            .with_quantization_w(-1.0);
        assert_eq!(c.sample_period, Nanos(1));
        assert_eq!(c.noise_std_w, 0.0);
        assert_eq!(c.quantization_w, 0.0);
    }
}
