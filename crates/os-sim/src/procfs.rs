//! `/proc`-style accounting: per-process CPU time (what a CPU-load sensor
//! reads), per-CPU DVFS residency (`time_in_state`, what a per-frequency
//! power formula weights by), and machine uptime.

use crate::process::Pid;
use simcpu::units::{CpuId, MegaHertz, Nanos};

/// Time per frequency, ascending by frequency: the `time_in_state`
/// shape. A CPU or a process visits a handful of P-states, so a short
/// list serves better than a tree; adding to a state already listed is
/// a scan of that handful, and a state's first visit lists it even at
/// zero time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreqTimes(Vec<(MegaHertz, Nanos)>);

impl FreqTimes {
    /// Adds `dt` to frequency `f`, listing `f` if it is new.
    pub fn add(&mut self, f: MegaHertz, dt: Nanos) {
        match self.0.iter().position(|&(g, _)| g >= f) {
            Some(at) if self.0[at].0 == f => self.0[at].1 += dt,
            Some(at) => self.0.insert(at, (f, dt)),
            None => self.0.push((f, dt)),
        }
    }

    /// The `(frequency, time)` pairs, ascending by frequency.
    pub fn as_slice(&self) -> &[(MegaHertz, Nanos)] {
        &self.0
    }
}

/// Cumulative per-process times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessTimes {
    /// CPU time actually consumed across all threads.
    pub utime: Nanos,
    /// Wall time the process's threads were scheduled on CPUs.
    pub sched_time: Nanos,
    /// CPU time split by the frequency the hosting core ran at.
    pub utime_per_freq: FreqTimes,
}

/// The accounting store the kernel updates every tick.
#[derive(Debug, Clone)]
pub struct Accounting {
    uptime: Nanos,
    cpu_busy: Vec<Nanos>,
    time_in_state: Vec<FreqTimes>,
    /// Ascending by pid.
    processes: Vec<(Pid, ProcessTimes)>,
    loadavg_1m: f64,
    interval_busy: Nanos,
    /// The last tick length and its load-average decay factor: quanta
    /// repeat one length, so the `exp` runs once per length.
    decay: (Nanos, f64),
}

impl Accounting {
    /// Creates accounting for `cpus` logical CPUs.
    pub fn new(cpus: usize) -> Accounting {
        Accounting {
            uptime: Nanos::ZERO,
            cpu_busy: vec![Nanos::ZERO; cpus],
            time_in_state: vec![FreqTimes::default(); cpus],
            processes: Vec::new(),
            loadavg_1m: 0.0,
            interval_busy: Nanos::ZERO,
            decay: (Nanos::ZERO, 1.0),
        }
    }

    /// Advances uptime and records each CPU's DVFS state for the slice.
    pub fn tick(&mut self, dt: Nanos, cpu_freqs: &[MegaHertz]) {
        self.uptime += dt;
        for (states, &f) in self.time_in_state.iter_mut().zip(cpu_freqs) {
            states.add(f, dt);
        }
        // Exponentially-decayed 1-minute load average over the busy
        // CPU-time recorded since the previous tick (`/proc/loadavg`
        // style, with dt-exact decay instead of 5 s sampling).
        if dt > Nanos::ZERO {
            let instantaneous = self.interval_busy.as_secs_f64() / dt.as_secs_f64();
            if self.decay.0 != dt {
                self.decay = (dt, (-dt.as_secs_f64() / 60.0).exp());
            }
            let alpha = self.decay.1;
            self.loadavg_1m = self.loadavg_1m * alpha + instantaneous * (1.0 - alpha);
            self.interval_busy = Nanos::ZERO;
        }
    }

    /// The exponentially-decayed 1-minute load average (busy CPUs).
    pub fn loadavg_1m(&self) -> f64 {
        self.loadavg_1m
    }

    /// Records a thread of `pid` running on `cpu` at `freq`, consuming
    /// `busy` out of a `slice`-long quantum.
    pub fn record_run(&mut self, pid: Pid, cpu: CpuId, freq: MegaHertz, slice: Nanos, busy: Nanos) {
        if let Some(b) = self.cpu_busy.get_mut(cpu.as_usize()) {
            *b += busy;
        }
        self.interval_busy += busy;
        let at = self.index_of(pid).unwrap_or_else(|at| {
            self.processes.insert(at, (pid, ProcessTimes::default()));
            at
        });
        let times = &mut self.processes[at].1;
        times.utime += busy;
        times.sched_time += slice;
        times.utime_per_freq.add(freq, busy);
    }

    /// Machine uptime.
    pub fn uptime(&self) -> Nanos {
        self.uptime
    }

    /// Cumulative busy time of one CPU (0 for unknown CPUs).
    pub fn cpu_busy(&self, cpu: CpuId) -> Nanos {
        self.cpu_busy
            .get(cpu.as_usize())
            .copied()
            .unwrap_or(Nanos::ZERO)
    }

    /// `time_in_state` of one CPU: cumulative residency per frequency.
    pub fn time_in_state(&self, cpu: CpuId) -> Option<&FreqTimes> {
        self.time_in_state.get(cpu.as_usize())
    }

    /// Per-process cumulative times (`None` for never-scheduled pids).
    pub fn process(&self, pid: Pid) -> Option<&ProcessTimes> {
        let at = self.index_of(pid).ok()?;
        Some(&self.processes[at].1)
    }

    /// Every accounted process id, ascending.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.processes.iter().map(|&(pid, _)| pid)
    }

    /// Drops a process's records (after reaping).
    pub fn forget(&mut self, pid: Pid) {
        if let Ok(at) = self.index_of(pid) {
            self.processes.remove(at);
        }
    }

    /// Where `pid` sits among the accounted processes (`Err`: where it
    /// would go).
    fn index_of(&self, pid: Pid) -> Result<usize, usize> {
        self.processes.binary_search_by_key(&pid, |&(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = Nanos(1_000_000);

    #[test]
    fn uptime_and_time_in_state() {
        let mut a = Accounting::new(2);
        a.tick(MS, &[MegaHertz(1600), MegaHertz(3300)]);
        a.tick(MS, &[MegaHertz(3300), MegaHertz(3300)]);
        assert_eq!(a.uptime(), Nanos(2_000_000));
        let t0 = a.time_in_state(CpuId(0)).unwrap();
        assert_eq!(
            t0.as_slice(),
            [(MegaHertz(1600), MS), (MegaHertz(3300), MS)]
        );
        let t1 = a.time_in_state(CpuId(1)).unwrap();
        assert_eq!(t1.as_slice(), [(MegaHertz(3300), Nanos(2_000_000))]);
        assert!(a.time_in_state(CpuId(5)).is_none());
    }

    #[test]
    fn process_times_accumulate_per_frequency() {
        let mut a = Accounting::new(2);
        let pid = Pid(100);
        a.record_run(pid, CpuId(0), MegaHertz(1600), MS, Nanos(800_000));
        a.record_run(pid, CpuId(1), MegaHertz(3300), MS, MS);
        let t = a.process(pid).unwrap();
        assert_eq!(t.utime, Nanos(1_800_000));
        assert_eq!(t.sched_time, Nanos(2_000_000));
        assert_eq!(
            t.utime_per_freq.as_slice(),
            [(MegaHertz(1600), Nanos(800_000)), (MegaHertz(3300), MS)]
        );
        assert!(a.process(Pid(999)).is_none());
    }

    /// The lists against the trees they replaced: seeded runs of pids
    /// (new ones arriving out of order) over a frequency ladder, zero
    /// busy times included, and ticks at random per-CPU frequencies;
    /// every process and every CPU read back pair for pair after each.
    #[test]
    fn accounting_equals_the_trees_every_run() {
        use std::collections::BTreeMap;
        type Tree = BTreeMap<MegaHertz, Nanos>;
        let pairs = |t: &Tree| t.iter().map(|(&f, &n)| (f, n)).collect::<Vec<_>>();
        let mut a = Accounting::new(4);
        let mut procs = BTreeMap::<Pid, (Nanos, Nanos, Tree)>::new();
        let mut cpus = vec![Tree::new(); 4];
        let mut seed = 2014u64;
        for i in 0..5_000 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let f = MegaHertz(1_600 + 100 * ((seed >> 40) % 18) as u32);
            let (pid, cpu) = (
                Pid(100 + ((seed >> 24) % 40) as u32),
                (seed >> 50) as usize % 4,
            );
            let (slice, busy) = (Nanos(1_000), Nanos((seed >> 20) % 3 * 500));
            a.record_run(pid, CpuId(cpu), f, slice, busy);
            let (utime, sched, per_freq) = procs.entry(pid).or_default();
            (*utime, *sched) = (*utime + busy, *sched + slice);
            *per_freq.entry(f).or_insert(Nanos::ZERO) += busy;
            if i % 7 == 0 {
                let freqs: Vec<_> = (0..4).map(|c| MegaHertz(f.0 + 100 * c % 300)).collect();
                a.tick(slice, &freqs);
                for (tree, &f) in cpus.iter_mut().zip(&freqs) {
                    *tree.entry(f).or_insert(Nanos::ZERO) += slice;
                }
            }
            assert!(a.pids().eq(procs.keys().copied()), "run {i}");
            for (&pid, (utime, sched, per_freq)) in &procs {
                let t = a.process(pid).unwrap();
                assert_eq!((t.utime, t.sched_time), (*utime, *sched), "run {i}, {pid}");
                assert_eq!(
                    t.utime_per_freq.as_slice(),
                    pairs(per_freq),
                    "run {i}, {pid}"
                );
            }
            for (cpu, tree) in cpus.iter().enumerate() {
                let listed = a.time_in_state(CpuId(cpu)).unwrap().as_slice();
                assert_eq!(listed, pairs(tree), "run {i}, cpu {cpu}");
            }
        }
        assert_eq!(procs.len(), 40);
        assert!(
            procs.values().all(|(.., t)| t.len() > 12),
            "most of the ladder visited"
        );
    }

    #[test]
    fn forget_drops_process() {
        let mut a = Accounting::new(1);
        a.record_run(Pid(1), CpuId(0), MegaHertz(1600), MS, MS);
        assert_eq!(a.pids().count(), 1);
        a.forget(Pid(1));
        assert_eq!(a.pids().count(), 0);
    }

    #[test]
    fn loadavg_converges_to_busy_cpus() {
        let mut a = Accounting::new(4);
        // 3 of 4 CPUs busy for 5 simulated minutes.
        for _ in 0..300 {
            for cpu in 0..3 {
                a.record_run(
                    Pid(1),
                    CpuId(cpu),
                    MegaHertz(3300),
                    Nanos::from_secs(1),
                    Nanos::from_secs(1),
                );
            }
            a.tick(Nanos::from_secs(1), &[MegaHertz(3300); 4]);
        }
        assert!((a.loadavg_1m() - 3.0).abs() < 0.05, "{}", a.loadavg_1m());
        // Load decays once the machine goes idle.
        for _ in 0..60 {
            a.tick(Nanos::from_secs(1), &[MegaHertz(3300); 4]);
        }
        assert!(a.loadavg_1m() < 1.2, "decayed to {}", a.loadavg_1m());
        assert!(
            a.loadavg_1m() > 0.5,
            "but not instantly: {}",
            a.loadavg_1m()
        );
    }

    /// The load average with its decay factor kept per tick length
    /// against one that recomputes `exp` every tick: seeded runs of
    /// lengths, busy times and zero-length ticks.
    #[test]
    fn kept_decay_equals_the_recomputed_one_every_tick() {
        let mut a = Accounting::new(2);
        let mut loadavg = 0.0f64;
        let mut seed = 2014u64;
        for i in 0..3_000 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Runs of one length, as a kernel's quanta come.
            let dt = Nanos(
                [0, 250_000, 1_000_000, 250_000_000][(i / 40 + (seed >> 62) as usize / 3) % 4],
            );
            let busy = Nanos((seed >> 20) % (dt.as_u64() + 1));
            a.record_run(Pid(1), CpuId(0), MegaHertz(1600), dt, busy);
            a.tick(dt, &[MegaHertz(1600); 2]);
            if dt > Nanos::ZERO {
                let alpha = (-dt.as_secs_f64() / 60.0).exp();
                let instantaneous = busy.as_secs_f64() / dt.as_secs_f64();
                loadavg = loadavg * alpha + instantaneous * (1.0 - alpha);
            }
            assert_eq!(a.loadavg_1m().to_bits(), loadavg.to_bits(), "tick {i}");
        }
    }

    #[test]
    fn cpu_busy_out_of_range_is_zero() {
        let a = Accounting::new(1);
        assert_eq!(a.cpu_busy(CpuId(9)), Nanos::ZERO);
    }
}
