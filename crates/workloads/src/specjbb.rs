//! A SPECjbb2013-like workload: the multi-phase Java business benchmark
//! the paper uses for its Figure 3 preliminary experiment. The benchmark's
//! documented structure is reproduced in shape:
//!
//! 1. **ramp-up**: injection rate climbs from near-idle to full load;
//! 2. **high-bound search / max-jOPS plateau**: sustained full load with
//!    oscillating transaction pressure and periodic GC activity (bursts of
//!    memory-churn followed by brief stalls);
//! 3. **response–throughput sweep**: stepped load levels back down
//!    (90 %…10 %), the phase that gives the trace its staircase tail.
//!
//! Transactions are a branchy, allocation-heavy mix whose working set
//! (the "heap") breathes between GC cycles — memory-intensive, as the
//! paper says.

use crate::phases::{PhaseScript, PhasedTask};
use os_sim::task::TaskBehavior;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

/// Live heap size in KB at full load: 192 MB.
pub const HEAP_KB: f64 = 196_608.0;

/// Configuration of the benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecJbbConfig {
    /// Worker (injector/backend) threads.
    pub threads: usize,
    /// Total run length.
    pub duration: Nanos,
    /// Seed for per-thread phase jitter.
    pub seed: u64,
}

impl Default for SpecJbbConfig {
    /// 4 threads (the i3-2120's logical CPU count), 2500 s (the Figure 3
    /// x-axis).
    fn default() -> SpecJbbConfig {
        SpecJbbConfig {
            threads: 4,
            duration: Nanos::from_secs(2500),
            seed: 2013,
        }
    }
}

/// The transaction work unit at a given load level and heap pressure.
fn transaction(load: f64, heap_kb: f64) -> WorkUnit {
    let load = load.clamp(0.0, 1.0);
    WorkUnit::builder()
        .mem_ratio(0.30) // loads/stores: object graphs
        .branch_ratio(0.18) // branchy business logic
        .fp_ratio(0.04) // a little FP (metrics, pricing)
        .branch_miss_rate(0.04) // typical Java branch-miss rate
        .footprint_kb(heap_kb) // live set
        .locality(0.45) // medium temporal locality (hot orders, warm caches)
        .base_ipc(2.0) // decent ILP
        .intensity(load)
        .build()
        .expect("transaction parameters are valid")
}

/// GC burst: a parallel copying collector streaming the heap.
fn gc_burst(heap_kb: f64) -> WorkUnit {
    WorkUnit::builder()
        .mem_ratio(0.55)
        .branch_ratio(0.08)
        .fp_ratio(0.0)
        .branch_miss_rate(0.01)
        .footprint_kb(heap_kb)
        .locality(0.05)
        .base_ipc(1.6)
        .intensity(1.0)
        .build()
        .expect("gc parameters are valid")
}

/// Builds the per-thread phase script for one worker.
fn worker_script(config: &SpecJbbConfig, thread: usize) -> PhaseScript {
    let total = config.duration.as_u64();
    // Phase budget: 20 % ramp, 50 % plateau, 30 % step-down.
    let ramp = total / 5;
    let plateau = total / 2;
    let steps = total - ramp - plateau;

    // Deterministic per-thread jitter in [0, 1): staggers GC cycles so
    // threads do not collect in lockstep.
    let jitter = ((config.seed ^ (thread as u64).wrapping_mul(0x9e37_79b9)) % 1000) as f64 / 1000.0;

    let mut script = PhaseScript::new();

    // 1. Ramp-up: 10 load steps.
    for i in 0..10 {
        let load = 0.08 + (i as f64 / 9.0) * 0.92;
        let heap = HEAP_KB * (0.3 + 0.7 * i as f64 / 9.0);
        script = script.then(transaction(load, heap), Nanos(ramp / 10));
    }

    // 2. Plateau: repeated cycles of [hot transactions, slightly cooler
    //    transactions, GC burst, brief post-GC dip]. ~8 s per cycle.
    let cycle = 8_000_000_000u64;
    let cycles = (plateau / cycle).max(1);
    for c in 0..cycles {
        let wobble = 0.9 + 0.1 * (((c as f64 + jitter) * 2.39996).sin().abs());
        let heap_hot = HEAP_KB * (0.85 + 0.15 * jitter);
        script = script
            .then(transaction(wobble, heap_hot), Nanos(cycle * 55 / 100))
            .then(
                transaction(wobble * 0.92, HEAP_KB * 0.7),
                Nanos(cycle * 30 / 100),
            )
            .then(gc_burst(heap_hot), Nanos(cycle * 10 / 100))
            .then(transaction(0.35, HEAP_KB * 0.5), Nanos(cycle * 5 / 100));
    }
    // Absorb the remainder of the plateau budget.
    let used = cycles * cycle;
    if plateau > used {
        script = script.then(transaction(0.95, HEAP_KB), Nanos(plateau - used));
    }

    // 3. Response-throughput staircase: 90 % down to 10 %.
    for i in 0..9 {
        let load = 0.9 - 0.1 * i as f64;
        script = script.then(
            transaction(load, HEAP_KB * (0.4 + 0.6 * load)),
            Nanos(steps / 9),
        );
    }

    script
}

/// Builds the benchmark's worker tasks, ready for
/// [`os_sim::kernel::Kernel::spawn`].
pub fn tasks(config: &SpecJbbConfig) -> Vec<Box<dyn TaskBehavior>> {
    (0..config.threads.max(1))
        .map(|t| PhasedTask::boxed(format!("jbb-worker-{t}"), worker_script(config, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_figure_3() {
        let c = SpecJbbConfig::default();
        assert_eq!(c.threads, 4);
        assert_eq!(c.duration, Nanos::from_secs(2500));
    }

    #[test]
    fn script_covers_whole_duration() {
        let c = SpecJbbConfig::default();
        let s = worker_script(&c, 0);
        let total = s.total_duration().as_u64() as f64;
        let want = c.duration.as_u64() as f64;
        assert!(
            (total - want).abs() / want < 0.01,
            "script covers {} of {} s",
            total / 1e9,
            want / 1e9
        );
    }

    #[test]
    fn ramp_up_increases_load() {
        let c = SpecJbbConfig::default();
        let s = worker_script(&c, 0);
        let early = s.at(Nanos::from_secs(10)).unwrap().intensity();
        let later = s.at(Nanos::from_secs(480)).unwrap().intensity();
        assert!(later > early + 0.5, "ramp: {early} → {later}");
    }

    #[test]
    fn staircase_decreases_load() {
        let c = SpecJbbConfig::default();
        let s = worker_script(&c, 0);
        // Step-down occupies the last 30 %: compare early vs late steps.
        let hi = s.at(Nanos::from_secs(1800)).unwrap().intensity();
        let lo = s.at(Nanos::from_secs(2450)).unwrap().intensity();
        assert!(hi > lo + 0.4, "staircase: {hi} → {lo}");
    }

    #[test]
    fn plateau_contains_gc_bursts() {
        let c = SpecJbbConfig::default();
        let s = worker_script(&c, 0);
        // Scan the plateau for a low-locality (GC) phase.
        let mut found_gc = false;
        for sec in 500..1700 {
            if let Some(w) = s.at(Nanos::from_secs(sec)) {
                if w.locality() < 0.1 && w.mem_ratio() > 0.5 {
                    found_gc = true;
                    break;
                }
            }
        }
        assert!(found_gc, "plateau must include GC bursts");
    }

    #[test]
    fn threads_are_jittered_but_same_length() {
        let c = SpecJbbConfig::default();
        let s0 = worker_script(&c, 0);
        let s1 = worker_script(&c, 1);
        assert_ne!(s0, s1, "per-thread jitter differentiates scripts");
        assert_eq!(s0.total_duration(), s1.total_duration());
    }

    #[test]
    fn tasks_builds_requested_thread_count() {
        let mut c = SpecJbbConfig {
            threads: 3,
            ..SpecJbbConfig::default()
        };
        assert_eq!(tasks(&c).len(), 3);
        c.threads = 0;
        assert_eq!(tasks(&c).len(), 1, "at least one worker");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = SpecJbbConfig::default();
        let a = worker_script(&c, 2);
        let b = worker_script(&c, 2);
        assert_eq!(a, b);
        let mut c2 = c.clone();
        c2.seed = 99;
        assert_ne!(worker_script(&c2, 2), a);
    }
}
