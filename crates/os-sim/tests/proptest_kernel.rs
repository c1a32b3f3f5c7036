//! Property-based tests for the OS substrate: scheduler fairness and
//! accounting conservation over arbitrary process mixes.

use os_sim::kernel::Kernel;
use os_sim::process::Tid;
use os_sim::scheduler::Scheduler;
use os_sim::task::SteadyTask;
use proptest::prelude::*;
use simcpu::presets;
use simcpu::units::{CpuId, MegaHertz, Nanos};
use simcpu::workunit::WorkUnit;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scheduler_never_double_books_a_thread(
        n_threads in 1usize..12,
        n_cpus in 1usize..6,
        rounds in 1usize..20,
    ) {
        let mut s = Scheduler::new(n_cpus);
        for i in 0..n_threads {
            s.add(Tid(i as u32), 0);
        }
        for _ in 0..rounds {
            let picks = s.pick();
            prop_assert_eq!(picks.len(), n_cpus);
            let mut chosen: Vec<Tid> = picks.iter().flatten().copied().collect();
            let before = chosen.len();
            chosen.sort();
            chosen.dedup();
            prop_assert_eq!(chosen.len(), before, "a thread ran on two cpus at once");
            // All cpus busy when enough threads exist.
            prop_assert_eq!(before, n_threads.min(n_cpus));
            for t in chosen {
                s.charge(t, Nanos(1_000_000));
            }
        }
    }

    #[test]
    fn equal_threads_share_within_tolerance(
        n_threads in 2usize..8,
        rounds in 50usize..150,
    ) {
        let mut s = Scheduler::new(2);
        for i in 0..n_threads {
            s.add(Tid(i as u32), 0);
        }
        let mut runs = vec![0u32; n_threads];
        for _ in 0..rounds {
            for t in s.pick().to_vec().into_iter().flatten() {
                runs[t.0 as usize] += 1;
                s.charge(t, Nanos(1_000_000));
            }
        }
        let expect = (rounds * 2) as f64 / n_threads as f64;
        for (i, &r) in runs.iter().enumerate() {
            prop_assert!(
                (r as f64 - expect).abs() <= expect * 0.25 + 2.0,
                "thread {i} ran {r} of expected {expect}"
            );
        }
    }

    #[test]
    fn accounting_conserves_time(
        intensities in prop::collection::vec(0.1f64..1.0, 1..5),
        ticks in 10usize..50,
    ) {
        let mut k = Kernel::new(presets::intel_i3_2120());
        let pids: Vec<_> = intensities
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                k.spawn(
                    format!("p{i}"),
                    vec![SteadyTask::boxed(WorkUnit::cpu_intensive(x))],
                )
            })
            .collect();
        for _ in 0..ticks {
            k.tick(Nanos::from_millis(1));
        }
        let uptime = k.accounting().uptime();
        prop_assert_eq!(uptime, Nanos::from_millis(ticks as u64));

        // Σ process utime ≤ cpus × uptime; per-freq splits sum to utime.
        let mut total_utime = 0u64;
        for pid in &pids {
            if let Some(t) = k.accounting().process(*pid) {
                total_utime += t.utime.as_u64();
                let split: u64 = t.utime_per_freq.as_slice().iter().map(|(_, n)| n.as_u64()).sum();
                prop_assert_eq!(split, t.utime.as_u64(), "freq split conserves utime");
            }
        }
        let cpus = k.machine().topology().logical_cpus() as u64;
        prop_assert!(total_utime <= cpus * uptime.as_u64());

        // time_in_state sums to uptime on every cpu.
        for cpu in 0..cpus as usize {
            let tis: u64 = k
                .accounting()
                .time_in_state(CpuId(cpu))
                .expect("valid cpu")
                .as_slice()
                .iter()
                .map(|(_, n)| n.as_u64())
                .sum();
            prop_assert_eq!(tis, uptime.as_u64());
        }
    }

    #[test]
    fn governor_frequency_always_nominal(util_seq in prop::collection::vec(0.0f64..1.0, 5..30)) {
        use os_sim::governor::{CpufreqGovernor, Ondemand};
        let machine = presets::intel_i3_2120();
        let table = machine.pstates.clone();
        let mut g = Ondemand::new(2);
        for u in util_seq {
            let f = g.select(0, u, &table);
            prop_assert!(
                table.frequencies().contains(&f),
                "governor returned non-nominal {f}"
            );
        }
        let _ = MegaHertz(0); // keep import used under cfg paths
    }
}
