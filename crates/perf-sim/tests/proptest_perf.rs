//! Property-based tests for the perf substrate: scaling-estimate
//! consistency and conservation of counted events under arbitrary
//! session shapes.

use os_sim::kernel::Kernel;
use os_sim::task::SteadyTask;
use perf_sim::events::Event;
use perf_sim::session::PerfSession;
use proptest::prelude::*;
use simcpu::counters::HwCounter;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scaling_metadata_consistent(
        slots in 1usize..5,
        n_counters in 1usize..8,
        ticks in 5usize..30,
    ) {
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pid = kernel.spawn(
            "app",
            vec![SteadyTask::boxed(WorkUnit::mixed(0.5, 16_384.0, 1.0))],
        );
        let mut session = PerfSession::new(slots);
        let events = [
            HwCounter::Instructions,
            HwCounter::Cycles,
            HwCounter::CacheReferences,
            HwCounter::CacheMisses,
            HwCounter::BranchInstructions,
            HwCounter::BranchMisses,
            HwCounter::L1dAccesses,
            HwCounter::BusCycles,
        ];
        let ids: Vec<_> = events[..n_counters]
            .iter()
            .map(|&e| session.open(pid, Event::Hardware(e)).expect("open"))
            .collect();
        for _ in 0..ticks {
            let r = kernel.tick(Nanos::from_millis(1));
            session.observe(&r);
        }
        let total = Nanos::from_millis(ticks as u64);
        // The one running process runs every tick, and counter `k` counts
        // in tick `r` iff it lies in the window of `b` counters starting
        // `r mod n` in: exactly this many ticks, a fair share each.
        let (n, b) = (n_counters, slots.min(n_counters));
        for (k, &id) in ids.iter().enumerate() {
            let v = session.read(id).expect("open counter");
            // Time accounting invariants.
            prop_assert!(v.time_running <= v.time_enabled);
            prop_assert_eq!(v.time_enabled, total);
            prop_assert!(v.scaled >= v.raw);
            if v.time_running == v.time_enabled {
                prop_assert_eq!(v.scaled, v.raw, "no multiplexing, no scaling");
            }
            let running = (0..ticks).filter(|r| (k + n - r % n) % n < b).count();
            let floor = ticks / n * b;
            prop_assert!((floor..=floor + (ticks % n).min(b)).contains(&running));
            prop_assert_eq!(v.time_running, Nanos::from_millis(running as u64));
        }
    }

    #[test]
    fn undersubscribed_counts_match_machine_bank(
        ticks in 3usize..25,
        intensity in 0.2f64..1.0,
    ) {
        // One process, one thread, counters ≤ slots: perf raw counts must
        // equal the machine's own cumulative bank for the cpu it ran on.
        let mut kernel = Kernel::new(presets::intel_i3_2120());
        let pid = kernel.spawn(
            "app",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(intensity))],
        );
        let mut session = PerfSession::new(4);
        let id = session
            .open(pid, Event::Hardware(HwCounter::Instructions))
            .expect("open");
        let mut from_records = 0u64;
        for _ in 0..ticks {
            let r = kernel.tick(Nanos::from_millis(1));
            from_records += r.records.iter().map(|x| x.delta.instructions).sum::<u64>();
            session.observe(&r);
        }
        prop_assert_eq!(session.read(id).expect("open").raw, from_records);
        let bank_total: u64 = (0..4)
            .map(|c| {
                kernel
                    .machine()
                    .counters(simcpu::CpuId(c))
                    .expect("valid cpu")
                    .read(HwCounter::Instructions)
            })
            .sum();
        prop_assert_eq!(bank_total, from_records, "machine bank agrees");
    }
}
