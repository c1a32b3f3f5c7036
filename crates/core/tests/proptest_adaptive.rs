//! Property tests for the adaptive sampling controller: decisions are a
//! pure function of the observed schedule (bit-identical journals),
//! every backoff honours the hysteresis window and the in-band streak
//! requirement, breaches snap straight back to full
//! rate, and pinning the ladder (`max_factor = 1`) leaves the
//! estimation pipeline bit-identical to a run without the controller.

use os_sim::kernel::Kernel;
use os_sim::task::SteadyTask;
use powerapi::adaptive::{
    RateCause, RateTransition, SamplingConfig, SamplingController, HYSTERESIS_TICKS, INBAND_TICKS,
};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::prelude::Dimension;
use powerapi::runtime::{PowerApi, RunOutcome};
use proptest::prelude::*;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

/// One scheduled controller input: a clean in-band tick, a breach, or a
/// fault-window note delivered just before the tick.
#[derive(Debug, Clone, Copy)]
enum Step {
    InBand,
    Breach(RateCause),
    Fault,
}

fn step() -> impl Strategy<Value = Step> {
    // In-band ticks dominate so the ladder actually climbs; every breach
    // cause the actor can emit appears, plus the runtime's fault note.
    (0u8..=10).prop_map(|d| match d {
        0..=5 => Step::InBand,
        6 => Step::Breach(RateCause::DriftAlarm),
        7 => Step::Breach(RateCause::OutOfBand),
        8 => Step::Breach(RateCause::NearBand),
        9 => Step::Breach(RateCause::QualityDegraded),
        _ => Step::Fault,
    })
}

fn config() -> impl Strategy<Value = SamplingConfig> {
    (1u32..=16, 0u8..=1).prop_map(|(max_factor, shed)| SamplingConfig {
        max_factor,
        shed_slots: (shed == 1).then_some(2),
    })
}

/// Replays `schedule` through a fresh controller, returning every
/// transition with the index of the tick that provoked it.
fn replay(cfg: &SamplingConfig, schedule: &[Step]) -> Vec<(usize, RateTransition)> {
    let c = SamplingController::new(cfg.clone());
    let mut out = Vec::new();
    for (i, s) in schedule.iter().enumerate() {
        let breach = match s {
            Step::InBand => None,
            Step::Breach(cause) => Some(*cause),
            Step::Fault => {
                c.note_fault();
                None
            }
        };
        if let Some(t) = c.observe(breach) {
            out.push((i, t));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same schedule, same journal — the e15 goldens and the
    /// flight-recorder reconstruction both rely on replayability.
    #[test]
    fn identical_seeds_replay_bit_identical_journals(
        cfg in config(),
        schedule in prop::collection::vec(step(), 0..400),
    ) {
        prop_assert_eq!(replay(&cfg, &schedule), replay(&cfg, &schedule));
    }

    /// Structural invariants of every journal the controller can emit:
    /// the factor walks the doubling ladder under the ceiling, backoffs
    /// need the hysteresis gap *and* the in-band streak, and any breach
    /// while backed off snaps straight to full rate with no hysteresis.
    #[test]
    fn transitions_respect_ladder_hysteresis_and_streaks(
        cfg in config(),
        schedule in prop::collection::vec(step(), 0..400),
    ) {
        let transitions = replay(&cfg, &schedule);
        let ceiling = cfg.max_factor.max(1);
        let mut factor = 1u32;
        let mut last_tick: Option<usize> = None;
        for &(tick, t) in &transitions {
            // Transitions chain: each starts from the factor the
            // previous one left behind.
            prop_assert_eq!(t.old_factor, factor);
            prop_assert!(t.new_factor <= ceiling);
            if t.cause == RateCause::InBand {
                prop_assert_eq!(t.new_factor, (t.old_factor * 2).min(ceiling));
                // The streak can overshoot the requirement while the
                // hysteresis window still blocks the step, but never
                // undershoot it.
                prop_assert!(t.inband_streak >= INBAND_TICKS);
                let gap = match last_tick {
                    Some(prev) => tick - prev,
                    None => tick + 1,
                };
                prop_assert!(
                    gap >= HYSTERESIS_TICKS as usize,
                    "backoff after only {gap} ticks (hysteresis {HYSTERESIS_TICKS})"
                );
            } else {
                // Snap-backs land on full rate immediately, from a
                // genuinely backed-off factor.
                prop_assert_eq!(t.new_factor, 1);
                prop_assert!(t.old_factor > 1);
            }
            factor = t.new_factor;
            last_tick = Some(tick);
        }
        // A breach never leaves the controller backed off: scan the
        // schedule against the reconstructed factor timeline.
        let mut factor = 1u32;
        let mut journal = transitions.iter().peekable();
        for (i, s) in schedule.iter().enumerate() {
            if let Some(&&(tick, t)) = journal.peek() {
                if tick == i {
                    factor = t.new_factor;
                    journal.next();
                }
            }
            if matches!(s, Step::Breach(_) | Step::Fault) {
                prop_assert_eq!(factor, 1, "breach at tick {i} left factor {factor}");
            }
        }
    }

    /// `max_factor = 1` pins full rate: no schedule produces a single
    /// transition.
    #[test]
    fn pinned_ladder_never_transitions(
        schedule in prop::collection::vec(step(), 0..200),
    ) {
        let cfg = SamplingConfig { max_factor: 1, ..SamplingConfig::default() };
        prop_assert_eq!(replay(&cfg, &schedule), vec![]);
    }
}

/// One deterministic end-to-end run, with the controller's ladder
/// optionally pinned to full rate (`Some(cfg)`) or absent (`None`).
fn run_pipeline(adaptive: Option<SamplingConfig>) -> RunOutcome {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids: Vec<_> = (0..8)
        .map(|i| {
            kernel.spawn(
                format!("p{i}"),
                vec![SteadyTask::boxed(WorkUnit::cpu_intensive(
                    0.3 + (i % 4) as f64 * 0.2,
                ))],
            )
        })
        .collect();
    let mut builder = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(
            PerFrequencyPowerModel::paper_i3_example(),
        ))
        .dimension(Dimension::both())
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500));
    if let Some(cfg) = adaptive {
        builder = builder.adaptive_sampling(cfg);
    }
    let mut papi = builder.build().expect("build");
    for pid in pids {
        papi.monitor(pid).expect("monitor");
    }
    papi.run_for(Nanos::from_secs(5)).expect("run");
    papi.finish().expect("finish")
}

/// The controller's do-no-harm proof: with the ladder pinned to full
/// rate the whole estimation pipeline — per-pid reports, meter trace,
/// RAPL trace — is bit-identical to a run without the controller; only
/// the self-cost ledger (which pricing enables) tells them apart.
#[test]
fn pinned_full_rate_leaves_estimates_bit_identical() {
    let pinned = run_pipeline(Some(SamplingConfig {
        max_factor: 1,
        ..SamplingConfig::default()
    }));
    let off = run_pipeline(None);
    assert!(!pinned.reports.is_empty());
    assert_eq!(pinned.reports, off.reports);
    assert_eq!(pinned.meter, off.meter);
    assert_eq!(pinned.rapl, off.rapl);
    assert_eq!(
        pinned.machine_estimates().len(),
        off.machine_estimates().len()
    );
    // The ledger ran (pricing is part of enabling the controller), but
    // priced exactly the full-rate schedule.
    assert_eq!(
        pinned.selfcost.ticks as usize,
        pinned.machine_estimates().len()
    );
    assert_eq!(off.selfcost.ticks, 0);
}
