//! Property tests for the tick-frame pipeline: row lookups and pool
//! recycling over generated frames, every column-reading formula path
//! against the row-by-row reference, the fleet wire format and shard
//! over the same frames, and the end-to-end pipeline against vectors
//! frozen from the per-report message flow before it was deleted.

use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::SteadyTask;
use perf_sim::events::Event;
use powerapi::actor::{Actor, ActorSystem, Context};
use powerapi::fleet::envelope::{fnv1a64, wire_sum};
use powerapi::fleet::{
    decode_frame, encode_frame, EstimatorShard, FrameDecoder, FrameEnvelope, HopStage, HostId,
    ShardConfig, WireError,
};
use powerapi::formula::per_freq::{bertran_events, Kind, PerFrequencyFormula};
use powerapi::formula::{estimate_row_by_row, FormulaActor, PowerFormula};
use powerapi::frame::{
    FrameBuilder, FramePool, PowerBatch, SensorBatch, SensorRow, TickFrame, NO_ROW,
};
use powerapi::hierarchy::UNGROUPED;
use powerapi::model::learn::{calibrate_cpuload, learn_happy, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::msg::{CorunSplit, Message, PowerReport, ProcTimeDelta, Quality, Scope, Topic};
use powerapi::prelude::Dimension;
use powerapi::runtime::{PowerApi, RunOutcome};
use powerapi::sensor::{hpc, procfs};
use powerapi::telemetry::TraceId;
use proptest::prelude::*;
use simcpu::counters::ExecDelta;
use simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
use simcpu::presets;
use simcpu::units::{MegaHertz, Nanos, Watts};
use simcpu::workunit::WorkUnit;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The event layout every generated hpc row follows: a prefix of the
/// Bertran component set, so short layouts exercise the "model event
/// missing" path.
fn layout(n: usize) -> Vec<Event> {
    bertran_events()[..n].to_vec()
}

fn exec_delta(seed: u64) -> ExecDelta {
    ExecDelta {
        instructions: seed,
        cycles: seed.wrapping_mul(3),
        cache_misses: seed / 7,
        ..ExecDelta::zero()
    }
}

/// Distinct pids, optionally shuffled out of ascending order — the
/// frame must cope with both (sorted columns take the binary-search
/// path, unsorted ones the linear fallback).
fn pid_set(max: usize) -> impl Strategy<Value = Vec<Pid>> {
    (prop::collection::vec(1u32..500, 0..max), 0u8..2).prop_map(|(base, reverse)| {
        let mut raw = base;
        raw.sort_unstable();
        raw.dedup();
        let mut pids: Vec<Pid> = raw.into_iter().map(Pid).collect();
        if reverse == 1 {
            pids.reverse();
        }
        pids
    })
}

/// One generated monitoring interval, section by section: what the
/// strategies fill and [`fill_truncated`] feeds through a
/// [`FrameBuilder`].
#[derive(Debug, Clone)]
struct Interval {
    timestamp: Nanos,
    interval: Nanos,
    events: Arc<[Event]>,
    hpc: Vec<(Pid, Vec<u64>)>,
    /// Per time row: pid, CPU time, and the cgroup leaf it is tagged
    /// with (all `None` on a host without cgroups).
    times: Vec<(Pid, ProcTimeDelta, Option<&'static str>)>,
    corun: Vec<(Pid, CorunSplit)>,
    meter: Vec<(Nanos, Watts)>,
    rapl_joules: Option<f64>,
}

/// What a time row can be tagged with: ungrouped, or one of three leaves
/// under two tenants.
const LEAVES: [Option<&str>; 4] = [
    None,
    Some("tenant-a/svc-web"),
    Some("tenant-a/svc-db"),
    Some("tenant-b"),
];

/// The frequencies a generated time row has residency at, a prefix of
/// this ascending list: the model's lowest frequency, two off-model
/// points, and 2.45 GHz, the exact midpoint of the 1.6/3.3 GHz model —
/// so the lookups meet a tie, which goes to the lower frequency.
const RESIDENCY_MHZ: [u32; 4] = [1600, 2100, 2450, 2600];

#[allow(clippy::type_complexity)]
fn interval() -> impl Strategy<Value = Interval> {
    (
        (
            1usize..=5,
            pid_set(12),
            pid_set(12),
            pid_set(6),
            prop::collection::vec(0u64..1_000_000, 48),
        ),
        (
            prop::collection::vec(0u64..2_000_000_000, 12),
            prop::collection::vec(0usize..=RESIDENCY_MHZ.len(), 12),
            prop::collection::vec((0u64..10_000_000_000, 0u64..200), 0..5),
            (0u8..2, 0.0f64..500.0).prop_map(|(some, v)| (some == 1).then_some(v)),
            1u64..100_000_000_000,
            (0u8..2, prop::collection::vec(0usize..LEAVES.len(), 12)),
        ),
    )
        .prop_map(build_interval)
}

#[allow(clippy::type_complexity)]
fn build_interval(
    (
        (n_events, hpc_pids, time_pids, corun_pids, values),
        (busys, freq_counts, meter, rapl, timestamp, (cgroups, tags)),
    ): (
        (usize, Vec<Pid>, Vec<Pid>, Vec<Pid>, Vec<u64>),
        (
            Vec<u64>,
            Vec<usize>,
            Vec<(u64, u64)>,
            Option<f64>,
            u64,
            (u8, Vec<usize>),
        ),
    ),
) -> Interval {
    let hpc = hpc_pids
        .iter()
        .enumerate()
        .map(|(i, &pid)| {
            let row = (0..n_events)
                .map(|j| values[(i * n_events + j) % values.len()])
                .collect();
            (pid, row)
        })
        .collect();
    let times = time_pids
        .iter()
        .enumerate()
        .map(|(i, &pid)| {
            let by_freq = (0..freq_counts[i % freq_counts.len()])
                .map(|k| {
                    (
                        MegaHertz(RESIDENCY_MHZ[k]),
                        Nanos(1 + busys[i % busys.len()] / (k as u64 + 2)),
                    )
                })
                .collect();
            (
                pid,
                ProcTimeDelta {
                    busy: Nanos(busys[i % busys.len()]),
                    by_freq,
                },
                LEAVES[tags[i % tags.len()] * cgroups as usize],
            )
        })
        .collect();
    // Every other hpc pid carries a co-run split too, so HaPPy's co-run
    // features meet rows that have one; the drawn pids add corun-only rows.
    let corun_pids: Vec<Pid> = hpc_pids
        .iter()
        .step_by(2)
        .copied()
        .chain(corun_pids.into_iter().filter(|p| !hpc_pids.contains(p)))
        .collect();
    let corun = corun_pids
        .iter()
        .enumerate()
        .map(|(i, &pid)| {
            (
                pid,
                CorunSplit {
                    solo: exec_delta(values[i % values.len()]),
                    corun: exec_delta(values[(i + 7) % values.len()]),
                    solo_time: Nanos(busys[i % busys.len()] / 2),
                    corun_time: Nanos(busys[(i + 3) % busys.len()] / 3),
                },
            )
        })
        .collect();
    Interval {
        timestamp: Nanos(timestamp),
        interval: Nanos(timestamp / 2 + 1),
        events: layout(n_events).into(),
        hpc,
        times,
        corun,
        meter: meter
            .into_iter()
            .map(|(at, w)| (Nanos(at), Watts(w as f64 / 10.0)))
            .collect(),
        rapl_joules: rapl,
    }
}

/// Fills a builder from an interval, keeping only a prefix of each
/// section — the shape a sensor emits when a fault cuts sampling short
/// mid-frame — and seals it.
fn fill_truncated(
    mut b: FrameBuilder,
    iv: &Interval,
    keep: (usize, usize, usize, usize),
) -> TickFrame {
    let (keep_hpc, keep_time, keep_corun, keep_meter) = keep;
    {
        let (pids, counters) = b.hpc_columns();
        for (pid, row) in iv.hpc.iter().take(keep_hpc) {
            pids.push(*pid);
            counters.extend_from_slice(row);
        }
    }
    for (pid, dt, leaf) in iv.times.iter().take(keep_time) {
        b.push_time_row(*pid, dt.busy, |f| f.extend_from_slice(&dt.by_freq));
        b.set_time_group(*leaf);
    }
    let (corun_pids, corun) = b.corun_columns();
    for &(pid, split) in iv.corun.iter().take(keep_corun) {
        corun_pids.push(pid);
        corun.push(split);
    }
    b.meter_column()
        .extend(iv.meter.iter().take(keep_meter).copied());
    b.finish(iv.timestamp, iv.interval, iv.events.clone(), iv.rapl_joules)
}

const ALL: (usize, usize, usize, usize) = (usize::MAX, usize::MAX, usize::MAX, usize::MAX);

/// The whole interval as a frame on fresh storage.
fn frame_of(iv: &Interval) -> TickFrame {
    fill_truncated(FrameBuilder::new(), iv, ALL)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row lookups agree with linear scans of what was pushed, regardless
    /// of the pid-column order (sorted columns answer via binary search,
    /// unsorted hand-built ones via the fallback scan).
    #[test]
    fn row_lookups_match_linear_scan(iv in interval()) {
        let frame = frame_of(&iv);
        frame.debug_assert_consistent();
        for &(pid, ref expect, _) in &iv.times {
            let row = frame.time_row(pid, usize::MAX).expect("present pid found");
            prop_assert_eq!(frame.time_pid(row), pid);
            prop_assert_eq!(frame.busy(row), expect.busy);
        }
        for &(pid, expect) in &iv.corun {
            let row = frame.corun_row(pid, 0).expect("present pid found");
            prop_assert_eq!(frame.corun_split(row), expect);
        }
        // A pid in no section is a definitive miss, never a wrong row.
        let absent = Pid(900);
        prop_assert_eq!(frame.time_row(absent, 0), None);
        prop_assert_eq!(frame.corun_row(absent, 3), None);
    }

    /// Power columns round-trip losslessly to per-pid reports.
    #[test]
    fn power_batch_round_trips_reports(
        rows in proptest::collection::vec(
            (1u32..500, 0u64..100_000, 0u64..1_000, 0usize..3),
            0..20,
        ),
        timestamp in 1u64..10_000_000_000,
    ) {
        let trace = TraceId::NONE;
        let reports: Vec<PowerReport> = rows
            .iter()
            .map(|&(pid, mw, band_mw, q)| PowerReport {
                timestamp: Nanos(timestamp),
                pid: Pid(pid),
                power: Watts(mw as f64 / 1_000.0),
                formula: "prop",
                band_w: Watts(band_mw as f64 / 1_000.0),
                quality: [Quality::Stale, Quality::Degraded, Quality::Full][q],
                trace,
            })
            .collect();
        let mut batch = PowerBatch::with_capacity(Nanos(timestamp), "prop", trace, reports.len());
        for r in &reports {
            batch.push(r.pid, r.power, r.band_w, r.quality);
        }
        prop_assert_eq!(batch.len(), reports.len());
        let back: Vec<PowerReport> = batch.reports().collect();
        prop_assert_eq!(back, reports);
    }

    /// Pool-recycled storage must never leak a previous frame's columns
    /// into a later, fault-truncated frame. The gauntlet: a build
    /// abandoned mid-frame (builder dropped without `finish`), then a
    /// full frame that lives and dies on the pool, then a truncated
    /// frame built from the dirty recycled block — which must be
    /// bit-identical to the same truncated frame built on fresh storage.
    #[test]
    fn recycled_storage_never_leaks_into_truncated_frames(
        first in interval(),
        second in interval(),
        fracs in (0u8..=100, 0u8..=100, 0u8..=100, 0u8..=100),
    ) {
        let pool = FramePool::new();

        // A fault aborts a build mid-frame: partially filled, never
        // sealed. The pool must not inherit the half-written block.
        {
            let mut b = FrameBuilder::pooled(&pool);
            let (pids, counters) = b.hpc_columns();
            for (pid, row) in &first.hpc {
                pids.push(*pid);
                counters.extend_from_slice(row);
            }
            drop(b);
        }
        prop_assert_eq!(pool.pooled(), 0, "abandoned builds must not reach the pool");

        // A full frame cycles through the pool, leaving dirty storage.
        let full = fill_truncated(FrameBuilder::pooled(&pool), &first, ALL);
        drop(full);
        prop_assert_eq!(pool.pooled(), 1);

        // The truncated frame reuses that block; any stale column — an
        // extra row, a leftover freq entry, a residual meter sample —
        // breaks equality with the fresh-storage build.
        let keep = (
            second.hpc.len() * fracs.0 as usize / 100,
            second.times.len() * fracs.1 as usize / 100,
            second.corun.len() * fracs.2 as usize / 100,
            second.meter.len() * fracs.3 as usize / 100,
        );
        let recycled = fill_truncated(FrameBuilder::pooled(&pool), &second, keep);
        recycled.debug_assert_consistent();
        let fresh = fill_truncated(FrameBuilder::new(), &second, keep);
        prop_assert_eq!(&recycled, &fresh);
        prop_assert_eq!(recycled.time_len(), keep.1.min(second.times.len()));
    }

    /// Decoding fills the very columns the encoder reads: a payload,
    /// decoded and sealed under its layout, re-encodes to the same bytes
    /// — with and without a group column, sorted pid columns or not.
    #[test]
    fn reencoding_a_decoded_frame_reproduces_the_payload(iv in interval()) {
        let frame = frame_of(&iv);
        let payload = encode_frame(&frame);
        let sealed = decode_frame(&payload)
            .and_then(|d| d.seal(iv.events.clone()))
            .expect("own payloads decode");
        sealed.debug_assert_consistent();
        prop_assert_eq!(sealed.time_len(), frame.time_len());
        prop_assert_eq!(sealed.has_groups(), frame.has_groups());
        prop_assert_eq!(encode_frame(&sealed), payload);
    }

    /// What a link does to a payload — `corrupt_payload` flips one bit of
    /// one byte, anywhere, trailer included — and any other damage that
    /// stays inside one aligned word of the body is refused by the
    /// trailer, not by the parser's luck; and since a short tail is
    /// zero-padded into a word, a body never shares a sum with itself
    /// plus zero bytes.
    #[test]
    fn single_word_damage_is_always_a_checksum_error(
        iv in interval(),
        words in prop::collection::vec((0usize..1_000_000, 0u64..=u64::MAX), 32),
        zeros in 1usize..40,
    ) {
        let payload = encode_frame(&frame_of(&iv));
        for at in 0..payload.len() {
            for bit in 0..8 {
                let mut bad = payload.clone();
                bad[at] ^= 1 << bit;
                prop_assert_eq!(decode_frame(&bad).err(), Some(WireError::Checksum));
            }
        }
        let body = &payload[..payload.len() - 8];
        for (pick, value) in words {
            let at = 8 * (pick % body.len().div_ceil(8));
            let end = (at + 8).min(body.len());
            let new = &value.to_le_bytes()[..end - at];
            if body[at..end] == *new {
                continue;
            }
            let mut bad = payload.clone();
            bad[at..end].copy_from_slice(new);
            prop_assert_eq!(decode_frame(&bad).err(), Some(WireError::Checksum));
        }
        let mut padded = body.to_vec();
        padded.resize(body.len() + zeros, 0);
        prop_assert_ne!(wire_sum(&padded), wire_sum(body));
    }

    /// A shard's decoder — columns recycled from whatever frame it
    /// decoded last, group paths interned across frames — gives, column
    /// for column, the frame a decode into fresh storage gives.
    #[test]
    fn pooled_decode_equals_fresh_decode(first in interval(), second in interval()) {
        let mut decoder = FrameDecoder::new();
        for iv in [&first, &second, &first] {
            let payload = encode_frame(&frame_of(iv));
            let pooled = decoder
                .decode(&payload)
                .and_then(|d| d.seal(iv.events.clone()))
                .expect("own payloads decode");
            let fresh = decode_frame(&payload)
                .and_then(|d| d.seal(iv.events.clone()))
                .expect("own payloads decode");
            pooled.debug_assert_consistent();
            prop_assert_eq!(&pooled, &fresh);
            prop_assert_eq!(pooled.group_table(), fresh.group_table());
            prop_assert_eq!(encode_frame(&pooled), payload);
        }
    }
}

/// The HPC sensor's view of a frame, minus its first `stalled` rows (a
/// PMU stall silences them).
fn hpc_batch(frame: &Arc<TickFrame>, stalled: usize) -> SensorBatch {
    let mut batch = hpc::observe(frame.clone(), TraceId::NONE);
    batch.rows.drain(..stalled.min(batch.rows.len()));
    batch
}

/// The procfs sensor's view of a frame.
fn procfs_batch(frame: &Arc<TickFrame>) -> SensorBatch {
    procfs::observe(frame.clone(), TraceId::NONE)
}

/// The reference every `estimate_batch` override is held to: the trait's
/// default body, run on formulas that override the default.
fn row_by_row(formula: &mut dyn PowerFormula, batch: &SensorBatch, quality: Quality) -> PowerBatch {
    let mut out = PowerBatch::with_capacity(batch.timestamp(), formula.name(), batch.trace, 0);
    estimate_row_by_row(formula, batch, quality, &mut out);
    out
}

/// One power row, comparable bit for bit: `(formula, pid, watts bits,
/// band bits, quality)`.
type PowerRow = (&'static str, Pid, u64, u64, Quality);

fn power_rows(b: &PowerBatch) -> Vec<PowerRow> {
    (0..b.len())
        .map(|i| {
            (
                b.formula,
                b.pids[i],
                b.watts[i].as_f64().to_bits(),
                b.band_w[i].as_f64().to_bits(),
                b.quality[i],
            )
        })
        .collect()
}

/// Two modelled frequencies (generated residency also visits 2.1, 2.45
/// and 2.6 GHz, so nearest-model lookups are exercised, an equidistant
/// one included) with distinct residual sigmas, over the first `n`
/// Bertran events.
fn model(n: usize) -> PerFrequencyPowerModel {
    let coefs = [2.22e-9, 1.1e-9, 2.48e-8, 1.87e-7, 3.3e-9];
    let mut m = PerFrequencyPowerModel::from_parts(
        31.48,
        layout(n).iter().map(|e| e.to_string()).collect(),
        vec![
            (
                MegaHertz(1600),
                coefs[..n].iter().map(|c| c / 2.0).collect(),
            ),
            (MegaHertz(3300), coefs[..n].to_vec()),
        ],
    )
    .expect("consistent parts");
    m.set_residual_sigma(MegaHertz(1600), 0.2);
    m.set_residual_sigma(MegaHertz(3300), 0.5);
    m
}

/// A HaPPy formula over `[solo ‖ corun]` features of two counters, with
/// residual σ recorded (which it must not claim as a band).
fn happy() -> PerFrequencyFormula {
    let mut m = PerFrequencyPowerModel::from_parts(
        30.0,
        [
            "instructions",
            "cache-misses",
            "corun:instructions",
            "corun:cache-misses",
        ]
        .map(String::from)
        .to_vec(),
        vec![
            (MegaHertz(1600), vec![1.0e-9, 1.0e-7, 0.6e-9, 0.7e-7]),
            (MegaHertz(3300), vec![2.2e-9, 1.9e-7, 1.3e-9, 1.2e-7]),
        ],
    )
    .expect("consistent parts");
    m.set_residual_sigma(MegaHertz(3300), 0.5);
    PerFrequencyFormula::happy(m)
}

/// The two learned baseline models, each with its kind: HaPPy learned on
/// the SMT Xeon and CPU load calibrated on the i3 (quick campaigns).
fn learned_baselines() -> &'static [(Kind, PerFrequencyPowerModel); 2] {
    static LEARNED: OnceLock<[(Kind, PerFrequencyPowerModel); 2]> = OnceLock::new();
    LEARNED.get_or_init(|| {
        let mut cfg = LearnConfig::quick();
        cfg.sampling.max_frequencies = Some(2);
        cfg.sampling.grid = workloads::stress::quick_grid();
        let happy = learn_happy(presets::xeon_smt_turbo(), &cfg).expect("happy learning");
        let load = calibrate_cpuload(presets::intel_i3_2120(), &LearnConfig::quick())
            .expect("cpu-load calibration");
        [(Kind::Happy, happy), (Kind::CpuLoad, load.model().clone())]
    })
}

/// Collects every power row published on the bus, in order.
struct PowerSink(Arc<Mutex<Vec<PowerRow>>>);
impl Actor for PowerSink {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        if let Message::PowerBatch(b) = msg {
            self.0.lock().expect("sink lock").extend(power_rows(&b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every formula kind's `estimate_batch` reads the frame columns
    /// directly; each must equal the row-by-row reference bit for bit,
    /// pid for pid — over hpc-shaped rows, time-only rows, missing
    /// sections, layouts that lack a model event, and unsorted pid
    /// columns, on hpc and procfs batches alike.
    #[test]
    fn estimate_batch_overrides_match_row_by_row(iv in interval(), degraded in 0u8..2) {
        let frame = Arc::new(frame_of(&iv));
        let quality = if degraded == 1 { Quality::Degraded } else { Quality::Full };
        let formulas: [Box<dyn PowerFormula>; 4] = [
            Box::new(PerFrequencyFormula::new(model(3))),
            Box::new(PerFrequencyFormula::bertran(model(5))),
            Box::new(happy()),
            Box::new(PerFrequencyFormula::cpu_load(31.48, 12.0)),
        ];
        for mut formula in formulas {
            for batch in [hpc_batch(&frame, 0), procfs_batch(&frame)] {
                let mut cols =
                    PowerBatch::with_capacity(batch.timestamp(), formula.name(), batch.trace, 0);
                formula.estimate_batch(&batch, quality, &mut cols);
                let rows = row_by_row(&mut *formula.boxed_clone(), &batch, quality);
                prop_assert_eq!(power_rows(&cols), power_rows(&rows), "on {} rows", batch.source);
            }
        }
    }

    /// A learned HaPPy model and a calibrated CPU-load model survive the
    /// one text format whole, and a formula over the read-back model
    /// estimates every row of a generated batch bit for bit as one over
    /// the original.
    #[test]
    fn learned_baselines_round_trip_through_text(iv in interval()) {
        let frame = Arc::new(frame_of(&iv));
        for (kind, model) in learned_baselines() {
            let back = PerFrequencyPowerModel::from_text(&model.to_text()).expect("parses");
            prop_assert_eq!(&back, model);
            let mut original = PerFrequencyFormula::of_kind(*kind, model.clone());
            let mut read_back = PerFrequencyFormula::of_kind(*kind, back);
            for batch in [hpc_batch(&frame, 0), procfs_batch(&frame)] {
                let mut want =
                    PowerBatch::with_capacity(batch.timestamp(), original.name(), batch.trace, 0);
                let mut got = want.clone();
                original.estimate_batch(&batch, Quality::Full, &mut want);
                read_back.estimate_batch(&batch, Quality::Full, &mut got);
                prop_assert_eq!(power_rows(&got), power_rows(&want), "on {} rows", batch.source);
            }
        }
    }

    /// The fallback watchdog's batch decisions — primary while its rows
    /// flow, backup once a pid's primary stream has been silent longer
    /// than `max_age` — equal a per-row watchdog built from nothing but
    /// `fill_report` + `estimate` + `interval_w`. Four ticks of the same
    /// interval; from the second tick on a PMU stall silences the first
    /// `stalled` hpc rows, so those pids degrade on the fourth.
    #[test]
    fn fallback_watchdog_matches_row_by_row(iv in interval(), stalled in 0usize..6) {
        let max_age = Nanos::from_millis(1500);
        let mut primary = PerFrequencyFormula::new(model(3));
        let mut backup = PerFrequencyFormula::cpu_load(31.48, 12.0);

        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let watchdog = sys.spawn(
            "fallback",
            Box::new(FormulaActor::new(
                primary.boxed_clone(),
                None,
                Some((backup.boxed_clone(), max_age)),
            )),
        );
        let sink = sys.spawn("sink", Box::new(PowerSink(seen.clone())));
        sys.bus().subscribe(Topic::Sensor, &watchdog);
        sys.bus().subscribe(Topic::Power, &sink);

        let mut last_primary: BTreeMap<Pid, Nanos> = BTreeMap::new();
        let mut expect = Vec::new();
        for tick in 0..4u64 {
            let mut at = iv.clone();
            at.timestamp = iv.timestamp + Nanos::from_secs(tick);
            let frame = Arc::new(frame_of(&at));
            let hpc_rows = hpc_batch(&frame, if tick == 0 { 0 } else { stalled });
            let time_rows = procfs_batch(&frame);

            let full = row_by_row(&mut primary, &hpc_rows, Quality::Full);
            for &pid in &full.pids {
                last_primary.insert(pid, at.timestamp);
            }
            let silent = SensorBatch {
                rows: time_rows
                    .rows
                    .iter()
                    .filter(|r| {
                        let last = *last_primary.entry(r.pid).or_insert(at.timestamp);
                        at.timestamp - last > max_age
                    })
                    .copied()
                    .collect(),
                ..time_rows.clone()
            };
            let degraded = row_by_row(&mut backup, &silent, Quality::Degraded);
            expect.extend(power_rows(&full));
            expect.extend(power_rows(&degraded));

            sys.bus().publish(Message::SensorBatch(Arc::new(hpc_rows)));
            sys.bus().publish(Message::SensorBatch(Arc::new(time_rows)));
        }
        sys.shutdown();
        prop_assert_eq!(&*seen.lock().expect("sink lock"), &expect);
    }
}

/// The interval as the wire carries it, built without the codec: every
/// time row, ascending by pid as a host harvests them, with its counters
/// joined in at the same index — zeros for a process that has none.
fn wire_frame(iv: &Interval) -> TickFrame {
    let mut times = iv.times.clone();
    times.sort_by_key(|(pid, ..)| *pid);
    let zeros = vec![0; iv.events.len()];
    let mut b = FrameBuilder::new();
    for (pid, dt, leaf) in &times {
        let row = iv.hpc.iter().find(|(p, _)| p == pid);
        let (pids, counters) = b.hpc_columns();
        pids.push(*pid);
        counters.extend_from_slice(row.map_or(&zeros, |(_, row)| row));
        b.push_time_row(*pid, dt.busy, |f| f.extend_from_slice(&dt.by_freq));
        b.set_time_group(*leaf);
    }
    b.finish(iv.timestamp, iv.interval, iv.events.clone(), None)
}

/// What a shard must book for a wire frame: `(active watts, band,
/// watts per leaf)` folded in row order from the row-by-row reference,
/// one sensor row per wire row.
fn reference_books(
    formula: &mut dyn PowerFormula,
    wire: &Arc<TickFrame>,
) -> (f64, f64, BTreeMap<&'static str, f64>) {
    let rows = (0..wire.time_len() as u32)
        .map(|i| SensorRow {
            pid: wire.time_pid(i as usize),
            hpc: i,
            time: i,
            corun: NO_ROW,
        })
        .collect();
    let batch = SensorBatch {
        source: "hpc",
        frame: wire.clone(),
        rows,
        trace: TraceId::NONE,
    };
    let estimates = row_by_row(formula, &batch, Quality::Full);
    let (mut active, mut band) = (0.0, 0.0);
    let mut leaves = BTreeMap::new();
    for i in 0..estimates.len() {
        let watts = estimates.watts[i].as_f64();
        active += watts;
        band += estimates.band_w[i].as_f64();
        if wire.has_groups() {
            let row = wire.time_row(estimates.pids[i], 0).expect("a wire row");
            let leaf = wire.group_of_row(row).map(|g| &**g);
            let leaf = LEAVES
                .iter()
                .find(|l| **l == leaf)
                .expect("a generated leaf");
            *leaves.entry(leaf.unwrap_or(UNGROUPED)).or_insert(0.0) += watts;
        }
    }
    (active, band, leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A shard fed one encoded frame books exactly what folding the
    /// row-by-row reference over the wire's rows gives: host watts and
    /// band and every leaf's watts, to the bit. Two column-reading
    /// formulas (the per-frequency one also on layouts that lack a model
    /// event) and one on the trait's default body; rows that burned CPU
    /// on all-zero counters and grouped/ungrouped mixes included.
    #[test]
    fn shard_books_match_row_by_row_fold(iv in interval()) {
        let wire = Arc::new(wire_frame(&iv));
        let payload = encode_frame(&wire);
        // The encoder's pid join makes the same rows out of a host's own
        // ascending sections, where only some pids have counters.
        let mut host = iv.clone();
        host.hpc.sort_by_key(|(pid, _)| *pid);
        host.times.sort_by_key(|(pid, ..)| *pid);
        prop_assert_eq!(&encode_frame(&frame_of(&host)), &payload);

        let formulas: [Box<dyn PowerFormula>; 3] = [
            Box::new(PerFrequencyFormula::new(model(3))),
            Box::new(happy()),
            Box::new(PerFrequencyFormula::cpu_load(31.48, 12.0)),
        ];
        for formula in formulas {
            let (active, band, leaves) = reference_books(&mut *formula.boxed_clone(), &wire);
            let power_w = formula.idle_w() + active;

            let host = HostId(0);
            let mut shard =
                EstimatorShard::new(0, ShardConfig::default(), formula, iv.events.clone());
            shard.ingest(
                FrameEnvelope {
                    host,
                    seq: 0,
                    sent_at: Nanos::ZERO,
                    trace: TraceId(1),
                    attempt: 0,
                    payload: payload.clone(),
                },
                0,
            );
            let outcome = shard.process_one(0);
            prop_assert!(matches!(
                outcome.map(|o| o.hop.stage),
                Some(HopStage::Apply { .. })
            ));
            let track = shard.track(host).expect("applied");
            prop_assert_eq!(track.power_w.to_bits(), power_w.to_bits());
            prop_assert_eq!(track.band_w.to_bits(), band.to_bits());
            for leaf in LEAVES.map(|l| l.unwrap_or(UNGROUPED)) {
                let booked = shard.tenant_estimate(host, 0, leaf).map(|e| e.power_w.to_bits());
                let expect = leaves.get(leaf).map(|w| w.to_bits());
                prop_assert_eq!(booked, expect, "leaf {}", leaf);
            }
        }
    }
}

/// Runs one end-to-end pipeline over a deterministic kernel and returns
/// its collected outcome.
fn run_pipeline(faults: Option<FaultPlan>) -> RunOutcome {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids: Vec<_> = (0..24)
        .map(|i| {
            kernel.spawn(
                format!("p{i}"),
                vec![SteadyTask::boxed(WorkUnit::cpu_intensive(
                    0.3 + (i % 5) as f64 * 0.15,
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
    if let Some(plan) = faults {
        builder = builder.fault_plan(plan);
    }
    let mut papi = builder.build().expect("build");
    for pid in pids {
        papi.monitor(pid).expect("monitor");
    }
    papi.run_for(Nanos::from_secs(5)).expect("run");
    papi.finish().expect("finish")
}

/// What a run reported, as three lines — per stream, the row count and
/// an FNV-1a digest over the rows in arrival order: `(timestamp, scope,
/// power bits, band bits, quality)` for aggregates, `(timestamp, watts
/// bits)` for meter and RAPL samples.
fn fingerprint(out: &RunOutcome) -> String {
    let mut reports = Vec::new();
    for r in &out.reports {
        reports.extend_from_slice(&r.timestamp.as_u64().to_le_bytes());
        match &r.scope {
            Scope::Process(pid) => {
                reports.push(0);
                reports.extend_from_slice(&pid.0.to_le_bytes());
            }
            Scope::Group(g) => {
                reports.push(1);
                reports.extend_from_slice(g.as_bytes());
            }
            Scope::Machine => reports.push(2),
        }
        reports.extend_from_slice(&r.power.as_f64().to_bits().to_le_bytes());
        reports.extend_from_slice(&r.band_w.as_f64().to_bits().to_le_bytes());
        reports.push(r.quality as u8);
    }
    let samples = |rows: &[(Nanos, Watts)]| {
        let mut bytes = Vec::new();
        for (at, w) in rows {
            bytes.extend_from_slice(&at.as_u64().to_le_bytes());
            bytes.extend_from_slice(&w.as_f64().to_bits().to_le_bytes());
        }
        fnv1a64(&bytes)
    };
    format!(
        "reports {} {:016x}\nmeter {} {:016x}\nrapl {} {:016x}\n",
        out.reports.len(),
        fnv1a64(&reports),
        out.meter.len(),
        samples(&out.meter),
        out.rapl.len(),
        samples(&out.rapl),
    )
}

/// The frame pipeline reproduces, bit for bit and in order, what the
/// per-report message flow reported for the same clean run. The vector
/// under `golden/` was blessed from that flow before it was deleted, so
/// it cannot be re-blessed: a mismatch means the pipeline's output
/// changed, and a deliberate change must argue why the new digest is
/// right.
#[test]
fn pipeline_matches_frozen_vectors_clean() {
    assert_eq!(
        fingerprint(&run_pipeline(None)),
        include_str!("golden/pipeline_clean.txt")
    );
}

/// Same under an active fault schedule (a PMU stall window, the e7-style
/// scenario): the rows the stall silences must stay silenced.
#[test]
fn pipeline_matches_frozen_vectors_under_faults() {
    let plan = FaultPlan::from_windows(vec![FaultWindow {
        kind: FaultKind::CounterStall,
        start: Nanos::from_secs(2),
        end: Nanos::from_secs(4),
        magnitude: 0.0,
    }]);
    assert_eq!(
        fingerprint(&run_pipeline(Some(plan))),
        include_str!("golden/pipeline_under_faults.txt")
    );
}
