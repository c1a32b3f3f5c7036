//! Allocation pins for the simulator's per-quantum path, the pipeline's
//! per-row and per-message paths and the fleet's per-frame transport
//! path: a count, not a stopwatch, so it reads the same on any box and
//! cannot creep back unnoticed between benchmark runs. Its own test binary
//! because it installs a counting `#[global_allocator]`; the count is per
//! thread, so the harness's other threads cannot disturb it.

use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::{SteadyTask, TaskBehavior};
use perf_sim::events::{Event, PAPER_EVENTS};
use powerapi::actor::{Actor, ActorSystem, Context};
use powerapi::aggregator::{Aggregator, Dimension};
use powerapi::fleet::{
    encode_frame, EstimatorShard, FrameDecoder, FrameEnvelope, HopStage, HostId, ProcessOutcome,
    ShardConfig,
};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::formula::PowerFormula;
use powerapi::frame::{FrameBuilder, FramePool, PowerBatch, TickFrame};
use powerapi::host::SimHost;
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::msg::{Message, Quality, Topic};
use powerapi::sensor::hpc;
use powerapi::telemetry::journal::Text;
use powerapi::telemetry::{EventKind, Telemetry, TraceId};
use powermeter::powerspy::PowerSpyConfig;
use powermeter::rapl::Rapl;
use simcpu::counters::HwCounter;
use simcpu::presets;
use simcpu::units::{MegaHertz, Nanos, Watts};
use simcpu::workunit::WorkUnit;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use workloads::specjbb::{self, SpecJbbConfig};

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn note() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations (alloc, alloc_zeroed, realloc) this thread makes in `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const MS: Nanos = Nanos(1_000_000);

#[test]
fn a_steady_state_step_allocates_only_what_its_reports_return() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let mut pids = Vec::new();
    for (i, intensity) in [0.9, 0.6, 0.3].into_iter().enumerate() {
        let task = SteadyTask::boxed(WorkUnit::cpu_intensive(intensity));
        pids.push(kernel.spawn(format!("steady{i}"), vec![task]));
    }
    let jbb = SpecJbbConfig {
        threads: 4,
        duration: Nanos::from_secs(100),
        ..SpecJbbConfig::default()
    };
    pids.push(kernel.spawn("jbb", specjbb::tasks(&jbb)));
    let mut host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
    for pid in pids {
        host.monitor(pid).unwrap();
    }
    // Warm-up: every P-state, C-state and accounting key has been seen.
    for _ in 0..2_000 {
        host.step(MS);
    }

    let start = host.kernel().machine().now();
    let total = allocations_in(|| {
        for _ in 0..1_000 {
            host.step(MS);
        }
    });
    // The kernel and machine tick into reports the host keeps, and the
    // meter hands its samples straight to the host's buffer, which the
    // warm-up has already grown.
    let samples = host
        .snapshot_frame(&FramePool::new())
        .meter()
        .iter()
        .filter(|(at, _)| *at > start)
        .count();
    assert!(samples > 0, "the window spans a meter period");
    assert_eq!(
        total, 0,
        "SimHost::step allocated over 1 000 quanta with {samples} meter samples"
    );
}

#[test]
fn the_meters_and_the_phase_lookup_do_not_allocate() {
    let mut rapl = Rapl::open(&presets::intel_i3_2120()).unwrap();
    let rapl_allocs = allocations_in(|| {
        for dt in [400_000, 1_000_000, 250_000_000, 150_000_000_000] {
            rapl.observe(Watts(42.0), Nanos(dt));
        }
    });
    assert_eq!(rapl_allocs, 0, "Rapl::observe");

    let jbb = SpecJbbConfig::default();
    let mut tasks: Vec<Box<dyn TaskBehavior>> = specjbb::tasks(&jbb);
    let slice_allocs = allocations_in(|| {
        for task in &mut tasks {
            for second in 0..3_000 {
                std::hint::black_box(task.next_slice(Nanos::from_secs(second), MS));
            }
        }
    });
    assert_eq!(slice_allocs, 0, "PhasedTask::next_slice");
}

/// The sparse host of the benchmark's `host-wide`: 1 000 monitored
/// single-thread processes sharing four CPUs at a 100 ms quantum, ten
/// quanta to the tick — so about 40 of a frame's 1 000 rows ran.
fn wide_host() -> SimHost {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids: Vec<_> = (0..1_000)
        .map(|i| {
            let work = WorkUnit::cpu_intensive(0.3 + 0.6 * f64::from(i % 7) / 7.0);
            kernel.spawn(format!("p{i}"), vec![SteadyTask::boxed(work)])
        })
        .collect();
    let mut host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
    for pid in pids {
        host.monitor(pid).unwrap();
    }
    host
}

fn wide_tick(host: &mut SimHost) {
    for _ in 0..10 {
        host.step(Nanos::from_millis(100));
    }
}

#[test]
fn a_steady_state_snapshot_into_a_warm_pool_does_not_allocate() {
    let mut host = wide_host();
    let pool = FramePool::new();
    // Warm-up: every process has had its turn (25 ticks a round), the
    // pool holds a frame and its columns have reached their size.
    for _ in 0..80 {
        wide_tick(&mut host);
        drop(host.snapshot_frame(&pool));
    }
    let mut total = 0;
    for _ in 0..50 {
        wide_tick(&mut host);
        total += allocations_in(|| {
            let frame = host.snapshot_frame(&pool);
            assert_eq!(frame.time_len(), 1_000);
        });
    }
    assert_eq!(total, 0, "SimHost::snapshot_frame over 50 ticks");
}

#[test]
fn estimating_a_batch_allocates_the_same_for_any_number_of_idle_rows() {
    let mut host = wide_host();
    let pool = FramePool::new();
    for _ in 0..30 {
        wide_tick(&mut host);
        drop(host.snapshot_frame(&pool));
    }
    wide_tick(&mut host);
    let frame = Arc::new(host.snapshot_frame(&pool));
    let idle = (0..frame.time_len())
        .filter(|&i| frame.busy(i) == Nanos::ZERO)
        .count();
    assert!(idle >= 950, "{idle} idle rows of {}", frame.time_len());

    let mut formula = PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example());
    let mut allocations_over = |rows: usize| {
        let mut batch = hpc::observe(frame.clone(), TraceId::NONE);
        batch.rows.truncate(rows);
        let mut out = PowerBatch::with_capacity(frame.timestamp, "test", TraceId::NONE, rows);
        let n = allocations_in(|| formula.estimate_batch(&batch, Quality::Full, &mut out));
        assert_eq!(out.len(), rows);
        n
    };
    // The first call sizes the formula's scratch and resolves its slots.
    allocations_over(1_000);
    assert_eq!(
        allocations_over(1_000),
        allocations_over(100),
        "an idle row must not cost an allocation"
    );
}

#[test]
fn aggregating_a_batch_forwards_its_rows_instead_of_rebuilding_them() {
    let batch = |rows: u32, at: u64| {
        let mut b = PowerBatch::with_capacity(Nanos::from_secs(at), "test", TraceId(at), 1_000);
        for pid in 0..rows {
            b.push(Pid(pid), Watts(1.5), Watts(0.7), Quality::Full);
        }
        Arc::new(b)
    };
    let mut aggregator = Aggregator::new(Dimension::both(), 31.48);
    let mut allocations_over = |rows: u32, at: u64| {
        let batch = batch(rows, at);
        let mut out = None;
        let n = allocations_in(|| out = aggregator.fold(batch));
        // Every row and the machine aggregate of the tick before.
        let out = out.expect("a non-empty batch publishes");
        assert_eq!(out.len(), rows as usize + usize::from(at > 1));
        n
    };
    allocations_over(1_000, 1);
    let wide = allocations_over(1_000, 2);
    assert_eq!(
        wide,
        allocations_over(10, 3),
        "a forwarded row must not cost an allocation"
    );
    assert!(wide <= 2, "{wide} allocations for one machine aggregate");
}

struct Discard;

impl Actor for Discard {
    fn handle(&mut self, _msg: Message, _ctx: &Context) {}
}

#[test]
fn a_publish_allocates_no_subscriber_list() {
    let mut system = ActorSystem::new();
    for name in ["first", "second"] {
        let actor = system.spawn(name, Box::new(Discard));
        system.bus().subscribe(Topic::Meter, &actor);
    }
    const PUBLISHES: u64 = 1_000;
    let total = allocations_in(|| {
        for i in 0..PUBLISHES {
            let delivered = system.bus().publish(Message::Meter(Nanos(i), Watts(1.0)));
            assert_eq!(delivered, 2);
        }
    });
    system.shutdown();
    // What is left is the loop's queue doubling while it runs behind.
    assert!(
        total <= 16,
        "{total} allocations over {PUBLISHES} publishes"
    );
}

/// The four-counter layout the transport pins ship: the paper's three
/// model events and one the model does not read.
fn wire_layout() -> Arc<[Event]> {
    let mut events = PAPER_EVENTS.to_vec();
    events.push(Event::Hardware(HwCounter::BranchMisses));
    events.into()
}

/// The `fleet-faulty` frame shape: 16 busy processes, two residency
/// pairs each, under two tenants and a stray when `grouped`.
fn wire_frame(events: &Arc<[Event]>, grouped: bool) -> TickFrame {
    let mut b = FrameBuilder::new();
    for row in 0..16u32 {
        let (pids, counters) = b.hpc_columns();
        pids.push(Pid(100 + row));
        counters.extend((0..events.len() as u64).map(|e| 1_000_000 * u64::from(row + 1) + e));
        b.push_time_row(Pid(100 + row), Nanos::from_millis(400), |freqs| {
            freqs.push((MegaHertz(1600), Nanos::from_millis(100)));
            freqs.push((MegaHertz(3300), Nanos::from_millis(300)));
        });
        if grouped {
            b.set_time_group(match row {
                0..=8 => Some("tenant-gold/svc-web"),
                9..=14 => Some("tenant-bronze/svc-batch"),
                _ => None,
            });
        }
    }
    b.finish(
        Nanos::from_secs(7),
        Nanos::from_secs(1),
        events.clone(),
        None,
    )
}

/// Encode allocates the payload; a warm decode and a warm shard apply
/// allocate nothing (the name is older than the shard's in-place refill,
/// which took the frame's `Arc` off the count).
#[test]
fn a_warm_transport_path_allocates_the_payload_and_the_frame_arc() {
    let events = wire_layout();
    for grouped in [false, true] {
        let frame = wire_frame(&events, grouped);
        let mut payload = Vec::new();
        let encode = allocations_in(|| payload = encode_frame(&frame));
        assert_eq!(encode, 1, "encode_frame sizes its buffer once");

        // Warm: the pool holds a block, the group paths are interned.
        let mut decoder = FrameDecoder::new();
        let decode = |decoder: &mut FrameDecoder| {
            let sealed = decoder
                .decode(&payload)
                .and_then(|d| d.seal(events.clone()))
                .expect("own payloads decode");
            assert_eq!((sealed.time_len(), sealed.has_groups()), (16, grouped));
        };
        decode(&mut decoder);
        let warm_decode = allocations_in(|| decode(&mut decoder));
        assert_eq!(warm_decode, 0, "warm decode, grouped: {grouped}");

        let formula = PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example());
        let mut shard =
            EstimatorShard::new(0, ShardConfig::default(), Box::new(formula), events.clone());
        let mut process = |seq: u64, payload: Vec<u8>| {
            let env = FrameEnvelope {
                host: HostId(3),
                seq,
                sent_at: Nanos::from_secs(seq),
                trace: TraceId(seq + 1),
                attempt: 0,
                payload,
            };
            shard.ingest(env, seq);
            let mut outcome = None;
            let n = allocations_in(|| outcome = shard.process_one(seq));
            (outcome, n)
        };
        let applied = |(outcome, n): (Option<ProcessOutcome>, u64)| {
            assert!(matches!(
                outcome.map(|o| o.hop.stage),
                Some(HopStage::Apply { .. })
            ));
            n
        };
        // The first applies open the host's books and size the scratch.
        applied(process(0, payload.clone()));
        applied(process(1, payload.clone()));
        for seq in 2..6 {
            let warm_apply = applied(process(seq, payload.clone()));
            assert_eq!(
                warm_apply, 0,
                "a warm apply refills the last frame in place, grouped: {grouped}"
            );
        }
        // A payload the link damaged is refused before it reaches the
        // frame the next apply refills.
        let mut damaged = payload.clone();
        damaged[payload.len() / 2] ^= 0x10;
        let (outcome, _) = process(6, damaged);
        assert!(matches!(
            outcome.map(|o| o.hop.stage),
            Some(HopStage::Corrupt { .. })
        ));
        assert_eq!(
            applied(process(7, payload.clone())),
            0,
            "a warm apply after a corrupt payload, grouped: {grouped}"
        );
    }
}

#[test]
fn a_spelled_journal_line_is_recorded_without_allocating() {
    // The fleet's per-frame lines (retransmits, sheds) hand the journal
    // numbers and their spelling; formatting waits for the read.
    let hub = Telemetry::new();
    let journal = hub.journal();
    let line = |seq: u64| {
        Text::Spelled(
            |[seq, attempt], f| write!(f, "seq {seq} retransmit, attempt {attempt}"),
            [seq, 1],
        )
    };
    let allocs = allocations_in(|| {
        for seq in 0..100 {
            journal.emit(EventKind::FleetRetry, HostId(3), line(seq), TraceId(1));
        }
    });
    assert_eq!(allocs, 0, "a spelled line allocates nothing");
    let events = journal.events();
    assert_eq!(events.len(), 100);
    assert_eq!(events[5].subject, "host-3");
    assert_eq!(events[5].detail, "seq 5 retransmit, attempt 1");
}
