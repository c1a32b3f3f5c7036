//! Middleware throughput benchmarks — the paper's performance claim P1:
//! an actor "can handle millions of messages per second, … a key property
//! for supporting real-time power estimations" (§3). Criterion reports
//! elements/second; the claim holds when `bus_publish` and
//! `actor_pipeline` exceed 1e6 msg/s.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use os_sim::process::Pid;
use powerapi::actor::{Actor, ActorSystem, Context};
use powerapi::frame::PowerBatch;
use powerapi::msg::{Message, Quality, Topic};
use powerapi::telemetry::TraceId;
use simcpu::units::{Nanos, Watts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Sink(Arc<AtomicU64>);

impl Actor for Sink {
    fn handle(&mut self, _msg: Message, _ctx: &Context) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

struct Relay;

impl Actor for Relay {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        if let Message::PowerBatch(b) = msg {
            let reports = b
                .reports()
                .map(|p| powerapi::msg::AggregateReport {
                    timestamp: p.timestamp,
                    scope: powerapi::msg::Scope::Process(p.pid),
                    power: p.power,
                    band_w: p.band_w,
                    quality: p.quality,
                    trace: p.trace,
                })
                .collect();
            ctx.bus().publish(Message::aggregates(reports, b.trace));
        }
    }
}

/// A one-row power batch: the smallest message the estimation path
/// carries. Built once per measurement and cloned per send (an `Arc`
/// bump), so the loops time the bus, not the allocator.
fn power_msg() -> Message {
    let mut b = PowerBatch::with_capacity(Nanos(1), "bench", TraceId::NONE, 1);
    b.push(Pid(1), Watts(4.2), Watts(0.0), Quality::Full);
    Message::PowerBatch(Arc::new(b))
}

const BATCH: u64 = 10_000;

fn bench_bus_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("middleware");
    group.throughput(Throughput::Elements(BATCH));
    group.sample_size(20);

    group.bench_function("bus_publish_1_subscriber", |b| {
        b.iter_batched(
            || {
                let mut sys = ActorSystem::new();
                let n = Arc::new(AtomicU64::new(0));
                let sink = sys.spawn("sink", Box::new(Sink(n)));
                sys.bus().subscribe(Topic::Power, &sink);
                sys
            },
            |sys| {
                let msg = power_msg();
                for _ in 0..BATCH {
                    sys.bus().publish(msg.clone());
                }
                sys.shutdown(); // drain: all messages processed
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("actor_pipeline_2_stages", |b| {
        b.iter_batched(
            || {
                let mut sys = ActorSystem::new();
                let n = Arc::new(AtomicU64::new(0));
                let relay = sys.spawn("relay", Box::new(Relay));
                let sink = sys.spawn("sink", Box::new(Sink(n)));
                sys.bus().subscribe(Topic::Power, &relay);
                sys.bus().subscribe(Topic::Aggregate, &sink);
                sys
            },
            |sys| {
                let msg = power_msg();
                for _ in 0..BATCH {
                    sys.bus().publish(msg.clone());
                }
                sys.shutdown();
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("mailbox_send_only", |b| {
        let mut sys = ActorSystem::new();
        let n = Arc::new(AtomicU64::new(0));
        let sink = sys.spawn("sink", Box::new(Sink(n)));
        let msg = power_msg();
        b.iter(|| {
            for _ in 0..BATCH {
                sink.send(msg.clone());
            }
        });
        sys.shutdown();
    });

    group.finish();
}

criterion_group!(benches, bench_bus_publish);
criterion_main!(benches);
