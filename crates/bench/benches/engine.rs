//! Micro-benchmark for the discrete-event kernel: the naive reference
//! engine's hot path is schedule/pop on the event queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovlsim_core::Time;
use ovlsim_engine::EventQueue;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for n in [1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    // Pseudo-random but deterministic times.
                    let t = Time::from_ns(((i as u64).wrapping_mul(2654435761)) % 1_000_000);
                    q.schedule(t, i);
                }
                let mut sum = 0usize;
                while let Some((_, e)) = q.pop() {
                    sum += e;
                }
                black_box(sum)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
