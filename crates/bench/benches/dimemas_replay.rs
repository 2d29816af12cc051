//! Replay-throughput benchmarks: how fast the Dimemas substrate
//! reconstructs time behaviour (records/second), for original and
//! overlapped traces — and how the production executor (compiled
//! programs, calendar event store, per-node transport pumps)
//! compares to the pre-optimization reference engine kept in
//! `ovlsim_dimemas::replay_naive`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ovlsim_apps::{calibration::reference_platform, NasBt, Sweep3d};
use ovlsim_core::{CompiledTrace, TraceIndex};
use ovlsim_dimemas::{replay_naive, Simulator};
use ovlsim_tracer::TracingSession;
use std::hint::black_box;

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    let platform = reference_platform();

    let bt = NasBt::builder()
        .ranks(16)
        .iterations(2)
        .build()
        .expect("valid NAS-BT");
    let bundle = TracingSession::new(&bt).run().expect("traces");
    let original = bundle.original().clone();
    let overlapped = bundle.overlapped_linear();

    group.throughput(Throughput::Elements(original.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new("nas_bt_original", original.total_records()),
        &original,
        |b, trace| {
            let sim = Simulator::new(platform.clone());
            b.iter(|| black_box(sim.run(trace).expect("replays")));
        },
    );
    group.throughput(Throughput::Elements(overlapped.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new("nas_bt_overlapped", overlapped.total_records()),
        &overlapped,
        |b, trace| {
            let sim = Simulator::new(platform.clone());
            b.iter(|| black_box(sim.run(trace).expect("replays")));
        },
    );

    // The compiled sweep hot path: validate + index + compile once, then
    // execute the flat SoA program per point. This is what sweeps and the
    // iso-bisection pay after the trace-compilation layer.
    let index = TraceIndex::build(&overlapped).expect("valid trace");
    let program = CompiledTrace::compile(&overlapped, &index).expect("compiles");
    group.throughput(Throughput::Elements(overlapped.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new("nas_bt_overlapped_compiled", overlapped.total_records()),
        &overlapped,
        |b, _trace| {
            let sim = Simulator::new(platform.clone());
            b.iter(|| black_box(sim.run_compiled(&program).expect("replays")));
        },
    );

    // Pre-optimization baseline: BTreeMap channels, BTreeSet wait groups,
    // revalidation per run (the seed's only entry point).
    group.throughput(Throughput::Elements(overlapped.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new("nas_bt_overlapped_naive", overlapped.total_records()),
        &overlapped,
        |b, trace| {
            b.iter(|| black_box(replay_naive(&platform, trace).expect("replays")));
        },
    );

    // Hierarchical platform: the same trace packed 4 ranks per node, so a
    // large share of the messages takes the intra-node fast path while the
    // rest contends for shared NICs. Measures the node-aware routing cost
    // on the compiled hot path.
    let multicore = ovlsim_apps::calibration::multicore_platform(4);
    group.throughput(Throughput::Elements(overlapped.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new(
            "nas_bt_overlapped_multicore_compiled",
            overlapped.total_records(),
        ),
        &overlapped,
        |b, _trace| {
            let sim = Simulator::new(multicore.clone());
            b.iter(|| black_box(sim.run_compiled(&program).expect("replays")));
        },
    );

    let sweep = Sweep3d::builder().ranks(16).build().expect("valid Sweep3D");
    let bundle = TracingSession::new(&sweep).run().expect("traces");
    let overlapped = bundle.overlapped_linear();
    group.throughput(Throughput::Elements(overlapped.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new("sweep3d_overlapped", overlapped.total_records()),
        &overlapped,
        |b, trace| {
            let sim = Simulator::new(platform.clone());
            b.iter(|| black_box(sim.run(trace).expect("replays")));
        },
    );
    group.throughput(Throughput::Elements(overlapped.total_records() as u64));
    group.bench_with_input(
        BenchmarkId::new("sweep3d_overlapped_naive", overlapped.total_records()),
        &overlapped,
        |b, trace| {
            b.iter(|| black_box(replay_naive(&platform, trace).expect("replays")));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
