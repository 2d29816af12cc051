//! One auto-tuner candidate's work before replay, on NAS-BT class S
//! (16 ranks): synthesizing and lowering every rank of a plan and linking
//! them, against re-lowering only the two ranks a one-channel mutation
//! changes and linking them with the incumbent's other ranks. Both give
//! the same program; the tuner takes the second path for every
//! candidate.

use criterion::{criterion_group, criterion_main, Criterion};
use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_lab::{ArtifactPipeline, DirectPipeline, LoweredPlan};
use ovlsim_tracer::{ChannelTuning, OverlapPlan};
use std::hint::black_box;

fn bench_candidate(c: &mut Criterion) {
    let bundle = DirectPipeline
        .bundle("nas-bt", ProblemClass::S, AppOverrides::default())
        .expect("traces");
    let uniform = OverlapPlan::uniform_linear();
    let (src, dst, tag) = bundle.chunkable_channels()[0];
    let mut candidate = uniform.clone();
    candidate.set(
        src,
        dst,
        tag,
        ChannelTuning {
            chunks: 8,
            ..uniform.default
        },
    );
    let incumbent = LoweredPlan::lower(&bundle, &uniform);
    assert_eq!(
        incumbent
            .derive(&bundle, &candidate)
            .program(&bundle)
            .expect("links"),
        LoweredPlan::lower(&bundle, &candidate)
            .program(&bundle)
            .expect("links"),
        "both paths give the same program"
    );

    let mut group = c.benchmark_group("tune_candidate");
    group.bench_function("nas_bt_s_lower_every_rank", |b| {
        b.iter(|| {
            black_box(
                LoweredPlan::lower(&bundle, &candidate)
                    .program(&bundle)
                    .expect("links"),
            )
        });
    });
    group.bench_function("nas_bt_s_relower_one_channel", |b| {
        b.iter(|| {
            black_box(
                incumbent
                    .derive(&bundle, &candidate)
                    .program(&bundle)
                    .expect("links"),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_candidate);
criterion_main!(benches);
