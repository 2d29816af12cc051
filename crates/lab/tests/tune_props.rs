//! Property tests for the auto-tuner: trajectories are byte-identical
//! across worker counts for any seed and budget, the winning plan replays
//! bit-identically on the compiled and naive engines, and a candidate's
//! program, linked from ranks lowered one by one and carried along a
//! chain of mutations, equals the program compiled from its materialized
//! trace.

use std::sync::Arc;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::{ProblemClass, Synthetic};
use ovlsim_core::{Bandwidth, CompiledTrace, Platform};
use ovlsim_dimemas::{replay_naive, Simulator};
use ovlsim_lab::{
    run_tune_threaded, ArtifactPipeline, DirectPipeline, Engine, EngineInput, LoweredPlan,
    TuneOptions,
};
use ovlsim_tracer::{
    ChannelTuning, OverlapPlan, PatternSource, TraceBundle, TracingSession, TUNING_SCALE,
};
use proptest::prelude::*;

/// Two small bundles to draw candidates from: a synthetic ring with an
/// all-reduce, and a cut-down Sweep3D wavefront.
fn bundles() -> Vec<Arc<TraceBundle>> {
    let ring = Synthetic::builder()
        .ranks(3)
        .iterations(2)
        .allreduce_bytes(Some(64))
        .build()
        .expect("valid synthetic app");
    let overrides = AppOverrides {
        ranks: Some(4),
        iterations: Some(1),
    };
    vec![
        Arc::new(TracingSession::new(&ring).run().expect("traces")),
        DirectPipeline
            .bundle("sweep3d", ProblemClass::S, overrides)
            .expect("traces"),
    ]
}

/// The tune campaign's comm-bound point: 5 us latency, 1e8 B/s.
fn platform() -> Platform {
    ovlsim_apps::calibration::reference_platform()
        .with_bandwidth(Bandwidth::from_bytes_per_sec(1e8).expect("valid bandwidth"))
}

/// The program of `plan`'s materialized trace.
fn materialized(bundle: &TraceBundle, plan: &OverlapPlan) -> CompiledTrace {
    let ts = bundle.overlapped_planned(plan).expect("plan synthesizes");
    CompiledTrace::build(&ts).expect("synthesized trace is valid")
}

/// A candidate's program, linked from every rank lowered on its own,
/// equals `build` of its materialized trace, and replays exactly as the
/// naive engine replays the trace.
fn check_candidate(bundle: &TraceBundle, plan: &OverlapPlan) -> Result<(), TestCaseError> {
    let prog = LoweredPlan::lower(bundle, plan)
        .program(bundle)
        .expect("plan lowers");
    prop_assert_eq!(&prog, &materialized(bundle, plan));
    let platform = platform();
    let compiled = Simulator::new(platform.clone())
        .run_compiled(&prog)
        .expect("compiled replays");
    let ts = bundle.overlapped_planned(plan).expect("plan synthesizes");
    prop_assert_eq!(
        compiled,
        replay_naive(&platform, &ts).expect("naive replays")
    );
    Ok(())
}

fn arb_tuning() -> impl Strategy<Value = ChannelTuning> {
    (
        any::<bool>(),
        0u32..7,
        0..TUNING_SCALE + 1,
        0..TUNING_SCALE + 1,
    )
        .prop_map(|(enabled, log_chunks, early, late)| ChannelTuning {
            enabled,
            chunks: 1 << log_chunks,
            early,
            late,
        })
}

/// A random plan over a bundle's chunkable channels: pattern, minimum
/// chunk size, default tuning and a few overrides, each picked by index.
fn arb_plan() -> impl Strategy<Value = (bool, u64, ChannelTuning, Vec<(usize, ChannelTuning)>)> {
    (
        any::<bool>(),
        prop_oneof![Just(1u64), Just(64), Just(256), Just(4096)],
        arb_tuning(),
        proptest::collection::vec((any::<usize>(), arb_tuning()), 0..6),
    )
}

fn plan_for(
    bundle: &TraceBundle,
    (real, min_chunk_bytes, default, overrides): &(
        bool,
        u64,
        ChannelTuning,
        Vec<(usize, ChannelTuning)>,
    ),
) -> OverlapPlan {
    let mut plan = OverlapPlan::uniform_linear();
    if *real {
        plan.pattern = PatternSource::Real;
    }
    plan.min_chunk_bytes = *min_chunk_bytes;
    plan.default = *default;
    let channels = bundle.chunkable_channels();
    for &(pick, tuning) in overrides {
        let (src, dst, tag) = channels[pick % channels.len()];
        plan.set(src, dst, tag, tuning);
    }
    plan
}

/// Every tuning axis at least once on both bundles: both patterns, chunk
/// counts 1 and 64, every early and late level, one channel disabled.
#[test]
fn planned_programs_match_on_every_tuning_axis() {
    for bundle in bundles() {
        let (src, dst, tag) = bundle.chunkable_channels()[0];
        for pattern in [PatternSource::Real, PatternSource::Linear] {
            for chunks in [1, 64] {
                for level in 0..=TUNING_SCALE {
                    let mut plan = OverlapPlan::uniform_linear();
                    plan.pattern = pattern;
                    plan.default = ChannelTuning {
                        enabled: true,
                        chunks,
                        early: level,
                        late: TUNING_SCALE - level,
                    };
                    plan.set(src, dst, tag, ChannelTuning::off());
                    check_candidate(&bundle, &plan).unwrap();
                }
            }
        }
    }
}

/// One step of a mutation chain: `kind` 0 flips the pattern, 1 changes
/// the minimum chunk size, 2 sets the default tuning, anything else sets
/// the tuning of the chunkable channel `pick` selects; `accept` says
/// whether the candidate becomes the incumbent.
fn arb_chain() -> impl Strategy<Value = Vec<(u8, usize, ChannelTuning, bool)>> {
    proptest::collection::vec((0u8..10, any::<usize>(), arb_tuning(), any::<bool>()), 1..8)
}

/// `plan` with one chain step applied.
fn step(
    bundle: &TraceBundle,
    plan: &OverlapPlan,
    &(kind, pick, tuning, _): &(u8, usize, ChannelTuning, bool),
) -> OverlapPlan {
    let mut next = plan.clone();
    match kind {
        0 => {
            next.pattern = match plan.pattern {
                PatternSource::Real => PatternSource::Linear,
                PatternSource::Linear => PatternSource::Real,
            }
        }
        1 => next.min_chunk_bytes = [1, 64, 256, 4096][pick % 4],
        2 => next.default = tuning,
        _ => {
            let channels = bundle.chunkable_channels();
            let (src, dst, tag) = channels[pick % channels.len()];
            next.set(src, dst, tag, tuning);
        }
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tuner's candidate path along random mutation chains with random
    /// acceptance: each candidate is lowered from the incumbent's ranks
    /// (re-lowering only the ranks the plans disagree on, every rank after
    /// a plan-wide change) and its linked program must equal the program
    /// compiled from its materialized trace.
    #[test]
    fn incremental_candidates_equal_compiled_materialized_plans(
        ring in arb_chain(),
        sweep in arb_chain(),
    ) {
        for (bundle, chain) in bundles().iter().zip([ring, sweep]) {
            let mut incumbent = LoweredPlan::lower(bundle, &OverlapPlan::uniform_linear());
            for s in &chain {
                let plan = step(bundle, incumbent.plan(), s);
                let candidate = incumbent.derive(bundle, &plan);
                prop_assert_eq!(
                    &candidate.program(bundle).expect("candidate links"),
                    &materialized(bundle, &plan)
                );
                if s.3 {
                    incumbent = candidate;
                }
            }
        }
    }

    /// Ranks outside the plan diff synthesize the same records under both
    /// plans, for a random plan and a random chain away from it.
    #[test]
    fn ranks_outside_the_plan_diff_synthesize_identical_records(
        base in arb_plan(),
        chain in arb_chain(),
    ) {
        for bundle in bundles() {
            let from = plan_for(&bundle, &base);
            let to = chain.iter().fold(from.clone(), |p, s| step(&bundle, &p, s));
            let rank_count = bundle.original().rank_count();
            let differing = from.differing_ranks(&to, rank_count);
            let (a, b) = (
                bundle.overlapped_planned(&from).expect("synthesizes"),
                bundle.overlapped_planned(&to).expect("synthesizes"),
            );
            for r in (0..rank_count).filter(|r| !differing.contains(r)) {
                prop_assert_eq!(a.ranks()[r].records(), b.ranks()[r].records());
            }
        }
    }

    /// Same seed + budget ⇒ byte-identical trajectory reports no matter
    /// how many workers score the proposals (the `OVLSIM_THREADS=1` vs
    /// parallel guarantee, pinned at the API level so it cannot race on
    /// the process environment).
    #[test]
    fn tune_trajectory_is_byte_identical_across_worker_counts(
        ranks in 2usize..5,
        iterations in 1usize..3,
        seed in any::<u64>(),
        budget in 1usize..10,
    ) {
        let app = Synthetic::builder()
            .ranks(ranks)
            .iterations(iterations)
            .build()
            .expect("valid synthetic app");
        let bundle = TracingSession::new(&app).run().expect("traces");
        let platform = ovlsim_apps::calibration::reference_platform();
        let opts = TuneOptions { budget, seed, ..TuneOptions::default() };

        let seq = run_tune_threaded(&DirectPipeline, &bundle, &platform, &opts, 1)
            .expect("sequential tune");
        for threads in [2usize, 4] {
            let par = run_tune_threaded(&DirectPipeline, &bundle, &platform, &opts, threads)
                .expect("parallel tune");
            prop_assert_eq!(seq.to_json(), par.to_json(),
                "trajectory diverged at {} workers", threads);
            prop_assert_eq!(seq.to_csv(), par.to_csv());
            prop_assert_eq!(&seq.best_plan, &par.best_plan);
        }
    }

    /// The tuned winner is a real plan: synthesizing its trace and
    /// replaying it on the compiled and naive engines gives bit-identical
    /// results, matching the makespan the search reported.
    #[test]
    fn tuned_plan_replays_bit_identically_compiled_vs_naive(
        ranks in 2usize..5,
        seed in any::<u64>(),
        budget in 2usize..8,
    ) {
        let app = Synthetic::builder()
            .ranks(ranks)
            .iterations(1)
            .build()
            .expect("valid synthetic app");
        let bundle = TracingSession::new(&app).run().expect("traces");
        let platform = ovlsim_apps::calibration::reference_platform();
        let opts = TuneOptions { budget, seed, ..TuneOptions::default() };
        let report = run_tune_threaded(&DirectPipeline, &bundle, &platform, &opts, 1)
            .expect("tunes");
        let plan = report.best_plan.as_ref().expect("bundle search has a plan");

        let ts = Arc::new(bundle.overlapped_planned(plan).expect("synthesizes"));
        let input = EngineInput::build(
            &DirectPipeline,
            ts,
            &[Engine::Compiled, Engine::Naive],
            false,
        )
        .expect("builds");
        let compiled = input.replay(Engine::Compiled, &platform).expect("compiled");
        let naive = input.replay(Engine::Naive, &platform).expect("naive");
        prop_assert_eq!(&compiled, &naive, "engines disagree on the tuned plan");
        prop_assert_eq!(compiled.total_time(), report.best,
            "replay does not reproduce the searched makespan");
    }

    /// Random plans on both bundles: the candidate path (every rank lowered
    /// on its own, then linked) agrees with the materialized path and the
    /// naive engine.
    #[test]
    fn planned_program_equals_compiled_materialized_plan(
        ring in arb_plan(),
        sweep in arb_plan(),
    ) {
        for (bundle, plan) in bundles().iter().zip([ring, sweep]) {
            check_candidate(bundle, &plan_for(bundle, &plan))?;
        }
    }
}
