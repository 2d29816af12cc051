//! Property tests for the auto-tuner: trajectories are byte-identical
//! across worker counts for any seed and budget, and the winning plan
//! replays bit-identically on the compiled and naive engines.

use std::sync::Arc;

use ovlsim_apps::Synthetic;
use ovlsim_lab::{run_tune_threaded, DirectPipeline, Engine, EngineInput, TuneOptions};
use ovlsim_tracer::TracingSession;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

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
}
