//! Overlapped-variant programs lowered straight from a bundle, rank by
//! rank, against the programs compiled from the materialized variants,
//! and the session's keys for variants of bundles it did not trace.

use std::sync::Arc;

use ovlsim_apps::registry::{build_app, AppOverrides, APP_NAMES};
use ovlsim_apps::ProblemClass;
use ovlsim_core::{CompiledTrace, TraceIndex};
use ovlsim_lab::{parse_mode, ArtifactPipeline, DirectPipeline};
use ovlsim_session::Session;
use ovlsim_tracer::{ChunkingPolicy, OverlapMode, TraceBundle, TracingSession};

const MODES: [&str; 4] = ["linear", "real", "linear-earlysend", "linear-latewait"];

fn modes() -> impl Iterator<Item = OverlapMode> {
    MODES
        .iter()
        .map(|m| parse_mode(m).expect("a campaign mode"))
}

fn traced(app: &str, class: ProblemClass, policy: Option<&ChunkingPolicy>) -> TraceBundle {
    let app = build_app(app, class, AppOverrides::default()).expect("a paper app");
    let session = TracingSession::new(app.as_ref());
    match policy {
        Some(policy) => session.policy(policy.clone()),
        None => session,
    }
    .run()
    .expect("traces")
}

/// The program of `bundle`'s `mode` variant, materialized, indexed and
/// compiled.
fn materialized(bundle: &TraceBundle, mode: OverlapMode) -> CompiledTrace {
    let trace = bundle
        .overlapped_with(mode, bundle.policy())
        .expect("the variant validates");
    let index = TraceIndex::build(&trace).expect("the variant indexes");
    CompiledTrace::compile(&trace, &index).expect("the variant compiles")
}

/// Every paper app at S and A under `policy` (`None`: the default, traced
/// through the session): the program lowered from the bundle equals the
/// compiled materialized variant, and the session's program equals the
/// cacheless pipeline's.
fn check_policy(policy: Option<ChunkingPolicy>) {
    let session = Session::with_threads(1);
    for app in APP_NAMES {
        for class in [ProblemClass::S, ProblemClass::A] {
            let bundle = match &policy {
                Some(policy) => Arc::new(traced(app, class, Some(policy))),
                None => session
                    .bundle(app, class, AppOverrides::default())
                    .expect("traces"),
            };
            for mode in modes() {
                let what = format!("{app} {class} {}", mode.label());
                let direct = DirectPipeline
                    .variant_program(&bundle, mode)
                    .expect("lowers");
                assert_eq!(*direct, materialized(&bundle, mode), "{what}");
                let cached = session.variant_program(&bundle, mode).expect("lowers");
                assert_eq!(cached, direct, "{what}");
            }
        }
    }
    let programs = session.stats().programs;
    match policy {
        // Each of the 48 programs was built once and kept, and a warm
        // lookup is a hit.
        None => {
            assert_eq!(programs.builds, 48);
            let bundle = session
                .bundle("nas-bt", ProblemClass::S, AppOverrides::default())
                .unwrap();
            let mode = OverlapMode::linear();
            let first = session.variant_program(&bundle, mode).unwrap();
            let again = session
                .load_variant_program("nas-bt", ProblemClass::S, AppOverrides::default(), mode)
                .expect("kept");
            assert!(Arc::ptr_eq(&first, &again));
        }
        // A bundle the session did not trace keeps nothing.
        Some(_) => assert_eq!(programs.builds, 0),
    }
}

#[test]
fn mode_programs_match_under_the_default_policy() {
    check_policy(None);
}

#[test]
fn mode_programs_match_in_one_chunk() {
    check_policy(Some(ChunkingPolicy::fixed_count(1)));
}

#[test]
fn mode_programs_match_in_fixed_size_chunks() {
    check_policy(Some(ChunkingPolicy::fixed_bytes(4096)));
}

#[test]
fn mode_programs_match_in_doubling_chunks() {
    check_policy(Some(ChunkingPolicy::doubling(512)));
}

/// Two bundles of one app with equal original traces but different
/// chunking policies: a session that traced neither must not hand the
/// second the first one's overlapped variant or program.
#[test]
fn foreign_bundles_with_equal_originals_get_their_own_variants() {
    let a = traced("sweep3d", ProblemClass::S, None);
    let b = traced(
        "sweep3d",
        ProblemClass::S,
        Some(&ChunkingPolicy::fixed_count(2)),
    );
    assert_eq!(a.original(), b.original());
    let mode = OverlapMode::linear();
    let session = Session::with_threads(1);
    for bundle in [&a, &b] {
        let trace = session.variant(bundle, Some(mode)).unwrap();
        assert_eq!(trace, DirectPipeline.variant(bundle, Some(mode)).unwrap());
        let prog = session.variant_program(bundle, mode).unwrap();
        assert_eq!(prog, DirectPipeline.variant_program(bundle, mode).unwrap());
    }
    assert_ne!(
        session.variant(&a, Some(mode)).unwrap(),
        session.variant(&b, Some(mode)).unwrap()
    );
    // The original depends on the records alone, so it is kept once.
    let originals = [&a, &b].map(|bundle| session.variant(bundle, None).unwrap());
    assert!(Arc::ptr_eq(&originals[0], &originals[1]));
}
