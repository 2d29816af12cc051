//! Property tests of the session layer's content addressing, plus the
//! cache-transparency guarantee: a replay served from the cache is
//! bit-identical to one that built everything from scratch, for all three
//! engines.

use ovlsim_apps::ProblemClass;
use ovlsim_lab::Engine;
use ovlsim_session::{PerturbSpec, PlatformSpec, ReplayRequest, Session, TraceSource};
use ovlsim_tracer::OverlapMode;
use proptest::prelude::*;

/// Lowercase identifier-ish strings (the vendored proptest has no regex
/// strategies).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 1..13)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii lowercase"))
}

/// Arbitrary printable text, for inline-trace sources.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..64)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn opt_count_strategy() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0usize..64).prop_map(Some)]
}

fn class_strategy() -> impl Strategy<Value = ProblemClass> {
    prop_oneof![
        Just(ProblemClass::S),
        Just(ProblemClass::W),
        Just(ProblemClass::A),
        Just(ProblemClass::B),
    ]
}

fn mode_strategy() -> impl Strategy<Value = Option<OverlapMode>> {
    prop_oneof![
        Just(None),
        Just(Some(OverlapMode::linear())),
        Just(Some(OverlapMode::real())),
    ]
}

fn generated_strategy() -> impl Strategy<Value = TraceSource> {
    (
        name_strategy(),
        class_strategy(),
        opt_count_strategy(),
        opt_count_strategy(),
        mode_strategy(),
    )
        .prop_map(
            |(app, class, ranks, iterations, mode)| TraceSource::Generated {
                app,
                class,
                ranks,
                iterations,
                mode,
            },
        )
}

fn source_strategy() -> impl Strategy<Value = TraceSource> {
    prop_oneof![
        text_strategy().prop_map(|dim| TraceSource::Text { dim }),
        generated_strategy(),
    ]
}

proptest! {
    /// Equal inputs hash equal: the key is a pure function of the
    /// source's content.
    #[test]
    fn equal_sources_key_equal(source in source_strategy()) {
        let copy = source.clone();
        prop_assert_eq!(source.key(), copy.key());
    }

    /// Perturbing any single field of a generated descriptor changes the
    /// key — no two distinct simulations can share an artifact.
    #[test]
    fn each_field_perturbation_changes_the_key(
        source in generated_strategy(),
        field in 0usize..5,
    ) {
        let TraceSource::Generated { app, class, ranks, iterations, mode } = source.clone()
        else { unreachable!("generated_strategy only yields Generated") };
        let mutated = match field {
            0 => TraceSource::Generated {
                app: format!("{app}x"), class, ranks, iterations, mode,
            },
            1 => {
                let class = match class {
                    ProblemClass::S => ProblemClass::W,
                    ProblemClass::W => ProblemClass::A,
                    ProblemClass::A => ProblemClass::B,
                    ProblemClass::B => ProblemClass::S,
                };
                TraceSource::Generated { app, class, ranks, iterations, mode }
            }
            2 => TraceSource::Generated {
                app, class,
                ranks: Some(ranks.map_or(0, |r| r + 1)),
                iterations, mode,
            },
            3 => TraceSource::Generated {
                app, class, ranks,
                iterations: Some(iterations.map_or(0, |i| i + 1)),
                mode,
            },
            _ => TraceSource::Generated {
                app, class, ranks, iterations,
                mode: match mode {
                    None => Some(OverlapMode::linear()),
                    Some(_) => None,
                },
            },
        };
        prop_assert!(source.key() != mutated.key());
    }

    /// Text sources key by content: different bytes, different key.
    #[test]
    fn text_sources_key_by_content(a in text_strategy(), b in text_strategy()) {
        let ka = TraceSource::Text { dim: a.clone() }.key();
        let kb = TraceSource::Text { dim: b.clone() }.key();
        prop_assert_eq!(ka == kb, a == b);
    }
}

/// A cache-hit replay must be bit-identical to a cache-miss replay, for
/// every engine: the cache is purely an evaluation-order optimization and
/// may never change a result.
#[test]
fn cache_hit_replay_is_bit_identical_to_cache_miss() {
    let source = TraceSource::Generated {
        app: "sweep3d".to_string(),
        class: ProblemClass::S,
        ranks: Some(4),
        iterations: Some(2),
        mode: Some(OverlapMode::linear()),
    };
    for engine in [Engine::Compiled, Engine::Naive] {
        let req = ReplayRequest {
            source: source.clone(),
            platform: PlatformSpec::default(),
            perturb: PerturbSpec::default(),
            engine,
        };
        // Fresh session: everything is a miss.
        let miss = Session::with_threads(1).replay(&req).unwrap();
        // Warmed session: the second replay is served from the cache.
        let warmed = Session::with_threads(1);
        warmed.replay(&req).unwrap();
        let before = warmed.stats();
        let hit = warmed.replay(&req).unwrap();
        let after = warmed.stats();
        assert!(
            after.traces.hits > before.traces.hits,
            "second {engine:?} replay did not hit the trace cache"
        );
        assert_eq!(after.traces.builds, before.traces.builds);
        assert_eq!(
            miss, hit,
            "{engine:?} cache-hit replay diverged from cache-miss"
        );
        assert_eq!(miss.to_json(), hit.to_json());
    }
}

/// Both engines agree through the session layer too (they are
/// already cross-checked at the simulator level; this pins the session
/// plumbing feeding them the same artifacts).
#[test]
fn engines_agree_through_the_session() {
    let session = Session::with_threads(1);
    let mut totals = Vec::new();
    for engine in [Engine::Compiled, Engine::Naive] {
        let req = ReplayRequest {
            source: TraceSource::Generated {
                app: "nas-cg".to_string(),
                class: ProblemClass::S,
                ranks: Some(4),
                iterations: Some(2),
                mode: None,
            },
            platform: PlatformSpec::default(),
            perturb: PerturbSpec::default(),
            engine,
        };
        let resp = session.replay(&req).unwrap();
        totals.push((resp.total, resp.rank_finish.clone()));
    }
    assert_eq!(totals[0], totals[1]);
    // One trace, one index, one compiled program across both.
    assert_eq!(session.stats().compiles(), 1);
    assert_eq!(session.stats().indexes.builds, 1);
}
