//! Records a machine-readable performance snapshot of the replay hot path
//! and the parallel sweep driver.
//!
//! Usage: `cargo run --release -p ovlsim-bench --bin perf_snapshot [label]`
//!
//! Writes `BENCH_<label>.json` (default label `snapshot`) in the current
//! directory with:
//!
//! * replay throughput (records/s) on a large synthetic trace for the
//!   naive reference engine, the validating entry point (index, compile,
//!   replay) and the compiled (flat SoA program, sweep) path, plus their
//!   speedups over naive,
//! * perturbed replay throughput (seeded noise + straggler + link
//!   degradation/jitter) on the same compiled program, plus a hot-path
//!   gate: an epsilon-magnitude model (perturbation code paths live,
//!   every draw evaluating to the clean duration, replay asserted
//!   bit-identical to clean) must cost <10% over the clean compiled
//!   replay — isolating the machinery cost from the legitimately
//!   different schedule a really-noisy machine simulates,
//! * replay throughput on an intra-node-heavy scenario (the same trace
//!   packed 4 ranks per node under a constrained bus), so the node-aware
//!   routing path and the compiled executor's global pump are tracked by
//!   every snapshot, as a speedup over naive,
//! * compiled replay throughput on a contention-heavy NAS-BT corpus (196
//!   ranks, capacity-1 links), clean and perturbed, asserted bit-identical
//!   to the naive engine and reported as a speedup over it — the number
//!   `ci/check_snapshot.py` floors,
//! * wall-clock of a multi-point bandwidth sweep at 1/2/4 worker threads
//!   and the resulting scaling factors, with a byte-identity check between
//!   the sequential and parallel results.
//!
//! Every reported speedup is asserted finite and positive before the
//! snapshot is written — a zero/NaN/∞ ratio means a timer or engine
//! regression, and CI treats it as a failure, not a data point.
//!
//! Snapshots are committed next to the README so perf regressions are
//! visible in review diffs; see README.md §Benchmarks.

use std::fmt::Write as _;
use std::time::Instant;

use ovlsim_apps::{calibration::reference_platform, NasBt};
use ovlsim_core::{CompiledTrace, TraceIndex, TraceSet};
use ovlsim_dimemas::{replay_naive, Simulator};
use ovlsim_lab::{log_bandwidths, sweep_traces_threaded};
use ovlsim_tracer::{ChunkingPolicy, TracingSession};

/// Times `f` over enough iterations to fill ~0.5 s, returning the mean
/// seconds per call.
fn time_call<F: FnMut()>(mut f: F) -> f64 {
    f(); // warmup
    let probe = Instant::now();
    f();
    let one = probe.elapsed().as_secs_f64();
    let iters = (0.5 / one.max(1e-9)).clamp(1.0, 10_000.0) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Times `a` and `b` in three interleaved rounds and returns each one's
/// best mean seconds per call, so shared-runner noise that slows one
/// round cannot skew the ratio between them.
fn best_of_3<A: FnMut(), B: FnMut()>(mut a: A, mut b: B) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        best_a = best_a.min(time_call(&mut a));
        best_b = best_b.min(time_call(&mut b));
    }
    (best_a, best_b)
}

fn main() {
    let label = std::env::args().nth(1).unwrap_or_else(|| "snapshot".into());
    let platform = reference_platform();

    // The "large synthetic trace": NAS-BT with an aggressive chunk count,
    // so the overlapped variant carries a deep isend/waitall fan-out.
    let app = NasBt::builder()
        .ranks(16)
        .iterations(4)
        .build()
        .expect("valid NAS-BT");
    let bundle = TracingSession::new(&app)
        .policy(ChunkingPolicy::fixed_count(16).with_min_chunk_bytes(512))
        .run()
        .expect("traces");
    let trace: &TraceSet = &bundle.overlapped_linear();
    let records = trace.total_records() as f64;

    let naive_s = time_call(|| {
        std::hint::black_box(replay_naive(&platform, trace).expect("replays"));
    });
    let sim = Simulator::new(platform.clone());
    let run_s = time_call(|| {
        std::hint::black_box(sim.run(trace).expect("replays"));
    });
    let index = TraceIndex::build(trace).expect("valid trace");

    // The compiled path: lower once into the flat SoA program
    // (pre-converted burst durations, pre-resolved request slots), then
    // execute it per point. The result must stay bit-identical to the
    // naive oracle.
    let program = CompiledTrace::compile(trace, &index).expect("compiles");
    assert_eq!(
        sim.run_compiled(&program).expect("replays"),
        replay_naive(&platform, trace).expect("replays"),
        "compiled replay diverged from the naive oracle"
    );
    let compiled_s = time_call(|| {
        std::hint::black_box(sim.run_compiled(&program).expect("replays"));
    });

    // Perturbed replay: seeded OS noise, a straggler and link
    // degradation/jitter on the *same* compiled program (perturbation is
    // applied at replay time, nothing is recompiled). Its throughput is
    // recorded for tracking, but it is NOT the hot-path gate: a noisy,
    // straggling schedule desynchronizes ranks, which legitimately
    // changes the simulated schedule (more distinct event instants, other
    // contention) — that cost belongs to the simulated machine, not to
    // the perturbation code.
    let model = ovlsim_core::PerturbationModel::new(42)
        .with_noise(0.1)
        .expect("valid noise")
        .with_stragglers(&[3], 1.3)
        .expect("valid stragglers")
        .with_link_degradation(0.1)
        .expect("valid degradation")
        .with_latency_jitter(ovlsim_core::Time::from_ns(200));
    let perturbed = platform.with_perturbation(model);
    let sim_pert = Simulator::new(perturbed.clone());
    assert_eq!(
        sim_pert.run_compiled(&program).expect("replays"),
        replay_naive(&perturbed, trace).expect("replays"),
        "perturbed compiled replay diverged from the naive oracle"
    );
    let perturbed_compiled_s = time_call(|| {
        std::hint::black_box(sim_pert.run_compiled(&program).expect("replays"));
    });

    // Hot-path cost gate: an epsilon-magnitude model keeps the
    // perturbation code paths live — per-burst noise hash, hoisted
    // straggler/node prefactors, per-channel degradation factors — while
    // every draw evaluates to exactly 1.0, so the simulated schedule is
    // bit-identical to clean (asserted below) and the wall-clock delta is
    // pure perturbation machinery. Latency jitter is deliberately absent:
    // even a 1 ps jitter bound breaks arrival-time ties — a
    // (micro-)different schedule, not machinery cost; its per-message
    // draw is covered by the perturbed throughput above. Clean and
    // epsilon-perturbed runs are timed in interleaved pairs and the
    // best-of ratio is gated, which catches a hash landing on the wrong
    // path (per-event rehashing, a lost memo) without flaking on shared
    // 1-CPU runner noise.
    let eps_model = ovlsim_core::PerturbationModel::new(42)
        .with_noise(1e-300)
        .expect("valid noise")
        .with_stragglers(&[u32::MAX], 1.5)
        .expect("valid stragglers")
        .with_node_speeds(&[1.0])
        .expect("valid node speeds")
        .with_link_degradation(1e-300)
        .expect("valid degradation");
    let sim_eps = Simulator::new(platform.with_perturbation(eps_model));
    assert_eq!(
        sim_eps.run_compiled(&program).expect("replays"),
        sim.run_compiled(&program).expect("replays"),
        "epsilon-perturbed replay must be bit-identical to clean \
         (otherwise the gate times a different schedule)"
    );
    let mut hotpath_overhead = f64::INFINITY;
    for _ in 0..3 {
        let clean = time_call(|| {
            std::hint::black_box(sim.run_compiled(&program).expect("replays"));
        });
        let eps = time_call(|| {
            std::hint::black_box(sim_eps.run_compiled(&program).expect("replays"));
        });
        hotpath_overhead = hotpath_overhead.min(eps / clean);
    }

    // Intra-node-heavy scenario: same trace, 4 ranks per node under a
    // constrained bus — most NAS-BT neighbour traffic becomes same-node and
    // takes the shared-memory path, exercising the node-aware routing. The
    // naive engine must agree bit for bit on this platform too.
    let multicore = ovlsim_core::Platform::builder()
        .latency(platform.latency())
        .bandwidth(platform.bandwidth())
        .buses(Some(4))
        .ranks_per_node(4)
        .expect("positive packing")
        .build();
    let sim_mc = Simulator::new(multicore.clone());
    assert_eq!(
        sim_mc.run_compiled(&program).expect("replays"),
        replay_naive(&multicore, trace).expect("replays"),
        "compiled replay diverged from the naive oracle on the multicore platform"
    );
    let (multicore_naive_s, multicore_compiled_s) = best_of_3(
        || {
            std::hint::black_box(replay_naive(&multicore, trace).expect("replays"));
        },
        || {
            std::hint::black_box(sim_mc.run_compiled(&program).expect("replays"));
        },
    );

    // Contention corpus: the compiled executor's per-pair waiter queues
    // pay off where full-FIFO rescans hurt, so the corpus is a
    // contention-heavy NAS-BT (196 ranks on capacity-1 links piles the
    // waiter queues deep). Bit-identity against the naive
    // engine is asserted clean and perturbed before anything is timed,
    // and compiled and naive are timed in interleaved best-of-3 pairs so
    // shared-runner noise cannot flake the ratio.
    let cont_app = NasBt::builder()
        .ranks(196)
        .iterations(1)
        .build()
        .expect("valid NAS-BT");
    let cont_bundle = TracingSession::new(&cont_app)
        .policy(ChunkingPolicy::fixed_count(16).with_min_chunk_bytes(512))
        .run()
        .expect("traces");
    let cont_trace: &TraceSet = &cont_bundle.overlapped_linear();
    let cont_records = cont_trace.total_records() as f64;
    let cont_index = TraceIndex::build(cont_trace).expect("valid trace");
    let cont_program = CompiledTrace::compile(cont_trace, &cont_index).expect("compiles");
    let cont_perturbed = Simulator::new(perturbed.clone());
    for (sim, platform, what) in [
        (&sim, &platform, "clean"),
        (&cont_perturbed, &perturbed, "perturbed"),
    ] {
        assert_eq!(
            sim.run_compiled(&cont_program).expect("replays"),
            replay_naive(platform, cont_trace).expect("replays"),
            "{what} contention replay diverged from the naive oracle"
        );
    }
    let (cont_naive_s, cont_s) = best_of_3(
        || {
            std::hint::black_box(replay_naive(&platform, cont_trace).expect("replays"));
        },
        || {
            std::hint::black_box(sim.run_compiled(&cont_program).expect("replays"));
        },
    );
    let (cont_perturbed_naive_s, cont_perturbed_s) = best_of_3(
        || {
            std::hint::black_box(replay_naive(&perturbed, cont_trace).expect("replays"));
        },
        || {
            std::hint::black_box(cont_perturbed.run_compiled(&cont_program).expect("replays"));
        },
    );

    // Session-layer cache overhead: replaying through a warmed
    // `ovlsim_session::Session` (content-keyed lookups for trace, index
    // and compiled program, then `run_compiled`) must cost within 5% of
    // calling `run_compiled` directly on the same program. Clean and
    // session-routed runs are timed in interleaved best-of-3 pairs, same
    // as the perturbation hot-path gate, so shared-runner noise cannot
    // flake the ratio.
    let session = ovlsim_session::Session::with_threads(1);
    let session_req = ovlsim_session::ReplayRequest {
        source: ovlsim_session::TraceSource::Generated {
            app: "nas-bt".to_string(),
            class: ovlsim_apps::ProblemClass::A,
            ranks: Some(16),
            iterations: Some(4),
            mode: Some(ovlsim_tracer::OverlapMode::linear()),
        },
        platform: ovlsim_session::PlatformSpec::default(),
        perturb: ovlsim_session::PerturbSpec::default(),
        engine: ovlsim_lab::Engine::Compiled,
    };
    let warm = session.replay(&session_req).expect("session replays");
    let strace = session.trace(&session_req.source).expect("cached trace");
    let sindex = ovlsim_lab::ArtifactPipeline::index(&session, &strace).expect("cached index");
    let sprog =
        ovlsim_lab::ArtifactPipeline::compiled(&session, &strace, &sindex).expect("cached program");
    assert_eq!(
        session.stats().compiles(),
        1,
        "a warmed session must have compiled its one trace exactly once"
    );
    let session_platform = ovlsim_session::PlatformSpec::default()
        .build()
        .expect("default platform");
    let ssim = Simulator::new(session_platform);
    let direct = ssim.run_compiled(&sprog).expect("replays");
    assert_eq!(
        (direct.total_time(), direct.rank_finish()),
        (warm.total, warm.rank_finish.as_slice()),
        "session-routed replay diverged from direct run_compiled"
    );
    let mut session_cached_overhead = f64::INFINITY;
    for _ in 0..3 {
        let direct_s = time_call(|| {
            std::hint::black_box(ssim.run_compiled(&sprog).expect("replays"));
        });
        let cached_s = time_call(|| {
            std::hint::black_box(session.replay(&session_req).expect("session replays"));
        });
        session_cached_overhead = session_cached_overhead.min(cached_s / direct_s);
    }

    // Persistent-cache payoff gate: decoding a cached `.ovlb` artifact
    // must be cheaper than rebuilding it from the trace (index build +
    // compile for programs). If decode ever costs more than the work it
    // replaces, the disk cache is a pessimization and the snapshot fails
    // rather than commit it as a baseline. Both decodes are asserted
    // bit-identical to the live artifacts first — a fast-but-wrong codec
    // must never pass the gate.
    let trace_blob = ovlsim_core::codec::encode_trace_set(trace);
    let prog_blob = ovlsim_core::codec::encode_compiled_trace(&program);
    assert_eq!(
        &ovlsim_core::codec::decode_trace_set(&trace_blob).expect("decodes"),
        trace,
        "trace round-trip through the codec diverged"
    );
    assert_eq!(
        ovlsim_core::codec::decode_compiled_trace(&prog_blob).expect("decodes"),
        program,
        "program round-trip through the codec diverged"
    );
    let decode_trace_s = time_call(|| {
        std::hint::black_box(ovlsim_core::codec::decode_trace_set(&trace_blob).expect("decodes"));
    });
    let decode_prog_s = time_call(|| {
        std::hint::black_box(
            ovlsim_core::codec::decode_compiled_trace(&prog_blob).expect("decodes"),
        );
    });
    let rebuild_prog_s = time_call(|| {
        let index = TraceIndex::build(trace).expect("valid trace");
        std::hint::black_box(CompiledTrace::compile(trace, &index).expect("compiles"));
    });
    let disk_cache_payoff = rebuild_prog_s / decode_prog_s;

    // Multi-point sweep scaling. Points chosen so a run takes long enough
    // to measure but the snapshot stays quick. Thread counts are capped at
    // the host's parallelism: measuring 4 workers on a 1-core container
    // would only record scheduler noise.
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let original = bundle.original();
    let bws = log_bandwidths(1.0e6, 1.0e11, 24);
    let mut sweep_secs = Vec::new();
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        if threads > 1 && threads > available {
            break;
        }
        let start = Instant::now();
        let points =
            sweep_traces_threaded(original, trace, &platform, &bws, threads).expect("sweeps");
        sweep_secs.push((threads, start.elapsed().as_secs_f64()));
        match &reference {
            None => reference = Some(points),
            Some(seq) => assert_eq!(
                seq, &points,
                "parallel sweep diverged from sequential at {threads} threads"
            ),
        }
    }

    // Each published ratio is computed exactly once here and used by both
    // the sanity gate and the JSON below, so the gated value is always
    // the published value.
    let sp_run_vs_naive = naive_s / run_s;
    let sp_compiled_vs_naive = naive_s / compiled_s;
    let sp_mc_compiled_vs_naive = multicore_naive_s / multicore_compiled_s;
    let perturbed_overhead = perturbed_compiled_s / compiled_s;
    let sp_contention_vs_naive = cont_naive_s / cont_s;
    let sp_contention_perturbed_vs_naive = cont_perturbed_naive_s / cont_perturbed_s;

    // Sanity gate: every ratio the snapshot publishes must be a real,
    // positive number. A NaN/∞/0 here means a timer returned zero or an
    // engine stopped doing work — fail the snapshot instead of committing
    // a nonsense baseline.
    let speedups = [
        ("run_vs_naive", sp_run_vs_naive),
        ("compiled_vs_naive", sp_compiled_vs_naive),
        ("multicore_compiled_vs_naive", sp_mc_compiled_vs_naive),
        ("contention_vs_naive", sp_contention_vs_naive),
        (
            "contention_perturbed_vs_naive",
            sp_contention_perturbed_vs_naive,
        ),
    ];
    for (what, value) in speedups {
        assert!(
            value.is_finite() && value > 0.0,
            "speedup {what} is {value}: expected a finite, positive ratio"
        );
    }
    assert!(
        perturbed_overhead.is_finite() && perturbed_overhead > 0.0,
        "perturbed overhead is {perturbed_overhead}: expected a finite, positive ratio"
    );
    assert!(
        hotpath_overhead.is_finite() && hotpath_overhead > 0.0,
        "hot-path overhead is {hotpath_overhead}: expected a finite, positive ratio"
    );
    assert!(
        session_cached_overhead.is_finite() && session_cached_overhead > 0.0,
        "session cache overhead is {session_cached_overhead}: expected a finite, positive ratio"
    );
    assert!(
        disk_cache_payoff.is_finite() && disk_cache_payoff > 0.0,
        "disk cache payoff is {disk_cache_payoff}: expected a finite, positive ratio"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(json, "  \"trace\": {{");
    let _ = writeln!(json, "    \"name\": \"{}\",", trace.name());
    let _ = writeln!(json, "    \"ranks\": {},", trace.rank_count());
    let _ = writeln!(json, "    \"records\": {}", trace.total_records());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replay\": {{");
    let _ = writeln!(
        json,
        "    \"naive_records_per_sec\": {:.0},",
        records / naive_s
    );
    let _ = writeln!(
        json,
        "    \"optimized_run_records_per_sec\": {:.0},",
        records / run_s
    );
    let _ = writeln!(json, "    \"speedup_run_vs_naive\": {:.2}", sp_run_vs_naive);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replay_compiled\": {{");
    let _ = writeln!(
        json,
        "    \"records_per_sec\": {:.0},",
        records / compiled_s
    );
    let _ = writeln!(
        json,
        "    \"speedup_vs_naive\": {:.2},",
        sp_compiled_vs_naive
    );
    let _ = writeln!(
        json,
        "    \"multicore_records_per_sec\": {:.0},",
        records / multicore_compiled_s
    );
    let _ = writeln!(
        json,
        "    \"multicore_speedup_vs_naive\": {:.2}",
        sp_mc_compiled_vs_naive
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replay_perturbed\": {{");
    let _ = writeln!(
        json,
        "    \"records_per_sec\": {:.0},",
        records / perturbed_compiled_s
    );
    let _ = writeln!(
        json,
        "    \"overhead_vs_clean\": {:.3},",
        perturbed_overhead
    );
    let _ = writeln!(
        json,
        "    \"hotpath_overhead_vs_clean\": {:.3}",
        hotpath_overhead
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replay_contention\": {{");
    let _ = writeln!(json, "    \"corpus_ranks\": {},", cont_trace.rank_count());
    let _ = writeln!(
        json,
        "    \"corpus_records\": {},",
        cont_trace.total_records()
    );
    let _ = writeln!(
        json,
        "    \"records_per_sec\": {:.0},",
        cont_records / cont_s
    );
    let _ = writeln!(
        json,
        "    \"naive_records_per_sec\": {:.0},",
        cont_records / cont_naive_s
    );
    let _ = writeln!(
        json,
        "    \"speedup_vs_naive\": {:.2},",
        sp_contention_vs_naive
    );
    let _ = writeln!(
        json,
        "    \"perturbed_records_per_sec\": {:.0},",
        cont_records / cont_perturbed_s
    );
    let _ = writeln!(
        json,
        "    \"perturbed_speedup_vs_naive\": {:.2}",
        sp_contention_perturbed_vs_naive
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"session_cache\": {{");
    let _ = writeln!(
        json,
        "    \"cached_replay_overhead_vs_direct\": {:.3},",
        session_cached_overhead
    );
    let _ = writeln!(json, "    \"compiles\": 1");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"disk_cache\": {{");
    let _ = writeln!(
        json,
        "    \"decode_trace_records_per_sec\": {:.0},",
        records / decode_trace_s
    );
    let _ = writeln!(
        json,
        "    \"decode_program_records_per_sec\": {:.0},",
        records / decode_prog_s
    );
    let _ = writeln!(
        json,
        "    \"program_decode_payoff_vs_rebuild\": {:.2}",
        disk_cache_payoff
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!("    \"points\": {}", bws.len()));
    lines.push(format!("    \"available_parallelism\": {available}"));
    for (threads, secs) in &sweep_secs {
        lines.push(format!("    \"wall_secs_{threads}_threads\": {secs:.4}"));
    }
    let base = sweep_secs[0].1;
    for (threads, secs) in &sweep_secs[1..] {
        lines.push(format!(
            "    \"scaling_{threads}_threads\": {:.2}",
            base / secs
        ));
    }
    if available < 4 {
        lines.push(format!(
            "    \"scaling_note\": \"host exposes {available} CPU(s); \
             scaling up to 4 threads needs a >=4-core host (e.g. CI)\""
        ));
    }
    let _ = writeln!(json, "{}", lines.join(",\n"));
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    let path = format!("BENCH_{label}.json");
    std::fs::write(&path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {path}");

    // The budget gates run after the write, so a run that fails one still
    // leaves every number it measured (the CI floor's included); the run
    // fails all the same.
    assert!(
        hotpath_overhead < 1.10,
        "perturbation hot path costs {:.1}% over clean compiled replay (budget: <10%)",
        (hotpath_overhead - 1.0) * 100.0
    );
    assert!(
        session_cached_overhead < 1.05,
        "session-cached replay costs {:.1}% over direct run_compiled (budget: <5%)",
        (session_cached_overhead - 1.0) * 100.0
    );
    assert!(
        disk_cache_payoff > 1.0,
        "decoding a cached program ({decode_prog_s:.6}s) costs more than rebuilding it \
         ({rebuild_prog_s:.6}s): the persistent cache is a pessimization"
    );
}
