//! End-to-end tests of `ovlsim analyze`: golden-file comparison on the
//! committed NAS-BT mini-trace, thread-count byte-identity (mirroring
//! `tests/campaign.rs`), and the acceptance reconciliation — per-channel
//! wait breakdowns must agree with `ReplayResult` makespans bit-exactly,
//! and the top-ranked channel's predicted gain must be consistent with
//! the measured overlap speedup direction.

use std::path::{Path, PathBuf};
use std::process::Command;

use ovlsim::apps::{registry, ProblemClass};
use ovlsim::core::{Platform, Time, TraceIndex};
use ovlsim::dimemas::{parse_trace_set, replay_naive, Simulator};
use ovlsim::lab::Attribution;
use ovlsim::tracer::{OverlapMode, TracingSession};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ovlsim-analyze-test").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The platform `ovlsim analyze` defaults to (250e6 bytes/s, 5 us).
fn default_platform() -> Platform {
    let mut b = Platform::builder();
    b.latency(Time::from_us(5))
        .bandwidth_bytes_per_sec(250e6)
        .unwrap();
    b.build()
}

/// The clean run, and a seeded noisy, straggling, faulty run, reproduce
/// their committed goldens.
#[test]
fn analyze_output_matches_committed_goldens() {
    let perturbed: Vec<&str> = "--seed 42 --noise 0.15 --stragglers 1.5:1 --faults 400:40"
        .split(' ')
        .collect();
    for (goldens, flags) in [("golden", &[][..]), ("golden-noisy", &perturbed[..])] {
        let dir = scratch_dir(goldens);
        let out = Command::new(env!("CARGO_BIN_EXE_ovlsim"))
            .arg("analyze")
            .arg(repo_path("examples/traces/nas-bt-mini.original.dim"))
            .arg("--out")
            .arg(&dir)
            .arg("--csv")
            .args(flags)
            .output()
            .expect("ovlsim runs");
        assert!(out.status.success(), "analyze failed: {out:?}");
        for name in [
            "nas-bt.original.analysis.json",
            "nas-bt.original.analysis.csv",
        ] {
            let golden = std::fs::read(repo_path(&format!("examples/analysis/{goldens}/{name}")))
                .expect("golden is committed");
            let actual = std::fs::read(dir.join(name)).expect("report written");
            assert!(
                golden == actual,
                "{goldens}/{name} drifted from the committed golden (regenerate with \
                 `ovlsim analyze examples/traces/nas-bt-mini.original.dim \
                 --out examples/analysis/{goldens} --csv {}` if the change is intended)",
                flags.join(" ")
            );
        }
    }
}

/// Mirrors the campaign determinism gate: whatever `OVLSIM_THREADS` says,
/// the analysis bytes must not change.
#[test]
fn analyze_is_byte_identical_across_thread_counts() {
    let mut reports = Vec::new();
    for (label, threads) in [("seq", "1"), ("par", "4")] {
        let dir = scratch_dir(label);
        let out = Command::new(env!("CARGO_BIN_EXE_ovlsim"))
            .arg("analyze")
            .arg(repo_path("examples/traces/nas-bt-mini.original.dim"))
            .arg("--out")
            .arg(&dir)
            .arg("--csv")
            .env("OVLSIM_THREADS", threads)
            .output()
            .expect("ovlsim runs");
        assert!(out.status.success(), "{label} analyze failed: {out:?}");
        reports.push((
            std::fs::read(dir.join("nas-bt.original.analysis.json")).unwrap(),
            std::fs::read(dir.join("nas-bt.original.analysis.csv")).unwrap(),
        ));
    }
    assert!(
        reports[0] == reports[1],
        "analysis depends on OVLSIM_THREADS"
    );
}

#[test]
fn analyze_paraver_cause_export_is_written() {
    let dir = scratch_dir("prv");
    let out = Command::new(env!("CARGO_BIN_EXE_ovlsim"))
        .arg("analyze")
        .arg(repo_path("examples/traces/nas-bt-mini.original.dim"))
        .arg("--out")
        .arg(&dir)
        .arg("--prv")
        .output()
        .expect("ovlsim runs");
    assert!(out.status.success(), "analyze --prv failed: {out:?}");
    let prv = std::fs::read_to_string(dir.join("nas-bt.original.cause.prv")).unwrap();
    assert!(prv.starts_with("#Paraver"));
    assert!(prv.lines().skip(1).all(|l| l.starts_with("1:")));
    let pcf = std::fs::read_to_string(dir.join("nas-bt.original.cause.pcf")).unwrap();
    assert!(pcf.contains("BLOCKED-RECV") && pcf.contains("CONTENDED-INTER"));
    assert!(dir.join("nas-bt.original.cause.row").exists());
}

/// Acceptance: per-rank and per-channel breakdowns reconcile with the
/// `ReplayResult` bit-exactly on the committed mini-trace.
#[test]
fn analysis_reconciles_with_replay_bit_exactly() {
    let text =
        std::fs::read_to_string(repo_path("examples/traces/nas-bt-mini.original.dim")).unwrap();
    let trace = parse_trace_set(&text).expect("committed trace parses");
    let index = TraceIndex::build(&trace).expect("committed trace is valid");
    let platform = default_platform();
    let attr = Attribution::analyze(&platform, &trace, &index).expect("analyzes");
    let result = replay_naive(&platform, &trace).expect("replays");

    assert_eq!(attr.makespan(), result.total_time());
    assert_eq!(attr.critical_path_len(), result.total_time());
    for (r, b) in attr.ranks().iter().enumerate() {
        assert_eq!(b.total, result.rank_finish()[r], "rank {r} total drifted");
        assert_eq!(
            b.compute,
            result.rank_compute()[r],
            "rank {r} compute drifted"
        );
        assert_eq!(b.compute + b.send_overhead + b.wait(), b.total);
    }
    // Every wait picosecond is charged to a channel or a collective.
    let rank_wait: Time = attr.ranks().iter().map(|b| b.wait()).sum();
    let collective: Time = attr.ranks().iter().map(|b| b.collective).sum();
    let chan_wait: Time = attr.channels().iter().map(|c| c.total_wait()).sum();
    assert_eq!(chan_wait + collective, rank_wait);
}

/// Acceptance: the top-ranked channel's predicted gain is consistent with
/// the measured overlap speedup direction, for both campaign classes (S
/// and A) of NAS-BT.
#[test]
fn top_channel_gain_consistent_with_measured_speedup() {
    let platform = default_platform();
    for class in [ProblemClass::S, ProblemClass::A] {
        let app = registry::build_app(
            "nas-bt",
            class,
            registry::AppOverrides {
                ranks: Some(4),
                iterations: Some(2),
            },
        )
        .expect("nas-bt builds");
        let bundle = TracingSession::new(app.as_ref()).run().expect("traces");
        let original = bundle.original().clone();
        let overlapped = bundle.overlapped(OverlapMode::real()).expect("overlaps");

        let index = TraceIndex::build(&original).expect("valid");
        let attr = Attribution::analyze(&platform, &original, &index).expect("analyzes");
        let sim = Simulator::new(platform.clone());
        let orig_time = sim.run(&original).expect("replays").total_time();
        let ovl_time = sim.run(&overlapped).expect("replays").total_time();

        let top_gain = attr
            .ranked_channels()
            .first()
            .map(|c| c.gain_potential)
            .unwrap_or(Time::ZERO);
        // NAS-BT exchanges boundary faces every iteration: attribution
        // must find an overlap opportunity, and the measured overlapped
        // replay must move in the promised direction (faster, and by no
        // more than the sum of what attribution said was recoverable).
        assert!(
            top_gain > Time::ZERO,
            "class {class:?}: no predicted gain on a communicating app"
        );
        assert!(
            ovl_time <= orig_time,
            "class {class:?}: predicted gain {top_gain} but overlap slowed \
             the app down ({orig_time} -> {ovl_time})"
        );
        let measured_gain = orig_time - ovl_time;
        let total_potential: Time = attr.channels().iter().map(|c| c.gain_potential).sum();
        assert!(
            measured_gain <= total_potential,
            "class {class:?}: overlap recovered {measured_gain} but attribution \
             promised at most {total_potential}"
        );
    }
}
