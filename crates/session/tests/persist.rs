//! Durability integration tests: a session with a `--cache-dir` must
//! serve a warm restart entirely from disk (zero rebuilds, byte-identical
//! reports), and every corruption the fault-injection harness can inflict
//! on the cache must end in quarantine + transparent rebuild — never a
//! panic, never a different answer.

use std::fs;
use std::path::PathBuf;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_core::Bandwidth;
use ovlsim_lab::{run_tune, ArtifactPipeline, CampaignSpec, DirectPipeline, TuneOptions};
use ovlsim_session::faultinject::FaultPlan;
use ovlsim_session::{Session, TraceSource};

const SPEC: &str = "campaign persist\napps sweep3d\nclasses S\nmodes linear\n\
                    engines compiled\nbandwidths log 1e8 1e9 3\n";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ovlsim-persist-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_campaign(cache: &PathBuf) -> (String, Session) {
    run_spec(cache, SPEC)
}

fn run_spec(cache: &PathBuf, spec: &str) -> (String, Session) {
    let session = Session::with_threads(1)
        .with_cache_dir(cache)
        .expect("cache dir opens");
    let spec = CampaignSpec::parse(spec).expect("spec parses");
    let report = session.run_campaign(&spec).expect("campaign runs");
    (report.to_json(), session)
}

#[test]
fn warm_restart_rebuilds_nothing_and_is_byte_identical() {
    let cache = scratch("warm");

    let (cold_json, cold) = run_campaign(&cache);
    let cold_stats = cold.stats();
    assert!(cold_stats.traces.builds > 0, "cold run must build traces");
    assert!(cold_stats.compiles() > 0, "cold run must compile");
    let cold_disk = cold.disk_stats().expect("disk cache attached");
    assert!(cold_disk.stores > 0, "cold run must persist artifacts");
    assert_eq!(cold_disk.quarantined, 0);
    drop(cold);

    // A brand-new session over the same directory: everything must come
    // from disk — zero builds on every shelf.
    let (warm_json, warm) = run_campaign(&cache);
    assert_eq!(warm_json, cold_json, "warm report must be byte-identical");
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.bundles.builds, 0, "warm run traced an app");
    assert_eq!(warm_stats.traces.builds, 0, "warm run rebuilt a trace");
    assert_eq!(warm_stats.indexes.builds, 0, "warm run rebuilt an index");
    assert_eq!(warm_stats.programs.builds, 0, "warm run recompiled");
    let warm_disk = warm.disk_stats().unwrap();
    assert!(warm_disk.loads > 0, "warm run must load from disk");
    assert_eq!(warm_disk.stores, 0, "warm run had nothing to persist");

    fs::remove_dir_all(&cache).unwrap();
}

/// A compiled-only campaign persists each overlapped variant as the
/// program it replays, never as a trace. A warm restart loads every
/// program from its `prog-*` entry and builds nothing on any shelf, so the
/// app is never traced; a torn overlapped program is quarantined and
/// rebuilt from a fresh trace of the app, and the report does not change.
#[test]
fn overlapped_variants_persist_as_programs() {
    const TWO_MODES: &str = "campaign programs\napps sweep3d\nclasses S\nmodes linear real\n\
                             engines compiled\nbandwidths list 1e8 1e9\nranks 4\niterations 1\n";
    let cache = scratch("programs");
    let (cold_json, _) = run_spec(&cache, TWO_MODES);
    let entries = |prefix: &str| {
        let mut found: Vec<PathBuf> = fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                name.starts_with(prefix) && name.ends_with(".ovlb")
            })
            .collect();
        found.sort();
        found
    };
    assert_eq!(entries("trace-").len(), 1, "only the original is a trace");
    let program_name = |path: &PathBuf| {
        let prog = ovlsim_core::codec::decode_compiled_trace(&fs::read(path).unwrap()).unwrap();
        prog.name().to_string()
    };
    let mut names: Vec<String> = entries("prog-").iter().map(program_name).collect();
    names.sort();
    assert_eq!(
        names,
        ["sweep3d.original", "sweep3d.ovl-linear", "sweep3d.ovl-real"]
    );

    let (warm_json, warm) = run_spec(&cache, TWO_MODES);
    assert_eq!(warm_json, cold_json, "warm report must be byte-identical");
    let stats = warm.stats();
    for (shelf, counters) in [
        ("bundles", stats.bundles),
        ("traces", stats.traces),
        ("indexes", stats.indexes),
        ("programs", stats.programs),
    ] {
        assert_eq!(counters.builds, 0, "warm run built on the {shelf} shelf");
    }
    assert_eq!(stats.programs.loads, 3, "every program loads from disk");
    assert_eq!(stats.traces.loads, 1, "the original trace loads from disk");
    let disk = warm.disk_stats().unwrap();
    assert_eq!((disk.loads, disk.stores, disk.quarantined), (4, 0, 0));
    drop(warm);

    let torn = entries("prog-")
        .into_iter()
        .find(|p| program_name(p) == "sweep3d.ovl-linear")
        .expect("the linear variant's program is persisted");
    FaultPlan::new(0x7EA2).tear_file(&torn).unwrap();
    let (rebuilt_json, rebuilt) = run_spec(&cache, TWO_MODES);
    assert_eq!(
        rebuilt_json, cold_json,
        "recovery must reproduce the report"
    );
    let disk = rebuilt.disk_stats().unwrap();
    assert_eq!((disk.quarantined, disk.stores), (1, 1));
    let stats = rebuilt.stats();
    assert_eq!(stats.programs.builds, 1, "only the torn program is rebuilt");
    assert_eq!(stats.bundles.builds, 1, "rebuilding it traces the app");
    assert_eq!(stats.traces.builds, 0, "no trace is rebuilt");
    assert_eq!(program_name(&torn), "sweep3d.ovl-linear", "re-persisted");

    fs::remove_dir_all(&cache).unwrap();
}

/// App×class groups build on the worker pool: one worker and four must
/// write the same report, count the same hits and builds on every shelf,
/// and persist the same artifacts.
#[test]
fn parallel_group_builds_match_one_thread() {
    let spec = CampaignSpec::parse(
        "campaign parallel\napps sweep3d pop\nclasses S W\nmodes linear real\n\
         engines compiled\nbandwidths list 1e8 1e9\nranks 4\niterations 1\nattribution on\n",
    )
    .expect("spec parses");
    let run = |threads: usize| {
        let cache = scratch(&format!("threads-{threads}"));
        let session = Session::with_threads(threads)
            .with_cache_dir(&cache)
            .expect("cache dir opens");
        let report = session.run_campaign(&spec).expect("campaign runs");
        let out = (report.to_json(), session.stats(), session.disk_stats());
        drop(session);
        fs::remove_dir_all(&cache).unwrap();
        out
    };
    let (seq_json, seq_stats, seq_disk) = run(1);
    let (par_json, par_stats, par_disk) = run(4);
    assert_eq!(par_json, seq_json, "reports differ");
    assert_eq!(par_stats, seq_stats, "store counters differ");
    assert_eq!(par_disk, seq_disk, "disk counters differ");
    assert!(seq_disk.expect("disk cache attached").stores > 0);
}

#[test]
fn corrupted_cache_entries_are_quarantined_and_rebuilt_identically() {
    let cache = scratch("corrupt");
    let (cold_json, _) = run_campaign(&cache);

    // Inflict one deterministic bit flip on a trace entry and one torn
    // write (truncation) on a program entry.
    let mut entries: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ovlb"))
        .collect();
    entries.sort();
    let trace_entry = entries
        .iter()
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("trace-")
        })
        .expect("a trace entry exists")
        .clone();
    let prog_entry = entries
        .iter()
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("prog-")
        })
        .expect("a program entry exists")
        .clone();
    let mut plan = FaultPlan::new(0xD15EA5E);
    plan.corrupt_file(&trace_entry).unwrap();
    plan.tear_file(&prog_entry).unwrap();

    let (rebuilt_json, session) = run_campaign(&cache);
    assert_eq!(
        rebuilt_json, cold_json,
        "recovery must reproduce the exact report"
    );
    let disk = session.disk_stats().unwrap();
    assert_eq!(disk.quarantined, 2, "both damaged entries quarantined");
    assert_eq!(disk.stores, 2, "both damaged entries rebuilt and restored");
    assert!(trace_entry.exists(), "rebuilt trace entry is re-persisted");
    assert!(prog_entry.exists(), "rebuilt program entry is re-persisted");

    // The quarantined bytes stay on disk for post-mortems...
    let quarantined: Vec<_> = fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().to_string_lossy().ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 2);

    // ...and a third run is fully warm again.
    let (third_json, session) = run_campaign(&cache);
    assert_eq!(third_json, cold_json);
    assert_eq!(session.stats().compiles(), 0);
    assert_eq!(session.disk_stats().unwrap().quarantined, 0);

    fs::remove_dir_all(&cache).unwrap();
}

/// A program cached by a build that wrote `.ovlb` format version 1 has a
/// layout this build no longer reads: the entry is quarantined, the
/// program is rebuilt and re-persisted, and the report does not change.
/// A version-1 trace entry still loads: the trace-set layout is the same.
#[test]
fn version_1_program_entries_are_quarantined_and_rebuilt() {
    let cache = scratch("stale");
    let (cold_json, _) = run_campaign(&cache);

    let first_entry = |prefix: &str| {
        let mut found: Vec<PathBuf> = fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                name.starts_with(prefix) && name.ends_with(".ovlb")
            })
            .collect();
        found.sort();
        found.into_iter().next().expect("an entry exists")
    };
    let stale = first_entry("prog-");
    for entry in [&stale, &first_entry("trace-")] {
        let mut bytes = fs::read(entry).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        fs::write(entry, &bytes).unwrap();
    }

    let (json, session) = run_campaign(&cache);
    assert_eq!(json, cold_json, "the rebuilt program replays identically");
    assert_eq!(session.disk_stats().unwrap().quarantined, 1);
    assert_eq!(session.stats().programs.builds, 1, "built once");
    assert_eq!(session.stats().traces.builds, 0, "traces all load");
    let rewritten = fs::read(&stale).unwrap();
    assert_eq!(
        rewritten[4..6],
        ovlsim_core::codec::FORMAT_VERSION.to_le_bytes(),
        "re-persisted at the current version"
    );

    fs::remove_dir_all(&cache).unwrap();
}

/// Tuner candidates go straight from plan to program: a tune run through
/// a cached session builds and persists only the original trace (and
/// indexes it for the attribution ranking), never a candidate, and
/// reports exactly what the cacheless pipeline reports.
#[test]
fn tuning_leaves_no_candidate_artifacts() {
    let cache = scratch("tune");
    let session = Session::with_threads(1)
        .with_cache_dir(&cache)
        .expect("cache dir opens");
    let platform = ovlsim_apps::calibration::reference_platform()
        .with_bandwidth(Bandwidth::from_bytes_per_sec(1e8).unwrap());
    let opts = TuneOptions {
        budget: 24,
        seed: 7,
        ..TuneOptions::default()
    };
    let bundle = |p: &dyn ArtifactPipeline| {
        p.bundle("sweep3d", ProblemClass::S, AppOverrides::default())
            .expect("traces")
    };
    let report = run_tune(&session, &bundle(&session), &platform, &opts).expect("tunes");

    let stats = session.stats();
    assert_eq!(stats.programs.builds, 0, "a candidate was compiled");
    assert_eq!(stats.traces.builds, 1, "only the original trace is built");
    assert_eq!(
        stats.indexes.builds, 1,
        "only the original trace is indexed"
    );
    let disk = session.disk_stats().expect("disk cache attached");
    assert_eq!(disk.stores, 1, "only the original trace is persisted");

    let direct = run_tune(&DirectPipeline, &bundle(&DirectPipeline), &platform, &opts)
        .expect("tunes without a cache");
    assert_eq!(report, direct);
    fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn binary_sources_round_trip_through_the_session() {
    let session = Session::with_threads(1);
    let generated = TraceSource::Generated {
        app: "sweep3d".into(),
        class: "S".parse().unwrap(),
        ranks: Some(4),
        iterations: Some(1),
        mode: None,
    };
    let trace = session.trace(&generated).expect("generates");
    let bytes = ovlsim_core::codec::encode_trace_set(&trace);

    // The encoded artifact round-trips through a fresh session.
    let fresh = Session::with_threads(1);
    let decoded = fresh
        .trace(&TraceSource::Binary {
            bytes: bytes.clone(),
        })
        .expect("decodes");
    assert_eq!(*decoded, *trace);

    // Any single bit flip is a typed decode error, never a wrong trace.
    let mut plan = FaultPlan::new(99);
    for _ in 0..16 {
        let mut bad = bytes.clone();
        plan.flip_bit(&mut bad);
        let another = Session::with_threads(1);
        match another.trace(&TraceSource::Binary { bytes: bad }) {
            Err(ovlsim_session::SessionError::Decode(_)) => {}
            Err(other) => panic!("expected a decode error, got {other}"),
            Ok(t) => assert_eq!(*t, *trace, "silently different trace"),
        }
    }
}
