//! End-to-end tests of the `ovlsim` command-line binary: the absorbed
//! trace pipeline (gen → stats → validate → replay) and the campaign
//! subcommands (run → diff, list).

use std::path::Path;
use std::process::{Command, Stdio};

fn ovlsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ovlsim"))
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ovlsim-cli-test").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A reader that hangs up early (`ovlsim ... | head -1`) ends the run
/// cleanly: exit 0 and nothing on stderr, never a broken-pipe panic, and
/// the command's files are still written. The read end is closed before
/// the child starts, so its first write to stdout already fails with
/// EPIPE.
#[test]
fn closed_stdout_exits_cleanly() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/campaigns/paper.campaign"
    );
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/traces/nas-bt-mini.original.dim"
    );
    let dir = scratch_dir("closed-stdout");
    for report in ["mini.report.json", "mini.report.csv"] {
        let _ = std::fs::remove_file(dir.join(report));
    }
    let mini = dir.join("mini.campaign");
    std::fs::write(
        &mini,
        "campaign mini\napps sweep3d\nclasses S\nranks 4\niterations 1\n\
         bandwidths list 1e8\n",
    )
    .unwrap();
    let (mini, out) = (mini.to_str().unwrap(), dir.to_str().unwrap());
    let cases: [&[&str]; 5] = [
        &["--version"],
        &["campaign", "list", spec],
        &["campaign", "run", mini, "--out", out, "--csv"],
        &["trace", "stats", trace],
        &["trace", "replay", trace],
    ];
    for args in cases {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = ovlsim()
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
    assert!(dir.join("mini.report.json").exists());
    assert!(dir.join("mini.report.csv").exists());
}

#[test]
fn trace_gen_stats_validate_replay_roundtrip() {
    let dir = scratch_dir("trace");
    let prefix = dir.join("cg");
    let prefix_str = prefix.to_str().unwrap();

    // gen
    let out = ovlsim()
        .args(["trace", "gen", "nas-cg", prefix_str])
        .output()
        .expect("ovlsim runs");
    assert!(out.status.success(), "gen failed: {out:?}");
    let original = format!("{prefix_str}.original.dim");
    let linear = format!("{prefix_str}.ovl-linear.dim");
    assert!(Path::new(&original).exists());
    assert!(Path::new(&linear).exists());

    // stats
    let out = ovlsim()
        .args(["trace", "stats", &original])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("validation: ok"));
    assert!(stdout.contains("rank 0"));

    // validate
    let out = ovlsim()
        .args(["trace", "validate", &linear])
        .output()
        .unwrap();
    assert!(out.status.success());

    // replay
    let out = ovlsim()
        .args(["trace", "replay", &linear, "100e6", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("legend"), "replay should render a gantt");
}

/// `trace gen` reproduces the committed NAS-BT mini traces byte for byte.
/// This pins the real-pattern overlap transform, the production consumer
/// of the recorded production and consumption profiles, at file level.
#[test]
fn trace_gen_reproduces_committed_mini_traces() {
    let dir = scratch_dir("mini-traces");
    let prefix = dir.join("nas-bt-mini");
    let out = ovlsim()
        .args([
            "trace",
            "gen",
            "nas-bt",
            prefix.to_str().unwrap(),
            "S",
            "4",
            "2",
        ])
        .output()
        .expect("ovlsim runs");
    assert!(out.status.success(), "gen failed: {out:?}");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/traces");
    for variant in ["original", "ovl-linear", "ovl-real"] {
        let name = format!("nas-bt-mini.{variant}.dim");
        let generated = std::fs::read(dir.join(&name)).unwrap();
        let golden = std::fs::read(committed.join(&name)).unwrap();
        assert!(
            generated == golden,
            "{name} differs from the committed trace"
        );
    }
}

#[test]
fn trace_validate_rejects_broken_trace() {
    let dir = scratch_dir("broken");
    let path = dir.join("broken.dim");
    // Unmatched send: structurally invalid.
    std::fs::write(
        &path,
        "name broken\nmips 1000\nranks 2\nrank 0\nsend r1 100 t0\nend\nrank 1\nend\n",
    )
    .unwrap();
    let out = ovlsim()
        .args(["trace", "validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "broken trace must fail validation");
}

/// A trace with an issue of each `TraceIssue` kind: a wait on an unknown
/// request, a re-posted request, a collective root out of range (on both
/// ranks), a leaked request, a size mismatch, an unbalanced channel and a
/// collective mismatch.
const EVERY_ISSUE_KIND: &str = "\
name all-kinds
mips 1000
ranks 2
rank 0
wait req9
irecv r1 8 t1 req1
irecv r1 8 t1 req1
wait req1
isend r1 8 t2 req2
bcast r7 8
barrier
end
rank 1
send r0 8 t1
send r0 8 t1
recv r0 16 t2
send r0 4 t3
bcast r7 8
allreduce 8
end
";

/// The issues of [`EVERY_ISSUE_KIND`], in the order validation reports
/// them: per-record issues rank by rank, then channels, then collectives.
const EVERY_ISSUE: [&str; 8] = [
    "record 0 of r0 waits on unknown req9",
    "record 2 of r0 re-posts in-flight req1",
    "record 5 of r0 references out-of-range rank r7",
    "r0 never waits on posted req2",
    "record 4 of r1 references out-of-range rank r7",
    "channel r0->r1 t2 pair 0: send 8 B vs recv 16 B",
    "channel r1->r0 t3 has 1 sends but 0 recvs",
    "collective sequence mismatch at position 1 (r1): rank 0 sees `barrier`, r1 sees `allreduce 8`",
];

/// Runs `ovlsim` on [`EVERY_ISSUE_KIND`] written to a file, with `args`
/// before and `tail` after its path; returns the path, the exit code,
/// stdout and stderr.
fn run_on_every_issue_kind(
    test: &str,
    args: &[&str],
    tail: &[&str],
) -> (String, Option<i32>, String, String) {
    let path = scratch_dir(test).join("all-kinds.dim");
    std::fs::write(&path, EVERY_ISSUE_KIND).unwrap();
    let path = path.to_str().unwrap().to_string();
    let out = ovlsim().args(args).arg(&path).args(tail).output().unwrap();
    (
        path,
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn trace_validate_lists_every_issue_kind() {
    let (path, code, stdout, stderr) =
        run_on_every_issue_kind("every-issue-validate", &["trace", "validate"], &[]);
    assert_eq!(code, Some(1));
    assert_eq!(stdout, "");
    let listing: String = EVERY_ISSUE
        .iter()
        .map(|issue| format!("{path}: {issue}\n"))
        .collect();
    assert_eq!(stderr, format!("{listing}error: 8 issues\n"));
}

#[test]
fn trace_replay_reports_every_issue_kind_on_each_engine() {
    let expected = format!(
        "error: trace failed validation with 8 issues; {}\n",
        EVERY_ISSUE[..3].join("; ")
    );
    let engines: [&[&str]; 3] = [
        &[],
        &["1e8", "5", "--engine", "compiled"],
        &["1e8", "5", "--engine", "naive"],
    ];
    for tail in engines {
        let (_, code, stdout, stderr) =
            run_on_every_issue_kind("every-issue-replay", &["trace", "replay"], tail);
        assert_eq!(code, Some(1), "{tail:?}");
        assert_eq!(stdout, "", "{tail:?}");
        assert_eq!(stderr, expected, "{tail:?}");
    }
}

#[test]
fn analyze_lists_every_issue_kind() {
    let dir = scratch_dir("every-issue-analyze");
    let out = dir.join("out");
    let (path, code, stdout, stderr) = run_on_every_issue_kind(
        "every-issue-analyze",
        &["analyze"],
        &["--out", out.to_str().unwrap()],
    );
    assert_eq!(code, Some(1));
    assert_eq!(stdout, "");
    let listing: String = EVERY_ISSUE
        .iter()
        .map(|issue| format!("{path}: {issue}\n"))
        .collect();
    assert_eq!(
        stderr,
        format!("{listing}error: {path}: 8 validation issues\n")
    );
    assert!(!out.exists(), "analyze wrote a report for a broken trace");
}

#[test]
fn trace_unknown_app_is_reported() {
    let out = ovlsim()
        .args(["trace", "gen", "no-such-app", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown or invalid app"));
}

#[test]
fn bad_usage_prints_help() {
    let out = ovlsim().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

const MINI_CAMPAIGN: &str = "\
campaign cli-mini
apps sweep3d
classes S
ranks 4
iterations 1
bandwidths list 1e8 1e9
ranks-per-node 1 2
";

#[test]
fn campaign_run_list_diff_roundtrip() {
    let dir = scratch_dir("campaign");
    let spec = dir.join("mini.campaign");
    std::fs::write(&spec, MINI_CAMPAIGN).unwrap();
    let spec_str = spec.to_str().unwrap();
    let out_dir = dir.join("out");
    let out_dir_str = out_dir.to_str().unwrap();

    // list
    let out = ovlsim()
        .args(["campaign", "list", spec_str])
        .output()
        .unwrap();
    assert!(out.status.success(), "list failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("= 4 points"), "got: {stdout}");
    assert!(stdout.contains("rpn=2"));

    // run (with csv)
    let out = ovlsim()
        .args(["campaign", "run", spec_str, "--out", out_dir_str, "--csv"])
        .output()
        .unwrap();
    assert!(out.status.success(), "run failed: {out:?}");
    let report = out_dir.join("cli-mini.report.json");
    let csv = out_dir.join("cli-mini.report.csv");
    assert!(report.exists());
    assert!(csv.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 points"));
    assert!(stdout.contains("sweep3d"), "summary table names the app");

    // diff against itself: identical
    let report_str = report.to_str().unwrap();
    let out = ovlsim()
        .args(["campaign", "diff", report_str, report_str])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("identical"));

    // diff against a tampered copy: drift detected, named on stderr
    let tampered_path = dir.join("tampered.json");
    let tampered = std::fs::read_to_string(&report).unwrap().replacen(
        "\"ranks_per_node\":1",
        "\"ranks_per_node\":3",
        1,
    );
    std::fs::write(&tampered_path, tampered).unwrap();
    let out = ovlsim()
        .args([
            "campaign",
            "diff",
            report_str,
            tampered_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("golden:"), "diff lines on stderr: {stderr}");
    assert!(stderr.contains("differing line"));
}

#[test]
fn campaign_run_rejects_bad_spec_with_line_number() {
    let dir = scratch_dir("badspec");
    let spec = dir.join("bad.campaign");
    std::fs::write(&spec, "campaign x\napps warp-drive\nbandwidths list 1e8\n").unwrap();
    let out = ovlsim()
        .args(["campaign", "run", spec.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "error names the line: {stderr}");
    assert!(stderr.contains("warp-drive"));
}

#[test]
fn campaign_diff_missing_file_is_an_error() {
    let out = ovlsim()
        .args([
            "campaign",
            "diff",
            "/nonexistent/a.json",
            "/nonexistent/b.json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn version_flag_prints_the_package_version() {
    let out = ovlsim().arg("--version").output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        format!("ovlsim {}", env!("CARGO_PKG_VERSION"))
    );
}

/// Usage mistakes exit 2; runtime failures exit 1 with a single typed
/// `error:` line on stderr.
#[test]
fn exit_codes_distinguish_usage_from_runtime_failures() {
    // Unknown flag: usage error, exit 2.
    let out = ovlsim()
        .args(["campaign", "run", "x", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Valid flag on the wrong subcommand: usage error, exit 2.
    let out = ovlsim()
        .args(["trace", "stats", "x", "--prv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ovlsim()
        .args(["trace", "stats", "x", "--port", "1234"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Missing input file: runtime error, exit 1, one `error:` line.
    for args in [
        ["trace", "replay", "/nonexistent/trace.dim"],
        ["campaign", "run", "/nonexistent/spec.campaign"],
    ] {
        let out = ovlsim().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "{args:?} must fail with a single line: {stderr}"
        );
    }

    // Analyze on a missing file too (it routes through the session layer).
    let out = ovlsim()
        .args(["analyze", "/nonexistent/trace.dim"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");

    // Out-of-domain perturbation and platform values, and generated
    // sources too large to trace, print exactly these lines.
    let root = env!("CARGO_MANIFEST_DIR");
    let mini = format!("{root}/examples/traces/nas-bt-mini.original.dim");
    let noise = format!("{root}/examples/campaigns/noise.campaign");
    let out_dir = scratch_dir("bad-values");
    let out_dir = out_dir.to_str().unwrap();
    let big = scratch_dir("oversized");
    std::fs::remove_dir_all(&big).unwrap();
    std::fs::create_dir_all(&big).unwrap();
    let spec = big.join("big.campaign");
    let spec_text = "campaign big\napps nas-bt\nclasses S\nranks 100000000\nbandwidths list 1e9\n";
    std::fs::write(&spec, spec_text).unwrap();
    let spec = spec.to_str().unwrap();
    let tune_spec = big.join("tune.campaign");
    std::fs::write(
        &tune_spec,
        "campaign tune\napps sweep3d\nbandwidths list 1e8\ntune on\ntune budget 100000000\n",
    )
    .unwrap();
    let tune_spec = tune_spec.to_str().unwrap();
    let (prefix, spec_out) = (
        format!("{}/x", big.display()),
        format!("{}/out", big.display()),
    );
    let too_many_ranks = "parameter `ranks` invalid: must be at most 4096";
    let gen_line = format!("unknown or invalid app `nas-bt`: {too_many_ranks}");
    let spec_line = format!("{spec}: building application failed: {too_many_ranks}");
    let too_large_budget = "tune budget 100000000 is above the limit of 4096 evaluations";
    let tune_spec_line = format!("{tune_spec}: line 5: `tune`: {too_large_budget}");
    for (args, line) in [
        (
            ["analyze", &mini, "--noise", "-1", "--out", out_dir].as_slice(),
            "perturbation parameter noise level is out of domain: -1",
        ),
        (
            &[
                "campaign", "run", &noise, "--faults", "10:20", "--out", out_dir,
            ],
            "perturbation parameter fault window is out of domain: 20000000",
        ),
        (&["trace", "replay", &mini, "abc"], "bad bandwidth"),
        (
            &["trace", "replay", &mini, "-5"],
            "bandwidth must be finite and positive, got -5",
        ),
        (
            &[
                "trace",
                "gen",
                "nas-bt",
                &prefix,
                "S",
                "4",
                "18446744073709551615",
            ],
            "unknown or invalid app `nas-bt`: parameter `ranks x iterations` invalid: \
             must be at most 1048576",
        ),
        (
            &["trace", "gen", "nas-bt", &prefix, "S", "100000000"],
            &gen_line,
        ),
        (&["campaign", "run", spec, "--out", &spec_out], &spec_line),
        (
            &[
                "tune",
                "sweep3d",
                "1e8",
                "5",
                "--budget",
                "100000000",
                "--out",
                &spec_out,
            ],
            too_large_budget,
        ),
        (
            &["campaign", "run", tune_spec, "--out", &spec_out],
            &tune_spec_line,
        ),
    ] {
        let out = ovlsim().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {line}\n")
        );
    }
    let mut written: Vec<_> = std::fs::read_dir(&big)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["big.campaign", "tune.campaign"],
        "refusals write nothing"
    );
}

/// The committed NAS-BT mini trace under another `name` header.
fn renamed_mini_trace(dir: &Path, name: &str) -> String {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/traces/nas-bt-mini.original.dim"
    ))
    .unwrap();
    let path = dir.join("renamed.dim");
    std::fs::write(
        &path,
        text.replacen("name nas-bt.original", &format!("name {name}"), 1),
    )
    .unwrap();
    path.to_str().unwrap().to_string()
}

/// A trace name is data: the tune report must escape it to stay JSON.
#[test]
fn tune_report_escapes_the_trace_name() {
    let dir = scratch_dir("tune-escape");
    let trace = renamed_mini_trace(&dir, "q\"uote");
    let out_dir = dir.join("out");
    let out = ovlsim()
        .args(["tune", &trace, "--out", out_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "tune failed: {out:?}");
    let text = std::fs::read_to_string(out_dir.join("q\"uote.tune.json")).unwrap();
    let json = ovlsim::session::Json::parse(&text).expect("tune report is valid JSON");
    let app = json.get("tune").and_then(|t| t.get("app"));
    assert_eq!(app.and_then(|a| a.as_str()), Some("q\"uote"));
}

/// Output files are named after data (campaign, trace and app names); a
/// name that could leave `--out` is refused with one `error:` line and
/// exit 1, before any file is written.
#[test]
fn output_names_cannot_leave_the_out_directory() {
    let dir = scratch_dir("escape-out");
    let out_dir = dir.join("out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = out_dir.to_str().unwrap();
    let spec = dir.join("escape.campaign");
    std::fs::write(&spec, "campaign ../x\napps sweep3d\nbandwidths list 1e8\n").unwrap();
    let refused = |args: &[&str]| {
        let run = ovlsim().args(args).output().unwrap();
        assert_eq!(run.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!out_dir.exists(), "{args:?} created {}", out_dir.display());
    };
    refused(&["campaign", "run", spec.to_str().unwrap(), "--out", out]);
    for name in ["../escaped", "..", "a\\b"] {
        let trace = renamed_mini_trace(&dir, name);
        refused(&["analyze", &trace, "--out", out, "--csv", "--prv"]);
        refused(&["tune", &trace, "--out", out, "--csv"]);
    }
    assert!(!dir.join("escaped.analysis.json").exists() && !dir.join("x.report.json").exists());
}

/// Every replay engine is selectable from `trace replay --engine`, and —
/// because the engines are bit-identical by contract — the rendered
/// output must be byte-for-byte the same for all of them.
#[test]
fn trace_replay_engine_flag_selects_each_engine_byte_identically() {
    let dir = scratch_dir("engine-flag");
    let prefix = dir.join("cg");
    let prefix_str = prefix.to_str().unwrap();
    let out = ovlsim()
        .args(["trace", "gen", "nas-cg", prefix_str])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let linear = format!("{prefix_str}.ovl-linear.dim");

    let default_out = ovlsim()
        .args(["trace", "replay", &linear, "100e6", "5"])
        .output()
        .unwrap();
    assert!(default_out.status.success());
    for engine in ["naive", "compiled"] {
        let out = ovlsim()
            .args(["trace", "replay", &linear, "100e6", "5", "--engine", engine])
            .output()
            .unwrap();
        assert!(out.status.success(), "--engine {engine} failed: {out:?}");
        assert_eq!(
            out.stdout, default_out.stdout,
            "--engine {engine} output diverged from the default engine"
        );
    }
}

/// An unknown engine name is a usage error: exit 2 with a single typed
/// `error:` line naming the accepted engines. `fastforward` and
/// `prepared`, names of retired executors, are unknown too.
#[test]
fn trace_replay_unknown_engine_exits_2_with_one_error_line() {
    for name in ["warp", "fastforward", "prepared"] {
        let out = ovlsim()
            .args(["trace", "replay", "x.dim", "--engine", name])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown engine `{name}`")),
            "stderr: {stderr}"
        );
        assert!(
            stderr.contains("compiled or naive"),
            "stderr lists the accepted engines: {stderr}"
        );
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "must fail with a single line: {stderr}"
        );
    }

    // `--engine` belongs to `trace replay` only.
    let out = ovlsim()
        .args(["campaign", "list", "x", "--engine", "compiled"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// `ovlsim trace convert` round-trips between `.dim` text and the `.ovlb`
/// binary format byte-identically, and every other subcommand accepts the
/// binary artifact by extension.
#[test]
fn trace_convert_roundtrips_between_dim_and_ovlb() {
    let dir = scratch_dir("convert");
    let prefix = dir.join("bt");
    let out = ovlsim()
        .args(["trace", "gen", "nas-bt", prefix.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let dim = dir.join("bt.original.dim");
    let ovlb = dir.join("bt.ovlb");
    let back = dir.join("bt.back.dim");

    // dim -> ovlb -> dim must reproduce the original text exactly.
    let out = ovlsim()
        .args([
            "trace",
            "convert",
            dim.to_str().unwrap(),
            ovlb.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "convert to ovlb failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(stdout.contains("ranks"), "{stdout}");
    let out = ovlsim()
        .args([
            "trace",
            "convert",
            ovlb.to_str().unwrap(),
            back.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "convert back failed: {out:?}");
    assert_eq!(
        std::fs::read(&dim).unwrap(),
        std::fs::read(&back).unwrap(),
        "dim -> ovlb -> dim must be byte-identical"
    );

    // The binary artifact works everywhere a .dim does.
    let out = ovlsim()
        .args(["trace", "stats", ovlb.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stats on .ovlb failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("validation: ok"));

    // A corrupted artifact is a typed error, not a panic.
    let mut bytes = std::fs::read(&ovlb).unwrap();
    bytes.extend_from_slice(b"garbage!");
    std::fs::write(&ovlb, bytes).unwrap();
    let out = ovlsim()
        .args(["trace", "stats", ovlb.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("trailing"), "names the defect: {stderr}");
}

/// Binary bytes hiding under a text extension are diagnosed with a
/// pointer at `trace convert`, not fed to the `.dim` parser.
#[test]
fn binary_content_under_a_dim_name_suggests_convert() {
    let dir = scratch_dir("misnamed");
    let prefix = dir.join("cg");
    let out = ovlsim()
        .args(["trace", "gen", "nas-cg", prefix.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dim = dir.join("cg.original.dim");
    let ovlb = dir.join("cg.ovlb");
    let out = ovlsim()
        .args([
            "trace",
            "convert",
            dim.to_str().unwrap(),
            ovlb.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let misnamed = dir.join("mislabelled.dim");
    std::fs::copy(&ovlb, &misnamed).unwrap();
    let out = ovlsim()
        .args(["trace", "stats", misnamed.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace convert"), "{stderr}");
}

/// `campaign run --cache-dir`: a cold run persists artifacts, a warm run
/// loads them all back with zero stores and a byte-identical report.
#[test]
fn campaign_cache_dir_warm_run_is_all_loads_and_byte_identical() {
    let dir = scratch_dir("cachedir");
    let spec = dir.join("mini.campaign");
    std::fs::write(&spec, MINI_CAMPAIGN).unwrap();
    // The scratch directory survives between test runs: the cache must
    // start empty or the "cold" run below is already warm.
    let cache = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let run = |out_dir: &Path| {
        let out = ovlsim()
            .args([
                "campaign",
                "run",
                spec.to_str().unwrap(),
                "--out",
                out_dir.to_str().unwrap(),
                "--cache-dir",
                cache.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "run failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let cold_dir = dir.join("cold");
    let warm_dir = dir.join("warm");
    let cold = run(&cold_dir);
    let warm = run(&warm_dir);

    let cache_line = |stdout: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with("cache: "))
            .unwrap_or_else(|| panic!("no cache line in: {stdout}"))
            .to_string()
    };
    assert!(
        cache_line(&cold).contains("0 loads"),
        "cold run loads nothing: {cold}"
    );
    assert!(
        cache_line(&warm).ends_with("0 stores, 0 quarantined"),
        "warm run stores nothing: {warm}"
    );
    assert!(
        !cache_line(&warm).contains("cache: 0 loads"),
        "warm run must load from the cache: {warm}"
    );
    assert_eq!(
        std::fs::read(cold_dir.join("cli-mini.report.json")).unwrap(),
        std::fs::read(warm_dir.join("cli-mini.report.json")).unwrap(),
        "cached replay must not change the report"
    );
}

/// `ovlsim serve` answers `/campaign` with exactly the bytes
/// `ovlsim campaign run` writes to disk, and `/status` reports the same
/// version string as `--version`.
#[test]
fn serve_campaign_response_matches_cli_report_bytes() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let dir = scratch_dir("serve");
    let spec = dir.join("mini.campaign");
    std::fs::write(&spec, MINI_CAMPAIGN).unwrap();
    let out_dir = dir.join("out");

    // CLI run: the on-disk report is the golden bytes.
    let out = ovlsim()
        .args([
            "campaign",
            "run",
            spec.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "campaign run failed: {out:?}");
    let report = std::fs::read_to_string(out_dir.join("cli-mini.report.json")).unwrap();

    // Server on an ephemeral port; the port is announced on stdout.
    let mut child = ovlsim()
        .arg("serve")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let port: u16 = banner
        .rsplit_once("127.0.0.1:")
        .expect("banner names the port")
        .1
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap();

    let request = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        (
            status,
            response.split_once("\r\n\r\n").unwrap().1.to_string(),
        )
    };

    // /status version == --version output.
    let (status, body) = request("GET", "/status", "");
    assert_eq!(status, 200);
    let expected = format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"));
    assert!(body.contains(&expected), "status: {body}");

    // /campaign with the same spec text: byte-identical to the CLI file.
    let spec_json = MINI_CAMPAIGN.replace('\n', "\\n");
    let (status, body) = request(
        "POST",
        "/campaign",
        &format!("{{\"spec\":\"{spec_json}\"}}"),
    );
    assert_eq!(status, 200, "campaign over HTTP failed: {body}");
    assert_eq!(
        body, report,
        "serve response must be byte-identical to the CLI report file"
    );

    // Clean shutdown: acknowledged, process exits 0.
    let (status, _) = request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    let exit = child.wait().unwrap();
    assert!(exit.success(), "serve should exit cleanly after /shutdown");
}
