//! Campaign-runner integration tests: the committed corpus parses, its
//! grid covers what the CI gate promises, and the paper campaign is
//! deterministic — byte-identical reports sequential vs parallel, driven
//! through the real CLI with `OVLSIM_THREADS` like CI does.

use std::path::{Path, PathBuf};
use std::process::Command;

use ovlsim::lab::campaign::{CampaignSpec, Engine, SpecError};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn read_spec(rel: &str) -> CampaignSpec {
    let text = std::fs::read_to_string(repo_path(rel)).expect("spec file exists");
    CampaignSpec::parse(&text).expect("committed spec parses")
}

#[test]
fn committed_corpus_parses_and_covers_the_promised_grid() {
    let paper = read_spec("examples/campaigns/paper.campaign");
    assert_eq!(paper.name, "paper");
    assert!(paper.apps.len() >= 3, "paper campaign spans >= 3 apps");
    assert!(
        paper.classes.len() >= 2,
        "paper campaign spans >= 2 classes"
    );
    assert!(
        paper.ranks_per_node.contains(&1),
        "paper campaign includes the flat platform"
    );
    assert!(
        paper.ranks_per_node.iter().any(|&rpn| rpn > 1),
        "paper campaign includes a multicore platform"
    );
    assert!(paper.bandwidths.len() >= 2);

    let stress = read_spec("examples/campaigns/stress.campaign");
    assert!(stress.apps.len() >= 3);
    assert!(stress.classes.len() >= 2);
    assert_eq!(
        stress.engines,
        vec![Engine::Compiled, Engine::Naive],
        "stress cross-checks every engine"
    );
}

/// `engine fastforward` and `engine prepared` named retired executors
/// and are gone: a spec naming either fails with a typed error on its
/// line, both in the library and through the real binary, and
/// `--force-engine` rejects them as a usage error.
#[test]
fn engine_fastforward_is_rejected_on_its_spec_line() {
    let dir = std::env::temp_dir().join("ovlsim-campaign-ff-list");
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["fastforward", "prepared"] {
        let spec_path = dir.join(format!("{name}.campaign"));
        let text = format!(
            "campaign ff-mini\napps sweep3d\nclasses S\nranks 4\n\
             iterations 1\nbandwidths list 1e8\nengines {name}\n"
        );
        std::fs::write(&spec_path, &text).unwrap();

        assert!(matches!(
            CampaignSpec::parse(&text).unwrap_err(),
            SpecError::UnknownEngine { line: 7, .. }
        ));

        let out = Command::new(env!("CARGO_BIN_EXE_ovlsim"))
            .args(["campaign", "list"])
            .arg(&spec_path)
            .output()
            .expect("ovlsim runs");
        assert_eq!(out.status.code(), Some(1), "campaign list: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("line 7: unknown engine `{name}`")),
            "stderr names the spec line: {stderr}"
        );

        let out = Command::new(env!("CARGO_BIN_EXE_ovlsim"))
            .args(["campaign", "run"])
            .arg(repo_path("examples/campaigns/paper.campaign"))
            .args(["--force-engine", name])
            .output()
            .expect("ovlsim runs");
        assert_eq!(out.status.code(), Some(2), "--force-engine {name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "one error line: {stderr}"
        );
    }
}

#[test]
fn golden_reports_match_their_specs_shape() {
    let mut names: Vec<String> = std::fs::read_dir(repo_path("examples/campaigns"))
        .expect("campaign corpus directory")
        .filter_map(|entry| {
            let file = entry.expect("directory entry").file_name();
            let file = file.to_str().expect("utf-8 file name");
            file.strip_suffix(".campaign").map(str::to_string)
        })
        .collect();
    names.sort();
    assert!(names.len() >= 5, "the committed corpus: {names:?}");
    for name in names {
        let spec = read_spec(&format!("examples/campaigns/{name}.campaign"));
        let golden = std::fs::read_to_string(repo_path(&format!(
            "examples/campaigns/golden/{name}.report.json"
        )))
        .expect("golden report is committed");
        assert!(
            golden.contains(&format!("\"campaign\": \"{}\"", spec.name)),
            "{name}: golden names the campaign"
        );
        assert!(
            golden.contains(&format!("\"points\": {}", spec.point_count())),
            "{name}: golden point count matches the spec grid"
        );
        let rows = golden.lines().filter(|l| l.contains("\"app\":")).count();
        assert_eq!(rows, spec.point_count(), "{name}: one row per grid point");
    }
}

/// The acceptance gate: the paper campaign, run through the real binary
/// exactly as CI runs it, produces byte-identical reports with one worker
/// and with `OVLSIM_THREADS` parallelism.
#[test]
fn paper_campaign_report_is_byte_identical_sequential_vs_parallel() {
    let spec = repo_path("examples/campaigns/paper.campaign");
    let base = std::env::temp_dir().join("ovlsim-campaign-determinism");
    let mut reports = Vec::new();
    for (label, threads) in [("seq", "1"), ("par", "4")] {
        let out_dir = base.join(label);
        let status = Command::new(env!("CARGO_BIN_EXE_ovlsim"))
            .args(["campaign", "run"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .env("OVLSIM_THREADS", threads)
            .status()
            .expect("ovlsim runs");
        assert!(status.success(), "{label} campaign run failed");
        reports.push(std::fs::read(out_dir.join("paper.report.json")).expect("report written"));
    }
    assert!(
        reports[0] == reports[1],
        "sequential and parallel paper campaign reports differ"
    );
}
