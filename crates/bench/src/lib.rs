//! Benchmark and experiment entry points for `ovlsim`.
//!
//! * `src/bin/exp_*.rs` — one binary per paper artefact (indexed in
//!   `ovlsim_lab::experiments`); each prints the regenerated table to
//!   stdout and, with `--csv`, the raw CSV to stderr.
//! * `benches/*.rs` — Criterion micro-benchmarks documenting the
//!   environment's own performance (event throughput, replay speed,
//!   transform cost).
//!
//! Run an experiment with e.g.
//! `cargo run -p ovlsim-bench --release --bin exp_ideal_speedup`.

#![forbid(unsafe_code)]

use ovlsim_lab::ExperimentReport;

/// Prints a report to stdout; with `--csv` in `args`, also emits the raw
/// CSV on stderr (so tables and data can be captured separately).
pub fn emit(report: &ExperimentReport) {
    println!("{report}");
    if std::env::args().any(|a| a == "--csv") {
        eprintln!("{}", report.table.to_csv());
    }
}
