//! Declarative campaign runner: `app × ProblemClass × platform-grid ×
//! engine` studies described as data instead of hand-rolled binaries.
//!
//! A *campaign* is a grid of scenarios over the paper's workflow — trace
//! an application once, replay it across many simulated platform points —
//! written in a small line-oriented spec format (see
//! [`CampaignSpec::parse`]). The runner expands the grid, traces and
//! compiles each `app × class × mode` combination **once**, fans the
//! platform points out through the same deterministic thread pool the
//! sweeps use, and renders the results as byte-stable JSON and CSV
//! reports. Committing a report as a *golden* turns any behavioral drift
//! into a one-line diff ([`diff_reports`]), which is what the CI campaign
//! job gates on.
//!
//! # Spec format
//!
//! One `key value...` statement per line; `#` starts a comment; blank
//! lines are ignored; keys may appear at most once.
//!
//! ```text
//! campaign paper            # required: report name
//! apps nas-bt pop alya      # required: registered app names
//! bandwidths log 1e7 1e10 5 # required: `log <lo> <hi> <points>` bytes/s
//!                           #        or `list <v> <v> ...`
//! classes S A               # optional: problem classes (default A)
//! modes linear real         # optional: overlap modes (default linear)
//! engines compiled naive    # optional: replay engines (default compiled)
//! ranks-per-node 1 4        # optional: node packings (default 1 = flat)
//! intra-bandwidth 1e10      # optional: shared-memory bytes/s (default 1e10)
//! latency-us 5              # optional: wire latency (default 5)
//! ranks 16                  # optional: override every app's rank count
//! iterations 2              # optional: override every app's iterations
//! attribution on            # optional: per-point attribution columns
//!                           # (original replay's wait/contention totals
//!                           # and top overlap-gain channel; default off)
//! noise seed 42             # optional: perturbation seed (default 0)
//! noise level 0 0.05 0.3    # optional: OS-noise levels — a grid axis
//!                           # like bandwidths (default 0 = clean)
//! stragglers 1.5 0 3        # optional: <slowdown> <rank...>
//! faults 200 20             # optional: <period-us> <downtime-us>
//! ```
//!
//! The perturbation keys build one [`PerturbationModel`] per grid point
//! (seeded noise at the point's level, plus the campaign-wide straggler
//! and fault axes); a campaign that uses any of them gains a
//! `noise_level` report column, while campaigns that use none render
//! byte-identically to reports from before the keys existed.
//!
//! Modes are [`OverlapMode`] labels without the `ovl-` prefix: `real`,
//! `linear`, optionally suffixed `-earlysend`, `-latewait` or `-chunked`
//! to enable only half of the mechanism.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_core::{Bandwidth, PerturbationModel, Platform, Time, TraceSet};
use ovlsim_dimemas::SimError;
use ovlsim_tracer::{Mechanisms, OverlapMode, PatternSource};

use crate::error::LabError;
use crate::par;
use crate::pipeline::{ArtifactPipeline, EngineInput};

/// A replay engine selectable per campaign. Both produce bit-identical
/// [`ReplayResult`](ovlsim_dimemas::ReplayResult)s; naive exists in
/// campaigns to cross-check the compiled production path on any scenario
/// a spec can describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Flat SoA replay program
    /// ([`Simulator::run_compiled`](ovlsim_dimemas::Simulator::run_compiled)):
    /// calendar event store, one event per burst and platform-selected
    /// transport pumps — the production path, and the default.
    Compiled,
    /// The reference engine kept from the seed
    /// ([`ovlsim_dimemas::replay_naive`]).
    Naive,
}

impl Engine {
    /// Parses an engine name (`compiled` or `naive`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "compiled" => Some(Engine::Compiled),
            "naive" => Some(Engine::Naive),
            _ => None,
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Compiled => "compiled",
            Engine::Naive => "naive",
        })
    }
}

/// A structural error in a campaign spec, with the 1-based line it was
/// found on where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// The spec contains no statements at all.
    Empty,
    /// A line starts with an unrecognized key.
    UnknownKey {
        /// 1-based spec line.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A key appears more than once.
    DuplicateKey {
        /// 1-based spec line of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A required key never appears.
    MissingKey {
        /// The absent key.
        key: &'static str,
    },
    /// A grid axis lists the same value twice (for `bandwidths log`,
    /// after rounding to whole bytes/s), which would measure one point
    /// twice.
    DuplicateValue {
        /// 1-based spec line.
        line: usize,
        /// The axis key.
        key: String,
        /// The repeated value.
        value: String,
    },
    /// A key appears with no values after it.
    MissingValue {
        /// 1-based spec line.
        line: usize,
        /// The valueless key.
        key: String,
    },
    /// An `apps` entry names no registered application.
    UnknownApp {
        /// 1-based spec line.
        line: usize,
        /// The unrecognized name.
        name: String,
    },
    /// A `classes` entry is not one of S, W, A, B.
    UnknownClass {
        /// 1-based spec line.
        line: usize,
        /// The unrecognized value.
        value: String,
    },
    /// A `modes` entry is not a recognized overlap-mode label.
    UnknownMode {
        /// 1-based spec line.
        line: usize,
        /// The unrecognized value.
        value: String,
    },
    /// An `engines` entry is not `compiled` or `naive`.
    UnknownEngine {
        /// 1-based spec line.
        line: usize,
        /// The unrecognized value.
        value: String,
    },
    /// A numeric value failed to parse or is out of domain.
    MalformedNumber {
        /// 1-based spec line.
        line: usize,
        /// The key being parsed.
        key: String,
        /// The offending token.
        value: String,
    },
    /// A grid range is structurally empty or inverted.
    EmptyRange {
        /// 1-based spec line.
        line: usize,
        /// The key being parsed.
        key: String,
        /// Why the range denotes no points.
        reason: String,
    },
    /// A boolean key was given something other than `on` or `off`.
    InvalidFlag {
        /// 1-based spec line.
        line: usize,
        /// The key being parsed.
        key: String,
        /// The offending token.
        value: String,
    },
    /// A perturbation key (`noise`, `stragglers`, `faults`) is
    /// structurally malformed or out of the model's domain.
    InvalidPerturbation {
        /// 1-based spec line.
        line: usize,
        /// The key being parsed.
        key: String,
        /// What the key wanted.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "spec contains no statements"),
            SpecError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key `{key}`")
            }
            SpecError::DuplicateKey { line, key } => {
                write!(f, "line {line}: key `{key}` given more than once")
            }
            SpecError::DuplicateValue { line, key, value } => {
                write!(f, "line {line}: `{key}` lists `{value}` more than once")
            }
            SpecError::MissingKey { key } => write!(f, "required key `{key}` is missing"),
            SpecError::MissingValue { line, key } => {
                write!(f, "line {line}: key `{key}` needs at least one value")
            }
            SpecError::UnknownApp { line, name } => write!(
                f,
                "line {line}: unknown app `{name}` (expected one of {})",
                ovlsim_apps::registry::APP_NAMES.join(" ")
            ),
            SpecError::UnknownClass { line, value } => write!(
                f,
                "line {line}: unknown problem class `{value}` (expected S, W, A or B)"
            ),
            SpecError::UnknownMode { line, value } => write!(
                f,
                "line {line}: unknown overlap mode `{value}` (expected real or linear, \
                 optionally suffixed -earlysend, -latewait or -chunked)"
            ),
            SpecError::UnknownEngine { line, value } => write!(
                f,
                "line {line}: unknown engine `{value}` (expected compiled or naive)"
            ),
            SpecError::MalformedNumber { line, key, value } => {
                write!(
                    f,
                    "line {line}: `{key}` value `{value}` is not a valid number"
                )
            }
            SpecError::EmptyRange { line, key, reason } => {
                write!(f, "line {line}: `{key}` denotes no points: {reason}")
            }
            SpecError::InvalidFlag { line, key, value } => {
                write!(f, "line {line}: `{key}` wants `on` or `off`, got `{value}`")
            }
            SpecError::InvalidPerturbation { line, key, reason } => {
                write!(f, "line {line}: `{key}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses an overlap-mode label (an [`OverlapMode::label`] without the
/// `ovl-` prefix): `real` or `linear`, optionally suffixed `-earlysend`,
/// `-latewait` or `-chunked`.
pub fn parse_mode(s: &str) -> Option<OverlapMode> {
    let (pattern, rest) = if let Some(rest) = s.strip_prefix("real") {
        (PatternSource::Real, rest)
    } else if let Some(rest) = s.strip_prefix("linear") {
        (PatternSource::Linear, rest)
    } else {
        return None;
    };
    let mechanisms = match rest {
        "" => Mechanisms::BOTH,
        "-earlysend" => Mechanisms::EARLY_SEND_ONLY,
        "-latewait" => Mechanisms::LATE_WAIT_ONLY,
        "-chunked" => Mechanisms::NONE,
        _ => return None,
    };
    Some(OverlapMode {
        pattern,
        mechanisms,
    })
}

fn parse_class(s: &str) -> Option<ProblemClass> {
    s.parse().ok()
}

/// A parsed, validated campaign description.
///
/// Construct with [`CampaignSpec::parse`]; run with [`run_campaign_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign (and report) name.
    pub name: String,
    /// Registered application names, in spec order.
    pub apps: Vec<String>,
    /// Problem classes to trace each app at.
    pub classes: Vec<ProblemClass>,
    /// Overlap modes to synthesize per trace.
    pub modes: Vec<OverlapMode>,
    /// Replay engines to run each point on.
    pub engines: Vec<Engine>,
    /// Inter-node bandwidth points.
    pub bandwidths: Vec<Bandwidth>,
    /// Node packings (1 = flat platform).
    pub ranks_per_node: Vec<u32>,
    /// Shared-memory bandwidth for packed points.
    pub intra_bandwidth: Bandwidth,
    /// Wire latency.
    pub latency: Time,
    /// Optional override of every app's rank count.
    pub ranks: Option<usize>,
    /// Optional override of every app's iteration count.
    pub iterations: Option<usize>,
    /// Per-point attribution columns: each row additionally reports the
    /// original replay's total communication wait, total resource-queue
    /// contention, and the top overlap-gain channel (computed through an
    /// observed replay of the original trace).
    pub attribution: bool,
    /// Seed of the per-point [`PerturbationModel`]s (`noise seed`).
    pub noise_seed: u64,
    /// OS-noise levels — a grid axis like `bandwidths` (`noise level`;
    /// default `[0.0]` = clean).
    pub noise_levels: Vec<f64>,
    /// Campaign-wide straggler axis: `(slowdown, ranks)` when the spec
    /// enables it.
    pub stragglers: Option<(f64, Vec<u32>)>,
    /// Campaign-wide transient link-fault axis: `(period, downtime)` when
    /// the spec enables it.
    pub faults: Option<(Time, Time)>,
    /// Per-point auto-tuning columns (`tune on`): each row additionally
    /// runs the attribution-guided overlap auto-tuner on its point's
    /// platform and reports the tuned makespan and winning per-channel
    /// plan next to the uniform-mode makespan.
    pub tune: bool,
    /// Auto-tuner evaluation budget per point (`tune budget`, 1 to 4096;
    /// the tuner refuses a larger one).
    pub tune_budget: usize,
    /// Auto-tuner search seed (`tune seed`).
    pub tune_seed: u64,
    /// Execution-only engine override (the CLI's `--force-engine`): every
    /// point *runs* on this engine while the report still carries the
    /// spec's engine labels. Because all engines are bit-identical, a
    /// forced report is byte-for-byte the unforced one — the knob exists
    /// so CI can re-execute a committed golden corpus on another engine
    /// and diff the reports. Not part of the spec grammar; [`parse`]
    /// always leaves it `None`.
    ///
    /// [`parse`]: CampaignSpec::parse
    pub force_engine: Option<Engine>,
}

/// One expanded grid point (the unit [`run_campaign_with`] replays twice:
/// original and overlapped).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPoint {
    /// Application name.
    pub app: String,
    /// Problem class.
    pub class: ProblemClass,
    /// Overlap-mode label (`ovl-linear`, …).
    pub mode: String,
    /// Replay engine.
    pub engine: Engine,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// OS-noise level of the point's perturbation model.
    pub noise_level: f64,
    /// Inter-node bandwidth.
    pub bandwidth: Bandwidth,
}

impl CampaignSpec {
    /// Parses a spec from its text form.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] encountered, with its line number.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let mut name: Option<String> = None;
        let mut apps: Option<Vec<String>> = None;
        let mut classes: Option<Vec<ProblemClass>> = None;
        let mut modes: Option<Vec<OverlapMode>> = None;
        let mut engines: Option<Vec<Engine>> = None;
        let mut bandwidths: Option<Vec<Bandwidth>> = None;
        let mut ranks_per_node: Option<Vec<u32>> = None;
        let mut intra_bandwidth: Option<Bandwidth> = None;
        let mut latency: Option<Time> = None;
        let mut ranks: Option<usize> = None;
        let mut iterations: Option<usize> = None;
        let mut attribution: Option<bool> = None;
        let mut noise_seed: Option<u64> = None;
        let mut noise_levels: Option<Vec<f64>> = None;
        let mut stragglers: Option<(f64, Vec<u32>)> = None;
        let mut faults: Option<(Time, Time)> = None;
        let mut tune: Option<bool> = None;
        let mut tune_budget: Option<usize> = None;
        let mut tune_seed: Option<u64> = None;

        let mut saw_statement = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stmt = raw.split('#').next().unwrap_or("").trim();
            if stmt.is_empty() {
                continue;
            }
            saw_statement = true;
            let mut tokens = stmt.split_whitespace();
            let key = tokens.next().expect("non-empty statement has a key");
            let values: Vec<&str> = tokens.collect();
            let dup = |taken: bool| -> Result<(), SpecError> {
                if taken {
                    Err(SpecError::DuplicateKey {
                        line,
                        key: key.to_string(),
                    })
                } else {
                    Ok(())
                }
            };
            let distinct = |taken: bool, value: &str| -> Result<(), SpecError> {
                if taken {
                    Err(SpecError::DuplicateValue {
                        line,
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                } else {
                    Ok(())
                }
            };
            let nonempty = || -> Result<(), SpecError> {
                if values.is_empty() {
                    Err(SpecError::MissingValue {
                        line,
                        key: key.to_string(),
                    })
                } else {
                    Ok(())
                }
            };
            let number = |value: &str| -> Result<f64, SpecError> {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| SpecError::MalformedNumber {
                        line,
                        key: key.to_string(),
                        value: value.to_string(),
                    })
            };
            let positive_bandwidth = |value: &str| -> Result<Bandwidth, SpecError> {
                Bandwidth::from_bytes_per_sec(number(value)?).map_err(|_| {
                    SpecError::MalformedNumber {
                        line,
                        key: key.to_string(),
                        value: value.to_string(),
                    }
                })
            };
            match key {
                "campaign" => {
                    dup(name.is_some())?;
                    nonempty()?;
                    name = Some(values.join("-"));
                }
                "apps" => {
                    dup(apps.is_some())?;
                    nonempty()?;
                    let mut list = Vec::new();
                    for v in &values {
                        if !ovlsim_apps::registry::is_registered(v) {
                            return Err(SpecError::UnknownApp {
                                line,
                                name: v.to_string(),
                            });
                        }
                        distinct(list.iter().any(|a| a == v), v)?;
                        list.push(v.to_string());
                    }
                    apps = Some(list);
                }
                "classes" => {
                    dup(classes.is_some())?;
                    nonempty()?;
                    let mut list = Vec::new();
                    for v in &values {
                        let class = parse_class(v).ok_or_else(|| SpecError::UnknownClass {
                            line,
                            value: v.to_string(),
                        })?;
                        distinct(list.contains(&class), v)?;
                        list.push(class);
                    }
                    classes = Some(list);
                }
                "modes" => {
                    dup(modes.is_some())?;
                    nonempty()?;
                    let mut list = Vec::new();
                    for v in &values {
                        let mode = parse_mode(v).ok_or_else(|| SpecError::UnknownMode {
                            line,
                            value: v.to_string(),
                        })?;
                        distinct(list.contains(&mode), v)?;
                        list.push(mode);
                    }
                    modes = Some(list);
                }
                "engines" => {
                    dup(engines.is_some())?;
                    nonempty()?;
                    let mut list = Vec::new();
                    for v in &values {
                        let engine = Engine::parse(v).ok_or_else(|| SpecError::UnknownEngine {
                            line,
                            value: v.to_string(),
                        })?;
                        distinct(list.contains(&engine), v)?;
                        list.push(engine);
                    }
                    engines = Some(list);
                }
                "bandwidths" => {
                    dup(bandwidths.is_some())?;
                    nonempty()?;
                    match values[0] {
                        "log" => {
                            if values.len() != 4 {
                                return Err(SpecError::EmptyRange {
                                    line,
                                    key: key.to_string(),
                                    reason: format!(
                                        "`log` takes exactly <lo> <hi> <points>, got {} values",
                                        values.len() - 1
                                    ),
                                });
                            }
                            let lo = number(values[1])?;
                            let hi = number(values[2])?;
                            let points: usize =
                                values[3].parse().map_err(|_| SpecError::MalformedNumber {
                                    line,
                                    key: key.to_string(),
                                    value: values[3].to_string(),
                                })?;
                            if !(lo > 0.0 && hi >= lo) {
                                return Err(SpecError::EmptyRange {
                                    line,
                                    key: key.to_string(),
                                    reason: format!("need 0 < lo <= hi, got lo={lo} hi={hi}"),
                                });
                            }
                            if points == 0 || (points == 1 && hi > lo) {
                                return Err(SpecError::EmptyRange {
                                    line,
                                    key: key.to_string(),
                                    reason: format!(
                                        "need at least 2 points to span {lo}..{hi} (got {points})"
                                    ),
                                });
                            }
                            // Quantize the interpolated grid to integer
                            // bytes/s: ln/exp are not IEEE-specified, so
                            // raw results can differ by an ulp across
                            // libm versions — a committed golden report
                            // must not depend on the host's math library.
                            let mut grid: Vec<Bandwidth> = Vec::new();
                            for bw in crate::log_bandwidths(lo, hi, points) {
                                let bps = bw.bytes_per_sec().round().max(1.0);
                                let bw = Bandwidth::from_bytes_per_sec(bps)
                                    .expect("rounded positive bandwidth is valid");
                                distinct(grid.contains(&bw), &bps.to_string())?;
                                grid.push(bw);
                            }
                            bandwidths = Some(grid);
                        }
                        "list" => {
                            if values.len() < 2 {
                                return Err(SpecError::EmptyRange {
                                    line,
                                    key: key.to_string(),
                                    reason: "`list` needs at least one value".to_string(),
                                });
                            }
                            let mut list = Vec::new();
                            for v in &values[1..] {
                                let bw = positive_bandwidth(v)?;
                                distinct(list.contains(&bw), v)?;
                                list.push(bw);
                            }
                            bandwidths = Some(list);
                        }
                        other => {
                            return Err(SpecError::EmptyRange {
                                line,
                                key: key.to_string(),
                                reason: format!("expected `log` or `list`, got `{other}`"),
                            });
                        }
                    }
                }
                "ranks-per-node" => {
                    dup(ranks_per_node.is_some())?;
                    nonempty()?;
                    let mut list = Vec::new();
                    for v in &values {
                        let rpn: u32 = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            SpecError::MalformedNumber {
                                line,
                                key: key.to_string(),
                                value: v.to_string(),
                            }
                        })?;
                        distinct(list.contains(&rpn), v)?;
                        list.push(rpn);
                    }
                    ranks_per_node = Some(list);
                }
                "intra-bandwidth" => {
                    dup(intra_bandwidth.is_some())?;
                    nonempty()?;
                    intra_bandwidth = Some(positive_bandwidth(values[0])?);
                }
                "latency-us" => {
                    dup(latency.is_some())?;
                    nonempty()?;
                    let us: u64 =
                        values[0]
                            .parse()
                            .ok()
                            .ok_or_else(|| SpecError::MalformedNumber {
                                line,
                                key: key.to_string(),
                                value: values[0].to_string(),
                            })?;
                    latency = Some(Time::from_us(us));
                }
                "ranks" => {
                    dup(ranks.is_some())?;
                    nonempty()?;
                    ranks = Some(values[0].parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        SpecError::MalformedNumber {
                            line,
                            key: key.to_string(),
                            value: values[0].to_string(),
                        }
                    })?);
                }
                "iterations" => {
                    dup(iterations.is_some())?;
                    nonempty()?;
                    iterations =
                        Some(values[0].parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            SpecError::MalformedNumber {
                                line,
                                key: key.to_string(),
                                value: values[0].to_string(),
                            }
                        })?);
                }
                "noise" => {
                    // Two sub-keys share the `noise` keyword, so
                    // duplicate detection is per sub-key.
                    nonempty()?;
                    let bad = |reason: String| SpecError::InvalidPerturbation {
                        line,
                        key: key.to_string(),
                        reason,
                    };
                    match values[0] {
                        "seed" => {
                            dup(noise_seed.is_some())?;
                            if values.len() != 2 {
                                return Err(bad(format!(
                                    "`seed` takes exactly one value, got {}",
                                    values.len() - 1
                                )));
                            }
                            noise_seed = Some(values[1].parse::<u64>().map_err(|_| {
                                SpecError::MalformedNumber {
                                    line,
                                    key: key.to_string(),
                                    value: values[1].to_string(),
                                }
                            })?);
                        }
                        "level" => {
                            dup(noise_levels.is_some())?;
                            if values.len() < 2 {
                                return Err(bad("`level` needs at least one value".to_string()));
                            }
                            let mut list = Vec::new();
                            for v in &values[1..] {
                                let l = number(v)?;
                                if l < 0.0 {
                                    return Err(bad(format!(
                                        "noise level must be non-negative, got {l}"
                                    )));
                                }
                                distinct(list.contains(&l), v)?;
                                list.push(l);
                            }
                            noise_levels = Some(list);
                        }
                        other => {
                            return Err(bad(format!("expected `seed` or `level`, got `{other}`")));
                        }
                    }
                }
                "stragglers" => {
                    dup(stragglers.is_some())?;
                    nonempty()?;
                    let bad = |reason: String| SpecError::InvalidPerturbation {
                        line,
                        key: key.to_string(),
                        reason,
                    };
                    if values.len() < 2 {
                        return Err(bad("wants <slowdown> <rank...>".to_string()));
                    }
                    let slowdown = number(values[0])?;
                    if slowdown < 1.0 {
                        return Err(bad(format!("slowdown must be at least 1, got {slowdown}")));
                    }
                    let mut ranks = Vec::new();
                    for v in &values[1..] {
                        ranks.push(v.parse::<u32>().map_err(|_| SpecError::MalformedNumber {
                            line,
                            key: key.to_string(),
                            value: v.to_string(),
                        })?);
                    }
                    stragglers = Some((slowdown, ranks));
                }
                "faults" => {
                    dup(faults.is_some())?;
                    nonempty()?;
                    let bad = |reason: String| SpecError::InvalidPerturbation {
                        line,
                        key: key.to_string(),
                        reason,
                    };
                    if values.len() != 2 {
                        return Err(bad(format!(
                            "wants exactly <period-us> <downtime-us>, got {} values",
                            values.len()
                        )));
                    }
                    let us = |v: &str| -> Result<u64, SpecError> {
                        v.parse::<u64>().map_err(|_| SpecError::MalformedNumber {
                            line,
                            key: key.to_string(),
                            value: v.to_string(),
                        })
                    };
                    let (period, down) = (us(values[0])?, us(values[1])?);
                    if down == 0 || down >= period {
                        return Err(bad(format!(
                            "needs 0 < downtime < period, got period={period} downtime={down}"
                        )));
                    }
                    faults = Some((Time::from_us(period), Time::from_us(down)));
                }
                "attribution" => {
                    dup(attribution.is_some())?;
                    nonempty()?;
                    attribution = Some(match values[0] {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(SpecError::InvalidFlag {
                                line,
                                key: key.to_string(),
                                value: other.to_string(),
                            });
                        }
                    });
                }
                "tune" => {
                    // Three sub-keys share the `tune` keyword, so
                    // duplicate detection is per sub-key.
                    nonempty()?;
                    let bad = |reason: String| SpecError::InvalidPerturbation {
                        line,
                        key: key.to_string(),
                        reason,
                    };
                    match values[0] {
                        "on" | "off" => {
                            dup(tune.is_some())?;
                            if values.len() != 1 {
                                return Err(bad(format!(
                                    "`{}` takes no further values, got {}",
                                    values[0],
                                    values.len() - 1
                                )));
                            }
                            tune = Some(values[0] == "on");
                        }
                        "budget" => {
                            dup(tune_budget.is_some())?;
                            if values.len() != 2 {
                                return Err(bad(format!(
                                    "`budget` takes exactly one value, got {}",
                                    values.len() - 1
                                )));
                            }
                            let budget =
                                values[1].parse::<usize>().ok().filter(|&n| n >= 1).ok_or(
                                    SpecError::MalformedNumber {
                                        line,
                                        key: key.to_string(),
                                        value: values[1].to_string(),
                                    },
                                )?;
                            crate::tune::checked_budget(budget).map_err(|e| bad(e.to_string()))?;
                            tune_budget = Some(budget);
                        }
                        "seed" => {
                            dup(tune_seed.is_some())?;
                            if values.len() != 2 {
                                return Err(bad(format!(
                                    "`seed` takes exactly one value, got {}",
                                    values.len() - 1
                                )));
                            }
                            tune_seed = Some(values[1].parse::<u64>().map_err(|_| {
                                SpecError::MalformedNumber {
                                    line,
                                    key: key.to_string(),
                                    value: values[1].to_string(),
                                }
                            })?);
                        }
                        other => {
                            return Err(bad(format!(
                                "expected `on`, `off`, `budget` or `seed`, got `{other}`"
                            )));
                        }
                    }
                }
                _ => {
                    return Err(SpecError::UnknownKey {
                        line,
                        key: key.to_string(),
                    });
                }
            }
        }

        if !saw_statement {
            return Err(SpecError::Empty);
        }
        Ok(CampaignSpec {
            name: name.ok_or(SpecError::MissingKey { key: "campaign" })?,
            apps: apps.ok_or(SpecError::MissingKey { key: "apps" })?,
            classes: classes.unwrap_or_else(|| vec![ProblemClass::A]),
            modes: modes.unwrap_or_else(|| vec![OverlapMode::linear()]),
            engines: engines.unwrap_or_else(|| vec![Engine::Compiled]),
            bandwidths: bandwidths.ok_or(SpecError::MissingKey { key: "bandwidths" })?,
            ranks_per_node: ranks_per_node.unwrap_or_else(|| vec![1]),
            intra_bandwidth: intra_bandwidth.unwrap_or_else(|| {
                Bandwidth::from_bytes_per_sec(1.0e10).expect("default intra bandwidth is valid")
            }),
            latency: latency.unwrap_or_else(|| Time::from_us(5)),
            ranks,
            iterations,
            attribution: attribution.unwrap_or(false),
            noise_seed: noise_seed.unwrap_or(0),
            noise_levels: noise_levels.unwrap_or_else(|| vec![0.0]),
            stragglers,
            faults,
            tune: tune.unwrap_or(false),
            tune_budget: tune_budget.unwrap_or(crate::tune::DEFAULT_TUNE_BUDGET),
            tune_seed: tune_seed.unwrap_or(0),
            force_engine: None,
        })
    }

    /// True when the spec perturbs anything: a positive noise level,
    /// stragglers, or faults. Perturbed campaigns carry a `noise_level`
    /// report column; clean ones render byte-identically to specs without
    /// the perturbation keys.
    pub fn perturbed(&self) -> bool {
        self.noise_levels.iter().any(|&l| l > 0.0)
            || self.stragglers.is_some()
            || self.faults.is_some()
    }

    /// Builds the point-level perturbation model at `noise_level`. The
    /// `expect`s hold by construction: every axis was domain-checked
    /// during [`CampaignSpec::parse`].
    pub fn perturbation_at(&self, noise_level: f64) -> PerturbationModel {
        let mut model = PerturbationModel::new(self.noise_seed)
            .with_noise(noise_level)
            .expect("noise level validated at parse");
        if let Some((slowdown, ranks)) = &self.stragglers {
            model = model
                .with_stragglers(ranks, *slowdown)
                .expect("straggler slowdown validated at parse");
        }
        if let Some((period, down)) = self.faults {
            model = model
                .with_faults(period, down)
                .expect("fault window validated at parse");
        }
        model
    }

    /// Expands the grid into its points, in report order: app-major, then
    /// class, mode, engine, ranks-per-node, noise level, bandwidth.
    pub fn expand(&self) -> Vec<CampaignPoint> {
        let mut points = Vec::with_capacity(self.point_count());
        for app in &self.apps {
            for &class in &self.classes {
                for &mode in &self.modes {
                    for &engine in &self.engines {
                        for &rpn in &self.ranks_per_node {
                            for &noise in &self.noise_levels {
                                for &bw in &self.bandwidths {
                                    points.push(CampaignPoint {
                                        app: app.clone(),
                                        class,
                                        mode: mode.label(),
                                        engine,
                                        ranks_per_node: rpn,
                                        noise_level: noise,
                                        bandwidth: bw,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Number of grid points ([`CampaignSpec::expand`] without the
    /// allocation).
    pub fn point_count(&self) -> usize {
        self.apps.len()
            * self.classes.len()
            * self.modes.len()
            * self.engines.len()
            * self.ranks_per_node.len()
            * self.noise_levels.len()
            * self.bandwidths.len()
    }
}

/// Per-point attribution summary of the *original* replay (present when
/// the spec sets `attribution on`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowAttribution {
    /// Total communication wait across ranks (blocked + contended +
    /// collective time).
    pub orig_wait: Time,
    /// Total transport resource-queue time across ranks (both domains).
    pub orig_contended: Time,
    /// Top-ranked channel by overlap gain potential, if any.
    pub top_channel: Option<u32>,
    /// That channel's gain potential (zero when no channel exists).
    pub top_gain: Time,
}

/// Per-point auto-tuner summary (present when the spec sets `tune on`):
/// the makespan of the tuned per-channel overlap plan and the plan itself,
/// to compare against the row's uniform-mode `overlapped` makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowTune {
    /// Best makespan the tuner found within its budget.
    pub tuned: Time,
    /// The winning plan, rendered (`OverlapPlan::render`).
    pub plan: String,
}

/// One measured campaign point: original vs overlapped makespan on one
/// platform under one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Application name.
    pub app: String,
    /// Problem class the app was traced at.
    pub class: ProblemClass,
    /// Overlap-mode label.
    pub mode: String,
    /// Replay engine that produced this row.
    pub engine: Engine,
    /// Ranks per node of the platform point.
    pub ranks_per_node: u32,
    /// OS-noise level of the point's perturbation model.
    pub noise_level: f64,
    /// Inter-node bandwidth of the platform point.
    pub bandwidth: Bandwidth,
    /// Makespan of the original execution.
    pub original: Time,
    /// Makespan of the overlapped execution.
    pub overlapped: Time,
    /// Fraction of rank-time the original spends communicating.
    pub comm_fraction: f64,
    /// Attribution columns (only when the spec sets `attribution on`).
    pub attribution: Option<RowAttribution>,
    /// Auto-tuner columns (only when the spec sets `tune on`).
    pub tuned: Option<RowTune>,
}

impl CampaignRow {
    /// `original / overlapped` makespan ratio (degenerate zero overlapped
    /// makespan counts as parity).
    pub fn speedup(&self) -> f64 {
        if self.overlapped.is_zero() {
            return 1.0;
        }
        self.original.as_secs_f64() / self.overlapped.as_secs_f64()
    }

    /// `overlapped / tuned` makespan ratio: how much the tuned plan gains
    /// over the row's uniform mode (1.0 when tuning is off or degenerate).
    pub fn tuned_speedup(&self) -> f64 {
        match &self.tuned {
            Some(t) if !t.tuned.is_zero() => self.overlapped.as_secs_f64() / t.tuned.as_secs_f64(),
            _ => 1.0,
        }
    }
}

/// A completed campaign: every grid point measured, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub campaign: String,
    /// Whether rows carry attribution columns (spec `attribution on`).
    pub attribution: bool,
    /// Whether rows carry a `noise_level` column (the spec used a
    /// perturbation key; see [`CampaignSpec::perturbed`]).
    pub perturbed: bool,
    /// Whether rows carry auto-tuner columns (spec `tune on`).
    pub tuned: bool,
    /// Measured rows in [`CampaignSpec::expand`] order.
    pub rows: Vec<CampaignRow>,
}

/// Escapes a string for embedding in a JSON document: `"` and `\` take a
/// backslash, and every control character is written as `\u00XX`.
/// The one escaper behind every report and every serve response.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl CampaignReport {
    /// Renders the report as deterministic JSON: one row per line, times
    /// as integer picoseconds, floats in Rust's shortest-roundtrip form.
    /// Identical simulations produce byte-identical output, which is what
    /// golden comparison and the determinism tests rely on.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"campaign\": \"{}\",\n",
            json_escape(&self.campaign)
        ));
        out.push_str(&format!("  \"points\": {},\n", self.rows.len()));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            let attr = match &row.attribution {
                None => String::new(),
                Some(a) => format!(
                    ",\"orig_wait_ps\":{},\"orig_contended_ps\":{},\
                     \"top_channel\":{},\"top_gain_ps\":{}",
                    a.orig_wait.as_ps(),
                    a.orig_contended.as_ps(),
                    a.top_channel
                        .map_or_else(|| "null".to_string(), |c| c.to_string()),
                    a.top_gain.as_ps(),
                ),
            };
            let noise = if self.perturbed {
                format!("\"noise_level\":{},", row.noise_level)
            } else {
                String::new()
            };
            let tune = match &row.tuned {
                None => String::new(),
                Some(t) => format!(
                    ",\"tuned_ps\":{},\"tuned_speedup\":{},\"tuned_plan\":\"{}\"",
                    t.tuned.as_ps(),
                    row.tuned_speedup(),
                    json_escape(&t.plan),
                ),
            };
            out.push_str(&format!(
                "    {{\"app\":\"{}\",\"class\":\"{}\",\"mode\":\"{}\",\"engine\":\"{}\",\
                 \"ranks_per_node\":{},{noise}\"bandwidth_bytes_per_sec\":{},\
                 \"original_ps\":{},\"overlapped_ps\":{},\
                 \"comm_fraction\":{},\"speedup\":{}{attr}{tune}}}{sep}\n",
                json_escape(&row.app),
                row.class,
                json_escape(&row.mode),
                row.engine,
                row.ranks_per_node,
                row.bandwidth.bytes_per_sec(),
                row.original.as_ps(),
                row.overlapped.as_ps(),
                row.comm_fraction,
                row.speedup(),
            ));
        }
        out.push_str("  ]");
        // Perturbed campaigns additionally pin the headline retention
        // curve, with `null` where no scenario has a positive clean-gain
        // baseline (instead of leaking NaN/inf into the report).
        if self.perturbed {
            out.push_str(",\n  \"retention\": [\n");
            let retention = self.retention_by_level();
            for (i, (level, r)) in retention.iter().enumerate() {
                let sep = if i + 1 == retention.len() { "" } else { "," };
                out.push_str(&format!(
                    "    {{\"noise_level\":{},\"retention\":{}}}{sep}\n",
                    level,
                    r.map_or_else(|| "null".to_string(), |v| v.to_string()),
                ));
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the report as CSV with the same columns as the JSON rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("app,class,mode,engine,ranks_per_node,");
        if self.perturbed {
            out.push_str("noise_level,");
        }
        out.push_str("bandwidth_bytes_per_sec,original_ps,overlapped_ps,comm_fraction,speedup");
        if self.attribution {
            out.push_str(",orig_wait_ps,orig_contended_ps,top_channel,top_gain_ps");
        }
        if self.tuned {
            out.push_str(",tuned_ps,tuned_speedup,tuned_plan");
        }
        out.push('\n');
        for row in &self.rows {
            let noise = if self.perturbed {
                format!("{},", row.noise_level)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{},{},{},{},{},{noise}{},{},{},{},{}",
                row.app,
                row.class,
                row.mode,
                row.engine,
                row.ranks_per_node,
                row.bandwidth.bytes_per_sec(),
                row.original.as_ps(),
                row.overlapped.as_ps(),
                row.comm_fraction,
                row.speedup(),
            ));
            if let Some(a) = &row.attribution {
                out.push_str(&format!(
                    ",{},{},{},{}",
                    a.orig_wait.as_ps(),
                    a.orig_contended.as_ps(),
                    a.top_channel.map_or_else(String::new, |c| c.to_string()),
                    a.top_gain.as_ps(),
                ));
            }
            if let Some(t) = &row.tuned {
                out.push_str(&format!(
                    ",{},{},{}",
                    t.tuned.as_ps(),
                    row.tuned_speedup(),
                    t.plan,
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Mean overlap-gain retention per noise level: for every scenario
    /// (same app, class, mode, engine, packing and bandwidth), each row's
    /// gain `speedup - 1` is divided by the gain of that scenario's
    /// lowest-noise row, and the ratios are averaged per level. Scenarios
    /// whose baseline shows no gain are skipped (there is nothing to
    /// retain — dividing by their zero/negative clean gain would leak
    /// NaN/inf). Returns `(level, mean_retention)` pairs in first-seen row
    /// order — the headline "how much of the overlap win survives noise"
    /// curve of a noise campaign. A level is `None` when *no* scenario at
    /// that level has a positive clean-gain baseline; renderers print it
    /// as `null`/`n/a`.
    pub fn retention_by_level(&self) -> Vec<(f64, Option<f64>)> {
        type Scenario = (String, String, String, Engine, u32, u64);
        fn key(row: &CampaignRow) -> Scenario {
            (
                row.app.clone(),
                row.class.to_string(),
                row.mode.clone(),
                row.engine,
                row.ranks_per_node,
                row.bandwidth.bytes_per_sec().to_bits(),
            )
        }
        // Baseline gain per scenario: the row with the lowest noise level.
        let mut baseline: HashMap<Scenario, (f64, f64)> = HashMap::new();
        for row in &self.rows {
            let entry = baseline
                .entry(key(row))
                .or_insert((row.noise_level, row.speedup() - 1.0));
            if row.noise_level < entry.0 {
                *entry = (row.noise_level, row.speedup() - 1.0);
            }
        }
        // Accumulate ratios per level, in first-seen order. Every level a
        // row mentions appears in the output, even if no scenario can
        // contribute a ratio to it.
        let mut levels: Vec<(f64, f64, usize)> = Vec::new();
        for row in &self.rows {
            let idx = match levels.iter().position(|(l, _, _)| *l == row.noise_level) {
                Some(i) => i,
                None => {
                    levels.push((row.noise_level, 0.0, 0));
                    levels.len() - 1
                }
            };
            let (_, base_gain) = baseline[&key(row)];
            if base_gain <= 0.0 {
                continue;
            }
            levels[idx].1 += (row.speedup() - 1.0) / base_gain;
            levels[idx].2 += 1;
        }
        levels
            .into_iter()
            .map(|(l, sum, n)| (l, (n > 0).then(|| sum / n as f64)))
            .collect()
    }
}

/// One differing line between two rendered reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDiff {
    /// 1-based line number in the reports.
    pub line: usize,
    /// The line in the expected (golden) report, or `"<absent>"`.
    pub expected: String,
    /// The line in the actual report, or `"<absent>"`.
    pub actual: String,
}

/// Compares two rendered reports line by line.
///
/// Reports are deterministic and line-oriented (one grid point per line),
/// so a plain line diff *is* a semantic diff: each entry names the first
/// divergent value of a drifted point. Returns an empty vec iff the
/// reports are byte-identical.
pub fn diff_reports(expected: &str, actual: &str) -> Vec<ReportDiff> {
    const ABSENT: &str = "<absent>";
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut diffs = Vec::new();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            diffs.push(ReportDiff {
                line: i + 1,
                expected: e.unwrap_or(ABSENT).to_string(),
                actual: a.unwrap_or(ABSENT).to_string(),
            });
        }
    }
    diffs
}

/// A traced `app × class × mode` combination: the once-per-group work
/// every platform point of the group shares.
struct Group {
    orig: EngineInput,
    ovl: EngineInput,
}

impl Group {
    /// Replays original and overlapped on `platform`.
    fn replay(
        &self,
        engine: Engine,
        platform: &Platform,
    ) -> Result<(ovlsim_dimemas::ReplayResult, ovlsim_dimemas::ReplayResult), SimError> {
        Ok((
            self.orig.replay(engine, platform)?,
            self.ovl.replay(engine, platform)?,
        ))
    }
}

/// Runs a campaign through an artifact pipeline on up to `threads`
/// workers. The session layer passes its caching pipeline here; results
/// are byte-identical regardless of the pipeline's caching policy.
///
/// Both phases fan out over up to `threads` workers. First one task per
/// app×class pair of the spec builds that pair's groups: the traced
/// bundle, and each mode's original and overlapped variant with the
/// artifacts the engines need. Then one task per grid point replays.
/// Results come back in spec and grid order, so the report is
/// byte-identical at every worker count.
///
/// # Errors
///
/// Propagates app construction, tracing, validation, compilation and
/// replay errors. When several app×class pairs fail to build, the error
/// of the first failing pair in spec order is returned; later pairs may
/// have been built by then.
pub fn run_campaign_with(
    pipeline: &dyn ArtifactPipeline,
    spec: &CampaignSpec,
    threads: usize,
) -> Result<CampaignReport, LabError> {
    let overrides = AppOverrides {
        ranks: spec.ranks,
        iterations: spec.iterations,
    };
    // `--force-engine` substitutes the engine at execution time only: the
    // artifact set is built for the forced engine alone, and every point
    // replays on it, while the report rows keep the spec's labels.
    let exec_engines: Vec<Engine> = match spec.force_engine {
        Some(forced) => vec![forced],
        None => spec.engines.clone(),
    };
    // Once-per-group work, on the worker pool: each app×class pair is one
    // task that traces the app once, then synthesizes (and index/compiles
    // as the engine list requires) each mode variant once. Results merge
    // back in spec order. A caching pipeline collapses repeated artifacts
    // across groups (the original trace is shared by every mode).
    let pairs: Vec<(&String, ProblemClass)> = spec
        .apps
        .iter()
        .flat_map(|app| spec.classes.iter().map(move |&class| (app, class)))
        .collect();
    let built = par::par_map_with(&pairs, threads, |&(app_name, class)| {
        // The bundle (a full tracing run) is materialized only if some
        // variant cannot be served from the pipeline's storage: a warm
        // persistent cache answers every `load_variant` and never traces
        // the app at all (unless tuning needs the transform metadata
        // regardless).
        let mut bundle: Option<Arc<ovlsim_tracer::TraceBundle>> = None;
        if spec.tune {
            bundle = Some(pipeline.bundle(app_name, class, overrides)?);
        }
        let mut variant_of = |mode: Option<OverlapMode>| -> Result<Arc<TraceSet>, LabError> {
            if let Some(trace) = pipeline.load_variant(app_name, class, overrides, mode) {
                return Ok(trace);
            }
            let bundle = match &bundle {
                Some(b) => b,
                None => bundle.insert(pipeline.bundle(app_name, class, overrides)?),
            };
            pipeline.variant(bundle, mode)
        };
        let mut mode_groups = Vec::with_capacity(spec.modes.len());
        for &mode in &spec.modes {
            let ovl = variant_of(Some(mode))?;
            let orig = variant_of(None)?;
            mode_groups.push(Group {
                orig: EngineInput::build(pipeline, orig, &exec_engines, spec.attribution)?,
                ovl: EngineInput::build(pipeline, ovl, &exec_engines, false)?,
            });
        }
        Ok::<_, LabError>((mode_groups, bundle))
    });
    let mut groups: HashMap<(String, ProblemClass, String), Group> = HashMap::new();
    // Auto-tuning re-synthesizes candidate variants from the bundle's
    // transform metadata, so `tune on` keeps each app×class bundle alive
    // for the per-point work.
    let mut bundles: HashMap<(String, ProblemClass), Arc<ovlsim_tracer::TraceBundle>> =
        HashMap::new();
    // In spec order, so a failure returns the first failing pair's error
    // at every worker count.
    for (&(app_name, class), result) in pairs.iter().zip(built) {
        let (mode_groups, bundle) = result?;
        for (mode, group) in spec.modes.iter().zip(mode_groups) {
            groups.insert((app_name.clone(), class, mode.label()), group);
        }
        if let Some(b) = bundle {
            bundles.insert((app_name.clone(), class), b);
        }
    }
    // Per-point work: [`CampaignSpec::expand`] is the single owner of the
    // grid order — its points are fanned out through the shared
    // deterministic pool and come back as rows in the same order.
    let points = spec.expand();
    let base = Platform::builder()
        .latency(spec.latency)
        .intra_node_bandwidth(spec.intra_bandwidth)
        .build();
    let rows: Result<Vec<CampaignRow>, LabError> = par::par_map_with(&points, threads, |point| {
        let group = &groups[&(point.app.clone(), point.class, point.mode.clone())];
        let mut platform = base
            .with_bandwidth(point.bandwidth)
            .with_ranks_per_node(point.ranks_per_node);
        let model = spec.perturbation_at(point.noise_level);
        if !model.is_identity() {
            platform = platform.with_perturbation(model);
        }
        let (orig, ovl) = group.replay(spec.force_engine.unwrap_or(point.engine), &platform)?;
        let attribution = if spec.attribution {
            let trace = group.orig.trace.as_ref().expect("attribution keeps traces");
            let index = group.orig.index.as_ref().expect("attribution keeps index");
            let prog = group
                .orig
                .prog
                .as_ref()
                .expect("attribution keeps programs");
            let (attr, _) =
                crate::attribution::Attribution::analyze_compiled(&platform, trace, index, prog)?;
            let (mut wait, mut contended) = (Time::ZERO, Time::ZERO);
            for b in attr.ranks() {
                wait += b.wait();
                contended += b.contended_inter + b.contended_intra;
            }
            let top = attr
                .ranked_channels()
                .first()
                .map(|c| (c.chan, c.gain_potential));
            Some(RowAttribution {
                orig_wait: wait,
                orig_contended: contended,
                top_channel: top.map(|(c, _)| c),
                top_gain: top.map_or(Time::ZERO, |(_, g)| g),
            })
        } else {
            None
        };
        let tuned = if spec.tune {
            // The tuner's own candidate fan-out nests inside this
            // parallel map and therefore runs sequentially — the
            // trajectory (and thus the row) is byte-identical across
            // worker counts. The forced engine only changes execution
            // strategy: engines are bit-identical, so the report bytes
            // don't depend on it.
            let bundle = &bundles[&(point.app.clone(), point.class)];
            let report = crate::tune::run_tune(
                pipeline,
                bundle,
                &platform,
                &crate::tune::TuneOptions {
                    budget: spec.tune_budget,
                    seed: spec.tune_seed,
                    engine: spec.force_engine.unwrap_or(point.engine),
                },
            )?;
            Some(RowTune {
                tuned: report.best,
                plan: report
                    .best_plan
                    .as_ref()
                    .map_or_else(|| "n/a".to_string(), |p| p.render()),
            })
        } else {
            None
        };
        Ok(CampaignRow {
            app: point.app.clone(),
            class: point.class,
            mode: point.mode.clone(),
            engine: point.engine,
            ranks_per_node: point.ranks_per_node,
            noise_level: point.noise_level,
            bandwidth: point.bandwidth,
            original: orig.total_time(),
            overlapped: ovl.total_time(),
            comm_fraction: orig.comm_fraction(),
            attribution,
            tuned,
        })
    })
    .into_iter()
    .collect();
    Ok(CampaignReport {
        campaign: spec.name.clone(),
        attribution: spec.attribution,
        perturbed: spec.perturbed(),
        tuned: spec.tune,
        rows: rows?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DirectPipeline;

    fn run_direct(spec: &CampaignSpec, threads: usize) -> Result<CampaignReport, LabError> {
        run_campaign_with(&DirectPipeline, spec, threads)
    }

    const MINI: &str = "\
# a tiny two-point campaign
campaign mini
apps sweep3d
classes S
modes linear
bandwidths list 1e8 1e9
ranks 4
iterations 1
";

    #[test]
    fn parses_full_spec_with_defaults() {
        let spec = CampaignSpec::parse(MINI).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.apps, vec!["sweep3d"]);
        assert_eq!(spec.classes, vec![ProblemClass::S]);
        assert_eq!(spec.modes, vec![OverlapMode::linear()]);
        assert_eq!(spec.engines, vec![Engine::Compiled]);
        assert_eq!(spec.bandwidths.len(), 2);
        assert_eq!(spec.ranks_per_node, vec![1]);
        assert_eq!(spec.ranks, Some(4));
        assert_eq!(spec.point_count(), 2);
    }

    #[test]
    fn log_grid_expands() {
        let spec = CampaignSpec::parse(
            "campaign g\napps pop\nbandwidths log 1e6 1e9 4\nranks-per-node 1 2\n",
        )
        .unwrap();
        assert_eq!(spec.bandwidths.len(), 4);
        assert_eq!(spec.point_count(), 8);
        let points = spec.expand();
        assert_eq!(points.len(), 8);
        // Order: rpn major, bandwidth minor.
        assert_eq!(points[0].ranks_per_node, 1);
        assert_eq!(points[3].ranks_per_node, 1);
        assert_eq!(points[4].ranks_per_node, 2);
        assert!((points[0].bandwidth.bytes_per_sec() - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn empty_spec_is_rejected() {
        assert_eq!(CampaignSpec::parse(""), Err(SpecError::Empty));
        assert_eq!(
            CampaignSpec::parse("# only comments\n\n"),
            Err(SpecError::Empty)
        );
        // A non-empty spec missing its required keys names the first
        // missing key instead of claiming the spec is empty.
        assert_eq!(
            CampaignSpec::parse("classes S\nmodes real\n"),
            Err(SpecError::MissingKey { key: "campaign" })
        );
    }

    #[test]
    fn log_grid_is_quantized_to_integer_bytes_per_sec() {
        // ln/exp results vary by an ulp across libm versions; the grid
        // must not, or committed goldens become host-dependent.
        let spec =
            CampaignSpec::parse("campaign q\napps pop\nbandwidths log 1e7 1e10 5\n").unwrap();
        for bw in &spec.bandwidths {
            let bps = bw.bytes_per_sec();
            assert_eq!(bps, bps.round(), "bandwidth {bps} is not an integer");
        }
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        assert_eq!(
            CampaignSpec::parse("campaign x\nbandwidths list 1e8\n"),
            Err(SpecError::MissingKey { key: "apps" })
        );
        assert_eq!(
            CampaignSpec::parse("campaign x\napps pop\n"),
            Err(SpecError::MissingKey { key: "bandwidths" })
        );
        assert_eq!(
            CampaignSpec::parse("apps pop\nbandwidths list 1e8\n"),
            Err(SpecError::MissingKey { key: "campaign" })
        );
    }

    #[test]
    fn unknown_app_is_rejected_with_line() {
        let err =
            CampaignSpec::parse("campaign x\napps pop hpl\nbandwidths list 1e8\n").unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownApp {
                line: 2,
                name: "hpl".into()
            }
        );
    }

    #[test]
    fn unknown_key_class_mode_engine_are_rejected() {
        assert!(matches!(
            CampaignSpec::parse("campaign x\ncolor blue\n").unwrap_err(),
            SpecError::UnknownKey { line: 2, .. }
        ));
        assert!(matches!(
            CampaignSpec::parse("campaign x\nclasses S Z\n").unwrap_err(),
            SpecError::UnknownClass { line: 2, .. }
        ));
        assert!(matches!(
            CampaignSpec::parse("campaign x\nmodes linear quadratic\n").unwrap_err(),
            SpecError::UnknownMode { line: 2, .. }
        ));
        assert!(matches!(
            CampaignSpec::parse("campaign x\nengines compiled turbo\n").unwrap_err(),
            SpecError::UnknownEngine { line: 2, .. }
        ));
        for retired in ["fastforward", "prepared"] {
            assert!(matches!(
                CampaignSpec::parse(&format!("campaign x\nengines compiled {retired}\n"))
                    .unwrap_err(),
                SpecError::UnknownEngine { line: 2, .. }
            ));
        }
    }

    #[test]
    fn mode_suffixes_parse() {
        let spec = CampaignSpec::parse(
            "campaign x\napps pop\nbandwidths list 1e8\n\
             modes real linear real-earlysend linear-latewait real-chunked\n",
        )
        .unwrap();
        let labels: Vec<String> = spec.modes.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "ovl-real",
                "ovl-linear",
                "ovl-real-earlysend",
                "ovl-linear-latewait",
                "ovl-real-chunked"
            ]
        );
    }

    #[test]
    fn duplicate_and_valueless_keys_are_rejected() {
        assert!(matches!(
            CampaignSpec::parse("campaign x\ncampaign y\n").unwrap_err(),
            SpecError::DuplicateKey { line: 2, .. }
        ));
        assert!(matches!(
            CampaignSpec::parse("campaign x\napps\n").unwrap_err(),
            SpecError::MissingValue { line: 2, .. }
        ));
    }

    #[test]
    fn repeated_grid_values_are_rejected() {
        for (axis, value) in [
            ("apps sweep3d pop sweep3d", "sweep3d"),
            ("classes S A S", "S"),
            ("modes linear real linear", "linear"),
            ("engines naive naive", "naive"),
            ("ranks-per-node 1 4 4", "4"),
            ("bandwidths list 1e8 1e9 100000000", "100000000"),
            ("bandwidths log 1 2 5", "1"),
            ("noise level 0 0.1 0.0", "0.0"),
        ] {
            let spec = format!("campaign x\n{axis}\n");
            let key = axis.split(' ').next().unwrap();
            assert_eq!(
                CampaignSpec::parse(&spec).unwrap_err(),
                SpecError::DuplicateValue {
                    line: 2,
                    key: key.to_string(),
                    value: value.to_string(),
                },
                "{axis}"
            );
        }
        // Distinct values on every axis still parse.
        assert!(CampaignSpec::parse(
            "campaign x\napps sweep3d pop\nbandwidths log 1 3 3\nnoise level 0 0.1\n"
        )
        .is_ok());
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for bad in [
            "campaign x\nbandwidths list fast\n",
            "campaign x\nbandwidths log 1e6 1e9 many\n",
            "campaign x\nbandwidths list -5\n",
            "campaign x\nranks-per-node 0\n",
            "campaign x\nranks one\n",
            "campaign x\niterations 0\n",
            "campaign x\nlatency-us 5.5.5\n",
            "campaign x\nintra-bandwidth nan\n",
        ] {
            assert!(
                matches!(
                    CampaignSpec::parse(bad).unwrap_err(),
                    SpecError::MalformedNumber { line: 2, .. }
                ),
                "spec {bad:?} should be a malformed number"
            );
        }
    }

    #[test]
    fn empty_ranges_are_rejected() {
        for bad in [
            "campaign x\nbandwidths log 1e9 1e6 4\n", // inverted
            "campaign x\nbandwidths log 0 1e6 4\n",   // zero lo
            "campaign x\nbandwidths log 1e6 1e9 0\n", // zero points
            "campaign x\nbandwidths log 1e6 1e9 1\n", // one point, wide span
            "campaign x\nbandwidths log 1e6 1e9\n",   // missing operand
            "campaign x\nbandwidths list\n",          // empty list
            "campaign x\nbandwidths linear 1 2 3\n",  // unknown shape
        ] {
            assert!(
                matches!(
                    CampaignSpec::parse(bad).unwrap_err(),
                    SpecError::EmptyRange { line: 2, .. }
                ),
                "spec {bad:?} should be an empty range"
            );
        }
    }

    #[test]
    fn spec_error_displays_mention_the_line() {
        let err = CampaignSpec::parse("campaign x\napps hal9000\n").unwrap_err();
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn mini_campaign_runs_and_reports() {
        let spec = CampaignSpec::parse(MINI).unwrap();
        let report = run_direct(&spec, 1).unwrap();
        assert_eq!(report.campaign, "mini");
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.app, "sweep3d");
            assert!(row.original >= row.overlapped, "overlap never hurts here");
            assert!(row.speedup() >= 1.0 - 1e-9);
            assert!(row.comm_fraction > 0.0 && row.comm_fraction < 1.0);
        }
        let json = report.to_json();
        assert!(json.contains("\"campaign\": \"mini\""));
        assert!(json.ends_with("}\n"));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + two rows");
    }

    #[test]
    fn engines_cross_check_bit_identical() {
        let spec = CampaignSpec::parse(
            "campaign cross\napps sweep3d\nclasses S\nranks 4\niterations 1\n\
             engines compiled naive\nbandwidths list 2e8\nranks-per-node 1 2\n",
        )
        .unwrap();
        let report = run_direct(&spec, 1).unwrap();
        assert_eq!(report.rows.len(), 4);
        // Rows pair up (engine major, rpn minor): each engine's pair of
        // platform points must agree exactly with the other engine's.
        let by_engine: Vec<&[CampaignRow]> = report.rows.chunks(2).collect();
        for other in &by_engine[1..] {
            for (a, b) in by_engine[0].iter().zip(other.iter()) {
                assert_eq!(a.original, b.original, "engines disagree");
                assert_eq!(a.overlapped, b.overlapped, "engines disagree");
                assert_eq!(a.ranks_per_node, b.ranks_per_node);
            }
        }
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_sequential() {
        let spec = CampaignSpec::parse(
            "campaign det\napps sweep3d pop\nclasses S\nranks 4\niterations 1\n\
             modes linear real\nbandwidths list 1e8 1e9\nranks-per-node 1 2\n",
        )
        .unwrap();
        let seq = run_direct(&spec, 1).unwrap();
        for threads in [2, 4] {
            let par = run_direct(&spec, threads).unwrap();
            assert_eq!(
                seq.to_json(),
                par.to_json(),
                "diverged at {threads} threads"
            );
            assert_eq!(seq.to_csv(), par.to_csv());
        }
    }

    #[test]
    fn attribution_flag_parses_and_adds_columns() {
        // Default off; bad values rejected with the line number.
        let spec = CampaignSpec::parse(MINI).unwrap();
        assert!(!spec.attribution);
        assert!(matches!(
            CampaignSpec::parse("campaign x\napps pop\nbandwidths list 1e8\nattribution maybe\n")
                .unwrap_err(),
            SpecError::InvalidFlag { line: 4, .. }
        ));

        let spec = CampaignSpec::parse(&format!("{MINI}attribution on\n")).unwrap();
        assert!(spec.attribution);
        let report = run_direct(&spec, 1).unwrap();
        assert!(report.attribution);
        for row in &report.rows {
            let a = row.attribution.expect("attribution columns present");
            // sweep3d communicates, so the original replay waits somewhere
            // and some channel carries an overlap opportunity.
            assert!(a.orig_wait > Time::ZERO);
            assert!(a.top_channel.is_some());
        }
        let json = report.to_json();
        assert!(json.contains("\"orig_wait_ps\":"));
        assert!(json.contains("\"top_channel\":"));
        let csv = report.to_csv();
        assert!(csv.starts_with("app,class,"));
        assert!(csv.lines().next().unwrap().ends_with(",top_gain_ps"));

        // Off: reports are byte-identical to a spec without the key.
        let plain = run_direct(&CampaignSpec::parse(MINI).unwrap(), 1).unwrap();
        let off = run_direct(
            &CampaignSpec::parse(&format!("{MINI}attribution off\n")).unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(plain.to_json(), off.to_json());
        assert_eq!(plain.to_csv(), off.to_csv());
    }

    #[test]
    fn attribution_campaign_is_deterministic_across_threads() {
        let spec = CampaignSpec::parse(&format!("{MINI}attribution on\n")).unwrap();
        let seq = run_direct(&spec, 1).unwrap();
        let par = run_direct(&spec, 4).unwrap();
        assert_eq!(seq.to_json(), par.to_json());
        assert_eq!(seq.to_csv(), par.to_csv());
    }

    #[test]
    fn perturbation_keys_parse_and_expand_the_grid() {
        let spec = CampaignSpec::parse(
            "campaign n\napps sweep3d\nclasses S\nranks 4\niterations 1\n\
             bandwidths list 2e8\nnoise seed 42\nnoise level 0 0.1\n\
             stragglers 1.5 0 2\nfaults 200 20\n",
        )
        .unwrap();
        assert_eq!(spec.noise_seed, 42);
        assert_eq!(spec.noise_levels, vec![0.0, 0.1]);
        assert_eq!(spec.stragglers, Some((1.5, vec![0, 2])));
        assert_eq!(spec.faults, Some((Time::from_us(200), Time::from_us(20))));
        assert!(spec.perturbed());
        assert_eq!(spec.point_count(), 2);
        let points = spec.expand();
        assert_eq!(points[0].noise_level, 0.0);
        assert_eq!(points[1].noise_level, 0.1);
        // The per-point model folds every axis in.
        let model = spec.perturbation_at(0.1);
        assert!(model.has_compute_effects());
        assert!(model.has_faults());
        assert_eq!(model.seed(), 42);
        // Clean defaults: one zero level, no stragglers or faults.
        let clean = CampaignSpec::parse(MINI).unwrap();
        assert_eq!(clean.noise_seed, 0);
        assert_eq!(clean.noise_levels, vec![0.0]);
        assert!(!clean.perturbed());
        assert!(clean.perturbation_at(0.0).is_identity());
    }

    #[test]
    fn malformed_perturbation_keys_are_rejected() {
        for bad in [
            "campaign x\nnoise tempo 3\n",    // unknown sub-key
            "campaign x\nnoise seed 1 2\n",   // seed takes one value
            "campaign x\nnoise level\n",      // level needs values... (MissingValue-adjacent)
            "campaign x\nnoise level -0.1\n", // negative level
            "campaign x\nstragglers 2.0\n",   // no ranks
            "campaign x\nstragglers 0.5 0\n", // slowdown below 1
            "campaign x\nfaults 200\n",       // missing downtime
            "campaign x\nfaults 20 20\n",     // downtime not below period
            "campaign x\nfaults 20 0\n",      // zero downtime
        ] {
            assert!(
                matches!(
                    CampaignSpec::parse(bad).unwrap_err(),
                    SpecError::InvalidPerturbation { line: 2, .. }
                ),
                "spec {bad:?} should be an invalid perturbation"
            );
        }
        for bad in [
            "campaign x\nnoise seed many\n",
            "campaign x\nnoise level fast\n",
            "campaign x\nstragglers 2.0 minus-one\n",
            "campaign x\nfaults soon 5\n",
        ] {
            assert!(
                matches!(
                    CampaignSpec::parse(bad).unwrap_err(),
                    SpecError::MalformedNumber { line: 2, .. }
                ),
                "spec {bad:?} should be a malformed number"
            );
        }
        // The two noise sub-keys duplicate independently.
        assert!(
            CampaignSpec::parse("campaign x\nnoise seed 1\nnoise level 0.1\n")
                .unwrap_err()
                .to_string()
                .contains("apps")
        ); // only the missing required key remains
        assert!(matches!(
            CampaignSpec::parse("campaign x\nnoise seed 1\nnoise seed 2\n").unwrap_err(),
            SpecError::DuplicateKey { line: 3, .. }
        ));
        let err = CampaignSpec::parse("campaign x\nfaults 20 20\n").unwrap_err();
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn tune_keys_parse_with_defaults_and_reject_bad_values() {
        let spec = CampaignSpec::parse(MINI).unwrap();
        assert!(!spec.tune);
        assert_eq!(spec.tune_budget, crate::tune::DEFAULT_TUNE_BUDGET);
        assert_eq!(spec.tune_seed, 0);
        let spec =
            CampaignSpec::parse(&format!("{MINI}tune on\ntune budget 5\ntune seed 3\n")).unwrap();
        assert!(spec.tune);
        assert_eq!(spec.tune_budget, 5);
        assert_eq!(spec.tune_seed, 3);
        // Tuning is a search axis, not a perturbation: clean goldens stay
        // comparable across engines.
        assert!(!spec.perturbed());
        assert!(
            !CampaignSpec::parse(&format!("{MINI}tune off\n"))
                .unwrap()
                .tune
        );
        // The three sub-keys duplicate independently.
        assert!(CampaignSpec::parse(&format!("{MINI}tune budget 5\ntune seed 3\n")).is_ok());
        assert!(matches!(
            CampaignSpec::parse(&format!("{MINI}tune on\ntune off\n")).unwrap_err(),
            SpecError::DuplicateKey { .. }
        ));
        assert!(matches!(
            CampaignSpec::parse(&format!("{MINI}tune budget 5\ntune budget 6\n")).unwrap_err(),
            SpecError::DuplicateKey { .. }
        ));
        assert!(matches!(
            CampaignSpec::parse(&format!("{MINI}tune seed 1\ntune seed 1\n")).unwrap_err(),
            SpecError::DuplicateKey { .. }
        ));
        // Malformed values and arities are named errors, not defaults.
        for bad in [
            "tune\n",
            "tune budget 0\n",
            "tune budget 4097\n",
            "tune budget 100000000\n",
            "tune budget five\n",
            "tune budget\n",
            "tune seed -1\n",
            "tune seed 1 2\n",
            "tune maybe\n",
            "tune on extra\n",
        ] {
            assert!(
                CampaignSpec::parse(&format!("{MINI}{bad}")).is_err(),
                "spec {bad:?} should be rejected"
            );
        }
        // The budget cap: 4096 is the largest budget taken, and the
        // refusal names the line and the limit.
        let spec = CampaignSpec::parse(&format!("{MINI}tune budget 4096\n")).unwrap();
        assert_eq!(spec.tune_budget, 4096);
        let err = CampaignSpec::parse(&format!("{MINI}tune budget 4097\n")).unwrap_err();
        assert!(
            err.to_string()
                .ends_with("tune budget 4097 is above the limit of 4096 evaluations"),
            "{err}"
        );
    }

    #[test]
    fn tuned_campaign_fills_tuned_columns_and_never_loses_to_uniform() {
        let spec =
            CampaignSpec::parse(&format!("{MINI}tune on\ntune budget 6\ntune seed 1\n")).unwrap();
        let report = run_direct(&spec, 1).unwrap();
        assert!(report.tuned);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            let t = row.tuned.as_ref().expect("tune on fills the column");
            assert!(t.tuned <= row.overlapped, "tuned plan lost to uniform");
            assert!(row.tuned_speedup() >= 1.0);
            assert!(!t.plan.is_empty());
        }
        assert!(report.to_json().contains("\"tuned_ps\":"));
        assert!(report
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("tuned_ps,tuned_speedup,tuned_plan"));
        // Byte-identical across worker counts: the per-point tuner runs
        // sequentially inside campaign workers.
        let par = run_direct(&spec, 4).unwrap();
        assert_eq!(report.to_json(), par.to_json());
        assert_eq!(report.to_csv(), par.to_csv());
        // `tune off` (with sub-keys set) must not change a report byte:
        // committed clean goldens predate the tuner.
        let plain = run_direct(&CampaignSpec::parse(MINI).unwrap(), 1).unwrap();
        let off = run_direct(
            &CampaignSpec::parse(&format!("{MINI}tune off\ntune budget 9\n")).unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(plain.to_json(), off.to_json());
        assert_eq!(plain.to_csv(), off.to_csv());
    }

    #[test]
    fn clean_campaign_reports_are_unchanged_by_the_perturbation_axis() {
        // `noise seed` alone (levels default to the clean [0.0]) must not
        // change a single report byte: committed clean goldens predate
        // the perturbation engine.
        let plain = run_direct(&CampaignSpec::parse(MINI).unwrap(), 1).unwrap();
        assert!(!plain.perturbed);
        assert!(!plain.to_json().contains("noise_level"));
        assert!(!plain.to_csv().contains("noise_level"));
        let seeded = run_direct(
            &CampaignSpec::parse(&format!("{MINI}noise seed 42\n")).unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(plain.to_json(), seeded.to_json());
        assert_eq!(plain.to_csv(), seeded.to_csv());
    }

    #[test]
    fn perturbed_campaign_cross_checks_engines_and_reports_retention() {
        let spec = CampaignSpec::parse(
            "campaign noisy\napps sweep3d\nclasses S\nranks 4\niterations 1\n\
             engines compiled naive\nbandwidths list 2e8\n\
             noise seed 7\nnoise level 0 0.3\nstragglers 1.4 1\nfaults 300 30\n",
        )
        .unwrap();
        let report = run_direct(&spec, 1).unwrap();
        assert!(report.perturbed);
        assert_eq!(report.rows.len(), 4);
        // Rows pair up (engine major, noise minor): both engines must
        // agree bit-exactly at every perturbation point.
        let by_engine: Vec<&[CampaignRow]> = report.rows.chunks(2).collect();
        for other in &by_engine[1..] {
            for (a, b) in by_engine[0].iter().zip(other.iter()) {
                assert_eq!(
                    a.original, b.original,
                    "engines disagree under perturbation"
                );
                assert_eq!(a.overlapped, b.overlapped, "engines disagree");
                assert_eq!(a.noise_level, b.noise_level);
            }
        }
        // Perturbation actually bites: the stressed point is slower.
        assert!(by_engine[0][1].original > by_engine[0][0].original);
        // Retention: the baseline level retains 100% by definition.
        let retention = report.retention_by_level();
        assert_eq!(retention.len(), 2);
        assert_eq!(retention[0], (0.0, Some(1.0)));
        assert!(retention[1].0 == 0.3 && retention[1].1.expect("scenarios have gain").is_finite());
        // The column shows up in both renderings.
        assert!(report.to_json().contains("\"noise_level\":0.3"));
        assert!(report
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .contains("noise_level"));
    }

    #[test]
    fn retention_is_none_when_no_scenario_has_clean_gain() {
        // A scenario whose baseline shows zero gain (original ==
        // overlapped) cannot retain anything: dividing by its clean gain
        // would leak NaN into the report. Such levels must come back as
        // `None` and render as JSON `null`, never NaN/inf.
        let row = |noise_level: f64, original: u64, overlapped: u64| CampaignRow {
            app: "flat".to_string(),
            class: ProblemClass::S,
            mode: "linear".to_string(),
            engine: Engine::Compiled,
            ranks_per_node: 1,
            noise_level,
            bandwidth: Bandwidth::from_bytes_per_sec(1.0e9).unwrap(),
            original: Time::from_ps(original),
            overlapped: Time::from_ps(overlapped),
            comm_fraction: 0.0,
            attribution: None,
            tuned: None,
        };
        let report = CampaignReport {
            campaign: "flatline".to_string(),
            attribution: false,
            perturbed: true,
            tuned: false,
            rows: vec![row(0.0, 1000, 1000), row(0.5, 1400, 1400)],
        };
        let retention = report.retention_by_level();
        assert_eq!(retention, vec![(0.0, None), (0.5, None)]);
        let json = report.to_json();
        assert!(json.contains("{\"noise_level\":0,\"retention\":null}"));
        assert!(json.contains("{\"noise_level\":0.5,\"retention\":null}"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn perturbed_campaign_is_byte_identical_across_threads() {
        let spec = CampaignSpec::parse(
            "campaign det-noise\napps sweep3d\nclasses S\nranks 4\niterations 1\n\
             bandwidths list 1e8 1e9\nnoise seed 9\nnoise level 0.1 0.2\nfaults 250 25\n",
        )
        .unwrap();
        let seq = run_direct(&spec, 1).unwrap();
        for threads in [2, 4] {
            let par = run_direct(&spec, threads).unwrap();
            assert_eq!(
                seq.to_json(),
                par.to_json(),
                "perturbed campaign diverged at {threads} threads"
            );
            assert_eq!(seq.to_csv(), par.to_csv());
        }
    }

    #[test]
    fn diff_reports_flags_drift() {
        assert!(diff_reports("a\nb\n", "a\nb\n").is_empty());
        let diffs = diff_reports("a\nb\nc\n", "a\nX\n");
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].line, 2);
        assert_eq!(diffs[0].expected, "b");
        assert_eq!(diffs[0].actual, "X");
        assert_eq!(diffs[1].actual, "<absent>");
    }

    #[test]
    fn invalid_app_override_surfaces_as_lab_error() {
        // nas-bt requires a perfect square; ranks 6 must fail at build.
        let spec = CampaignSpec::parse("campaign bad\napps nas-bt\nbandwidths list 1e8\nranks 6\n")
            .unwrap();
        match run_direct(&spec, 1) {
            Err(LabError::App(_)) => {}
            other => panic!("expected LabError::App, got {other:?}"),
        }
    }

    /// Builds like [`DirectPipeline`], except that tracing an app in
    /// `failing` fails with an error naming that app.
    struct FailingBundles {
        failing: [&'static str; 2],
    }

    impl ArtifactPipeline for FailingBundles {
        fn bundle(
            &self,
            app: &str,
            class: ProblemClass,
            overrides: AppOverrides,
        ) -> Result<Arc<ovlsim_tracer::TraceBundle>, LabError> {
            if self.failing.contains(&app) {
                return Err(LabError::SearchFailed {
                    what: format!("a bundle of {app}"),
                });
            }
            DirectPipeline.bundle(app, class, overrides)
        }

        fn variant(
            &self,
            bundle: &ovlsim_tracer::TraceBundle,
            mode: Option<OverlapMode>,
        ) -> Result<Arc<TraceSet>, LabError> {
            DirectPipeline.variant(bundle, mode)
        }

        fn index(&self, trace: &Arc<TraceSet>) -> Result<Arc<ovlsim_core::TraceIndex>, LabError> {
            DirectPipeline.index(trace)
        }

        fn compiled(
            &self,
            trace: &Arc<TraceSet>,
            index: &Arc<ovlsim_core::TraceIndex>,
        ) -> Result<Arc<ovlsim_core::CompiledTrace>, LabError> {
            DirectPipeline.compiled(trace, index)
        }
    }

    #[test]
    fn first_failing_pair_in_spec_order_wins_at_every_thread_count() {
        let pipeline = FailingBundles {
            failing: ["pop", "alya"],
        };
        let spec = |apps: &str| {
            CampaignSpec::parse(&format!(
                "campaign errs\napps {apps}\nclasses S W\nbandwidths list 1e9\n\
                 ranks 4\niterations 1\n"
            ))
            .unwrap()
        };
        for threads in [1, 2, 4] {
            for (apps, first) in [("sweep3d pop alya", "pop"), ("sweep3d alya pop", "alya")] {
                let err = run_campaign_with(&pipeline, &spec(apps), threads).unwrap_err();
                assert_eq!(
                    err,
                    LabError::SearchFailed {
                        what: format!("a bundle of {first}"),
                    },
                    "apps {apps} at {threads} threads"
                );
            }
        }
    }
}
