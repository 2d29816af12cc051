//! Typed requests and responses: the session's public vocabulary.
//!
//! Each request names its inputs by *content*, never by prior server
//! state: a trace is either inline text ([`TraceSource::Text`]) or a
//! generator descriptor ([`TraceSource::Generated`]), so any two requests
//! describing the same simulation share cache keys — across one batch,
//! across connections, across the whole session lifetime.
//!
//! Responses render to deterministic JSON with the same conventions as
//! the campaign reports (integer picoseconds, shortest-roundtrip floats),
//! so equal requests produce byte-identical response bodies.

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_core::{Bandwidth, Digest, PerturbationModel, Platform, StableHasher, Time};
use ovlsim_lab::{Engine, SweepPoint};
use ovlsim_tracer::OverlapMode;

use crate::error::SessionError;

/// Where a trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// An inline Dimemas-style trace file (`.dim` contents).
    Text {
        /// The trace file contents.
        dim: String,
    },
    /// An inline binary `.ovlb` artifact (see `ovlsim_core::codec`).
    /// Decoding is fully verified: a corrupt body is a typed
    /// [`SessionError::Decode`], never a panic or a wrong trace.
    Binary {
        /// The raw `.ovlb` bytes.
        bytes: Vec<u8>,
    },
    /// A trace synthesized from a registered application model.
    Generated {
        /// Registered app name (see `ovlsim_apps::registry::APP_NAMES`).
        app: String,
        /// Problem class.
        class: ProblemClass,
        /// Rank-count override (the app's default when `None`).
        ranks: Option<usize>,
        /// Iteration-count override (the app's default when `None`).
        iterations: Option<usize>,
        /// Overlap variant: `None` for the original trace, `Some(mode)`
        /// for the transformed one.
        mode: Option<OverlapMode>,
    },
}

impl TraceSource {
    /// The content key of this source. Text sources hash their bytes;
    /// generated sources hash the full generator descriptor, so two
    /// requests for the same app/class/overrides/mode share one artifact.
    pub fn key(&self) -> Digest {
        let mut h = StableHasher::new();
        match self {
            TraceSource::Text { dim } => {
                h.write_str("source:text");
                h.write_str(dim);
            }
            TraceSource::Binary { bytes } => {
                h.write_str("source:binary");
                h.write_bytes(bytes);
            }
            TraceSource::Generated {
                app,
                class,
                ranks,
                iterations,
                mode,
            } => {
                h.write_str("source:generated");
                h.write_str(app);
                h.write_str(&class.to_string());
                h.write_u64(ranks.map_or(0, |r| r as u64 + 1));
                h.write_u64(iterations.map_or(0, |i| i as u64 + 1));
                h.write_str(&mode.map_or_else(|| "original".to_string(), |m| m.label()));
            }
        }
        h.finish()
    }

    /// Builds a [`TraceSource::Binary`] from a hex string — the
    /// transport encoding `ovlsim serve` accepts as `ovlb_hex`, since
    /// raw `.ovlb` bytes cannot ride in a JSON string.
    ///
    /// # Errors
    ///
    /// Rejects odd-length input and non-hex characters as
    /// [`SessionError::BadRequest`].
    pub fn binary_from_hex(hex: &str) -> Result<TraceSource, SessionError> {
        let hex = hex.trim().as_bytes();
        if !hex.len().is_multiple_of(2) {
            return Err(SessionError::BadRequest(
                "`ovlb_hex` must have an even number of hex digits".into(),
            ));
        }
        let nibble = |c: u8| match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(SessionError::BadRequest(format!(
                "`ovlb_hex` has a non-hex character `{}`",
                c.escape_ascii()
            ))),
        };
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for pair in hex.chunks_exact(2) {
            bytes.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
        }
        Ok(TraceSource::Binary { bytes })
    }

    /// The generator overrides of this source (empty for text sources).
    pub(crate) fn overrides(&self) -> AppOverrides {
        match self {
            TraceSource::Text { .. } | TraceSource::Binary { .. } => AppOverrides::default(),
            TraceSource::Generated {
                ranks, iterations, ..
            } => AppOverrides {
                ranks: *ranks,
                iterations: *iterations,
            },
        }
    }
}

/// The replay platform of a request, and of the CLI's `[bytes-per-sec]
/// [latency-us]` arguments (defaults 250e6 bytes/s, 5 us).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlatformSpec {
    /// Inter-node bandwidth in bytes/s (default 250e6).
    pub bandwidth: Option<f64>,
    /// One-way latency in microseconds (default 5).
    pub latency_us: Option<u64>,
}

impl PlatformSpec {
    /// Builds the platform this spec describes.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite bandwidth.
    pub fn build(&self) -> Result<Platform, SessionError> {
        let mut b = Platform::builder();
        b.latency(Time::from_us(self.latency_us.unwrap_or(5)))
            .bandwidth_bytes_per_sec(self.bandwidth.unwrap_or(250e6))
            .map_err(|e| SessionError::BadRequest(e.to_string()))?;
        Ok(b.build())
    }
}

/// Deterministic perturbation settings of a request, and of the CLI's
/// `--seed/--noise/--stragglers/--faults` flags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerturbSpec {
    /// Perturbation seed (default 0).
    pub seed: Option<u64>,
    /// OS-noise level.
    pub noise: Option<f64>,
    /// Straggler ranks at a slowdown factor.
    pub stragglers: Option<(f64, Vec<u32>)>,
    /// Transient link faults: `(period, downtime)` in microseconds.
    pub faults: Option<(u64, u64)>,
}

impl PerturbSpec {
    /// True when any field was given.
    pub fn given(&self) -> bool {
        self.seed.is_some()
            || self.noise.is_some()
            || self.stragglers.is_some()
            || self.faults.is_some()
    }

    /// Builds the model these settings describe (the identity when none
    /// were given).
    ///
    /// # Errors
    ///
    /// Surfaces the core model builders' domain errors as
    /// [`SessionError::BadRequest`].
    pub fn model(&self) -> Result<PerturbationModel, SessionError> {
        let bad = |e: ovlsim_core::CoreError| SessionError::BadRequest(e.to_string());
        let mut m = PerturbationModel::new(self.seed.unwrap_or(0));
        if let Some(level) = self.noise {
            m = m.with_noise(level).map_err(bad)?;
        }
        if let Some((slowdown, ranks)) = &self.stragglers {
            m = m.with_stragglers(ranks, *slowdown).map_err(bad)?;
        }
        if let Some((period, down)) = self.faults {
            m = m
                .with_faults(Time::from_us(period), Time::from_us(down))
                .map_err(bad)?;
        }
        Ok(m)
    }

    /// Applies the settings to `platform` (no-op for the identity).
    ///
    /// # Errors
    ///
    /// Propagates [`PerturbSpec::model`] errors.
    pub fn apply(&self, platform: Platform) -> Result<Platform, SessionError> {
        let model = self.model()?;
        if model.is_identity() {
            Ok(platform)
        } else {
            Ok(platform.with_perturbation(model))
        }
    }
}

/// Replay one trace on one platform point.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRequest {
    /// The trace to replay.
    pub source: TraceSource,
    /// The platform to replay on.
    pub platform: PlatformSpec,
    /// Perturbation settings.
    pub perturb: PerturbSpec,
    /// Replay engine (default compiled).
    pub engine: Engine,
}

/// The result of a [`ReplayRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResponse {
    /// The replayed trace's name.
    pub trace: String,
    /// Makespan.
    pub total: Time,
    /// Fraction of rank-time spent communicating.
    pub comm_fraction: f64,
    /// Per-rank finish times.
    pub rank_finish: Vec<Time>,
}

impl ReplayResponse {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        let finishes: Vec<String> = self
            .rank_finish
            .iter()
            .map(|t| t.as_ps().to_string())
            .collect();
        format!(
            "{{\"trace\":\"{}\",\"total_ps\":{},\"comm_fraction\":{},\"rank_finish_ps\":[{}]}}",
            crate::json::escape(&self.trace),
            self.total.as_ps(),
            self.comm_fraction,
            finishes.join(",")
        )
    }
}

/// Replay an original/overlapped trace pair over a bandwidth range.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The original (non-overlapped) trace.
    pub original: TraceSource,
    /// The overlapped trace to compare against.
    pub overlapped: TraceSource,
    /// Bandwidths in bytes/s, replayed in order.
    pub bandwidths: Vec<Bandwidth>,
    /// One-way latency in microseconds (default 5).
    pub latency_us: Option<u64>,
}

/// The result of a [`SweepRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// One point per requested bandwidth, in request order.
    pub points: Vec<SweepPoint>,
}

impl SweepResponse {
    /// Deterministic JSON rendering (same column conventions as the
    /// campaign report rows).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"bandwidth_bytes_per_sec\":{},\"original_ps\":{},\"overlapped_ps\":{},\
                 \"comm_fraction\":{},\"speedup\":{}}}",
                p.bandwidth.bytes_per_sec(),
                p.original.as_ps(),
                p.overlapped.as_ps(),
                p.comm_fraction,
                p.speedup()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Attribute wait time and extract the critical path of one trace on one
/// platform point.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// The trace to analyze.
    pub source: TraceSource,
    /// The platform to analyze on.
    pub platform: PlatformSpec,
    /// Perturbation settings.
    pub perturb: PerturbSpec,
}

/// Run a full declarative campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// The campaign spec text (the `.campaign` grammar).
    pub spec: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generated(mode: Option<OverlapMode>) -> TraceSource {
        TraceSource::Generated {
            app: "sweep3d".into(),
            class: ProblemClass::S,
            ranks: Some(4),
            iterations: Some(2),
            mode,
        }
    }

    #[test]
    fn source_keys_are_stable_and_field_sensitive() {
        assert_eq!(generated(None).key(), generated(None).key());
        assert_ne!(
            generated(None).key(),
            generated(Some(OverlapMode::linear())).key()
        );
        assert_ne!(
            generated(Some(OverlapMode::real())).key(),
            generated(Some(OverlapMode::linear())).key()
        );
        let text = TraceSource::Text { dim: "x".into() };
        assert_ne!(text.key(), generated(None).key());
        assert_ne!(text.key(), TraceSource::Text { dim: "y".into() }.key());
    }

    #[test]
    fn none_and_zero_overrides_key_differently() {
        let some_zero = TraceSource::Generated {
            app: "pop".into(),
            class: ProblemClass::A,
            ranks: Some(0),
            iterations: None,
            mode: None,
        };
        let none = TraceSource::Generated {
            app: "pop".into(),
            class: ProblemClass::A,
            ranks: None,
            iterations: None,
            mode: None,
        };
        assert_ne!(some_zero.key(), none.key());
    }

    #[test]
    fn platform_spec_defaults_match_the_cli() {
        let p = PlatformSpec::default().build().unwrap();
        assert_eq!(p.latency(), Time::from_us(5));
        assert!((p.bandwidth().bytes_per_sec() - 250e6).abs() < 1.0);
        assert!(PlatformSpec {
            bandwidth: Some(-1.0),
            latency_us: None
        }
        .build()
        .is_err());
    }

    #[test]
    fn perturb_spec_identity_and_errors() {
        assert!(!PerturbSpec::default().given());
        assert!(PerturbSpec::default().model().unwrap().is_identity());
        let bad = PerturbSpec {
            noise: Some(-0.5),
            ..Default::default()
        };
        assert!(matches!(bad.model(), Err(SessionError::BadRequest(_))));
    }
}
