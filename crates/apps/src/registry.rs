//! Name-based construction of the paper's application models.
//!
//! The campaign runner and the `ovlsim` CLI refer to applications by the
//! short names their [`Application::name`] methods report (`nas-bt`,
//! `nas-cg`, `pop`, `alya`, `specfem`, `sweep3d`). This module is the
//! single place that maps those names back to builders, so a scenario can
//! live in a spec file instead of a hand-rolled binary.

use ovlsim_tracer::Application;

use crate::class::ProblemClass;
use crate::error::AppConfigError;
use crate::{Alya, NasBt, NasCg, Pop, Specfem, Sweep3d};

/// The registered application names, in canonical (paper) order.
pub const APP_NAMES: [&str; 6] = ["nas-bt", "nas-cg", "pop", "alya", "specfem", "sweep3d"];

/// Overrides applied uniformly to whichever application is being built.
///
/// `None` fields keep the model's calibrated default. Rank counts must
/// still satisfy the application's topology (e.g. NAS-BT requires a
/// perfect square); violations surface as [`AppConfigError`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppOverrides {
    /// Communicator size, or `None` for the model default.
    pub ranks: Option<usize>,
    /// Iteration count, or `None` for the model default.
    pub iterations: Option<usize>,
}

/// The most ranks a generated application may have.
const MAX_RANKS: usize = 4096;

/// The most rank-iterations (ranks × iterations) a generated application
/// may trace. Tracing time and memory grow with this product.
const MAX_RANK_ITERATIONS: usize = 1 << 20;

/// Refuses sizes whose tracing would exhaust time or memory, before any
/// model is built.
fn check_size(ranks: usize, iterations: usize) -> Result<(), AppConfigError> {
    if ranks > MAX_RANKS {
        return Err(AppConfigError::BadParameter {
            name: "ranks",
            requirement: "must be at most 4096",
        });
    }
    if ranks.saturating_mul(iterations) > MAX_RANK_ITERATIONS {
        return Err(AppConfigError::BadParameter {
            name: "ranks x iterations",
            requirement: "must be at most 1048576",
        });
    }
    Ok(())
}

/// Builds a registered application by name at the given problem class.
///
/// # Errors
///
/// Returns [`AppConfigError::BadParameter`] for an unregistered name
/// (listing the valid ones is the caller's job via [`APP_NAMES`]), for
/// more than 4096 ranks or more than 2^20 ranks × iterations, or whatever
/// the model's builder reports for invalid overrides.
pub fn build_app(
    name: &str,
    class: ProblemClass,
    overrides: AppOverrides,
) -> Result<Box<dyn Application>, AppConfigError> {
    macro_rules! build {
        ($builder:expr) => {{
            let mut b = $builder;
            b.class(class);
            if let Some(r) = overrides.ranks {
                b.ranks(r);
            }
            if let Some(it) = overrides.iterations {
                b.iterations(it);
            }
            check_size(b.ranks, b.iterations)?;
            Ok(Box::new(b.build()?) as Box<dyn Application>)
        }};
    }
    match name {
        "nas-bt" => build!(NasBt::builder()),
        "nas-cg" => build!(NasCg::builder()),
        "pop" => build!(Pop::builder()),
        "alya" => build!(Alya::builder()),
        "specfem" => build!(Specfem::builder()),
        "sweep3d" => build!(Sweep3d::builder()),
        _ => Err(AppConfigError::BadParameter {
            name: "app",
            requirement: "must be one of: nas-bt nas-cg pop alya specfem sweep3d",
        }),
    }
}

/// Whether `name` is a registered application.
pub fn is_registered(name: &str) -> bool {
    APP_NAMES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds_and_matches() {
        for name in APP_NAMES {
            let app = build_app(name, ProblemClass::S, AppOverrides::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(app.name(), name);
            assert!(app.ranks() >= 2);
            assert!(is_registered(name));
        }
    }

    #[test]
    fn registry_agrees_with_paper_apps() {
        let from_registry: Vec<String> = APP_NAMES
            .iter()
            .map(|n| {
                build_app(n, ProblemClass::A, AppOverrides::default())
                    .unwrap()
                    .name()
                    .to_string()
            })
            .collect();
        let from_suite: Vec<String> = crate::paper_apps()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(from_registry, from_suite);
    }

    #[test]
    fn unknown_name_is_rejected() {
        assert!(!is_registered("hpl"));
        let err = build_app("hpl", ProblemClass::A, AppOverrides::default())
            .err()
            .expect("unknown name must not build");
        assert!(format!("{err}").contains("nas-bt"));
    }

    #[test]
    fn bad_override_propagates_the_builder_error() {
        // NAS-BT needs a perfect-square rank count.
        let err = build_app(
            "nas-bt",
            ProblemClass::A,
            AppOverrides {
                ranks: Some(7),
                iterations: None,
            },
        )
        .err()
        .expect("non-square rank count must not build");
        assert!(matches!(err, AppConfigError::BadRankCount { ranks: 7, .. }));
    }

    #[test]
    fn oversized_sources_are_refused_before_building() {
        let build = |app, ranks, iterations| {
            build_app(app, ProblemClass::S, AppOverrides { ranks, iterations })
        };
        // 64² ranks and 4096 × 256 rank-iterations sit exactly at the caps.
        assert!(build("nas-bt", Some(4096), Some(256)).is_ok());
        for (app, ranks, iterations, name) in [
            ("nas-bt", Some(4097), None, "ranks"),
            ("nas-bt", Some(4096), Some(257), "ranks x iterations"),
            ("nas-bt", Some(4), Some(usize::MAX), "ranks x iterations"),
            // The model's default 16 ranks count toward the product.
            ("nas-cg", None, Some(65_537), "ranks x iterations"),
        ] {
            let err = build(app, ranks, iterations).err().expect("refused");
            assert!(
                matches!(err, AppConfigError::BadParameter { name: n, .. } if n == name),
                "{app} {ranks:?} x {iterations:?}: {err}"
            );
        }
    }

    #[test]
    fn overrides_apply() {
        let app = build_app(
            "sweep3d",
            ProblemClass::S,
            AppOverrides {
                ranks: Some(9),
                iterations: Some(1),
            },
        )
        .unwrap();
        assert_eq!(app.ranks(), 9);
    }
}
