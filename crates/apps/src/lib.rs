//! Application models for `ovlsim`: the six codes the paper evaluates plus
//! a fully parameterized synthetic app.
//!
//! The paper traces real MPI applications under Valgrind; this crate
//! substitutes deterministic *models* of the same codes. Each model
//! reproduces the three properties the environment actually consumes:
//!
//! 1. the communication topology and per-message sizes,
//! 2. the per-iteration computation volume (instruction counts), and
//! 3. the **memory access order** over communication buffers — when each
//!    byte of a send buffer receives its final value (production) and when
//!    each byte of a receive buffer is first read (consumption).
//!
//! Property 3 is the paper's central subject: legacy codes pack send
//! buffers immediately before the send and unpack immediately after the
//! receive, which concentrates production at the end and consumption at
//! the beginning of the adjacent bursts and defeats automatic overlap.
//! Each model documents its measured shape in its module docs.
//!
//! | Model | Topology | Real pattern | Paper ideal speedup |
//! |---|---|---|---|
//! | [`NasBt`] | square grid, 3 ADI sweeps | pack/unpack ≈3% | ≈30% |
//! | [`NasCg`] | transpose pairs + allreduce | accumulate tail 15%, gather head 10% | ≈10% |
//! | [`Pop`] | 4-halo + frequent allreduce | pack/unpack ≈4% | ≈10% |
//! | [`Alya`] | random mesh graph | assembly tail 25%, scatter head 5% | ≈40% |
//! | [`Specfem`] | 4-halo, large interfaces | pack/unpack ≈4% | ≈65% |
//! | [`Sweep3d`] | 2-D wavefront pipeline | flux fix-up tail 5% | ≈160% |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alya;
pub mod calibration;
mod class;
mod decomp;
mod error;
mod halo;
mod kernels;
mod nas_bt;
mod nas_cg;
mod pop;
pub mod registry;
mod specfem;
mod sweep3d;
mod synthetic;

pub use alya::{Alya, AlyaBuilder};
pub use class::{ProblemClass, UnknownClassError};
pub use decomp::Grid2d;
pub use error::AppConfigError;
pub use halo::{exchange, HaloLeg};
pub use kernels::{
    consumer_kernel, producer_kernel, stencil_kernel, ConsumptionShape, ProductionShape,
};
pub use nas_bt::{NasBt, NasBtBuilder};
pub use nas_cg::{NasCg, NasCgBuilder};
pub use pop::{Pop, PopBuilder};
pub use specfem::{Specfem, SpecfemBuilder};
pub use sweep3d::{Sweep3d, Sweep3dBuilder};
pub use synthetic::{Synthetic, SyntheticBuilder, Topology};

use ovlsim_tracer::Application;

/// Constructs every paper application with its default (calibrated)
/// parameters: the size a campaign builds at class A, on which
/// `tests/paper_claims.rs` asserts the paper's findings.
pub fn paper_apps() -> Vec<Box<dyn Application>> {
    vec![
        Box::new(NasBt::builder().build().expect("default NAS-BT is valid")),
        Box::new(NasCg::builder().build().expect("default NAS-CG is valid")),
        Box::new(Pop::builder().build().expect("default POP is valid")),
        Box::new(Alya::builder().build().expect("default Alya is valid")),
        Box::new(
            Specfem::builder()
                .build()
                .expect("default SPECFEM is valid"),
        ),
        Box::new(
            Sweep3d::builder()
                .build()
                .expect("default Sweep3D is valid"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_apps_match_calibration_targets() {
        let apps = paper_apps();
        assert_eq!(apps.len(), 6);
        for app in &apps {
            assert!(
                calibration::target_for(app.name()).is_some(),
                "no calibration target for {}",
                app.name()
            );
            assert!(app.ranks() >= 2);
        }
    }
}
