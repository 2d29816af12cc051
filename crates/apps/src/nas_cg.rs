//! NAS Parallel Benchmarks CG: conjugate-gradient solver.
//!
//! # Model
//!
//! CG iterates a sparse matrix-vector product whose partial result vectors
//! are exchanged with a transpose partner, followed by two scalar
//! all-reduces (the `rho` and `alpha` dot products). Communication is a
//! small fraction of each iteration (the paper reports only ≈10% ideal
//! speedup at intermediate bandwidth).
//!
//! # Access patterns
//!
//! The exchanged vector is the tail of a running accumulation: every
//! element receives its final value only in the last ~1.5% of the matvec
//! (reduction epilogue). The received vector is consumed whole at the
//! start of the following dot-product/matvec (gather head). Both ends are
//! therefore hostile to automatic overlap in the real trace.

use ovlsim_core::{Instr, Rank, Tag};
use ovlsim_tracer::{Application, TraceContext, TraceError};

use crate::class::ProblemClass;
use crate::error::AppConfigError;
use crate::halo::{exchange, HaloLeg};
use crate::kernels::{consumer_kernel, producer_kernel, ConsumptionShape, ProductionShape};

/// The NAS-CG application model. Build with [`NasCg::builder`].
///
/// # Example
///
/// ```
/// use ovlsim_apps::NasCg;
/// use ovlsim_tracer::{Application, TracingSession};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = NasCg::builder().ranks(8).iterations(3).build()?;
/// let bundle = TracingSession::new(&app).run()?;
/// assert_eq!(bundle.original().rank_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NasCg {
    ranks: usize,
    iterations: usize,
    matvec_instr: u64,
    vector_bytes: u64,
    accumulate_fraction: f64,
    gather_fraction: f64,
}

impl NasCg {
    /// Starts building a NAS-CG model.
    pub fn builder() -> NasCgBuilder {
        NasCgBuilder::default()
    }

    /// The transpose partner of `rank`.
    pub fn partner(&self, rank: Rank) -> Rank {
        Rank::new(((rank.index() + self.ranks / 2) % self.ranks) as u32)
    }
}

impl Application for NasCg {
    fn name(&self) -> &str {
        "nas-cg"
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
        let partner = self.partner(rank);
        let send_vec = ctx.register_buffer("w-out", self.vector_bytes, 8);
        let recv_vec = ctx.register_buffer("w-in", self.vector_bytes, 8);
        let tag = Tag::new(0);

        for _iter in 0..self.iterations {
            // Matvec: w = A·p. The outgoing partial-sum vector receives its
            // final values only in the reduction epilogue (production tail).
            let gather_instr = ((self.matvec_instr as f64) * self.gather_fraction).round() as u64;
            let matvec = producer_kernel(
                Instr::new(self.matvec_instr - gather_instr),
                &[send_vec],
                ProductionShape::Tail {
                    fraction: self.accumulate_fraction,
                },
            );
            ctx.kernel(&matvec);

            exchange(
                ctx,
                &[HaloLeg {
                    peer: partner,
                    buffer: send_vec,
                    tag,
                }],
                &[HaloLeg {
                    peer: partner,
                    buffer: recv_vec,
                    tag,
                }],
            )?;

            // The local dot-product contribution reads the whole received
            // vector right after the exchange (immediate consumption).
            let dot = consumer_kernel(
                Instr::new(gather_instr.max(1)),
                &[recv_vec],
                ConsumptionShape::Spread,
            );
            ctx.kernel(&dot);

            // rho and alpha dot products.
            ctx.allreduce(8);
            ctx.allreduce(8);
        }
        Ok(())
    }
}

/// Builder for [`NasCg`].
///
/// Defaults: 16 ranks, 10 iterations, 4 000 000-instruction matvec,
/// 102 400-byte vectors, 1.5% accumulation tail, 2% dot-product pass.
#[derive(Debug, Clone)]
pub struct NasCgBuilder {
    class: ProblemClass,
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    matvec_instr: u64,
    vector_bytes: u64,
    accumulate_fraction: f64,
    gather_fraction: f64,
}

impl Default for NasCgBuilder {
    fn default() -> Self {
        NasCgBuilder {
            class: ProblemClass::default(),
            ranks: 16,
            iterations: 10,
            matvec_instr: 4_000_000,
            vector_bytes: 102_400,
            accumulate_fraction: 0.015,
            gather_fraction: 0.02,
        }
    }
}

impl NasCgBuilder {
    /// Sets the rank count (must be even, for the transpose pairing).
    pub fn ranks(&mut self, ranks: usize) -> &mut Self {
        self.ranks = ranks;
        self
    }

    /// Sets the iteration count.
    pub fn iterations(&mut self, iterations: usize) -> &mut Self {
        self.iterations = iterations;
        self
    }

    /// Sets the matvec instruction count.
    pub fn matvec_instr(&mut self, instr: u64) -> &mut Self {
        self.matvec_instr = instr;
        self
    }

    /// Sets the exchanged vector size in bytes (multiple of 8).
    pub fn vector_bytes(&mut self, bytes: u64) -> &mut Self {
        self.vector_bytes = bytes;
        self
    }

    /// Applies a NAS-style problem class: scales compute volume and
    /// message sizes together (class A = the calibrated defaults).
    pub fn class(&mut self, class: ProblemClass) -> &mut Self {
        self.class = class;
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Fails unless `ranks` is even and ≥ 2 and sizes are valid.
    pub fn build(&self) -> Result<NasCg, AppConfigError> {
        if self.ranks < 2 || !self.ranks.is_multiple_of(2) {
            return Err(AppConfigError::BadRankCount {
                ranks: self.ranks,
                requirement: "NAS CG pairing requires an even rank count >= 2",
            });
        }
        if self.matvec_instr == 0 || self.iterations == 0 {
            return Err(AppConfigError::BadParameter {
                name: "matvec_instr/iterations",
                requirement: "must be positive",
            });
        }
        if self.vector_bytes == 0 || !self.vector_bytes.is_multiple_of(8) {
            return Err(AppConfigError::BadParameter {
                name: "vector_bytes",
                requirement: "must be a positive multiple of 8",
            });
        }
        Ok(NasCg {
            ranks: self.ranks,
            iterations: self.iterations,
            matvec_instr: self.class.scale_instr(self.matvec_instr),
            vector_bytes: self.class.scale_bytes(self.vector_bytes),
            accumulate_fraction: self.accumulate_fraction,
            gather_fraction: self.gather_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_tracer::TracingSession;

    #[test]
    fn partner_is_symmetric() {
        let app = NasCg::builder().ranks(8).build().unwrap();
        for r in 0..8u32 {
            let rank = Rank::new(r);
            assert_eq!(app.partner(app.partner(rank)), rank);
            assert_ne!(app.partner(rank), rank);
        }
    }

    #[test]
    fn traces_and_validates() {
        let app = NasCg::builder().ranks(4).iterations(2).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        bundle.overlapped_real();
        bundle.overlapped_linear();
        // 2 allreduces per iteration.
        assert_eq!(
            bundle.original().ranks()[0]
                .iter()
                .filter(|r| r.is_collective())
                .count(),
            4
        );
    }

    #[test]
    fn odd_ranks_rejected() {
        assert!(NasCg::builder().ranks(5).build().is_err());
        assert!(NasCg::builder().ranks(1).build().is_err());
    }
}
