//! SPECFEM3D: spectral-element seismic wave propagation.
//!
//! # Model
//!
//! A spectral-element wavefield update per time step: a large element
//! kernel, then an exchange of assembled boundary degrees of freedom with
//! the four mesh neighbors, then a light Newmark time-integration kernel.
//! Boundary interfaces are large relative to the compute (the paper
//! reports the second-largest ideal-pattern speedup, ≈65%, i.e. a high
//! communication fraction at intermediate bandwidth).
//!
//! # Access patterns
//!
//! Boundary accelerations are accumulated across all elements touching the
//! interface and are gathered into contiguous MPI buffers at the end of
//! the element loop (tail ≈4%); received contributions are scatter-added
//! into the wavefield right after the waits (head ≈4%).

use ovlsim_core::{Instr, Rank, Tag};
use ovlsim_tracer::{Application, TraceContext, TraceError};

use crate::class::ProblemClass;
use crate::decomp::Grid2d;
use crate::error::AppConfigError;
use crate::halo::{exchange, HaloLeg};
use crate::kernels::{consumer_kernel, producer_kernel, ConsumptionShape, ProductionShape};

/// The SPECFEM application model. Build with [`Specfem::builder`].
///
/// # Example
///
/// ```
/// use ovlsim_apps::Specfem;
/// use ovlsim_tracer::{Application, TracingSession};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = Specfem::builder().ranks(4).iterations(2).build()?;
/// let bundle = TracingSession::new(&app).run()?;
/// assert_eq!(bundle.original().rank_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Specfem {
    grid: Grid2d,
    iterations: usize,
    element_instr: u64,
    newmark_instr: u64,
    boundary_bytes: u64,
    pack_fraction: f64,
    unpack_fraction: f64,
}

impl Specfem {
    /// Starts building a SPECFEM model.
    pub fn builder() -> SpecfemBuilder {
        SpecfemBuilder::default()
    }

    /// The process grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }
}

impl Application for Specfem {
    fn name(&self) -> &str {
        "specfem"
    }

    fn ranks(&self) -> usize {
        self.grid.ranks()
    }

    fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
        let neighbors = self.grid.neighbors(rank);
        let mut outs = Vec::with_capacity(neighbors.len());
        let mut ins = Vec::with_capacity(neighbors.len());
        for peer in &neighbors {
            outs.push(ctx.register_buffer(format!("bdry-out-{peer}"), self.boundary_bytes, 8));
            ins.push(ctx.register_buffer(format!("bdry-in-{peer}"), self.boundary_bytes, 8));
        }

        for _step in 0..self.iterations {
            // Element kernel: internal forces; boundary DOFs are gathered
            // into the MPI buffers at the end of the element loop (tail).
            let unpack_instr = ((self.element_instr as f64) * self.unpack_fraction)
                .round()
                .max(1.0) as u64;
            let kernel = producer_kernel(
                Instr::new(self.element_instr - unpack_instr),
                &outs,
                ProductionShape::Tail {
                    fraction: self.pack_fraction,
                },
            );
            ctx.kernel(&kernel);

            let sends: Vec<HaloLeg> = neighbors
                .iter()
                .zip(&outs)
                .map(|(peer, buf)| HaloLeg {
                    peer: *peer,
                    buffer: *buf,
                    tag: Tag::new(0),
                })
                .collect();
            let recvs: Vec<HaloLeg> = neighbors
                .iter()
                .zip(&ins)
                .map(|(peer, buf)| HaloLeg {
                    peer: *peer,
                    buffer: *buf,
                    tag: Tag::new(0),
                })
                .collect();
            exchange(ctx, &sends, &recvs)?;

            // Received contributions are scatter-added immediately.
            ctx.kernel(&consumer_kernel(
                Instr::new(unpack_instr),
                &ins,
                ConsumptionShape::Spread,
            ));

            // Newmark time integration.
            ctx.compute(Instr::new(self.newmark_instr));
        }
        // Final seismogram norm.
        ctx.allreduce(8);
        Ok(())
    }
}

/// Builder for [`Specfem`].
///
/// Defaults: 16 ranks, 4 time steps, 3 000 000-instruction element
/// kernel, 400 000-instruction Newmark kernel, 122 880-byte interfaces,
/// 4% pack/unpack passes.
#[derive(Debug, Clone)]
pub struct SpecfemBuilder {
    class: ProblemClass,
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    element_instr: u64,
    newmark_instr: u64,
    boundary_bytes: u64,
    pack_fraction: f64,
    unpack_fraction: f64,
}

impl Default for SpecfemBuilder {
    fn default() -> Self {
        SpecfemBuilder {
            class: ProblemClass::default(),
            ranks: 16,
            iterations: 4,
            element_instr: 3_000_000,
            newmark_instr: 400_000,
            boundary_bytes: 122_880,
            pack_fraction: 0.04,
            unpack_fraction: 0.04,
        }
    }
}

impl SpecfemBuilder {
    /// Sets the rank count.
    pub fn ranks(&mut self, ranks: usize) -> &mut Self {
        self.ranks = ranks;
        self
    }

    /// Sets the number of time steps.
    pub fn iterations(&mut self, iterations: usize) -> &mut Self {
        self.iterations = iterations;
        self
    }

    /// Sets the element kernel instruction count.
    pub fn element_instr(&mut self, instr: u64) -> &mut Self {
        self.element_instr = instr;
        self
    }

    /// Sets the boundary interface size in bytes (multiple of 8).
    pub fn boundary_bytes(&mut self, bytes: u64) -> &mut Self {
        self.boundary_bytes = bytes;
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
    /// Fails on zero counts or misaligned sizes.
    pub fn build(&self) -> Result<Specfem, AppConfigError> {
        if self.ranks == 0 {
            return Err(AppConfigError::BadRankCount {
                ranks: self.ranks,
                requirement: "must be positive",
            });
        }
        if self.iterations == 0 || self.element_instr == 0 {
            return Err(AppConfigError::BadParameter {
                name: "iterations/element_instr",
                requirement: "must be positive",
            });
        }
        if self.boundary_bytes == 0 || !self.boundary_bytes.is_multiple_of(8) {
            return Err(AppConfigError::BadParameter {
                name: "boundary_bytes",
                requirement: "must be a positive multiple of 8",
            });
        }
        Ok(Specfem {
            grid: Grid2d::near_square(self.ranks),
            iterations: self.iterations,
            element_instr: self.class.scale_instr(self.element_instr),
            newmark_instr: self.class.scale_instr(self.newmark_instr),
            boundary_bytes: self.class.scale_bytes(self.boundary_bytes),
            pack_fraction: self.pack_fraction,
            unpack_fraction: self.unpack_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_tracer::TracingSession;

    #[test]
    fn traces_and_validates() {
        let app = Specfem::builder().ranks(4).iterations(2).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        bundle.overlapped_real();
        bundle.overlapped_linear();
    }

    #[test]
    fn interior_rank_has_four_interfaces() {
        let app = Specfem::builder().ranks(9).iterations(1).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        // Rank 4 = center of 3x3.
        assert_eq!(bundle.metas()[4].sends.len(), 4);
        // Corner rank has two.
        assert_eq!(bundle.metas()[0].sends.len(), 2);
    }

    #[test]
    fn validation() {
        assert!(Specfem::builder().ranks(0).build().is_err());
        assert!(Specfem::builder().boundary_bytes(7).build().is_err());
        assert!(Specfem::builder().iterations(0).build().is_err());
    }
}
