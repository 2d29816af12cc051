//! POP: the Parallel Ocean Program.
//!
//! # Model
//!
//! Each time step couples a compute-heavy *baroclinic* stage (3-D physics,
//! one 4-neighbor halo exchange of moderate size) with a latency-sensitive
//! *barotropic* solver: several iterations of a small 2-D stencil, a thin
//! halo exchange, and a global 8-byte all-reduce (the conjugate-gradient
//! dot product of the free-surface solver). The frequent all-reduces and
//! thin halos leave little room for overlap — the paper reports ≈10%
//! ideal-pattern speedup.
//!
//! # Access patterns
//!
//! POP packs ghost-cell columns into contiguous buffers right before the
//! sends and unpacks immediately after the waits (`boundary_2d` routines):
//! production tail / consumption head, as with the other legacy codes.

use ovlsim_core::{Instr, Rank, Tag};
use ovlsim_tracer::{Application, TraceContext, TraceError};

use crate::class::ProblemClass;
use crate::decomp::Grid2d;
use crate::error::AppConfigError;
use crate::halo::{exchange, HaloLeg};
use crate::kernels::{consumer_kernel, producer_kernel, ConsumptionShape, ProductionShape};

/// The POP application model. Build with [`Pop::builder`].
///
/// # Example
///
/// ```
/// use ovlsim_apps::Pop;
/// use ovlsim_tracer::{Application, TracingSession};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = Pop::builder().ranks(4).iterations(1).build()?;
/// let bundle = TracingSession::new(&app).run()?;
/// assert!(bundle.original().total_p2p_send_bytes() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pop {
    grid: Grid2d,
    iterations: usize,
    baroclinic_instr: u64,
    baroclinic_halo_bytes: u64,
    barotropic_iters: usize,
    barotropic_instr: u64,
    barotropic_halo_bytes: u64,
    pack_fraction: f64,
    unpack_fraction: f64,
}

impl Pop {
    /// Starts building a POP model.
    pub fn builder() -> PopBuilder {
        PopBuilder::default()
    }

    /// The process grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Performs one 4-neighbor halo exchange over dedicated buffers.
    fn halo(
        &self,
        ctx: &mut TraceContext,
        rank: Rank,
        outs: &[ovlsim_core::BufferId; 4],
        ins: &[ovlsim_core::BufferId; 4],
        tag: Tag,
    ) -> Result<(), TraceError> {
        let neighbors = [
            self.grid.west(rank),
            self.grid.east(rank),
            self.grid.north(rank),
            self.grid.south(rank),
        ];
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (i, peer) in neighbors.iter().enumerate() {
            if let Some(peer) = *peer {
                sends.push(HaloLeg {
                    peer,
                    buffer: outs[i],
                    tag,
                });
                recvs.push(HaloLeg {
                    peer,
                    buffer: ins[i],
                    tag,
                });
            }
        }
        exchange(ctx, &sends, &recvs)
    }
}

impl Application for Pop {
    fn name(&self) -> &str {
        "pop"
    }

    fn ranks(&self) -> usize {
        self.grid.ranks()
    }

    fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
        let mk4 = |ctx: &mut TraceContext, label: &str, bytes: u64| {
            [
                ctx.register_buffer(format!("{label}-w"), bytes, 8),
                ctx.register_buffer(format!("{label}-e"), bytes, 8),
                ctx.register_buffer(format!("{label}-n"), bytes, 8),
                ctx.register_buffer(format!("{label}-s"), bytes, 8),
            ]
        };
        let bc_out = mk4(ctx, "bc-out", self.baroclinic_halo_bytes);
        let bc_in = mk4(ctx, "bc-in", self.baroclinic_halo_bytes);
        let bt_out = mk4(ctx, "bt-out", self.barotropic_halo_bytes);
        let bt_in = mk4(ctx, "bt-in", self.barotropic_halo_bytes);

        let unpack_of = |instr: u64, f: f64| ((instr as f64) * f).round().max(1.0) as u64;
        for _step in 0..self.iterations {
            // Baroclinic stage: heavy 3-D physics; ghost columns are
            // packed at the end (`boundary_2d` pack loop).
            let unpack = unpack_of(self.baroclinic_instr, self.unpack_fraction);
            let kernel = producer_kernel(
                Instr::new(self.baroclinic_instr - unpack),
                &bc_out[..],
                ProductionShape::Tail {
                    fraction: self.pack_fraction,
                },
            );
            ctx.kernel(&kernel);
            self.halo(ctx, rank, &bc_out, &bc_in, Tag::new(0))?;
            // … and unpacked immediately after the waits.
            ctx.kernel(&consumer_kernel(
                Instr::new(unpack),
                &bc_in[..],
                ConsumptionShape::Spread,
            ));

            // Barotropic solver: thin stencils, thin halos, dot products.
            for _it in 0..self.barotropic_iters {
                let unpack = unpack_of(self.barotropic_instr, self.unpack_fraction);
                let kernel = producer_kernel(
                    Instr::new(self.barotropic_instr - unpack),
                    &bt_out[..],
                    ProductionShape::Tail {
                        fraction: self.pack_fraction,
                    },
                );
                ctx.kernel(&kernel);
                self.halo(ctx, rank, &bt_out, &bt_in, Tag::new(1))?;
                ctx.kernel(&consumer_kernel(
                    Instr::new(unpack),
                    &bt_in[..],
                    ConsumptionShape::Spread,
                ));
                ctx.allreduce(8);
            }
        }
        Ok(())
    }
}

/// Builder for [`Pop`].
///
/// Defaults: 16 ranks, 2 time steps, 6 000 000-instruction baroclinic
/// stage with 12 288-byte halos, 8 barotropic iterations of 150 000
/// instructions with 4 096-byte halos, 4% pack/unpack passes.
#[derive(Debug, Clone)]
pub struct PopBuilder {
    class: ProblemClass,
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    baroclinic_instr: u64,
    baroclinic_halo_bytes: u64,
    barotropic_iters: usize,
    barotropic_instr: u64,
    barotropic_halo_bytes: u64,
    pack_fraction: f64,
    unpack_fraction: f64,
}

impl Default for PopBuilder {
    fn default() -> Self {
        PopBuilder {
            class: ProblemClass::default(),
            ranks: 16,
            iterations: 2,
            baroclinic_instr: 6_000_000,
            baroclinic_halo_bytes: 12_288,
            barotropic_iters: 8,
            barotropic_instr: 150_000,
            barotropic_halo_bytes: 4_096,
            pack_fraction: 0.04,
            unpack_fraction: 0.04,
        }
    }
}

impl PopBuilder {
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

    /// Sets the baroclinic-stage instruction count.
    pub fn baroclinic_instr(&mut self, instr: u64) -> &mut Self {
        self.baroclinic_instr = instr;
        self
    }

    /// Sets the barotropic iterations per step.
    pub fn barotropic_iters(&mut self, iters: usize) -> &mut Self {
        self.barotropic_iters = iters;
        self
    }

    /// Sets the baroclinic halo size in bytes (multiple of 8).
    pub fn baroclinic_halo_bytes(&mut self, bytes: u64) -> &mut Self {
        self.baroclinic_halo_bytes = bytes;
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
    pub fn build(&self) -> Result<Pop, AppConfigError> {
        if self.ranks == 0 {
            return Err(AppConfigError::BadRankCount {
                ranks: self.ranks,
                requirement: "must be positive",
            });
        }
        if self.iterations == 0 || self.baroclinic_instr == 0 || self.barotropic_instr == 0 {
            return Err(AppConfigError::BadParameter {
                name: "iterations/instr",
                requirement: "must be positive",
            });
        }
        for b in [self.baroclinic_halo_bytes, self.barotropic_halo_bytes] {
            if b == 0 || !b.is_multiple_of(8) {
                return Err(AppConfigError::BadParameter {
                    name: "halo_bytes",
                    requirement: "must be a positive multiple of 8",
                });
            }
        }
        Ok(Pop {
            grid: Grid2d::near_square(self.ranks),
            iterations: self.iterations,
            baroclinic_instr: self.class.scale_instr(self.baroclinic_instr),
            baroclinic_halo_bytes: self.class.scale_bytes(self.baroclinic_halo_bytes),
            barotropic_iters: self.barotropic_iters,
            barotropic_instr: self.class.scale_instr(self.barotropic_instr),
            barotropic_halo_bytes: self.class.scale_bytes(self.barotropic_halo_bytes),
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
        let app = Pop::builder().ranks(4).iterations(1).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        bundle.overlapped_real();
        bundle.overlapped_linear();
    }

    #[test]
    fn allreduce_per_barotropic_iteration() {
        let app = Pop::builder().ranks(4).iterations(2).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        let collectives = bundle.original().ranks()[0]
            .iter()
            .filter(|r| r.is_collective())
            .count();
        // 8 barotropic iters × 2 steps.
        assert_eq!(collectives, 16);
    }

    #[test]
    fn validation_rejects_bad_sizes() {
        assert!(Pop::builder().ranks(0).build().is_err());
        assert!(Pop::builder().baroclinic_halo_bytes(100).build().is_err());
        assert!(Pop::builder().iterations(0).build().is_err());
    }
}
