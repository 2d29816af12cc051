//! Alya: an unstructured finite-element multiphysics code (BSC).
//!
//! # Model
//!
//! Alya partitions an unstructured mesh, so each rank talks to an
//! irregular set of neighbors with heterogeneous interface sizes. Per
//! iteration: an element-assembly kernel, an interface exchange with every
//! mesh neighbor, a solver kernel, and two dot-product all-reduces.
//!
//! The neighbor graph and interface sizes are generated deterministically
//! from a seed (every rank computes the same graph), standing in for a
//! METIS-style partition of a real mesh.
//!
//! # Access patterns
//!
//! Interface values are *accumulated* during element assembly: a boundary
//! node's value is final only after its last contributing element, and
//! Alya then gathers the interface nodes into contiguous exchange buffers.
//! Production therefore lands in the trailing ~10% of assembly.
//! Consumption is a scatter-add performed immediately after the waits
//! (leading ~5%).

use ovlsim_core::{BufferId, Instr, Rank, Tag};
use ovlsim_tracer::{Application, TraceContext, TraceError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::class::ProblemClass;
use crate::error::AppConfigError;
use crate::halo::{exchange, HaloLeg};
use crate::kernels::{consumer_kernel, producer_kernel, ConsumptionShape, ProductionShape};

/// The Alya application model. Build with [`Alya::builder`].
///
/// # Example
///
/// ```
/// use ovlsim_apps::Alya;
/// use ovlsim_tracer::{Application, TracingSession};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = Alya::builder().ranks(8).seed(7).build()?;
/// let bundle = TracingSession::new(&app).run()?;
/// assert_eq!(bundle.original().rank_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Alya {
    ranks: usize,
    iterations: usize,
    assembly_instr: u64,
    solve_instr: u64,
    assembly_fraction: f64,
    scatter_fraction: f64,
    /// `neighbors[r]` = sorted `(peer, interface_bytes)` pairs.
    neighbors: Vec<Vec<(Rank, u64)>>,
}

impl Alya {
    /// Starts building an Alya model.
    pub fn builder() -> AlyaBuilder {
        AlyaBuilder::default()
    }

    /// The (deterministic) neighbor list of a rank.
    pub fn neighbors(&self, rank: Rank) -> &[(Rank, u64)] {
        &self.neighbors[rank.index()]
    }
}

/// Builds a symmetric random neighbor graph with expected degree
/// `degree` and interface sizes in `[base/2, 3·base/2]`, rounded to 8.
fn build_graph(ranks: usize, degree: usize, base_bytes: u64, seed: u64) -> Vec<Vec<(Rank, u64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut neighbors: Vec<Vec<(Rank, u64)>> = vec![Vec::new(); ranks];
    if ranks < 2 {
        return neighbors;
    }
    // A ring backbone guarantees everyone has at least two neighbors.
    for r in 0..ranks {
        let next = (r + 1) % ranks;
        let bytes = sized(&mut rng, base_bytes);
        neighbors[r].push((Rank::new(next as u32), bytes));
        neighbors[next].push((Rank::new(r as u32), bytes));
    }
    // Extra random edges up to the requested expected degree.
    let p = (degree.saturating_sub(2)) as f64 / (ranks.saturating_sub(1)) as f64;
    for i in 0..ranks {
        for j in (i + 2)..ranks {
            if (i == 0 && j == ranks - 1) || ranks == 2 {
                continue; // already a ring edge
            }
            if rng.random::<f64>() < p {
                let bytes = sized(&mut rng, base_bytes);
                neighbors[i].push((Rank::new(j as u32), bytes));
                neighbors[j].push((Rank::new(i as u32), bytes));
            }
        }
    }
    for list in &mut neighbors {
        list.sort_by_key(|(r, _)| *r);
    }
    neighbors
}

fn sized(rng: &mut StdRng, base: u64) -> u64 {
    let f = 0.5 + rng.random::<f64>();
    (((base as f64 * f) as u64) / 8).max(1) * 8
}

impl Application for Alya {
    fn name(&self) -> &str {
        "alya"
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
        let peers = self.neighbors(rank);
        let mut outs: Vec<BufferId> = Vec::with_capacity(peers.len());
        let mut ins: Vec<BufferId> = Vec::with_capacity(peers.len());
        for (peer, bytes) in peers {
            outs.push(ctx.register_buffer(format!("iface-out-{peer}"), *bytes, 8));
            ins.push(ctx.register_buffer(format!("iface-in-{peer}"), *bytes, 8));
        }

        for _iter in 0..self.iterations {
            // Element assembly: interface values are accumulated across
            // contributing elements, so they finalize late (tail).
            let scatter_instr = ((self.assembly_instr as f64) * self.scatter_fraction)
                .round()
                .max(1.0) as u64;
            let kernel = producer_kernel(
                Instr::new(self.assembly_instr - scatter_instr),
                &outs,
                ProductionShape::Tail {
                    fraction: self.assembly_fraction,
                },
            );
            ctx.kernel(&kernel);

            let sends: Vec<HaloLeg> = peers
                .iter()
                .zip(&outs)
                .map(|((peer, _), buf)| HaloLeg {
                    peer: *peer,
                    buffer: *buf,
                    tag: Tag::new(0),
                })
                .collect();
            let recvs: Vec<HaloLeg> = peers
                .iter()
                .zip(&ins)
                .map(|((peer, _), buf)| HaloLeg {
                    peer: *peer,
                    buffer: *buf,
                    tag: Tag::new(0),
                })
                .collect();
            exchange(ctx, &sends, &recvs)?;

            // Scatter-add of received contributions right after the waits.
            ctx.kernel(&consumer_kernel(
                Instr::new(scatter_instr),
                &ins,
                ConsumptionShape::Spread,
            ));

            // Krylov solver step + dot products.
            ctx.compute(Instr::new(self.solve_instr));
            ctx.allreduce(8);
            ctx.allreduce(8);
        }
        Ok(())
    }
}

/// Builder for [`Alya`].
///
/// Defaults: 16 ranks, 3 iterations, 4 000 000-instruction assembly,
/// 2 000 000-instruction solve, expected degree 5, 61 440-byte base
/// interfaces, seed 42.
#[derive(Debug, Clone)]
pub struct AlyaBuilder {
    class: ProblemClass,
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    assembly_instr: u64,
    solve_instr: u64,
    degree: usize,
    base_bytes: u64,
    seed: u64,
    assembly_fraction: f64,
    scatter_fraction: f64,
}

impl Default for AlyaBuilder {
    fn default() -> Self {
        AlyaBuilder {
            class: ProblemClass::default(),
            ranks: 16,
            iterations: 3,
            assembly_instr: 4_000_000,
            solve_instr: 2_000_000,
            degree: 5,
            base_bytes: 61_440,
            seed: 42,
            assembly_fraction: 0.10,
            scatter_fraction: 0.05,
        }
    }
}

impl AlyaBuilder {
    /// Sets the rank count.
    pub fn ranks(&mut self, ranks: usize) -> &mut Self {
        self.ranks = ranks;
        self
    }

    /// Sets the iteration count.
    pub fn iterations(&mut self, iterations: usize) -> &mut Self {
        self.iterations = iterations;
        self
    }

    /// Sets the partition seed (same seed ⇒ same mesh graph).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the expected neighbor degree.
    pub fn degree(&mut self, degree: usize) -> &mut Self {
        self.degree = degree;
        self
    }

    /// Sets the base interface size in bytes.
    pub fn base_bytes(&mut self, bytes: u64) -> &mut Self {
        self.base_bytes = bytes;
        self
    }

    /// Sets the assembly kernel instruction count.
    pub fn assembly_instr(&mut self, instr: u64) -> &mut Self {
        self.assembly_instr = instr;
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
    /// Fails on degenerate parameters (fewer than 2 ranks, zero sizes).
    pub fn build(&self) -> Result<Alya, AppConfigError> {
        if self.ranks < 2 {
            return Err(AppConfigError::BadRankCount {
                ranks: self.ranks,
                requirement: "unstructured mesh needs at least 2 ranks",
            });
        }
        if self.iterations == 0 || self.assembly_instr == 0 {
            return Err(AppConfigError::BadParameter {
                name: "iterations/assembly_instr",
                requirement: "must be positive",
            });
        }
        if self.base_bytes < 8 {
            return Err(AppConfigError::BadParameter {
                name: "base_bytes",
                requirement: "must be at least 8",
            });
        }
        Ok(Alya {
            ranks: self.ranks,
            iterations: self.iterations,
            assembly_instr: self.class.scale_instr(self.assembly_instr),
            solve_instr: self.class.scale_instr(self.solve_instr),
            assembly_fraction: self.assembly_fraction,
            scatter_fraction: self.scatter_fraction,
            neighbors: build_graph(
                self.ranks,
                self.degree,
                self.class.scale_bytes(self.base_bytes),
                self.seed,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_tracer::TracingSession;

    #[test]
    fn graph_is_symmetric_and_deterministic() {
        let a = Alya::builder().ranks(12).seed(7).build().unwrap();
        let b = Alya::builder().ranks(12).seed(7).build().unwrap();
        let c = Alya::builder().ranks(12).seed(8).build().unwrap();
        for r in 0..12u32 {
            let rank = Rank::new(r);
            assert_eq!(a.neighbors(rank), b.neighbors(rank));
            // Symmetry: if (r -> p, bytes) then (p -> r, bytes).
            for (peer, bytes) in a.neighbors(rank) {
                assert!(a
                    .neighbors(*peer)
                    .iter()
                    .any(|(q, b2)| *q == rank && b2 == bytes));
            }
            // Everyone has at least the ring neighbors.
            assert!(a.neighbors(rank).len() >= 2);
        }
        // Different seeds give different graphs (with high probability).
        let differs = (0..12u32).any(|r| a.neighbors(Rank::new(r)) != c.neighbors(Rank::new(r)));
        assert!(differs);
    }

    #[test]
    fn interface_sizes_are_aligned() {
        let a = Alya::builder().ranks(8).build().unwrap();
        for r in 0..8u32 {
            for (_, bytes) in a.neighbors(Rank::new(r)) {
                assert_eq!(bytes % 8, 0);
                assert!(*bytes > 0);
            }
        }
    }

    #[test]
    fn traces_and_validates() {
        let app = Alya::builder().ranks(6).iterations(2).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        bundle.overlapped_real();
        bundle.overlapped_linear();
    }

    #[test]
    fn two_rank_mesh_works() {
        let app = Alya::builder().ranks(2).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        assert!(bundle.original().total_p2p_send_bytes() > 0);
    }
}
