//! The configurable target platform.
//!
//! [`Platform`] captures the Dimemas machine model on which traces are
//! replayed: wire latency, network bandwidth, a finite (or unlimited) number
//! of network buses, per-node input/output link counts, the eager/rendezvous
//! protocol threshold, a relative CPU speed factor and the collective cost
//! models. The paper calls this "the configurable platform" on which "the
//! Dimemas simulator … off-line reconstructs the application's time-behavior".

use std::fmt;

use crate::error::CoreError;
use crate::perturb::PerturbationModel;
use crate::time::{Bandwidth, Time};

/// How the number of communication stages of a collective scales with the
/// number of participating ranks `p`.
///
/// The Dimemas collective model prices an operation as
/// `stages(p) × (latency + bytes/bandwidth)`; this enum supplies
/// `stages(p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageModel {
    /// The operation is free (zero stages).
    Zero,
    /// A fixed number of stages independent of `p`.
    Const(f64),
    /// `ceil(log2 p)` stages (binomial trees).
    Log2,
    /// `2 × ceil(log2 p)` stages (reduce + broadcast style all-reduce).
    TwoLog2,
    /// `p − 1` stages (linear fan, e.g. naive all-to-all).
    Linear,
}

impl StageModel {
    /// Number of stages for `p` participating ranks.
    pub fn stages(self, p: usize) -> f64 {
        let p = p.max(1);
        match self {
            StageModel::Zero => 0.0,
            StageModel::Const(c) => c,
            StageModel::Log2 => (p as f64).log2().ceil().max(0.0),
            StageModel::TwoLog2 => 2.0 * (p as f64).log2().ceil().max(0.0),
            StageModel::Linear => (p as f64) - 1.0,
        }
    }
}

impl fmt::Display for StageModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageModel::Zero => write!(f, "zero"),
            StageModel::Const(c) => write!(f, "const({c})"),
            StageModel::Log2 => write!(f, "log2"),
            StageModel::TwoLog2 => write!(f, "2log2"),
            StageModel::Linear => write!(f, "linear"),
        }
    }
}

/// Which collective operation a [`StageModel`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum CollectiveOp {
    Barrier,
    Bcast,
    Reduce,
    AllReduce,
    AllToAll,
    AllGather,
}

/// Cost models for each collective operation.
///
/// Defaults follow the classic Dimemas/LogP-style staging: log-depth trees
/// for barrier/bcast/reduce, two log-depth phases for all-reduce, and a
/// linear fan for all-to-all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveModel {
    /// Stage model for barriers (payload is zero bytes).
    pub barrier: StageModel,
    /// Stage model for broadcast.
    pub bcast: StageModel,
    /// Stage model for reduction.
    pub reduce: StageModel,
    /// Stage model for all-reduce.
    pub allreduce: StageModel,
    /// Stage model for all-to-all (per-pair payload).
    pub alltoall: StageModel,
    /// Stage model for all-gather.
    pub allgather: StageModel,
}

impl Default for CollectiveModel {
    fn default() -> Self {
        CollectiveModel {
            barrier: StageModel::Log2,
            bcast: StageModel::Log2,
            reduce: StageModel::Log2,
            allreduce: StageModel::TwoLog2,
            alltoall: StageModel::Linear,
            allgather: StageModel::Log2,
        }
    }
}

impl CollectiveModel {
    /// The stage model for `op`.
    pub fn model_for(&self, op: CollectiveOp) -> StageModel {
        match op {
            CollectiveOp::Barrier => self.barrier,
            CollectiveOp::Bcast => self.bcast,
            CollectiveOp::Reduce => self.reduce,
            CollectiveOp::AllReduce => self.allreduce,
            CollectiveOp::AllToAll => self.alltoall,
            CollectiveOp::AllGather => self.allgather,
        }
    }

    /// Duration of collective `op` with per-stage payload `bytes` among `p`
    /// ranks on a platform with the given latency/bandwidth.
    pub fn cost(
        &self,
        op: CollectiveOp,
        bytes: u64,
        p: usize,
        latency: Time,
        bandwidth: Bandwidth,
    ) -> Time {
        let stages = self.model_for(op).stages(p);
        let per_stage = latency + bandwidth.transfer_time(bytes);
        per_stage.scale_f64(stages)
    }
}

/// A read-only view of how a job's ranks map onto multicore nodes.
///
/// The hierarchical platform model distinguishes two contention domains:
/// transfers *within* a node cross shared memory (intra-node latency and
/// bandwidth, optionally a finite number of memory ports), while transfers
/// *between* nodes cross the bus/link fabric. A `NodeTopology` binds a
/// [`Platform`]'s `ranks_per_node` to a concrete rank count so callers can
/// ask node-level questions without re-deriving the mapping.
///
/// ```
/// use ovlsim_core::Platform;
///
/// # fn main() -> Result<(), ovlsim_core::CoreError> {
/// let p = Platform::builder().ranks_per_node(4)?.build();
/// let topo = p.topology(10);
/// assert_eq!(topo.node_count(), 3); // nodes 0–1 full, node 2 holds 2 ranks
/// assert!(topo.spans_nodes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTopology {
    ranks: usize,
    ranks_per_node: u32,
}

impl NodeTopology {
    /// Builds the view for `ranks` ranks packed `ranks_per_node` to a node.
    ///
    /// # Panics
    ///
    /// Panics if `ranks_per_node == 0`.
    pub fn new(ranks: usize, ranks_per_node: u32) -> Self {
        assert!(ranks_per_node >= 1, "ranks per node must be >= 1");
        NodeTopology {
            ranks,
            ranks_per_node,
        }
    }

    /// Total ranks in the job.
    pub fn rank_count(&self) -> usize {
        self.ranks
    }

    /// Ranks sharing one node.
    pub fn ranks_per_node(&self) -> u32 {
        self.ranks_per_node
    }

    /// Number of (possibly partially filled) nodes; at least 1.
    pub fn node_count(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node as usize).max(1)
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_node
    }

    /// Whether the job occupies more than one node. Collectives over a
    /// single node price their stages with the intra-node parameters.
    pub fn spans_nodes(&self) -> bool {
        self.node_count() > 1
    }
}

/// The simulated parallel platform.
///
/// Build one with [`Platform::builder`]:
///
/// ```
/// use ovlsim_core::{Platform, Time};
///
/// # fn main() -> Result<(), ovlsim_core::CoreError> {
/// let p = Platform::builder()
///     .latency(Time::from_us(2))
///     .bandwidth_bytes_per_sec(1.0e9)?
///     .buses(Some(4))
///     .eager_threshold(32 * 1024)
///     .build();
/// assert_eq!(p.buses(), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    latency: Time,
    bandwidth: Bandwidth,
    buses: Option<u32>,
    input_links: u32,
    output_links: u32,
    eager_threshold: u64,
    rendezvous_latency: Time,
    send_overhead: Time,
    recv_overhead: Time,
    ranks_per_node: u32,
    intra_node_latency: Time,
    intra_node_bandwidth: Bandwidth,
    intra_node_links: Option<u32>,
    cpu_ratio: f64,
    collectives: CollectiveModel,
    perturbation: PerturbationModel,
}

impl Platform {
    /// Starts building a platform with default values (see
    /// [`PlatformBuilder`]).
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::new()
    }

    /// Wire latency applied to every transfer.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Returns a copy of this platform with a different bandwidth (the
    /// knob swept by every experiment in the paper).
    pub fn with_bandwidth(&self, bandwidth: Bandwidth) -> Platform {
        let mut p = self.clone();
        p.bandwidth = bandwidth;
        p
    }

    /// Returns a copy with a different latency.
    pub fn with_latency(&self, latency: Time) -> Platform {
        let mut p = self.clone();
        p.latency = latency;
        p
    }

    /// Returns a copy with a different node packing (the second knob of
    /// the hierarchical sweep: how many ranks share each node).
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    pub fn with_ranks_per_node(&self, ranks: u32) -> Platform {
        assert!(ranks >= 1, "ranks per node must be >= 1");
        let mut p = self.clone();
        p.ranks_per_node = ranks;
        p
    }

    /// Returns a copy with a different intra-node bandwidth.
    pub fn with_intra_node_bandwidth(&self, bandwidth: Bandwidth) -> Platform {
        let mut p = self.clone();
        p.intra_node_bandwidth = bandwidth;
        p
    }

    /// Returns a copy with a different perturbation model. Attaching the
    /// identity model (the default) leaves every replay bit-identical to a
    /// clean one.
    pub fn with_perturbation(&self, model: PerturbationModel) -> Platform {
        let mut p = self.clone();
        p.perturbation = model;
        p
    }

    /// Number of network buses, or `None` for an unlimited crossbar.
    pub fn buses(&self) -> Option<u32> {
        self.buses
    }

    /// Input links per node (concurrent incoming transfers).
    pub fn input_links(&self) -> u32 {
        self.input_links
    }

    /// Output links per node (concurrent outgoing transfers).
    pub fn output_links(&self) -> u32 {
        self.output_links
    }

    /// Messages strictly larger than this use the rendezvous protocol.
    pub fn eager_threshold(&self) -> u64 {
        self.eager_threshold
    }

    /// Extra handshake latency paid by rendezvous transfers.
    pub fn rendezvous_latency(&self) -> Time {
        self.rendezvous_latency
    }

    /// CPU time the sender spends posting each message (LogGP-style `o`;
    /// zero by default). This is the knob that makes aggressive chunking
    /// costly — an extension of the paper's model (§IV future work).
    pub fn send_overhead(&self) -> Time {
        self.send_overhead
    }

    /// CPU time the receiver spends completing each message (zero by
    /// default).
    pub fn recv_overhead(&self) -> Time {
        self.recv_overhead
    }

    /// Ranks sharing one node (and its network links); 1 by default.
    /// Messages between ranks of the same node bypass the network and use
    /// the intra-node latency/bandwidth instead (extension of the paper's
    /// model, §IV future work).
    pub fn ranks_per_node(&self) -> u32 {
        self.ranks_per_node
    }

    /// Latency of intra-node (shared-memory) transfers.
    pub fn intra_node_latency(&self) -> Time {
        self.intra_node_latency
    }

    /// Bandwidth of intra-node (shared-memory) transfers.
    pub fn intra_node_bandwidth(&self) -> Bandwidth {
        self.intra_node_bandwidth
    }

    /// Concurrent intra-node transfers per node (shared-memory "ports"), or
    /// `None` for an unlimited intra-node domain (the default). This is the
    /// intra-node analogue of [`Platform::buses`]: same-node transfers never
    /// touch the bus/NIC-link fabric, but a finite port count makes them
    /// contend with each other.
    pub fn intra_node_links(&self) -> Option<u32> {
        self.intra_node_links
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_node
    }

    /// The node-level view of a job with `ranks` ranks on this platform.
    pub fn topology(&self, ranks: usize) -> NodeTopology {
        NodeTopology::new(ranks, self.ranks_per_node)
    }

    /// Relative CPU speed: burst durations are divided by this factor
    /// (2.0 = CPUs twice as fast as the traced machine).
    pub fn cpu_ratio(&self) -> f64 {
        self.cpu_ratio
    }

    /// The collective cost models.
    pub fn collectives(&self) -> &CollectiveModel {
        &self.collectives
    }

    /// The attached perturbation model (the identity by default).
    pub fn perturbation(&self) -> &PerturbationModel {
        &self.perturbation
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::builder().build()
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "platform(L={}, BW={}, buses={}, links={}i/{}o, eager<={} B)",
            self.latency,
            self.bandwidth,
            match self.buses {
                Some(b) => b.to_string(),
                None => "inf".to_string(),
            },
            self.input_links,
            self.output_links,
            self.eager_threshold,
        )
    }
}

/// Builder for [`Platform`].
///
/// Defaults: 5 µs latency, 250 MB/s bandwidth, unlimited buses, one input
/// and one output link per node, 64 KiB eager threshold, zero extra
/// rendezvous latency, CPU ratio 1.0, default collective models.
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    platform: Platform,
}

impl PlatformBuilder {
    /// Creates a builder with default values.
    pub fn new() -> Self {
        PlatformBuilder {
            platform: Platform {
                latency: Time::from_us(5),
                bandwidth: Bandwidth::from_bytes_per_sec(250.0e6)
                    .expect("default bandwidth is valid"),
                buses: None,
                input_links: 1,
                output_links: 1,
                eager_threshold: 64 * 1024,
                rendezvous_latency: Time::ZERO,
                send_overhead: Time::ZERO,
                recv_overhead: Time::ZERO,
                ranks_per_node: 1,
                intra_node_latency: Time::from_ns(500),
                intra_node_bandwidth: Bandwidth::from_bytes_per_sec(10.0e9)
                    .expect("default intra-node bandwidth is valid"),
                intra_node_links: None,
                cpu_ratio: 1.0,
                collectives: CollectiveModel::default(),
                perturbation: PerturbationModel::default(),
            },
        }
    }

    /// Sets the wire latency.
    pub fn latency(&mut self, latency: Time) -> &mut Self {
        self.platform.latency = latency;
        self
    }

    /// Sets the bandwidth.
    pub fn bandwidth(&mut self, bandwidth: Bandwidth) -> &mut Self {
        self.platform.bandwidth = bandwidth;
        self
    }

    /// Sets the bandwidth from a bytes-per-second value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBandwidth`] if `bps` is not finite and
    /// positive.
    pub fn bandwidth_bytes_per_sec(&mut self, bps: f64) -> Result<&mut Self, CoreError> {
        self.platform.bandwidth = Bandwidth::from_bytes_per_sec(bps)?;
        Ok(self)
    }

    /// Sets the number of buses (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `Some(0)` is passed; use `None` for "no bus limit".
    pub fn buses(&mut self, buses: Option<u32>) -> &mut Self {
        if let Some(0) = buses {
            panic!("bus count must be positive; use None for unlimited");
        }
        self.platform.buses = buses;
        self
    }

    /// Sets input links per node (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `links == 0`.
    pub fn input_links(&mut self, links: u32) -> &mut Self {
        assert!(links >= 1, "input link count must be >= 1");
        self.platform.input_links = links;
        self
    }

    /// Sets output links per node (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `links == 0`.
    pub fn output_links(&mut self, links: u32) -> &mut Self {
        assert!(links >= 1, "output link count must be >= 1");
        self.platform.output_links = links;
        self
    }

    /// Sets the eager/rendezvous threshold in bytes.
    pub fn eager_threshold(&mut self, bytes: u64) -> &mut Self {
        self.platform.eager_threshold = bytes;
        self
    }

    /// Sets the extra rendezvous handshake latency.
    pub fn rendezvous_latency(&mut self, latency: Time) -> &mut Self {
        self.platform.rendezvous_latency = latency;
        self
    }

    /// Sets the per-message sender CPU overhead.
    pub fn send_overhead(&mut self, overhead: Time) -> &mut Self {
        self.platform.send_overhead = overhead;
        self
    }

    /// Sets the per-message receiver CPU overhead.
    pub fn recv_overhead(&mut self, overhead: Time) -> &mut Self {
        self.platform.recv_overhead = overhead;
        self
    }

    /// Sets how many ranks share one node (must be ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRanksPerNode`] if `ranks == 0`.
    pub fn ranks_per_node(&mut self, ranks: u32) -> Result<&mut Self, CoreError> {
        if ranks == 0 {
            return Err(CoreError::InvalidRanksPerNode);
        }
        self.platform.ranks_per_node = ranks;
        Ok(self)
    }

    /// Sets the intra-node transfer latency.
    pub fn intra_node_latency(&mut self, latency: Time) -> &mut Self {
        self.platform.intra_node_latency = latency;
        self
    }

    /// Sets the intra-node transfer bandwidth.
    pub fn intra_node_bandwidth(&mut self, bandwidth: Bandwidth) -> &mut Self {
        self.platform.intra_node_bandwidth = bandwidth;
        self
    }

    /// Sets the number of concurrent intra-node transfers per node
    /// (`None` = unlimited, the default).
    ///
    /// # Panics
    ///
    /// Panics if `Some(0)` is passed; use `None` for "no limit".
    pub fn intra_node_links(&mut self, links: Option<u32>) -> &mut Self {
        if let Some(0) = links {
            panic!("intra-node link count must be positive; use None for unlimited");
        }
        self.platform.intra_node_links = links;
        self
    }

    /// Sets the relative CPU speed factor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCpuRatio`] unless `ratio` is finite and
    /// strictly positive.
    pub fn cpu_ratio(&mut self, ratio: f64) -> Result<&mut Self, CoreError> {
        if !ratio.is_finite() || ratio <= 0.0 {
            return Err(CoreError::InvalidCpuRatio(ratio));
        }
        self.platform.cpu_ratio = ratio;
        Ok(self)
    }

    /// Sets the collective cost models.
    pub fn collectives(&mut self, model: CollectiveModel) -> &mut Self {
        self.platform.collectives = model;
        self
    }

    /// Attaches a perturbation model (the identity by default).
    pub fn perturbation(&mut self, model: PerturbationModel) -> &mut Self {
        self.platform.perturbation = model;
        self
    }

    /// Finishes building.
    pub fn build(&self) -> Platform {
        self.platform.clone()
    }
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_models() {
        assert_eq!(StageModel::Zero.stages(64), 0.0);
        assert_eq!(StageModel::Const(3.0).stages(64), 3.0);
        assert_eq!(StageModel::Log2.stages(64), 6.0);
        assert_eq!(StageModel::Log2.stages(65), 7.0);
        assert_eq!(StageModel::Log2.stages(1), 0.0);
        assert_eq!(StageModel::TwoLog2.stages(16), 8.0);
        assert_eq!(StageModel::Linear.stages(16), 15.0);
        // p = 0 treated as 1 (degenerate single-rank runs).
        assert_eq!(StageModel::Linear.stages(0), 0.0);
    }

    #[test]
    fn collective_cost_matches_hand_computation() {
        let model = CollectiveModel::default();
        let lat = Time::from_us(1);
        let bw = Bandwidth::from_bytes_per_sec(1.0e9).unwrap();
        // allreduce of 1000 bytes among 8 ranks: 2*3 stages * (1us + 1us).
        let cost = model.cost(CollectiveOp::AllReduce, 1000, 8, lat, bw);
        assert_eq!(cost, Time::from_us(12));
        // barrier among 8 ranks: 3 stages * 1us.
        let cost = model.cost(CollectiveOp::Barrier, 0, 8, lat, bw);
        assert_eq!(cost, Time::from_us(3));
    }

    #[test]
    fn builder_defaults() {
        let p = Platform::default();
        assert_eq!(p.send_overhead(), Time::ZERO);
        assert_eq!(p.recv_overhead(), Time::ZERO);
        assert_eq!(p.latency(), Time::from_us(5));
        assert_eq!(p.buses(), None);
        assert_eq!(p.input_links(), 1);
        assert_eq!(p.output_links(), 1);
        assert_eq!(p.eager_threshold(), 64 * 1024);
        assert_eq!(p.cpu_ratio(), 1.0);
    }

    #[test]
    fn builder_chaining_and_with() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .buses(Some(2))
            .input_links(4)
            .output_links(3)
            .eager_threshold(1024)
            .rendezvous_latency(Time::from_us(10))
            .send_overhead(Time::from_ns(500))
            .recv_overhead(Time::from_ns(700))
            .cpu_ratio(2.0)
            .expect("positive ratio")
            .build();
        assert_eq!(p.buses(), Some(2));
        assert_eq!(p.input_links(), 4);
        assert_eq!(p.output_links(), 3);
        assert_eq!(p.send_overhead(), Time::from_ns(500));
        assert_eq!(p.recv_overhead(), Time::from_ns(700));
        let bw = Bandwidth::from_bytes_per_sec(1.0e6).unwrap();
        let p2 = p.with_bandwidth(bw);
        assert_eq!(p2.bandwidth(), bw);
        assert_eq!(p2.buses(), Some(2));
        let p3 = p.with_latency(Time::from_ns(100));
        assert_eq!(p3.latency(), Time::from_ns(100));
        // Hierarchical knobs copy everything else (buses survive).
        let p4 = p.with_ranks_per_node(4).with_intra_node_bandwidth(bw);
        assert_eq!(p4.ranks_per_node(), 4);
        assert_eq!(p4.intra_node_bandwidth(), bw);
        assert_eq!(p4.buses(), Some(2));
    }

    #[test]
    #[should_panic(expected = "ranks per node")]
    fn with_zero_ranks_per_node_rejected() {
        let _ = Platform::default().with_ranks_per_node(0);
    }

    #[test]
    #[should_panic(expected = "bus count")]
    fn zero_buses_rejected() {
        Platform::builder().buses(Some(0));
    }

    #[test]
    #[should_panic(expected = "input link")]
    fn zero_links_rejected() {
        Platform::builder().input_links(0);
    }

    #[test]
    fn bad_cpu_ratio_rejected_with_typed_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match Platform::builder().cpu_ratio(bad) {
                Err(CoreError::InvalidCpuRatio(v)) => {
                    assert!(v == bad || (v.is_nan() && bad.is_nan()));
                }
                other => panic!("cpu_ratio({bad}) should be rejected, got {other:?}"),
            }
        }
        // The error does not poison the builder: valid values still work.
        let mut b = Platform::builder();
        assert!(b.cpu_ratio(-1.0).is_err());
        let p = b.cpu_ratio(2.0).expect("valid ratio").build();
        assert_eq!(p.cpu_ratio(), 2.0);
    }

    #[test]
    fn node_mapping() {
        let p = Platform::builder()
            .ranks_per_node(4)
            .expect("positive packing")
            .build();
        assert_eq!(p.ranks_per_node(), 4);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.node_of(4), 1);
        assert_eq!(p.node_of(11), 2);
        // Default: one rank per node.
        assert_eq!(Platform::default().node_of(7), 7);
    }

    #[test]
    fn zero_ranks_per_node_rejected_with_typed_error() {
        assert_eq!(
            Platform::builder().ranks_per_node(0).unwrap_err(),
            CoreError::InvalidRanksPerNode
        );
    }

    #[test]
    fn topology_view() {
        let p = Platform::builder()
            .ranks_per_node(4)
            .expect("positive packing")
            .build();
        let topo = p.topology(10);
        assert_eq!(topo.rank_count(), 10);
        assert_eq!(topo.ranks_per_node(), 4);
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.node_of(0), 0);
        assert_eq!(topo.node_of(9), 2);
        assert!(topo.spans_nodes());
        // A job fitting one node does not span nodes.
        let single = p.topology(4);
        assert_eq!(single.node_count(), 1);
        assert!(!single.spans_nodes());
        // Degenerate zero-rank job still reports one node.
        assert_eq!(p.topology(0).node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "ranks per node")]
    fn topology_rejects_zero_ranks_per_node() {
        NodeTopology::new(4, 0);
    }

    #[test]
    fn intra_node_links_builder() {
        assert_eq!(Platform::default().intra_node_links(), None);
        let p = Platform::builder().intra_node_links(Some(2)).build();
        assert_eq!(p.intra_node_links(), Some(2));
    }

    #[test]
    #[should_panic(expected = "intra-node link")]
    fn zero_intra_node_links_rejected() {
        Platform::builder().intra_node_links(Some(0));
    }

    #[test]
    fn perturbation_attaches_and_copies() {
        let p = Platform::default();
        assert!(p.perturbation().is_identity());
        let model = PerturbationModel::new(9).with_noise(0.2).unwrap();
        let perturbed = p.with_perturbation(model.clone());
        assert_eq!(perturbed.perturbation(), &model);
        assert_ne!(p, perturbed);
        // The model survives the other `with_` copies.
        let swept = perturbed.with_bandwidth(Bandwidth::from_bytes_per_sec(1.0e6).unwrap());
        assert_eq!(swept.perturbation(), &model);
        // Builder form.
        let built = Platform::builder().perturbation(model.clone()).build();
        assert_eq!(built.perturbation(), &model);
    }

    #[test]
    fn display_mentions_key_fields() {
        let p = Platform::default();
        let s = format!("{p}");
        assert!(s.contains("platform"));
        assert!(s.contains("buses=inf"));
    }
}
