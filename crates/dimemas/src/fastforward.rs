//! The executor for compiled trace programs ([`CompiledTrace`]).
//!
//! [`Simulator::run_compiled`] and [`Simulator::run_compiled_observed`]
//! both run here. The executor walks the flat struct-of-arrays instruction
//! streams produced by [`CompiledTrace::compile`] — one-byte opcodes,
//! dense operand columns, pre-converted burst durations and pre-resolved
//! request slots — with the event semantics of the naive reference
//! engine: every start decision, FIFO tie-break and statistic is
//! bit-identical (the differential property tests in `tests/props.rs`
//! enforce it).
//!
//! # Event order
//!
//! Replay correctness hinges on event *order*: transfers that become ready
//! at the same instant contend for finite per-node links in global FIFO
//! order, so an engine that reorders same-instant events can flip a tie
//! and diverge. Events therefore live in one calendar queue whose pop
//! order is that of a binary heap keyed on `(time, schedule seq)`, and
//! every burst is one resume event, exactly as in the naive engine.
//!
//! # Transport
//!
//! The platform selects the transport; both make identical start
//! decisions:
//!
//! * **Per-pair pumps** (no finite bus pool, uncontended intra-node
//!   domain). A waiter (a transfer ready to move but short of a free
//!   link) parks in the FIFO of its ordered node pair, tagged with its
//!   place in the global FIFO. When a transfer releases its link pair
//!   `(nf, nt)`, the pump looks only at the head of each pair queue with
//!   sender `nf` or receiver `nt`, in global FIFO order, and starts every
//!   head whose pair is open. This reproduces the full FIFO rescan of
//!   [`Network`] start for start and in the same order:
//!   - after every scan each waiter is blocked on a busy link, so a
//!     release can only admit waiters that need one of the two freed
//!     links;
//!   - every waiter of a pair needs the same two links, and a scan only
//!     takes links, never frees them: once a pair's head is blocked, its
//!     whole queue stays blocked for the rest of the scan;
//!   - the pump stops once both freed sides are saturated again.
//!
//!   For the same reason a transfer whose pair is open on arrival starts
//!   at once: no waiter of that pair can exist.
//! * **Global pump** (a finite bus pool or finite intra-node ports). A
//!   release can admit a waiter anywhere in the machine, so transfers
//!   queue in the global FIFOs of [`Network`] and every release rescans
//!   the freed domain in full.
//!
//! # Observation
//!
//! The executor is generic over its observer. The unobserved run
//! monomorphizes against [`NullObserver`]: every timeline callback and all
//! attribution-only transfer state (posted, ready, queued, started and
//! outage times, kept in a side table) compile away. Both runs execute the
//! same instructions and events, so callbacks fire in the naive engine's
//! order and the timeline keeps every burst and marker.
//!
//! A stalled run is diagnosed here as well: [`SimError::Deadlock`] names
//! what every blocked rank waits on, with the peer and tag of a blocking
//! point-to-point operation.
//!
//! [`Simulator::run_compiled`]: crate::Simulator::run_compiled
//! [`Simulator::run_compiled_observed`]: crate::Simulator::run_compiled_observed

use std::collections::VecDeque;

use ovlsim_core::{CollectiveOp, CompiledTrace, Platform, Rank, RecordKind, Time};
use ovlsim_engine::stats::TimeWeighted;

use crate::collective::CollectiveTracker;
use crate::error::SimError;
use crate::network::{LinkPerturb, Network, TransferId};
use crate::observer::{DepEdge, NullObserver, ProcState, ReplayObserver, WaitCause};
use crate::replay::ReplayResult;
use crate::reqs::{ReqGroup, ReqState};

/// Replays `prog` on `platform`, reporting timeline happenings to `obs`.
pub(crate) fn execute<O: Observe + ?Sized>(
    platform: &Platform,
    prog: &CompiledTrace,
    obs: &mut O,
) -> Result<ReplayResult, SimError> {
    FfState::new(platform, prog, obs).run()
}

/// Compile-time observation switch. [`NullObserver`] turns it off, so the
/// unobserved run pays for no callback and no attribution bookkeeping;
/// any `dyn` observer turns it on.
pub(crate) trait Observe: ReplayObserver {
    /// Whether timeline callbacks and attribution state are live.
    const ON: bool;
}

impl Observe for NullObserver {
    const ON: bool = false;
}

impl Observe for dyn ReplayObserver + '_ {
    const ON: bool = true;
}

/// A scheduled event packed into one word: kind tag in the low 2 bits,
/// rank or transfer index above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event(u64);

const EV_RESUME: u64 = 0;
const EV_SENT: u64 = 1;
const EV_DONE: u64 = 2;
/// Re-attempt a transfer held back by a transient link outage (faulty
/// platforms only; never scheduled on a clean run).
const EV_RETRY: u64 = 3;

impl Event {
    #[inline]
    fn resume(r: usize) -> Event {
        Event((r as u64) << 2 | EV_RESUME)
    }
    #[inline]
    fn sent(tid: TransferId) -> Event {
        Event((tid as u64) << 2 | EV_SENT)
    }
    #[inline]
    fn done(tid: TransferId) -> Event {
        Event((tid as u64) << 2 | EV_DONE)
    }
    #[inline]
    fn retry(tid: TransferId) -> Event {
        Event((tid as u64) << 2 | EV_RETRY)
    }
    #[inline]
    fn kind(self) -> u64 {
        self.0 & 3
    }
    #[inline]
    fn idx(self) -> usize {
        (self.0 >> 2) as usize
    }
}

/// Calendar-bucket event store with the pop order of a binary heap keyed
/// on `(time, schedule seq)`: time ascending, FIFO among equal times.
/// Events at the same instant land in one bucket in push order, so no
/// percolation and no per-event sequence numbers — scheduling is an O(1)
/// append in the common case (the target instant is at or past the latest
/// pending one) and popping is a cursor bump.
struct BucketQueue {
    /// Pending instants, ascending. A ring so that scheduling at the
    /// current instant (front) and at the horizon (back) are both O(1);
    /// the rare mid-insert shifts the shorter side.
    order: VecDeque<(Time, u32)>,
    buckets: Vec<Bucket>,
    free: Vec<u32>,
    len: usize,
}

#[derive(Default)]
struct Bucket {
    events: Vec<Event>,
    cursor: usize,
}

impl BucketQueue {
    fn new() -> Self {
        BucketQueue {
            order: VecDeque::with_capacity(64),
            buckets: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn fresh_bucket(&mut self, ev: Event) -> u32 {
        let bi = match self.free.pop() {
            Some(bi) => bi,
            None => {
                self.buckets.push(Bucket::default());
                (self.buckets.len() - 1) as u32
            }
        };
        self.buckets[bi as usize].events.push(ev);
        bi
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        self.len += 1;
        // Hot paths: the target instant is the latest pending one (chain
        // extension), past the horizon (new latest), or the current
        // front (resume-at-now).
        match self.order.back() {
            None => {
                let bi = self.fresh_bucket(ev);
                self.order.push_back((at, bi));
                return;
            }
            Some(&(bt, bi)) if bt == at => {
                self.buckets[bi as usize].events.push(ev);
                return;
            }
            Some(&(bt, _)) if bt < at => {
                let bi = self.fresh_bucket(ev);
                self.order.push_back((at, bi));
                return;
            }
            _ => {}
        }
        let &(ft, fi) = self.order.front().expect("nonempty");
        if ft == at {
            self.buckets[fi as usize].events.push(ev);
            return;
        }
        if at < ft {
            let bi = self.fresh_bucket(ev);
            self.order.push_front((at, bi));
            return;
        }
        // Mid insert: binary search the ring (both halves are sorted and
        // contiguous in time across the wrap point).
        let (a, b) = self.order.as_slices();
        let i = match a.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => i,
            Err(i) if i < a.len() => i,
            Err(_) => match b.binary_search_by(|&(t, _)| t.cmp(&at)) {
                Ok(j) => a.len() + j,
                Err(j) => a.len() + j,
            },
        };
        if let Some(&(t, bi)) = self.order.get(i) {
            if t == at {
                self.buckets[bi as usize].events.push(ev);
                return;
            }
        }
        let bi = self.fresh_bucket(ev);
        self.order.insert(i, (at, bi));
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, Event)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let &(t, bi) = self.order.front().expect("len tracked");
        let b = &mut self.buckets[bi as usize];
        let ev = b.events[b.cursor];
        b.cursor += 1;
        if b.cursor == b.events.len() {
            b.events.clear();
            b.cursor = 0;
            self.free.push(bi);
            self.order.pop_front();
        }
        Some((t, ev))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderKind {
    Fire,
    Blocking,
    /// Rendezvous isend: complete this pre-resolved slot at completion.
    Request(u32),
}

/// Replay transfer state, with the endpoint nodes cached so the hot
/// start/release paths never recompute them. Attribution-only state lives
/// in [`TransferAttr`].
#[derive(Debug)]
struct Transfer {
    from: Rank,
    to: Rank,
    nf: u32,
    nt: u32,
    bytes: u64,
    rendezvous: bool,
    intra: bool,
    sender_kind: SenderKind,
    /// Matched receive post, or `NONE_U32` while unmatched.
    recv: u32,
    enqueued: bool,
    chan: u32,
    /// Flight-latency jitter drawn at creation time (zero on clean runs).
    jitter: Time,
    /// The last byte reached the receiver (the instant is attribution
    /// state).
    arrived: bool,
    /// Next unmatched send on the same channel (intrusive FIFO).
    next: u32,
    /// While parked: the next waiter of the same node pair (intrusive
    /// FIFO, see [`NodeNet`]) and this waiter's place in the global FIFO.
    wait_next: u32,
    wait_seq: u32,
}

/// A transfer's attribution timestamps, parallel to the transfer table
/// and filled only on observed runs.
#[derive(Debug, Clone, Copy)]
struct TransferAttr {
    /// Sender's clock when the send instruction was executed.
    posted: Time,
    /// When the transfer became ready to move data.
    ready: Time,
    /// When the transfer entered a finite-resource queue (`None` if it
    /// never queued).
    queued: Option<Time>,
    started: Option<Time>,
    /// End of the link outage that held the transfer back, if any.
    outage: Option<Time>,
    /// When the last byte reached the receiver.
    arrived: Option<Time>,
}

/// Sentinel for the intrusive channel lists and optional u32 indices.
const NONE_U32: u32 = u32::MAX;

#[derive(Debug)]
struct RecvPost {
    rank: u32,
    /// Request slot, or `NONE_U32` for a blocking receive.
    slot: u32,
    /// Matched transfer, or `NONE_U32` while unmatched.
    transfer: u32,
    done: Option<Time>,
    /// Next unmatched receive on the same channel (intrusive FIFO).
    next: u32,
}

/// Unmatched send/recv FIFOs as intrusive lists threaded through
/// `Transfer::next` / `RecvPost::next` — channel matching allocates
/// nothing even when every chunk gets its own channel.
#[derive(Debug, Clone)]
struct Channel {
    send_head: u32,
    send_tail: u32,
    recv_head: u32,
    recv_tail: u32,
}

impl Default for Channel {
    fn default() -> Self {
        Channel {
            send_head: NONE_U32,
            send_tail: NONE_U32,
            recv_head: NONE_U32,
            recv_tail: NONE_U32,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Blocker {
    Recv(usize),
    SendDone(TransferId),
    /// Remaining request *slots* of a wait-set.
    Reqs(ReqGroup),
    Collective(usize),
}

/// Which wait cause a blocked window is charged to (see `emit_blocked`).
#[derive(Debug, Clone, Copy)]
enum BlockKind {
    Recv,
    Send,
    Wait,
}

#[derive(Debug)]
struct Proc {
    cursor: usize,
    clock: Time,
    blocked: Option<Blocker>,
    block_start: Time,
    coll_seq: usize,
    /// Flat request-state table indexed by pre-resolved slot. Entries are
    /// overwritten on post, so no per-wait cleanup is needed.
    slots: Vec<ReqState>,
    compute: Time,
    finished: Option<Time>,
    overhead_paid: bool,
    /// Bursts executed so far: the per-rank burst ordinal that keys noise
    /// draws, as in the naive engine.
    burst_pos: usize,
    /// Cursor into the rank's `WaitAll` slot arena (program order).
    wait_pos: usize,
}

/// One rank's stream slices, resolved once so the hot loop never chases
/// back through the [`CompiledTrace`] accessors.
#[derive(Clone, Copy)]
struct Stream<'a> {
    ops: &'a [RecordKind],
    a: &'a [u32],
    b: &'a [u32],
    payload: &'a [u64],
    wait_slots: &'a [u32],
}

/// Memo of rounded wire transmission times per distinct byte count. The
/// list stays tiny for chunked traces (a handful of distinct sizes); it is
/// capped so a pathological all-distinct trace degrades to computing, not
/// to a quadratic scan.
#[derive(Debug, Default)]
struct XmitMemo {
    entries: Vec<(u64, Time)>,
}

const XMIT_MEMO_CAP: usize = 64;

impl XmitMemo {
    #[inline]
    fn get(&mut self, bytes: u64, compute: impl Fn(u64) -> Time) -> Time {
        if let Some(&(_, t)) = self.entries.iter().find(|(b, _)| *b == bytes) {
            return t;
        }
        let t = compute(bytes);
        if self.entries.len() < XMIT_MEMO_CAP {
            self.entries.push((bytes, t));
        }
        t
    }
}

/// The waiter FIFO of one ordered node pair, threaded through
/// `Transfer::wait_next`, and its links in the two nodes' pair lists.
#[derive(Debug, Clone, Copy)]
struct PairQueue {
    from: u32,
    to: u32,
    /// First and last waiter, `NONE_U32` while empty.
    head: u32,
    tail: u32,
    /// Next pair with the same sender node.
    next_out: u32,
    /// Next pair with the same receiver node.
    next_in: u32,
}

/// One node's link occupancy, its parked waiters per side, and the first
/// pair of each of its two pair lists (`NONE_U32` while empty).
#[derive(Debug, Clone, Copy)]
struct NodeLinks {
    out_used: u32,
    in_used: u32,
    out_waiting: u32,
    in_waiting: u32,
    out_pairs: u32,
    in_pairs: u32,
}

/// Per-node transport for platforms without finite pools: no bus pool
/// (`buses = None`) and an uncontended intra-node domain. Start/occupy/
/// release/statistics semantics are copied from [`Network`] exactly.
/// Waiters queue per ordered node pair, and a release pumps only the
/// heads of the queues that touch the freed links (the module docs give
/// the argument that this makes the full FIFO rescan's decisions in the
/// same order). The pair table grows with the pairs that park a waiter;
/// a waiter itself allocates nothing.
struct NodeNet {
    out_limit: u32,
    in_limit: u32,
    busy: u32,
    nodes: Vec<NodeLinks>,
    pairs: Vec<PairQueue>,
    /// The running pump's candidates, `(head's wait seq, pair)`; reused.
    heads: Vec<(u32, u32)>,
    enq_seq: u32,
    waiting_len: usize,
    bus_util: TimeWeighted,
    waiting_peak: usize,
    waiting_last_len: usize,
    waiting_last_time: Time,
}

impl NodeNet {
    fn new(platform: &Platform, ranks: usize) -> Self {
        let rpn = platform.ranks_per_node() as usize;
        let nodes = ranks.div_ceil(rpn).max(1);
        let idle = NodeLinks {
            out_used: 0,
            in_used: 0,
            out_waiting: 0,
            in_waiting: 0,
            out_pairs: NONE_U32,
            in_pairs: NONE_U32,
        };
        NodeNet {
            out_limit: platform.output_links(),
            in_limit: platform.input_links(),
            busy: 0,
            nodes: vec![idle; nodes],
            pairs: Vec::new(),
            heads: Vec::new(),
            enq_seq: 0,
            waiting_len: 0,
            bus_util: TimeWeighted::new(),
            waiting_peak: 0,
            waiting_last_len: 0,
            waiting_last_time: Time::ZERO,
        }
    }

    /// Same persisted-length semantics as `Network::note_waiting`. Calls
    /// where the length did not change since the previous note are
    /// omitted by the callers — a pure no-op for the peak statistic.
    #[inline]
    fn note_waiting(&mut self, now: Time) {
        if now > self.waiting_last_time {
            self.waiting_peak = self.waiting_peak.max(self.waiting_last_len);
            self.waiting_last_time = now;
        }
        self.waiting_last_len = self.waiting_len;
    }

    fn peak_waiting(&self) -> usize {
        self.waiting_peak.max(self.waiting_last_len)
    }

    #[inline]
    fn pair_open(&self, nf: usize, nt: usize) -> bool {
        self.nodes[nf].out_used < self.out_limit && self.nodes[nt].in_used < self.in_limit
    }

    /// Whether any waiter is parked on either side of the `(nf, nt)` pair.
    #[inline]
    fn has_waiters(&self, nf: usize, nt: usize) -> bool {
        self.nodes[nf].out_waiting > 0 || self.nodes[nt].in_waiting > 0
    }

    #[inline]
    fn occupy(&mut self, nf: usize, nt: usize, now: Time) {
        self.busy += 1;
        self.nodes[nf].out_used += 1;
        self.nodes[nt].in_used += 1;
        self.bus_util.record(now, self.busy as f64);
    }

    #[inline]
    fn release(&mut self, nf: usize, nt: usize, now: Time) {
        debug_assert!(self.busy > 0);
        self.busy -= 1;
        self.nodes[nf].out_used -= 1;
        self.nodes[nt].in_used -= 1;
        self.bus_util.record(now, self.busy as f64);
    }

    /// Enters the ready inter-node transfer `tid`: occupies its link pair
    /// and returns true if the pair is open, else parks it and returns
    /// false. An open pair has no waiter, so the full scan would admit
    /// exactly this transfer, and the transient push/pop cancels out of
    /// the persisted queue-length statistic.
    fn launch(&mut self, transfers: &mut [Transfer], tid: TransferId, now: Time) -> bool {
        let (nf, nt) = (transfers[tid].nf as usize, transfers[tid].nt as usize);
        if self.pair_open(nf, nt) {
            self.occupy(nf, nt, now);
            self.note_waiting(now);
            return true;
        }
        self.park(transfers, tid, nf, nt, now);
        false
    }

    /// Parks `tid` at the tail of its pair's FIFO and of the global FIFO,
    /// adding the pair to both nodes' lists when it first parks a waiter.
    fn park(
        &mut self,
        transfers: &mut [Transfer],
        tid: TransferId,
        nf: usize,
        nt: usize,
        now: Time,
    ) {
        let mut p = self.nodes[nf].out_pairs;
        while p != NONE_U32 && self.pairs[p as usize].to != nt as u32 {
            p = self.pairs[p as usize].next_out;
        }
        if p == NONE_U32 {
            p = self.pairs.len() as u32;
            self.pairs.push(PairQueue {
                from: nf as u32,
                to: nt as u32,
                head: NONE_U32,
                tail: NONE_U32,
                next_out: self.nodes[nf].out_pairs,
                next_in: self.nodes[nt].in_pairs,
            });
            self.nodes[nf].out_pairs = p;
            self.nodes[nt].in_pairs = p;
        }
        transfers[tid].wait_next = NONE_U32;
        transfers[tid].wait_seq = self.enq_seq;
        self.enq_seq += 1;
        let q = &mut self.pairs[p as usize];
        match q.tail {
            NONE_U32 => q.head = tid as u32,
            tail => transfers[tail as usize].wait_next = tid as u32,
        }
        q.tail = tid as u32;
        self.nodes[nf].out_waiting += 1;
        self.nodes[nt].in_waiting += 1;
        self.waiting_len += 1;
        self.note_waiting(now);
    }

    /// Starts, in global FIFO order, every waiter that the release of the
    /// `(nf, nt)` link pair admits, and lists them in `started` (cleared
    /// first). The candidates are the heads of the non-empty queues with
    /// sender `nf` or receiver `nt`. The lowest seq goes first: an open
    /// pair starts its head and offers its next waiter, a closed pair
    /// drops out of the scan. A side with no waiters is not walked, and
    /// the scan ends once both freed sides are saturated again.
    fn pump(
        &mut self,
        transfers: &[Transfer],
        nf: usize,
        nt: usize,
        now: Time,
        started: &mut Vec<TransferId>,
    ) {
        started.clear();
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        if self.nodes[nf].out_waiting > 0 {
            let mut p = self.nodes[nf].out_pairs;
            while p != NONE_U32 {
                let q = &self.pairs[p as usize];
                if q.head != NONE_U32 {
                    heads.push((transfers[q.head as usize].wait_seq, p));
                }
                p = q.next_out;
            }
        }
        if self.nodes[nt].in_waiting > 0 {
            let mut p = self.nodes[nt].in_pairs;
            while p != NONE_U32 {
                let q = &self.pairs[p as usize];
                // `(nf, nt)` is on both lists; the sender walk offered it.
                if q.head != NONE_U32 && q.from as usize != nf {
                    heads.push((transfers[q.head as usize].wait_seq, p));
                }
                p = q.next_in;
            }
        }
        while let Some((i, &(_, p))) = heads.iter().enumerate().min_by_key(|(_, h)| h.0) {
            let q = self.pairs[p as usize];
            let (from, to) = (q.from as usize, q.to as usize);
            if !self.pair_open(from, to) {
                heads.swap_remove(i);
                continue;
            }
            let next = transfers[q.head as usize].wait_next;
            self.pairs[p as usize].head = next;
            if next == NONE_U32 {
                self.pairs[p as usize].tail = NONE_U32;
                heads.swap_remove(i);
            } else {
                heads[i].0 = transfers[next as usize].wait_seq;
            }
            self.nodes[from].out_waiting -= 1;
            self.nodes[to].in_waiting -= 1;
            self.waiting_len -= 1;
            self.occupy(from, to, now);
            started.push(q.head as usize);
            if self.nodes[nf].out_used >= self.out_limit && self.nodes[nt].in_used >= self.in_limit
            {
                break;
            }
        }
        self.heads = heads;
        if !started.is_empty() {
            self.note_waiting(now);
        }
    }
}

/// The platform-selected transport (see the module docs).
enum Net {
    /// No finite pool: per-node-pair waiter queues.
    Nodes(NodeNet),
    /// A finite bus pool or finite intra-node ports: global FIFO rescans.
    Global(Network),
}

struct FfState<'a, O: Observe + ?Sized> {
    platform: &'a Platform,
    prog: &'a CompiledTrace,
    streams: Vec<Stream<'a>>,
    /// Per-channel routing decision (true = both endpoints share a node),
    /// derived once per run from the program's channel endpoints.
    intra_chan: Vec<bool>,
    /// Hoisted burst scale factor (`1 / cpu_ratio`), identical to the
    /// value the uncompiled engines recompute per burst.
    inv_cpu_ratio: f64,
    /// True when the platform's perturbation model stretches compute
    /// bursts (noise, stragglers or heterogeneous nodes).
    compute_perturbed: bool,
    /// True when the model draws per-burst OS noise (the only compute
    /// effect that needs a hash per burst).
    noise_on: bool,
    /// Per-rank burst prefactor (cpu ratio x node speed x straggler),
    /// hoisted out of the event loop; empty on clean runs. The values are
    /// exactly `PerturbationModel::burst_prefactor`, so per-burst rounding
    /// stays bit-identical to the uncompiled engines.
    burst_pre: Vec<f64>,
    /// Per-channel link-degradation stretch factor, hoisted once per run
    /// (`PerturbationModel::link_factor` is stable per directed rank
    /// pair); empty when degradation is off.
    chan_stretch: Vec<f64>,
    /// Link-level perturbations (degradation, jitter, faults); shared
    /// logic with the uncompiled engines so factors match bit-exactly.
    link: LinkPerturb,
    /// Per-channel send sequence numbers feeding jitter draws; empty when
    /// the model has no link effects.
    send_seq: Vec<u64>,
    // Platform scalars hoisted out of the event loop.
    eager_threshold: u64,
    send_overhead: Time,
    recv_overhead: Time,
    flight_eager: Time,
    flight_rendezvous: Time,
    flight_intra: Time,
    xmit_inter: XmitMemo,
    xmit_intra: XmitMemo,
    queue: BucketQueue,
    procs: Vec<Proc>,
    transfers: Vec<Transfer>,
    /// Attribution side table, parallel to `transfers`; empty unless
    /// observing.
    attr: Vec<TransferAttr>,
    recv_posts: Vec<RecvPost>,
    channels: Vec<Channel>,
    net: Net,
    /// Transfers started by the latest pump, reused across pumps.
    started: Vec<TransferId>,
    collectives: CollectiveTracker,
    p2p_messages: u64,
    p2p_bytes: u64,
    obs: &'a mut O,
}

impl<'a, O: Observe + ?Sized> FfState<'a, O> {
    fn new(platform: &'a Platform, prog: &'a CompiledTrace, obs: &'a mut O) -> Self {
        let n = prog.rank_count();
        let model = platform.perturbation();
        let inv_cpu_ratio = 1.0 / platform.cpu_ratio();
        let compute_perturbed = model.has_compute_effects();
        let burst_pre = if compute_perturbed {
            (0..n as u32)
                .map(|r| model.burst_prefactor(inv_cpu_ratio, r, platform.node_of(r)))
                .collect()
        } else {
            Vec::new()
        };
        let chan_stretch = if model.link_degradation() > 0.0 {
            // The factor depends on the rank pair only, and the chunk
            // channels of one message are interned next to each other, so
            // one remembered pair saves most of the hashing.
            let mut last = None;
            prog.channels()
                .iter()
                .map(|c| match last {
                    Some((src, dst, f)) if (src, dst) == (c.src, c.dst) => f,
                    _ => {
                        let f = model.link_factor(c.src.get(), c.dst.get());
                        last = Some((c.src, c.dst, f));
                        f
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let (mut sends, mut recvs) = (0usize, 0usize);
        for r in 0..n {
            for op in prog.rank(r).ops() {
                match op {
                    RecordKind::Send | RecordKind::ISend => sends += 1,
                    RecordKind::Recv | RecordKind::IRecv => recvs += 1,
                    _ => {}
                }
            }
        }
        let net = if platform.buses().is_some() || platform.intra_node_links().is_some() {
            Net::Global(Network::new(platform, n))
        } else {
            Net::Nodes(NodeNet::new(platform, n))
        };
        FfState {
            platform,
            prog,
            streams: (0..n)
                .map(|r| {
                    let rp = prog.rank(r);
                    Stream {
                        ops: rp.ops(),
                        a: rp.a(),
                        b: rp.b(),
                        payload: rp.payload(),
                        wait_slots: rp.wait_slots(),
                    }
                })
                .collect(),
            intra_chan: prog
                .channels()
                .iter()
                .map(|c| platform.node_of(c.src.get()) == platform.node_of(c.dst.get()))
                .collect(),
            inv_cpu_ratio,
            compute_perturbed,
            noise_on: model.noise_level() > 0.0,
            burst_pre,
            chan_stretch,
            link: LinkPerturb::new(platform),
            send_seq: if platform.perturbation().has_link_effects() {
                vec![0; prog.channels().len()]
            } else {
                Vec::new()
            },
            eager_threshold: platform.eager_threshold(),
            send_overhead: platform.send_overhead(),
            recv_overhead: platform.recv_overhead(),
            flight_eager: platform.latency(),
            flight_rendezvous: platform.latency() + platform.rendezvous_latency(),
            flight_intra: platform.intra_node_latency(),
            xmit_inter: XmitMemo::default(),
            xmit_intra: XmitMemo::default(),
            queue: BucketQueue::new(),
            procs: (0..n)
                .map(|r| Proc {
                    cursor: 0,
                    clock: Time::ZERO,
                    blocked: None,
                    block_start: Time::ZERO,
                    coll_seq: 0,
                    slots: vec![ReqState::InFlight; prog.rank(r).slot_count() as usize],
                    compute: Time::ZERO,
                    finished: None,
                    overhead_paid: false,
                    burst_pos: 0,
                    wait_pos: 0,
                })
                .collect(),
            transfers: Vec::with_capacity(sends),
            attr: Vec::with_capacity(if O::ON { sends } else { 0 }),
            recv_posts: Vec::with_capacity(recvs),
            channels: (0..prog.channels().len())
                .map(|_| Channel::default())
                .collect(),
            net,
            started: Vec::new(),
            collectives: CollectiveTracker::new(n),
            p2p_messages: 0,
            p2p_bytes: 0,
            obs,
        }
    }

    fn run(mut self) -> Result<ReplayResult, SimError> {
        for r in 0..self.procs.len() {
            self.queue.schedule(Time::ZERO, Event::resume(r));
        }
        while let Some((t, ev)) = self.queue.pop() {
            let idx = ev.idx();
            match ev.kind() {
                EV_RESUME => self.step(idx),
                EV_SENT => self.transfer_sent(idx, t),
                EV_DONE => self.transfer_done(idx, t),
                _ => self.launch_transfer(idx, t),
            }
        }
        if self.procs.iter().any(|p| p.finished.is_none()) {
            return Err(self.deadlock());
        }
        let rank_finish: Vec<Time> = self
            .procs
            .iter()
            .map(|p| p.finished.expect("all finished"))
            .collect();
        let total_time = rank_finish.iter().copied().max().unwrap_or(Time::ZERO);
        let (mean_busy_buses, peak_busy_buses, peak_waiting_transfers) = match &self.net {
            Net::Nodes(net) => (
                net.bus_util.mean(total_time),
                net.bus_util.peak(),
                net.peak_waiting(),
            ),
            Net::Global(net) => (
                net.mean_busy_buses(total_time),
                net.peak_busy_buses(),
                net.peak_waiting(),
            ),
        };
        Ok(ReplayResult {
            name: self.prog.name().to_string(),
            total_time,
            rank_compute: self.procs.iter().map(|p| p.compute).collect(),
            rank_finish,
            p2p_messages: self.p2p_messages,
            p2p_bytes: self.p2p_bytes,
            collective_count: self.collectives.instance_count() as u64,
            mean_busy_buses,
            peak_busy_buses,
            peak_waiting_transfers,
        })
    }

    /// The stall diagnosis of a run whose queue drained with ranks still
    /// blocked: the latest rank clock and each blocked rank's blocker.
    fn deadlock(&self) -> SimError {
        let chans = self.prog.channels();
        let blocked = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.finished.is_none())
            .map(|(r, p)| {
                let why = match &p.blocked {
                    None => "runnable but starved (internal error)".to_string(),
                    // A blocked receive leaves the cursor just past its
                    // instruction, whose operand is the channel.
                    Some(Blocker::Recv(_)) => {
                        let c = &chans[self.streams[r].a[p.cursor - 1] as usize];
                        format!("blocked in recv from {} {}", c.src, c.tag)
                    }
                    Some(Blocker::SendDone(tid)) => {
                        let t = &self.transfers[*tid];
                        let tag = chans[t.chan as usize].tag;
                        format!("blocked in rendezvous send to {} {tag}", t.to)
                    }
                    Some(Blocker::Reqs(reqs)) => {
                        format!("blocked waiting {} requests", reqs.len())
                    }
                    Some(Blocker::Collective(seq)) => format!("blocked in collective #{seq}"),
                };
                (Rank::new(r as u32), why)
            })
            .collect();
        let at = self
            .procs
            .iter()
            .map(|p| p.clock)
            .max()
            .unwrap_or(Time::ZERO);
        SimError::Deadlock { at, blocked }
    }

    /// Memoized wire occupancy time of a transfer (exactly
    /// `bandwidth.transfer_time(bytes)` of the relevant domain). Link
    /// degradation stretches the *rounded* memoized base by the channel's
    /// hoisted `link_factor` — the same evaluation order as the uncompiled
    /// engines — so the memo stays valid under perturbation. Intra-node
    /// transfers are exempt from all link perturbations.
    #[inline]
    fn transmission_time(&mut self, intra: bool, bytes: u64, chan: u32) -> Time {
        if intra {
            let bw = self.platform.intra_node_bandwidth();
            self.xmit_intra.get(bytes, |b| bw.transfer_time(b))
        } else {
            let bw = self.platform.bandwidth();
            let base = self.xmit_inter.get(bytes, |b| bw.transfer_time(b));
            if self.chan_stretch.is_empty() {
                base
            } else {
                base.scale_f64(self.chan_stretch[chan as usize])
            }
        }
    }

    /// Duration of rank `r`'s burst number `idx` (its per-rank burst
    /// ordinal), `ps` picoseconds long on the reference CPU. Clean runs
    /// scale by `1 / cpu_ratio`; perturbed runs apply the full per-burst
    /// factor keyed on the ordinal, as the naive engine does.
    #[inline]
    fn burst_time(&self, r: usize, idx: usize, ps: u64) -> Time {
        let base = Time::from_ps(ps);
        if !self.compute_perturbed {
            // scale_f64(1.0) is the identity below 2^53 ps (the f64
            // round-trip is exact there), so the multiply is skippable
            // bit-for-bit.
            if self.inv_cpu_ratio == 1.0 && ps < (1u64 << 53) {
                return base;
            }
            return base.scale_f64(self.inv_cpu_ratio);
        }
        // `burst_pre[r] * noise_factor` is exactly `burst_factor` with the
        // rank-constant part hoisted (same multiply order, bit-identical
        // rounding to the uncompiled engines).
        let pre = self.burst_pre[r];
        if self.noise_on {
            let noise = self
                .platform
                .perturbation()
                .noise_factor(r as u32, idx as u64);
            base.scale_f64(pre * noise)
        } else {
            base.scale_f64(pre)
        }
    }

    #[inline]
    fn flight_time(&self, intra: bool, rendezvous: bool) -> Time {
        if intra {
            self.flight_intra
        } else if rendezvous {
            self.flight_rendezvous
        } else {
            self.flight_eager
        }
    }

    /// Starts moving `tid`'s bytes at `now`: schedules its last byte.
    #[inline]
    fn transmit(&mut self, tid: TransferId, now: Time) {
        if O::ON {
            self.attr[tid].started = Some(now);
        }
        let t = &self.transfers[tid];
        let (intra, bytes, chan) = (t.intra, t.bytes, t.chan);
        let dur = self.transmission_time(intra, bytes, chan);
        self.queue.schedule(now + dur, Event::sent(tid));
    }

    /// Transmits every transfer the latest pump started, in start order.
    fn transmit_started(&mut self, now: Time) {
        let started = std::mem::take(&mut self.started);
        for &tid in &started {
            self.transmit(tid, now);
        }
        self.started = started;
    }

    #[inline]
    fn note_queued(&mut self, tid: TransferId, now: Time) {
        if O::ON {
            self.attr[tid].queued = Some(now);
        }
    }

    /// Rescans the global FIFO of the freed domain (`intra`: the
    /// node-port domain, else the bus/link fabric) and starts every
    /// transfer whose resources are free, in FIFO order.
    fn pump_global(&mut self, intra: bool, now: Time) {
        let Net::Global(net) = &mut self.net else {
            unreachable!("global pumps run on the global transport")
        };
        let transfers = &self.transfers;
        if intra {
            // Both endpoints of an intra-node transfer share node `nf`.
            net.start_eligible_intra_into(now, |id| transfers[id].nf as usize, &mut self.started);
        } else {
            net.start_eligible_into(
                now,
                |id| (transfers[id].from, transfers[id].to),
                &mut self.started,
            );
        }
        self.transmit_started(now);
    }

    /// Executes instructions of rank `r` until it blocks, yields, or
    /// finishes.
    fn step(&mut self, r: usize) {
        debug_assert!(self.procs[r].blocked.is_none(), "stepping a blocked rank");
        let stream = self.streams[r];
        let rank = Rank::new(r as u32);
        loop {
            let cursor = self.procs[r].cursor;
            if cursor >= stream.ops.len() {
                let at = self.procs[r].clock;
                self.procs[r].finished = Some(at);
                self.obs.finished(rank, at);
                return;
            }
            let now = self.procs[r].clock;
            match stream.ops[cursor] {
                RecordKind::Burst => {
                    let dur = self.burst_time(r, self.procs[r].burst_pos, stream.payload[cursor]);
                    let end = now + dur;
                    self.obs.interval(rank, now, end, ProcState::Compute);
                    if end > now {
                        self.obs
                            .attributed(rank, now, end, WaitCause::Compute, None);
                    }
                    let p = &mut self.procs[r];
                    p.compute += dur;
                    p.clock = end;
                    p.burst_pos += 1;
                    p.cursor += 1;
                    self.queue.schedule(end, Event::resume(r));
                    return;
                }
                RecordKind::Marker => {
                    self.obs.marker(rank, now, stream.a[cursor]);
                    self.procs[r].cursor += 1;
                }
                RecordKind::Send => {
                    if self.charge_send_overhead(r, now) {
                        return;
                    }
                    let bytes = stream.payload[cursor];
                    let rendezvous = bytes > self.eager_threshold;
                    let kind = if rendezvous {
                        SenderKind::Blocking
                    } else {
                        SenderKind::Fire
                    };
                    let chan = stream.a[cursor];
                    let tid = self.create_transfer(r, chan, bytes, kind, now);
                    self.post_send(tid, chan, now);
                    self.procs[r].cursor += 1;
                    if rendezvous {
                        self.block(r, Blocker::SendDone(tid), now);
                        return;
                    }
                }
                RecordKind::ISend => {
                    if self.charge_send_overhead(r, now) {
                        return;
                    }
                    let bytes = stream.payload[cursor];
                    let rendezvous = bytes > self.eager_threshold;
                    let slot = stream.b[cursor];
                    let kind = if rendezvous {
                        SenderKind::Request(slot)
                    } else {
                        SenderKind::Fire
                    };
                    let chan = stream.a[cursor];
                    let tid = self.create_transfer(r, chan, bytes, kind, now);
                    self.procs[r].slots[slot as usize] = if rendezvous {
                        ReqState::InFlight
                    } else {
                        // Eager isend: the buffer is copied out immediately.
                        ReqState::Done { at: now, tid }
                    };
                    self.post_send(tid, chan, now);
                    self.procs[r].cursor += 1;
                }
                RecordKind::Recv => {
                    let pid = self.post_recv(r, NONE_U32, stream.a[cursor], now);
                    self.procs[r].cursor += 1;
                    match self.recv_posts[pid].done {
                        Some(done) => {
                            debug_assert!(done >= now);
                            if done > now {
                                if O::ON {
                                    let tid = self.recv_posts[pid].transfer as usize;
                                    self.emit_blocked(r, now, done, BlockKind::Recv, tid);
                                }
                                self.procs[r].clock = done;
                                self.queue.schedule(done, Event::resume(r));
                                return;
                            }
                        }
                        None => {
                            self.block(r, Blocker::Recv(pid), now);
                            return;
                        }
                    }
                }
                RecordKind::IRecv => {
                    let slot = stream.b[cursor];
                    let pid = self.post_recv(r, slot, stream.a[cursor], now);
                    self.procs[r].slots[slot as usize] = match self.recv_posts[pid].done {
                        Some(done) => {
                            debug_assert_ne!(self.recv_posts[pid].transfer, NONE_U32);
                            ReqState::Done {
                                at: done,
                                tid: self.recv_posts[pid].transfer as usize,
                            }
                        }
                        None => ReqState::InFlight,
                    };
                    self.procs[r].cursor += 1;
                }
                RecordKind::Wait => {
                    let slot = stream.a[cursor];
                    if self.enter_wait(r, Slots::One(slot), now) {
                        return;
                    }
                }
                RecordKind::WaitAll => {
                    let len = stream.a[cursor] as usize;
                    let start = self.procs[r].wait_pos;
                    self.procs[r].wait_pos += len;
                    if self.enter_wait(r, Slots::Arena(start, len), now) {
                        return;
                    }
                }
                op => {
                    let coll = collective_of(op);
                    let bytes = stream.payload[cursor];
                    let seq = self.procs[r].coll_seq;
                    self.procs[r].coll_seq += 1;
                    self.procs[r].cursor += 1;
                    match self
                        .collectives
                        .arrive(seq, coll, bytes, now, self.platform)
                    {
                        Some(done) => {
                            self.release_collective(r, seq, now, done);
                            return;
                        }
                        None => {
                            self.block(r, Blocker::Collective(seq), now);
                            return;
                        }
                    }
                }
            }
        }
    }

    #[inline]
    fn block(&mut self, r: usize, why: Blocker, now: Time) {
        let p = &mut self.procs[r];
        p.blocked = Some(why);
        p.block_start = now;
    }

    /// Rank `r`'s arrival at `now` completed collective `seq` at `done`:
    /// releases every rank blocked in it, then `r` itself.
    fn release_collective(&mut self, r: usize, seq: usize, now: Time, done: Time) {
        let cause = WaitCause::Collective { seq: seq as u32 };
        let release = DepEdge {
            rank: Rank::new(r as u32),
            at: now,
        };
        for (q, proc) in self.procs.iter_mut().enumerate() {
            if proc.blocked == Some(Blocker::Collective(seq)) {
                let rank = Rank::new(q as u32);
                let start = proc.block_start;
                self.obs.interval(rank, start, done, ProcState::Collective);
                if done > start {
                    self.obs.attributed(rank, start, done, cause, Some(release));
                }
                proc.blocked = None;
                proc.clock = done;
                self.queue.schedule(done, Event::resume(q));
            }
        }
        let rank = Rank::new(r as u32);
        self.obs.interval(rank, now, done, ProcState::Collective);
        if done > now {
            self.obs.attributed(rank, now, done, cause, None);
        }
        self.procs[r].clock = done;
        self.queue.schedule(done, Event::resume(r));
    }

    /// Processes a wait over pre-resolved slots. Returns true if the rank
    /// blocked or yielded (caller must return).
    fn enter_wait(&mut self, r: usize, slots: Slots, now: Time) -> bool {
        let mut remaining = ReqGroup::new();
        let mut latest = now;
        // Transfer of the last-completing slot: the whole wait interval is
        // attributed to its channel (the "last unblocker").
        let mut latest_tid = 0;
        let one;
        let wait_slots: &[u32] = match slots {
            Slots::One(s) => {
                one = [s];
                &one
            }
            Slots::Arena(start, len) => &self.streams[r].wait_slots[start..start + len],
        };
        let p = &mut self.procs[r];
        for &slot in wait_slots {
            match p.slots[slot as usize] {
                ReqState::Done { at, tid } => {
                    if at > latest {
                        latest = at;
                        latest_tid = tid;
                    }
                }
                ReqState::InFlight => remaining.push(slot),
            }
        }
        p.cursor += 1;
        if remaining.is_empty() {
            if latest > now {
                if O::ON {
                    let rank = Rank::new(r as u32);
                    self.obs.interval(rank, now, latest, ProcState::WaitRequest);
                    self.emit_blocked(r, now, latest, BlockKind::Wait, latest_tid);
                }
                self.procs[r].clock = latest;
                self.queue.schedule(latest, Event::resume(r));
                return true;
            }
            false
        } else {
            self.block(r, Blocker::Reqs(remaining), now);
            true
        }
    }

    fn charge_send_overhead(&mut self, r: usize, now: Time) -> bool {
        let overhead = self.send_overhead;
        if overhead.is_zero() {
            return false;
        }
        let p = &mut self.procs[r];
        if p.overhead_paid {
            p.overhead_paid = false;
            return false;
        }
        p.overhead_paid = true;
        p.clock = now + overhead;
        let at = p.clock;
        self.obs
            .attributed(Rank::new(r as u32), now, at, WaitCause::SendOverhead, None);
        self.queue.schedule(at, Event::resume(r));
        true
    }

    /// The cross-rank dependency that released rank `r` from an interval
    /// gated by transfer `tid` (None when the interval was self-paced).
    fn blocked_edge(&self, r: usize, start: Time, tid: TransferId) -> Option<DepEdge> {
        let t = &self.transfers[tid];
        let a = &self.attr[tid];
        if t.from.index() == r {
            (a.ready > a.posted).then_some(DepEdge {
                rank: t.to,
                at: a.ready,
            })
        } else {
            match a.arrived {
                Some(at) if at <= start => None,
                _ => Some(DepEdge {
                    rank: t.from,
                    at: a.posted,
                }),
            }
        }
    }

    /// Emits the attributed intervals of a blocked window `[start, end)`
    /// on rank `r` gated by transfer `tid`. Observed runs only.
    fn emit_blocked(&mut self, r: usize, start: Time, end: Time, kind: BlockKind, tid: TransferId) {
        if end <= start {
            return;
        }
        let t = &self.transfers[tid];
        let a = self.attr[tid];
        let chan = t.chan;
        let cause = match kind {
            BlockKind::Recv => WaitCause::BlockedRecv { chan },
            BlockKind::Send => WaitCause::BlockedSend { chan },
            BlockKind::Wait => WaitCause::BlockedWait { chan },
        };
        let contended = WaitCause::Contended {
            chan,
            intra: t.intra,
        };
        let edge = self.blocked_edge(r, start, tid);
        let rank = Rank::new(r as u32);
        let (os, oe) = match a.outage {
            Some(up) => (a.ready.max(start), up.min(end)),
            None => (start, start),
        };
        let (qs, qe) = match (a.queued, a.started) {
            (Some(q), Some(s)) => (q.max(start), s.min(end)),
            _ => (end, end),
        };
        let down = WaitCause::LinkDown { chan };
        let mut segs = [(start, start, cause); 5];
        let mut n = 0;
        let mut cur = start;
        if oe > os {
            if os > cur {
                segs[n] = (cur, os, cause);
                n += 1;
            }
            segs[n] = (os.max(cur), oe, down);
            n += 1;
            cur = oe;
        }
        if qe > qs && qe > cur {
            if qs > cur {
                segs[n] = (cur, qs, cause);
                n += 1;
            }
            segs[n] = (qs.max(cur), qe, contended);
            n += 1;
            cur = qe;
        }
        if end > cur {
            segs[n] = (cur, end, cause);
            n += 1;
        }
        for (i, &(s, e, c)) in segs[..n].iter().enumerate() {
            let eg = if i + 1 == n { edge } else { None };
            self.obs.attributed(rank, s, e, c, eg);
        }
    }

    fn create_transfer(
        &mut self,
        from: usize,
        chan: u32,
        bytes: u64,
        sender_kind: SenderKind,
        now: Time,
    ) -> TransferId {
        let tid = self.transfers.len();
        let (to, tag) = {
            let e = &self.prog.channels()[chan as usize];
            (e.dst, e.tag)
        };
        let intra = self.intra_chan[chan as usize];
        let rendezvous = sender_kind != SenderKind::Fire;
        let fr = Rank::new(from as u32);
        let jitter = if intra || self.send_seq.is_empty() {
            Time::ZERO
        } else {
            let seq = self.send_seq[chan as usize];
            self.send_seq[chan as usize] += 1;
            self.link.jitter(fr, to, tag, seq)
        };
        let rpn = self.platform.ranks_per_node();
        self.transfers.push(Transfer {
            from: fr,
            to,
            nf: fr.get() / rpn,
            nt: to.get() / rpn,
            bytes,
            rendezvous,
            intra,
            sender_kind,
            recv: NONE_U32,
            enqueued: false,
            chan,
            jitter,
            arrived: false,
            next: NONE_U32,
            wait_next: NONE_U32,
            wait_seq: 0,
        });
        if O::ON {
            self.attr.push(TransferAttr {
                posted: now,
                ready: now,
                queued: None,
                started: None,
                outage: None,
                arrived: None,
            });
        }
        self.p2p_messages += 1;
        self.p2p_bytes += bytes;
        tid
    }

    fn post_send(&mut self, tid: TransferId, channel: u32, now: Time) {
        let head = self.channels[channel as usize].recv_head;
        let matched = if head != NONE_U32 {
            let pid = head as usize;
            let next = self.recv_posts[pid].next;
            let ch = &mut self.channels[channel as usize];
            ch.recv_head = next;
            if next == NONE_U32 {
                ch.recv_tail = NONE_U32;
            }
            self.transfers[tid].recv = head;
            self.recv_posts[pid].transfer = tid as u32;
            true
        } else {
            let tail = self.channels[channel as usize].send_tail;
            if tail == NONE_U32 {
                self.channels[channel as usize].send_head = tid as u32;
            } else {
                self.transfers[tail as usize].next = tid as u32;
            }
            self.channels[channel as usize].send_tail = tid as u32;
            false
        };
        let ready = !self.transfers[tid].rendezvous || matched;
        if ready {
            self.start_transfer(tid, now);
        }
    }

    fn start_transfer(&mut self, tid: TransferId, now: Time) {
        debug_assert!(!self.transfers[tid].enqueued);
        self.transfers[tid].enqueued = true;
        if O::ON {
            self.attr[tid].ready = now;
        }
        if !self.transfers[tid].intra {
            let (from, to) = (self.transfers[tid].from, self.transfers[tid].to);
            if let Some(up) = self.link.outage_end(from, to, now) {
                if O::ON {
                    self.attr[tid].outage = Some(up);
                }
                self.queue.schedule(up, Event::retry(tid));
                return;
            }
        }
        self.launch_transfer(tid, now);
    }

    /// Enters a ready transfer into its transport domain (the tail of
    /// `start_transfer`, split out so link-outage retries re-enter here).
    fn launch_transfer(&mut self, tid: TransferId, now: Time) {
        let intra = self.transfers[tid].intra;
        match &mut self.net {
            // Uncontended intra-node domain: start immediately.
            Net::Nodes(_) if intra => {}
            Net::Global(net) if intra && !net.intra_limited() => {}
            Net::Nodes(net) => {
                // A busy pair parks the transfer: the rescan would admit
                // nothing, as the new transfer is the only change since
                // the last scan left every waiter blocked.
                let open = net.launch(&mut self.transfers, tid, now);
                self.note_queued(tid, now);
                if !open {
                    return;
                }
            }
            Net::Global(net) => {
                if intra {
                    net.enqueue_intra(tid, now);
                } else {
                    net.enqueue(tid, now);
                }
                self.note_queued(tid, now);
                self.pump_global(intra, now);
                return;
            }
        }
        self.transmit(tid, now);
    }

    fn complete_request(&mut self, r: usize, slot: u32, at: Time, tid: TransferId) {
        let proc = &mut self.procs[r];
        let unblock = match &mut proc.blocked {
            Some(Blocker::Reqs(set)) if set.contains(slot) => {
                set.remove(slot);
                set.is_empty()
            }
            _ => {
                proc.slots[slot as usize] = ReqState::Done { at, tid };
                false
            }
        };
        if unblock {
            if O::ON {
                let start = self.procs[r].block_start;
                self.obs
                    .interval(Rank::new(r as u32), start, at, ProcState::WaitRequest);
                self.emit_blocked(r, start, at, BlockKind::Wait, tid);
            }
            let p = &mut self.procs[r];
            p.blocked = None;
            p.clock = at;
            self.queue.schedule(at, Event::resume(r));
        }
    }

    fn post_recv(&mut self, r: usize, slot: u32, channel: u32, now: Time) -> usize {
        let pid = self.recv_posts.len();
        self.recv_posts.push(RecvPost {
            rank: r as u32,
            slot,
            transfer: NONE_U32,
            done: None,
            next: NONE_U32,
        });
        let head = self.channels[channel as usize].send_head;
        if head != NONE_U32 {
            let tid = head as usize;
            let next = self.transfers[tid].next;
            let ch = &mut self.channels[channel as usize];
            ch.send_head = next;
            if next == NONE_U32 {
                ch.send_tail = NONE_U32;
            }
            self.transfers[tid].recv = pid as u32;
            self.recv_posts[pid].transfer = head;
            if self.transfers[tid].arrived {
                self.recv_posts[pid].done = Some(now + self.recv_overhead);
            } else if !self.transfers[tid].enqueued {
                self.start_transfer(tid, now);
            }
        } else {
            let tail = self.channels[channel as usize].recv_tail;
            if tail == NONE_U32 {
                self.channels[channel as usize].recv_head = pid as u32;
            } else {
                self.recv_posts[tail as usize].next = pid as u32;
            }
            self.channels[channel as usize].recv_tail = pid as u32;
        }
        pid
    }

    fn transfer_sent(&mut self, tid: TransferId, at: Time) {
        let (from, to, nf, nt, sender_kind, intra, rendezvous, jitter) = {
            let t = &self.transfers[tid];
            (
                t.from,
                t.to,
                t.nf as usize,
                t.nt as usize,
                t.sender_kind,
                t.intra,
                t.rendezvous,
                t.jitter,
            )
        };
        match &mut self.net {
            Net::Nodes(net) if !intra => net.release(nf, nt, at),
            Net::Global(net) if !intra => net.release(from, to, at),
            Net::Global(net) if net.intra_limited() => net.release_intra(nf),
            _ => {}
        }

        match sender_kind {
            SenderKind::Fire => {}
            SenderKind::Blocking => {
                let s = from.index();
                debug_assert_eq!(self.procs[s].blocked, Some(Blocker::SendDone(tid)));
                if O::ON {
                    let start = self.procs[s].block_start;
                    self.obs.interval(from, start, at, ProcState::WaitSend);
                    self.emit_blocked(s, start, at, BlockKind::Send, tid);
                }
                let p = &mut self.procs[s];
                p.blocked = None;
                p.clock = at;
                self.queue.schedule(at, Event::resume(s));
            }
            SenderKind::Request(slot) => {
                self.complete_request(from.index(), slot, at, tid);
            }
        }

        let flight = self.flight_time(intra, rendezvous) + jitter;
        self.queue.schedule(at + flight, Event::done(tid));
        // Only the freed domain can admit a waiter.
        match &mut self.net {
            Net::Nodes(net) => {
                if !intra && net.has_waiters(nf, nt) {
                    net.pump(&self.transfers, nf, nt, at, &mut self.started);
                    self.transmit_started(at);
                }
            }
            Net::Global(net) => {
                if !intra || net.intra_limited() {
                    self.pump_global(intra, at);
                }
            }
        }
    }

    fn transfer_done(&mut self, tid: TransferId, at: Time) {
        self.transfers[tid].arrived = true;
        if O::ON {
            self.attr[tid].arrived = Some(at);
            let t = &self.transfers[tid];
            let started = self.attr[tid].started.expect("done transfers started");
            let tag = self.prog.channels()[t.chan as usize].tag;
            self.obs.message(t.from, t.to, started, at, t.bytes, tag);
        }
        let recv = self.transfers[tid].recv;
        if recv != NONE_U32 {
            let pid = recv as usize;
            let done = at + self.recv_overhead;
            self.recv_posts[pid].done = Some(done);
            let r = self.recv_posts[pid].rank as usize;
            let slot = self.recv_posts[pid].slot;
            if slot == NONE_U32 {
                debug_assert_eq!(self.procs[r].blocked, Some(Blocker::Recv(pid)));
                if O::ON {
                    let start = self.procs[r].block_start;
                    self.obs
                        .interval(Rank::new(r as u32), start, done, ProcState::WaitRecv);
                    self.emit_blocked(r, start, done, BlockKind::Recv, tid);
                }
                let p = &mut self.procs[r];
                p.blocked = None;
                p.clock = done;
                self.queue.schedule(done, Event::resume(r));
            } else {
                self.complete_request(r, slot, done, tid);
            }
        }
    }
}

/// How a wait instruction names its slots: inline (single wait) or as a
/// span of the rank's `WaitAll` arena.
enum Slots {
    One(u32),
    Arena(usize, usize),
}

/// Maps a collective opcode to its cost-model operation.
fn collective_of(op: RecordKind) -> CollectiveOp {
    match op {
        RecordKind::Barrier => CollectiveOp::Barrier,
        RecordKind::AllReduce => CollectiveOp::AllReduce,
        RecordKind::Bcast => CollectiveOp::Bcast,
        RecordKind::Reduce => CollectiveOp::Reduce,
        RecordKind::AllToAll => CollectiveOp::AllToAll,
        RecordKind::AllGather => CollectiveOp::AllGather,
        other => unreachable!("not a collective opcode: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Simulator;
    use ovlsim_core::{Instr, MipsRate, RankTrace, Record, RequestId, Tag, TraceIndex, TraceSet};

    fn mips() -> MipsRate {
        MipsRate::new(1000).unwrap()
    }

    fn platform_1us_1gb() -> Platform {
        Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .build()
    }

    fn trace(ranks: Vec<Vec<Record>>) -> TraceSet {
        TraceSet::new(
            "test",
            mips(),
            ranks.into_iter().map(RankTrace::from_records).collect(),
        )
    }

    /// Replays `ts` two ways: the compiled production run and the
    /// independent naive engine.
    fn replay_both_ways(platform: &Platform, ts: &TraceSet) -> [Result<ReplayResult, SimError>; 2] {
        let index = TraceIndex::build(ts).expect("valid");
        let prog = CompiledTrace::compile(ts, &index).expect("compiles");
        [
            Simulator::new(platform.clone()).run_compiled(&prog),
            crate::naive::replay_naive(platform, ts),
        ]
    }

    /// The compiled run must match the naive engine bit for bit.
    fn assert_ff_matches(platform: Platform, ts: &TraceSet) {
        let [ff, naive] = replay_both_ways(&platform, ts);
        assert_eq!(
            ff.expect("replays"),
            naive.expect("replays"),
            "diverged from naive"
        );
    }

    fn send(to: u32, bytes: u64, tag: u64) -> Record {
        Record::Send {
            to: Rank::new(to),
            bytes,
            tag: Tag::new(tag),
        }
    }

    fn recv(from: u32, bytes: u64, tag: u64) -> Record {
        Record::Recv {
            from: Rank::new(from),
            bytes,
            tag: Tag::new(tag),
        }
    }

    fn irecv(from: u32, tag: u64, req: u32) -> Record {
        Record::IRecv {
            from: Rank::new(from),
            bytes: 64,
            tag: Tag::new(tag),
            req: RequestId::new(req),
        }
    }

    fn burst(instr: u64) -> Record {
        Record::Burst {
            instr: Instr::new(instr),
        }
    }

    #[test]
    fn fastforward_matches_compiled_on_mixed_trace() {
        let reqs: Vec<RequestId> = (0..4).map(RequestId::new).collect();
        let mut r0: Vec<Record> = vec![burst(700)];
        for &req in &reqs {
            r0.push(Record::ISend {
                to: Rank::new(1),
                bytes: 100_000,
                tag: Tag::new(req.get() as u64),
                req,
            });
        }
        r0.push(Record::WaitAll { reqs: reqs.clone() });
        r0.push(Record::Barrier);
        let mut r1: Vec<Record> = reqs
            .iter()
            .map(|&req| recv(0, 100_000, req.get() as u64))
            .collect();
        r1.push(Record::Barrier);
        assert_ff_matches(platform_1us_1gb(), &trace(vec![r0, r1]));
    }

    #[test]
    fn fastforward_matches_under_full_perturbation() {
        use ovlsim_core::PerturbationModel;
        let mk = |to: u32, from: u32| vec![burst(2500), send(to, 500, 7), recv(from, 200_000, 8)];
        let swap = |to: u32, from: u32| vec![recv(from, 500, 7), send(to, 200_000, 8)];
        let ts = trace(
            [mk(2, 2), mk(3, 3), swap(0, 0), swap(1, 1)]
                .into_iter()
                .map(|mut recs| {
                    recs.push(Record::Barrier);
                    recs
                })
                .collect(),
        );
        let model = PerturbationModel::new(0xBEEF)
            .with_noise(0.2)
            .unwrap()
            .with_stragglers(&[2], 1.7)
            .unwrap()
            .with_link_degradation(0.3)
            .unwrap()
            .with_latency_jitter(Time::from_us(2))
            .with_faults(Time::from_us(40), Time::from_us(9))
            .unwrap();
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .perturbation(model)
            .build();
        assert_ff_matches(p, &ts);
    }

    #[test]
    fn fastforward_delegates_finite_bus_platforms() {
        // The platform picks the transport: a finite bus pool or finite
        // intra-node ports delegate queueing to the global FIFO pump,
        // anything else gets the per-pair pumps. A ring of eager sends
        // over one bus contends on every hop.
        let ts = trace(
            (0..4)
                .map(|r| {
                    vec![
                        burst(100 * r as u64),
                        send((r + 1) % 4, 1000, 0),
                        recv((r + 3) % 4, 1000, 0),
                    ]
                })
                .collect(),
        );
        let index = TraceIndex::build(&ts).unwrap();
        let prog = CompiledTrace::compile(&ts, &index).unwrap();
        let global = |p: &Platform| {
            matches!(
                FfState::new(p, &prog, &mut NullObserver).net,
                Net::Global(_)
            )
        };
        let mut b = Platform::builder();
        b.latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap();
        assert!(!global(&b.build()), "unlimited pools pump per node");
        let bused = b.clone().buses(Some(1)).build();
        assert!(global(&bused), "a finite bus pool pumps globally");
        let ported = b
            .clone()
            .ranks_per_node(2)
            .unwrap()
            .intra_node_links(Some(1))
            .build();
        assert!(global(&ported), "finite intra-node ports pump globally");
        assert_ff_matches(bused, &ts);
        assert_ff_matches(ported, &ts);
    }

    #[test]
    fn fastforward_reports_identical_deadlock() {
        // Each trace validates and compiles but stalls. The diagnosis —
        // stall time and every blocked rank's text — is pinned for every
        // kind of blocker. Naive replay words its blockers without peer
        // and tag, so it only confirms the stall time.
        let big = 1 << 20; // above the default eager threshold
        let cases = [
            (
                vec![
                    vec![burst(3000), recv(1, 64, 0), send(1, 64, 1)],
                    vec![recv(0, 64, 1), send(0, 64, 0)],
                ],
                ["blocked in recv from r1 t0", "blocked in recv from r0 t1"],
            ),
            (
                vec![
                    vec![send(1, big, 0), recv(1, big, 1)],
                    vec![burst(3000), send(0, big, 1), recv(0, big, 0)],
                ],
                [
                    "blocked in rendezvous send to r1 t0",
                    "blocked in rendezvous send to r0 t1",
                ],
            ),
            (
                vec![
                    vec![
                        irecv(1, 0, 0),
                        irecv(1, 2, 1),
                        Record::WaitAll {
                            reqs: vec![RequestId::new(0), RequestId::new(1)],
                        },
                        send(1, 64, 1),
                    ],
                    vec![
                        burst(3000),
                        irecv(0, 1, 0),
                        Record::Wait {
                            req: RequestId::new(0),
                        },
                        send(0, 64, 0),
                        send(0, 64, 2),
                    ],
                ],
                ["blocked waiting 2 requests", "blocked waiting 1 requests"],
            ),
            (
                vec![
                    vec![Record::Barrier, send(1, 64, 0)],
                    vec![burst(3000), recv(0, 64, 0), Record::Barrier],
                ],
                ["blocked in collective #0", "blocked in recv from r0 t0"],
            ),
        ];
        for (ranks, [why0, why1]) in cases {
            let expected = SimError::Deadlock {
                at: Time::from_us(3),
                blocked: vec![(Rank::new(0), why0.into()), (Rank::new(1), why1.into())],
            };
            let [ff, naive] = replay_both_ways(&platform_1us_1gb(), &trace(ranks));
            assert_eq!(ff.expect_err("deadlocks"), expected, "{why0}");
            assert!(
                matches!(naive, Err(SimError::Deadlock { at, .. }) if at == Time::from_us(3)),
                "{why0}: {naive:?}"
            );
        }
    }

    #[test]
    fn fastforward_matches_on_rendezvous_chains() {
        // Rendezvous traffic exercises blocking sends and the
        // recv-triggered transfer start path.
        let pairs: Vec<Vec<Record>> = (0..4)
            .map(|r| {
                let peer = (r + 2) % 4;
                if r < 2 {
                    vec![send(peer, 300_000, 1), recv(peer, 300_000, 2)]
                } else {
                    vec![recv(peer, 300_000, 1), send(peer, 300_000, 2)]
                }
            })
            .collect();
        assert_ff_matches(platform_1us_1gb(), &trace(pairs));
    }

    #[test]
    fn transfer_records_fit_a_cache_line() {
        // The transfer table holds one record per message chunk; the
        // waiter links must not grow it past 64 bytes.
        assert!(std::mem::size_of::<Transfer>() <= 64);
    }

    mod queue_props {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// The calendar queue beside a binary heap keyed on
        /// `(time, schedule seq)`, fed the same operations.
        struct Paired {
            queue: BucketQueue,
            heap: BinaryHeap<Reverse<(Time, usize)>>,
            seq: usize,
        }

        impl Paired {
            fn schedule(&mut self, at: Time) {
                self.queue.schedule(at, Event::resume(self.seq));
                self.heap.push(Reverse((at, self.seq)));
                self.seq += 1;
            }

            /// Pops both and compares; false once both are empty.
            fn pop(&mut self) -> Result<bool, TestCaseError> {
                let want = self.heap.pop().map(|Reverse((t, s))| (t, Event::resume(s)));
                prop_assert_eq!(self.queue.pop(), want);
                Ok(want.is_some())
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any interleaving of `schedule` and `pop` pops what a binary
            /// heap keyed on `(time, schedule seq)` pops: time ascending,
            /// FIFO among equal times. Schedules land at the front and
            /// back instants, past the back, before the front, strictly
            /// between them, and on any pending instant, starting from a
            /// ring that has wrapped.
            #[test]
            fn calendar_queue_pops_in_heap_order(
                ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..300),
            ) {
                let base = Time::from_us(1);
                let mut p = Paired { queue: BucketQueue::new(), heap: BinaryHeap::new(), seq: 0 };
                // Fill the ring to near capacity with distinct instants,
                // pop most of them, then extend past the back so the ring
                // wraps without growing.
                let cap = p.queue.order.capacity();
                for i in 0..cap - 10 {
                    p.schedule(base + Time::from_ps(100 * i as u64));
                }
                for _ in 0..cap - 20 {
                    p.pop()?;
                }
                for i in 1..=20 {
                    p.schedule(base + Time::from_ps(100 * (cap + i) as u64));
                }
                prop_assert!(!p.queue.order.as_slices().1.is_empty(), "the ring wrapped");
                for (kind, k) in ops {
                    let order = &p.queue.order;
                    let (front, back) = match (order.front(), order.back()) {
                        (Some(f), Some(b)) => (f.0, b.0),
                        _ => (base, base),
                    };
                    let d = Time::from_ps(1 + k % 1000);
                    let at = match kind {
                        0 => front,
                        1 => back,
                        2 => back + d,
                        3 => front.saturating_sub(d),
                        4 => match (back - front).as_ps() {
                            0 | 1 => front,
                            span => front + Time::from_ps(1 + k % (span - 1)),
                        },
                        5 if !order.is_empty() => order[k as usize % order.len()].0,
                        _ => {
                            p.pop()?;
                            continue;
                        }
                    };
                    p.schedule(at);
                }
                while p.pop()? {}
            }
        }
    }

    mod pump_props {
        use super::*;
        use proptest::prelude::*;

        /// A ready inter-node transfer from node `nf` to node `nt`, at one
        /// rank per node; only its route matters to the transport.
        fn waiter(nf: u32, nt: u32) -> Transfer {
            Transfer {
                from: Rank::new(nf),
                to: Rank::new(nt),
                nf,
                nt,
                bytes: 0,
                rendezvous: false,
                intra: false,
                sender_kind: SenderKind::Fire,
                recv: NONE_U32,
                enqueued: true,
                chan: 0,
                jitter: Time::ZERO,
                arrived: false,
                next: NONE_U32,
                wait_next: NONE_U32,
                wait_seq: 0,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The per-pair transport beside the full FIFO rescan the naive
            /// engine runs (`Network::start_eligible_into`), fed the same
            /// launches and releases: every step starts the same transfers
            /// in the same order, and the waiting statistics agree.
            #[test]
            fn pair_pump_starts_what_the_full_fifo_rescan_starts(
                nodes in 2u32..9,
                in_links in 1u32..4,
                out_links in 1u32..4,
                ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 1..400),
            ) {
                let platform = Platform::builder()
                    .input_links(in_links)
                    .output_links(out_links)
                    .build();
                let mut net = NodeNet::new(&platform, nodes as usize);
                let mut fifo = Network::new(&platform, nodes as usize);
                let mut transfers: Vec<Transfer> = Vec::new();
                let mut moving: Vec<TransferId> = Vec::new();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for (step, (op, a, b)) in ops.into_iter().enumerate() {
                    // A third of the steps share their instant with the next.
                    let now = Time::from_ns(step as u64 * 2 / 3);
                    got.clear();
                    if op > 0 || moving.is_empty() {
                        let nf = a % nodes;
                        let nt = (nf + 1 + b % (nodes - 1)) % nodes;
                        let tid = transfers.len();
                        transfers.push(waiter(nf, nt));
                        if net.launch(&mut transfers, tid, now) {
                            got.push(tid);
                        }
                        fifo.enqueue(tid, now);
                    } else {
                        let t = &transfers[moving.swap_remove(a as usize % moving.len())];
                        let (nf, nt) = (t.nf as usize, t.nt as usize);
                        net.release(nf, nt, now);
                        fifo.release(t.from, t.to, now);
                        if net.has_waiters(nf, nt) {
                            net.pump(&transfers, nf, nt, now, &mut got);
                        }
                    }
                    fifo.start_eligible_into(
                        now,
                        |id| (transfers[id].from, transfers[id].to),
                        &mut want,
                    );
                    prop_assert_eq!(&got, &want, "step {}", step);
                    prop_assert_eq!(net.waiting_len, fifo.waiting_len());
                    prop_assert_eq!(net.peak_waiting(), fifo.peak_waiting());
                    moving.extend_from_slice(&got);
                }
            }
        }
    }

    mod window_props {
        use super::*;
        use ovlsim_core::PerturbationModel;
        use proptest::prelude::*;

        /// Ring exchange: every rank computes, isends to its successor,
        /// receives from its predecessor, then waits on all its sends and
        /// synchronizes. Deadlock-free for any byte size (blocking sends
        /// never occur), and the lockstep structure maximizes same-instant
        /// ties, where any reordering of events would show.
        fn ring(ranks: u32, iters: u32, bytes: u64, burst: u64) -> TraceSet {
            let recs = (0..ranks)
                .map(|r| {
                    let mut recs = Vec::new();
                    for i in 0..iters {
                        recs.push(Record::Burst {
                            instr: Instr::new(burst * (1 + (r as u64 + i as u64) % 3)),
                        });
                        recs.push(Record::ISend {
                            to: Rank::new((r + 1) % ranks),
                            bytes,
                            tag: Tag::new(i as u64),
                            req: RequestId::new(i),
                        });
                        recs.push(Record::Recv {
                            from: Rank::new((r + ranks - 1) % ranks),
                            bytes,
                            tag: Tag::new(i as u64),
                        });
                    }
                    recs.push(Record::WaitAll {
                        reqs: (0..iters).map(RequestId::new).collect(),
                    });
                    recs.push(Record::Barrier);
                    RankTrace::from_records(recs)
                })
                .collect();
            TraceSet::new("ring", mips(), recs)
        }

        /// `buses` is `None` for the per-pair pumps; a finite pool
        /// switches to the global pump.
        fn platform_at(lat_us: u64, buses: Option<u32>, perturbed: bool) -> Platform {
            let mut b = Platform::builder();
            b.latency(Time::from_us(lat_us))
                .bandwidth_bytes_per_sec(1.0e9)
                .unwrap()
                .buses(buses);
            if perturbed {
                b.perturbation(
                    PerturbationModel::new(7)
                        .with_noise(0.1)
                        .unwrap()
                        .with_latency_jitter(Time::from_ns(300)),
                );
            }
            b.build()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Lockstep rings, clean and perturbed, on both transports:
            /// the compiled run matches the naive engine bit for bit.
            #[test]
            fn retired_window_ends_are_monotone(
                ranks in 2u32..6,
                iters in 1u32..5,
                bytes in 1u64..200_000,
                burst in 1u64..50_000,
                lat_us in 0u64..6,
                buses in prop_oneof![Just(None), (1u32..4).prop_map(Some)],
                perturbed in any::<bool>(),
            ) {
                let ts = ring(ranks, iters, bytes, burst);
                let platform = platform_at(lat_us, buses, perturbed);
                let [ff, naive] = replay_both_ways(&platform, &ts);
                prop_assert_eq!(ff.expect("replays"), naive.expect("replays"));
            }
        }
    }
}
