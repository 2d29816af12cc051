//! The pre-optimization replay engine, kept as a differential-testing
//! reference.
//!
//! This module preserves the original data-structure choices of the replay
//! simulator before the hot-path overhaul:
//!
//! * channels live in a `BTreeMap<(u32, u32, u64), Channel>` and every
//!   message pays an ordered-map walk,
//! * wait-sets are `BTreeSet<u32>` and every `WaitAll` clones its request
//!   vector,
//! * every run re-validates the trace set from scratch.
//!
//! It is the only replay engine independent of the production executor
//! (`fastforward.rs`), which must produce **identical** [`ReplayResult`]s
//! and observed timelines — the property tests in `tests/props.rs` replay
//! random traces through both and compare, and `benches/dimemas_replay.rs`
//! uses this module as the baseline for the speedup measurement. Keep the
//! semantics frozen: fix bugs in both engines or in neither.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ovlsim_core::{validate_trace_set, Platform, Rank, Record, RequestId, Tag, Time, TraceSet};
use ovlsim_engine::EventQueue;

use crate::collective::{collective_op, CollectiveTracker};
use crate::error::SimError;
use crate::network::{LinkPerturb, Network, TransferId};
use crate::observer::{NullObserver, ProcState, ReplayObserver};
use crate::replay::ReplayResult;

/// Replays `trace` on `platform` with the pre-optimization engine.
///
/// Exposed (hidden from docs) so differential tests and benchmarks outside
/// this crate can compare against the optimized [`crate::Simulator`].
///
/// # Errors
///
/// Same contract as [`crate::Simulator::run`].
#[doc(hidden)]
pub fn replay_naive(platform: &Platform, trace: &TraceSet) -> Result<ReplayResult, SimError> {
    replay_naive_observed(platform, trace, &mut NullObserver)
}

/// [`replay_naive`] with timeline observation: the `interval`, `message`,
/// `marker` and `finished` callbacks (this engine emits no attribution).
///
/// # Errors
///
/// Same contract as [`crate::Simulator::run_observed`].
#[doc(hidden)]
pub fn replay_naive_observed(
    platform: &Platform,
    trace: &TraceSet,
    observer: &mut dyn ReplayObserver,
) -> Result<ReplayResult, SimError> {
    let issues = validate_trace_set(trace);
    if !issues.is_empty() {
        return Err(SimError::InvalidTrace { issues });
    }
    NaiveState::new(platform, trace).run(observer)
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Resume(usize),
    TransferSent(TransferId),
    TransferDone(TransferId),
    /// A transfer held by a transient link outage may now enter the
    /// transport queue (faulty platforms only).
    TransferRetry(TransferId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderKind {
    Fire,
    Blocking,
    Request(RequestId),
}

#[derive(Debug)]
struct Transfer {
    from: Rank,
    to: Rank,
    bytes: u64,
    tag: Tag,
    rendezvous: bool,
    intra: bool,
    sender_kind: SenderKind,
    recv: Option<usize>,
    enqueued: bool,
    started_at: Option<Time>,
    arrived: Option<Time>,
    /// Per-message latency jitter ([`Time::ZERO`] unless perturbed).
    jitter: Time,
}

#[derive(Debug)]
struct RecvPost {
    rank: usize,
    req: Option<RequestId>,
    transfer: Option<TransferId>,
    done: Option<Time>,
}

#[derive(Debug, Default)]
struct Channel {
    unmatched_sends: VecDeque<TransferId>,
    unmatched_recvs: VecDeque<usize>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Blocker {
    Recv(usize),
    SendDone(TransferId),
    Reqs(BTreeSet<u32>),
    Collective(usize),
}

#[derive(Debug, Clone, Copy)]
enum ReqState {
    InFlight,
    Done(Time),
}

#[derive(Debug)]
struct Proc {
    cursor: usize,
    clock: Time,
    blocked: Option<Blocker>,
    block_start: Time,
    coll_seq: usize,
    reqs: BTreeMap<u32, ReqState>,
    compute: Time,
    finished: Option<Time>,
    overhead_paid: bool,
    /// Burst ordinal keying this rank's OS-noise draws.
    burst_seq: u64,
}

struct NaiveState<'a> {
    platform: &'a Platform,
    trace: &'a TraceSet,
    queue: EventQueue<Event>,
    procs: Vec<Proc>,
    transfers: Vec<Transfer>,
    recv_posts: Vec<RecvPost>,
    channels: BTreeMap<(u32, u32, u64), Channel>,
    network: Network,
    collectives: CollectiveTracker,
    p2p_messages: u64,
    p2p_bytes: u64,
    inv_cpu_ratio: f64,
    compute_perturbed: bool,
    link: LinkPerturb,
    /// Per-channel send sequence numbers for latency-jitter draws, keyed
    /// like the channel map (this engine has no dense channel ids).
    send_seq: BTreeMap<(u32, u32, u64), u64>,
}

impl<'a> NaiveState<'a> {
    fn new(platform: &'a Platform, trace: &'a TraceSet) -> Self {
        let n = trace.rank_count();
        NaiveState {
            platform,
            trace,
            queue: EventQueue::new(),
            procs: (0..n)
                .map(|_| Proc {
                    cursor: 0,
                    clock: Time::ZERO,
                    blocked: None,
                    block_start: Time::ZERO,
                    coll_seq: 0,
                    reqs: BTreeMap::new(),
                    compute: Time::ZERO,
                    finished: None,
                    overhead_paid: false,
                    burst_seq: 0,
                })
                .collect(),
            transfers: Vec::new(),
            recv_posts: Vec::new(),
            channels: BTreeMap::new(),
            network: Network::new(platform, n),
            collectives: CollectiveTracker::new(n),
            p2p_messages: 0,
            p2p_bytes: 0,
            inv_cpu_ratio: 1.0 / platform.cpu_ratio(),
            compute_perturbed: platform.perturbation().has_compute_effects(),
            link: LinkPerturb::new(platform),
            send_seq: BTreeMap::new(),
        }
    }

    fn run(&mut self, observer: &mut dyn ReplayObserver) -> Result<ReplayResult, SimError> {
        for r in 0..self.procs.len() {
            self.queue.schedule(Time::ZERO, Event::Resume(r));
        }
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Event::Resume(r) => self.step(r, observer),
                Event::TransferSent(id) => self.transfer_sent(id, t, observer),
                Event::TransferDone(id) => self.transfer_done(id, t, observer),
                Event::TransferRetry(id) => self.launch_transfer(id, t),
            }
        }
        let blocked: Vec<(Rank, String)> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.finished.is_none())
            .map(|(r, p)| (Rank::new(r as u32), describe_blocker(p)))
            .collect();
        if !blocked.is_empty() {
            let at = self
                .procs
                .iter()
                .map(|p| p.clock)
                .max()
                .unwrap_or(Time::ZERO);
            return Err(SimError::Deadlock { at, blocked });
        }
        let rank_finish: Vec<Time> = self
            .procs
            .iter()
            .map(|p| p.finished.expect("all finished"))
            .collect();
        let total_time = rank_finish.iter().copied().max().unwrap_or(Time::ZERO);
        Ok(ReplayResult {
            name: self.trace.name().to_string(),
            total_time,
            rank_compute: self.procs.iter().map(|p| p.compute).collect(),
            rank_finish,
            p2p_messages: self.p2p_messages,
            p2p_bytes: self.p2p_bytes,
            collective_count: self.collectives.instance_count() as u64,
            mean_busy_buses: self.network.mean_busy_buses(total_time),
            peak_busy_buses: self.network.peak_busy_buses(),
            peak_waiting_transfers: self.network.peak_waiting(),
        })
    }

    fn burst_duration(&self, r: usize, seq: u64, instr: ovlsim_core::Instr) -> Time {
        let base = self.trace.mips().instr_to_time(instr);
        if self.compute_perturbed {
            let rank = r as u32;
            let node = self.platform.node_of(rank);
            base.scale_f64(self.platform.perturbation().burst_factor(
                self.inv_cpu_ratio,
                rank,
                node,
                seq,
            ))
        } else {
            base.scale_f64(self.inv_cpu_ratio)
        }
    }

    fn transmission_time(&self, t: &Transfer) -> Time {
        if t.intra {
            self.platform.intra_node_bandwidth().transfer_time(t.bytes)
        } else {
            let base = self.platform.bandwidth().transfer_time(t.bytes);
            self.link.stretch(base, t.from, t.to)
        }
    }

    fn flight_time(&self, t: &Transfer) -> Time {
        let base = if t.intra {
            self.platform.intra_node_latency()
        } else if t.rendezvous {
            self.platform.latency() + self.platform.rendezvous_latency()
        } else {
            self.platform.latency()
        };
        base + t.jitter
    }

    fn pump_network(&mut self, now: Time) {
        let transfers = &self.transfers;
        let started = self
            .network
            .start_eligible(now, |id| (transfers[id].from, transfers[id].to));
        for tid in started {
            self.transfers[tid].started_at = Some(now);
            let dur = self.transmission_time(&self.transfers[tid]);
            self.queue.schedule(now + dur, Event::TransferSent(tid));
        }
    }

    fn pump_intra(&mut self, now: Time) {
        if !self.network.intra_limited() {
            return;
        }
        let transfers = &self.transfers;
        let platform = self.platform;
        let started = self.network.start_eligible_intra(now, |id| {
            platform.node_of(transfers[id].from.get()) as usize
        });
        for tid in started {
            self.transfers[tid].started_at = Some(now);
            let dur = self.transmission_time(&self.transfers[tid]);
            self.queue.schedule(now + dur, Event::TransferSent(tid));
        }
    }

    fn step(&mut self, r: usize, observer: &mut dyn ReplayObserver) {
        debug_assert!(self.procs[r].blocked.is_none(), "stepping a blocked rank");
        let records = self.trace.ranks()[r].records();
        loop {
            let cursor = self.procs[r].cursor;
            if cursor >= records.len() {
                let at = self.procs[r].clock;
                self.procs[r].finished = Some(at);
                observer.finished(Rank::new(r as u32), at);
                return;
            }
            let now = self.procs[r].clock;
            match &records[cursor] {
                Record::Burst { instr } => {
                    let seq = self.procs[r].burst_seq;
                    self.procs[r].burst_seq += 1;
                    let dur = self.burst_duration(r, seq, *instr);
                    let end = now + dur;
                    observer.interval(Rank::new(r as u32), now, end, ProcState::Compute);
                    let p = &mut self.procs[r];
                    p.compute += dur;
                    p.clock = end;
                    p.cursor += 1;
                    self.queue.schedule(end, Event::Resume(r));
                    return;
                }
                Record::Marker { code } => {
                    observer.marker(Rank::new(r as u32), now, *code);
                    self.procs[r].cursor += 1;
                }
                Record::Send { to, bytes, tag } => {
                    if self.charge_send_overhead(r, now) {
                        return;
                    }
                    let rendezvous = *bytes > self.platform.eager_threshold();
                    let kind = if rendezvous {
                        SenderKind::Blocking
                    } else {
                        SenderKind::Fire
                    };
                    let tid = self.create_transfer(r, *to, *bytes, *tag, rendezvous, kind);
                    self.post_send(tid, now);
                    self.procs[r].cursor += 1;
                    if rendezvous {
                        let p = &mut self.procs[r];
                        p.blocked = Some(Blocker::SendDone(tid));
                        p.block_start = now;
                        return;
                    }
                }
                Record::ISend {
                    to,
                    bytes,
                    tag,
                    req,
                } => {
                    if self.charge_send_overhead(r, now) {
                        return;
                    }
                    let rendezvous = *bytes > self.platform.eager_threshold();
                    let kind = if rendezvous {
                        SenderKind::Request(*req)
                    } else {
                        SenderKind::Fire
                    };
                    let tid = self.create_transfer(r, *to, *bytes, *tag, rendezvous, kind);
                    let state = if rendezvous {
                        ReqState::InFlight
                    } else {
                        ReqState::Done(now)
                    };
                    self.procs[r].reqs.insert(req.get(), state);
                    self.post_send(tid, now);
                    self.procs[r].cursor += 1;
                }
                Record::Recv {
                    from,
                    bytes: _,
                    tag,
                } => {
                    let pid = self.post_recv(r, None, *from, *tag, now);
                    self.procs[r].cursor += 1;
                    match self.recv_posts[pid].done {
                        Some(done) => {
                            debug_assert!(done >= now);
                            if done > now {
                                self.procs[r].clock = done;
                                self.queue.schedule(done, Event::Resume(r));
                                return;
                            }
                        }
                        None => {
                            let p = &mut self.procs[r];
                            p.blocked = Some(Blocker::Recv(pid));
                            p.block_start = now;
                            return;
                        }
                    }
                }
                Record::IRecv {
                    from,
                    bytes: _,
                    tag,
                    req,
                } => {
                    let pid = self.post_recv(r, Some(*req), *from, *tag, now);
                    let state = match self.recv_posts[pid].done {
                        Some(done) => ReqState::Done(done),
                        None => ReqState::InFlight,
                    };
                    self.procs[r].reqs.insert(req.get(), state);
                    self.procs[r].cursor += 1;
                }
                Record::Wait { req } => {
                    if self.enter_wait(r, &[*req], now, observer) {
                        return;
                    }
                }
                Record::WaitAll { reqs } => {
                    // `records` borrows the trace through the shared
                    // `&'a TraceSet` field, not through `self`, so the
                    // wait-set passes by reference — the oracle allocates
                    // nothing per wait either.
                    if self.enter_wait(r, reqs, now, observer) {
                        return;
                    }
                }
                rec if rec.is_collective() => {
                    let (op, bytes) = collective_op(rec).expect("checked collective");
                    let seq = self.procs[r].coll_seq;
                    self.procs[r].coll_seq += 1;
                    self.procs[r].cursor += 1;
                    match self.collectives.arrive(seq, op, bytes, now, self.platform) {
                        Some(done) => {
                            for (q, proc) in self.procs.iter_mut().enumerate() {
                                if proc.blocked == Some(Blocker::Collective(seq)) {
                                    observer.interval(
                                        Rank::new(q as u32),
                                        proc.block_start,
                                        done,
                                        ProcState::Collective,
                                    );
                                    proc.blocked = None;
                                    proc.clock = done;
                                    self.queue.schedule(done, Event::Resume(q));
                                }
                            }
                            observer.interval(
                                Rank::new(r as u32),
                                now,
                                done,
                                ProcState::Collective,
                            );
                            self.procs[r].clock = done;
                            self.queue.schedule(done, Event::Resume(r));
                            return;
                        }
                        None => {
                            let p = &mut self.procs[r];
                            p.blocked = Some(Blocker::Collective(seq));
                            p.block_start = now;
                            return;
                        }
                    }
                }
                other => unreachable!("unhandled record {other}"),
            }
        }
    }

    fn enter_wait(
        &mut self,
        r: usize,
        reqs: &[RequestId],
        now: Time,
        observer: &mut dyn ReplayObserver,
    ) -> bool {
        let mut remaining: BTreeSet<u32> = BTreeSet::new();
        let mut latest = now;
        for req in reqs {
            match self.procs[r].reqs.remove(&req.get()) {
                Some(ReqState::Done(t)) => latest = latest.max(t),
                Some(fly) => {
                    self.procs[r].reqs.insert(req.get(), fly);
                    remaining.insert(req.get());
                }
                None => unreachable!("validated trace waits on posted requests"),
            }
        }
        self.procs[r].cursor += 1;
        if remaining.is_empty() {
            if latest > now {
                observer.interval(Rank::new(r as u32), now, latest, ProcState::WaitRequest);
                self.procs[r].clock = latest;
                self.queue.schedule(latest, Event::Resume(r));
                return true;
            }
            false
        } else {
            let p = &mut self.procs[r];
            p.blocked = Some(Blocker::Reqs(remaining));
            p.block_start = now;
            true
        }
    }

    fn charge_send_overhead(&mut self, r: usize, now: Time) -> bool {
        let overhead = self.platform.send_overhead();
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
        self.queue.schedule(at, Event::Resume(r));
        true
    }

    fn create_transfer(
        &mut self,
        from: usize,
        to: Rank,
        bytes: u64,
        tag: Tag,
        rendezvous: bool,
        sender_kind: SenderKind,
    ) -> TransferId {
        let tid = self.transfers.len();
        let intra = self.platform.node_of(from as u32) == self.platform.node_of(to.get());
        // Same jitter coordinates as the production executor: raw channel
        // triple plus per-channel send ordinal.
        let jitter = if intra || !self.link.active() {
            Time::ZERO
        } else {
            let seq = self
                .send_seq
                .entry((from as u32, to.get(), tag.get()))
                .or_insert(0);
            let this = *seq;
            *seq += 1;
            self.link.jitter(Rank::new(from as u32), to, tag, this)
        };
        self.transfers.push(Transfer {
            from: Rank::new(from as u32),
            to,
            bytes,
            tag,
            rendezvous,
            intra,
            sender_kind,
            recv: None,
            enqueued: false,
            started_at: None,
            arrived: None,
            jitter,
        });
        self.p2p_messages += 1;
        self.p2p_bytes += bytes;
        tid
    }

    fn channel(&mut self, from: Rank, to: Rank, tag: Tag) -> &mut Channel {
        self.channels
            .entry((from.get(), to.get(), tag.get()))
            .or_default()
    }

    fn post_send(&mut self, tid: TransferId, now: Time) {
        let (from, to, tag) = {
            let t = &self.transfers[tid];
            (t.from, t.to, t.tag)
        };
        let matched = {
            let ch = self.channel(from, to, tag);
            match ch.unmatched_recvs.pop_front() {
                Some(pid) => {
                    self.transfers[tid].recv = Some(pid);
                    self.recv_posts[pid].transfer = Some(tid);
                    true
                }
                None => {
                    ch.unmatched_sends.push_back(tid);
                    false
                }
            }
        };
        let ready = !self.transfers[tid].rendezvous || matched;
        if ready {
            self.start_transfer(tid, now);
        }
    }

    fn start_transfer(&mut self, tid: TransferId, now: Time) {
        debug_assert!(!self.transfers[tid].enqueued);
        self.transfers[tid].enqueued = true;
        if !self.transfers[tid].intra {
            let (from, to) = (self.transfers[tid].from, self.transfers[tid].to);
            if let Some(up) = self.link.outage_end(from, to, now) {
                self.queue.schedule(up, Event::TransferRetry(tid));
                return;
            }
        }
        self.launch_transfer(tid, now);
    }

    fn launch_transfer(&mut self, tid: TransferId, now: Time) {
        if self.transfers[tid].intra {
            if self.network.intra_limited() {
                self.network.enqueue_intra(tid, now);
                self.pump_intra(now);
            } else {
                self.transfers[tid].started_at = Some(now);
                let dur = self.transmission_time(&self.transfers[tid]);
                self.queue.schedule(now + dur, Event::TransferSent(tid));
            }
        } else {
            self.network.enqueue(tid, now);
            self.pump_network(now);
        }
    }

    fn post_recv(
        &mut self,
        r: usize,
        req: Option<RequestId>,
        from: Rank,
        tag: Tag,
        now: Time,
    ) -> usize {
        let pid = self.recv_posts.len();
        self.recv_posts.push(RecvPost {
            rank: r,
            req,
            transfer: None,
            done: None,
        });
        let to = Rank::new(r as u32);
        let matched = {
            let ch = self.channel(from, to, tag);
            match ch.unmatched_sends.pop_front() {
                Some(tid) => Some(tid),
                None => {
                    ch.unmatched_recvs.push_back(pid);
                    None
                }
            }
        };
        if let Some(tid) = matched {
            self.transfers[tid].recv = Some(pid);
            self.recv_posts[pid].transfer = Some(tid);
            if let Some(_arrival) = self.transfers[tid].arrived {
                self.recv_posts[pid].done = Some(now + self.platform.recv_overhead());
            } else if !self.transfers[tid].enqueued {
                self.start_transfer(tid, now);
            }
        }
        pid
    }

    fn complete_request(
        &mut self,
        r: usize,
        req: RequestId,
        at: Time,
        observer: &mut dyn ReplayObserver,
    ) {
        let proc = &mut self.procs[r];
        let unblock = match &mut proc.blocked {
            Some(Blocker::Reqs(set)) if set.contains(&req.get()) => {
                set.remove(&req.get());
                proc.reqs.remove(&req.get());
                set.is_empty()
            }
            _ => {
                proc.reqs.insert(req.get(), ReqState::Done(at));
                false
            }
        };
        if unblock {
            let p = &mut self.procs[r];
            observer.interval(
                Rank::new(r as u32),
                p.block_start,
                at,
                ProcState::WaitRequest,
            );
            p.blocked = None;
            p.clock = at;
            self.queue.schedule(at, Event::Resume(r));
        }
    }

    fn transfer_sent(&mut self, tid: TransferId, at: Time, observer: &mut dyn ReplayObserver) {
        let (from, to, sender_kind, intra) = {
            let t = &self.transfers[tid];
            (t.from, t.to, t.sender_kind, t.intra)
        };
        if !intra {
            self.network.release(from, to, at);
        } else if self.network.intra_limited() {
            self.network
                .release_intra(self.platform.node_of(from.get()) as usize);
        }

        match sender_kind {
            SenderKind::Fire => {}
            SenderKind::Blocking => {
                let s = from.index();
                debug_assert_eq!(self.procs[s].blocked, Some(Blocker::SendDone(tid)));
                let p = &mut self.procs[s];
                observer.interval(from, p.block_start, at, ProcState::WaitSend);
                p.blocked = None;
                p.clock = at;
                self.queue.schedule(at, Event::Resume(s));
            }
            SenderKind::Request(req) => {
                self.complete_request(from.index(), req, at, observer);
            }
        }

        let flight = self.flight_time(&self.transfers[tid]);
        self.queue.schedule(at + flight, Event::TransferDone(tid));
        // Only the freed domain can have newly eligible transfers.
        if intra {
            self.pump_intra(at);
        } else {
            self.pump_network(at);
        }
    }

    fn transfer_done(&mut self, tid: TransferId, at: Time, observer: &mut dyn ReplayObserver) {
        let (from, to, bytes, tag, started, recv) = {
            let t = &self.transfers[tid];
            (
                t.from,
                t.to,
                t.bytes,
                t.tag,
                t.started_at.expect("done transfers started"),
                t.recv,
            )
        };
        self.transfers[tid].arrived = Some(at);
        observer.message(from, to, started, at, bytes, tag);

        if let Some(pid) = recv {
            let done = at + self.platform.recv_overhead();
            self.recv_posts[pid].done = Some(done);
            let r = self.recv_posts[pid].rank;
            match self.recv_posts[pid].req {
                None => {
                    debug_assert_eq!(self.procs[r].blocked, Some(Blocker::Recv(pid)));
                    let p = &mut self.procs[r];
                    observer.interval(
                        Rank::new(r as u32),
                        p.block_start,
                        done,
                        ProcState::WaitRecv,
                    );
                    p.blocked = None;
                    p.clock = done;
                    self.queue.schedule(done, Event::Resume(r));
                }
                Some(req) => {
                    self.complete_request(r, req, done, observer);
                }
            }
        }
    }
}

fn describe_blocker(p: &Proc) -> String {
    match &p.blocked {
        None => "runnable but starved (internal error)".to_string(),
        Some(Blocker::Recv(_)) => "blocked in recv".to_string(),
        Some(Blocker::SendDone(_)) => "blocked in rendezvous send".to_string(),
        Some(Blocker::Reqs(reqs)) => format!("blocked waiting {} requests", reqs.len()),
        Some(Blocker::Collective(seq)) => format!("blocked in collective #{seq}"),
    }
}
