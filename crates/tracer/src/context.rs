//! The per-rank tracing context.
//!
//! [`TraceContext`] is the API an application model programs against. While
//! the model runs, the context simultaneously:
//!
//! 1. records the **original** (non-overlapped) trace — bursts and
//!    communication records exactly as the legacy code would execute them,
//! 2. drives the virtual instrumentation ([`MemTracer`]) that observes
//!    *when* each byte of every message is produced and first consumed —
//!    the raw material for synthesizing the overlapped traces.

use std::collections::BTreeMap;

use ovlsim_core::{BufferId, Instr, Rank, Record, RequestId, Tag};
use ovlsim_memtrace::{ConsumptionProfile, Kernel, MemTracer, ProductionProfile, WriteWatch};

use crate::error::TraceError;

/// Handle for an in-flight non-blocking send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "isend must be completed with wait_send"]
pub struct SendHandle(RequestId);

/// Handle for an in-flight non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "irecv must be completed with wait_recv"]
pub struct RecvHandle(RequestId);

/// Metadata the tracer keeps for every sent message.
#[derive(Debug, Clone)]
pub struct SendMeta {
    /// Index of the `Send`/`ISend` record in the rank's trace.
    pub record_idx: usize,
    /// Destination rank.
    pub to: Rank,
    /// Message size in bytes.
    pub bytes: u64,
    /// Application tag.
    pub tag: Tag,
    /// FIFO sequence number on the `(self→to, tag)` channel.
    pub channel_seq: u32,
    /// The send buffer, if the message was sent from a registered buffer.
    pub buffer: Option<BufferId>,
    /// Production (last-write) instants of the buffer's elements,
    /// snapshot at the send.
    pub production: Option<ProductionProfile>,
    /// Instruction instant of the send call.
    pub send_instant: Instr,
    /// Instant of the first write to the buffer *after* the send (where
    /// the overlapped execution must have completed the chunked sends).
    pub reuse_write: Option<Instr>,
    /// Index of the matching `Wait` record if this was an `isend`.
    pub wait_record_idx: Option<usize>,
    pub(crate) reuse_watch: Option<WriteWatch>,
}

/// Metadata the tracer keeps for every received message.
#[derive(Debug, Clone)]
pub struct RecvMeta {
    /// Index of the `Recv`/`IRecv` record in the rank's trace.
    pub post_record_idx: usize,
    /// Index of the matching `Wait` record if this was an `irecv`.
    pub wait_record_idx: Option<usize>,
    /// Source rank.
    pub from: Rank,
    /// Message size in bytes.
    pub bytes: u64,
    /// Application tag.
    pub tag: Tag,
    /// FIFO sequence number on the `(from→self, tag)` channel.
    pub channel_seq: u32,
    /// The receive buffer, if the message landed in a registered buffer.
    pub buffer: Option<BufferId>,
    /// First-read instants of the buffer's elements after message
    /// completion.
    pub consumption: Option<ConsumptionProfile>,
    /// Instruction instant at which the message is complete in the
    /// original execution (the blocking recv, or the wait of an irecv).
    pub complete_instant: Instr,
}

/// Everything the tracer learned about one rank: the original records plus
/// per-message production/consumption metadata.
#[derive(Debug, Clone, Default)]
pub struct RankMeta {
    /// Send-side message metadata, in issue order.
    pub sends: Vec<SendMeta>,
    /// Receive-side message metadata, in issue order.
    pub recvs: Vec<RecvMeta>,
    /// Total instructions executed by the rank.
    pub total_instr: Instr,
}

#[derive(Debug)]
enum Pending {
    Send { meta_idx: usize },
    Recv { meta_idx: usize },
}

/// The tracing context handed to [`Application::run`].
///
/// [`Application::run`]: crate::Application::run
#[derive(Debug)]
pub struct TraceContext {
    rank: Rank,
    nranks: usize,
    mem: MemTracer,
    records: Vec<Record>,
    sends: Vec<SendMeta>,
    recvs: Vec<RecvMeta>,
    /// Receive whose consumption window is currently open, per buffer.
    open_consumption: BTreeMap<BufferId, usize>,
    pending: BTreeMap<u32, Pending>,
    next_req: u32,
    out_seq: BTreeMap<(Rank, Tag), u32>,
    in_seq: BTreeMap<(Rank, Tag), u32>,
}

impl TraceContext {
    /// Creates a context for `rank` of `nranks`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the communicator or `nranks == 0`
    /// (the session validates these before constructing contexts).
    pub fn new(rank: Rank, nranks: usize) -> Self {
        assert!(nranks >= 1, "communicator must have at least one rank");
        assert!(rank.index() < nranks, "rank outside communicator");
        TraceContext {
            rank,
            nranks,
            mem: MemTracer::new(),
            records: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            open_consumption: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_req: 0,
            out_seq: BTreeMap::new(),
            in_seq: BTreeMap::new(),
        }
    }

    /// This context's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Communicator size.
    pub fn ranks(&self) -> usize {
        self.nranks
    }

    /// Current virtual instruction instant.
    pub fn now(&self) -> Instr {
        self.mem.now()
    }

    /// Registers a communication buffer (see [`MemTracer::register`]).
    ///
    /// # Panics
    ///
    /// Panics on zero sizes or misaligned element sizes.
    pub fn register_buffer(
        &mut self,
        name: impl Into<String>,
        bytes: u64,
        elem_bytes: u32,
    ) -> BufferId {
        self.mem.register(name, bytes, elem_bytes)
    }

    /// Executes `instr` instructions of opaque computation (no tracked
    /// buffer is touched).
    pub fn compute(&mut self, instr: Instr) {
        if instr.is_zero() {
            return;
        }
        self.mem.advance(instr);
        self.push_burst(instr);
    }

    /// Executes a compute kernel, recording its buffer accesses.
    ///
    /// # Panics
    ///
    /// Panics if the kernel touches an unregistered buffer.
    pub fn kernel(&mut self, kernel: &Kernel) {
        let instr = kernel.total_instr();
        self.mem.execute(kernel);
        if !instr.is_zero() {
            self.push_burst(instr);
        }
    }

    fn push_burst(&mut self, instr: Instr) {
        // Coalesce adjacent bursts so record positions stay canonical.
        if let Some(Record::Burst { instr: prev }) = self.records.last_mut() {
            *prev += instr;
        } else {
            self.records.push(Record::Burst { instr });
        }
    }

    fn check_peer(&self, peer: Rank) -> Result<(), TraceError> {
        if peer.index() >= self.nranks {
            return Err(TraceError::PeerOutOfRange {
                rank: self.rank,
                peer,
                size: self.nranks,
            });
        }
        if peer == self.rank {
            return Err(TraceError::SelfMessage { rank: self.rank });
        }
        Ok(())
    }

    fn next_out_seq(&mut self, to: Rank, tag: Tag) -> u32 {
        let c = self.out_seq.entry((to, tag)).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }

    fn next_in_seq(&mut self, from: Rank, tag: Tag) -> u32 {
        let c = self.in_seq.entry((from, tag)).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }

    fn fresh_req(&mut self) -> RequestId {
        let r = RequestId::new(self.next_req);
        self.next_req += 1;
        r
    }

    /// Blocking send of a registered buffer.
    ///
    /// # Errors
    ///
    /// Fails if `to` is out of range or equals this rank, or the buffer is
    /// empty.
    pub fn send(&mut self, to: Rank, buf: BufferId, tag: Tag) -> Result<(), TraceError> {
        self.check_peer(to)?;
        let bytes = self.mem.buffer_info(buf).bytes();
        if bytes == 0 {
            return Err(TraceError::EmptyMessage { rank: self.rank });
        }
        let channel_seq = self.next_out_seq(to, tag);
        let production = self.mem.snapshot_production(buf);
        let watch = self.mem.watch_first_write(buf);
        let record_idx = self.records.len();
        self.records.push(Record::Send { to, bytes, tag });
        self.sends.push(SendMeta {
            record_idx,
            to,
            bytes,
            tag,
            channel_seq,
            buffer: Some(buf),
            production: Some(production),
            send_instant: self.mem.now(),
            reuse_write: None,
            wait_record_idx: None,
            reuse_watch: Some(watch),
        });
        Ok(())
    }

    /// Blocking send of `bytes` raw bytes (no registered buffer). Raw
    /// messages have no production profile and are left unsplit by the
    /// overlap transform.
    ///
    /// # Errors
    ///
    /// Fails if `to` is invalid or `bytes == 0`.
    pub fn send_bytes(&mut self, to: Rank, bytes: u64, tag: Tag) -> Result<(), TraceError> {
        self.check_peer(to)?;
        if bytes == 0 {
            return Err(TraceError::EmptyMessage { rank: self.rank });
        }
        let channel_seq = self.next_out_seq(to, tag);
        let record_idx = self.records.len();
        self.records.push(Record::Send { to, bytes, tag });
        self.sends.push(SendMeta {
            record_idx,
            to,
            bytes,
            tag,
            channel_seq,
            buffer: None,
            production: None,
            send_instant: self.mem.now(),
            reuse_write: None,
            wait_record_idx: None,
            reuse_watch: None,
        });
        Ok(())
    }

    /// Non-blocking send of a registered buffer; complete with
    /// [`TraceContext::wait_send`].
    ///
    /// # Errors
    ///
    /// Same as [`TraceContext::send`].
    pub fn isend(&mut self, to: Rank, buf: BufferId, tag: Tag) -> Result<SendHandle, TraceError> {
        self.check_peer(to)?;
        let bytes = self.mem.buffer_info(buf).bytes();
        if bytes == 0 {
            return Err(TraceError::EmptyMessage { rank: self.rank });
        }
        let channel_seq = self.next_out_seq(to, tag);
        let production = self.mem.snapshot_production(buf);
        let watch = self.mem.watch_first_write(buf);
        let req = self.fresh_req();
        let record_idx = self.records.len();
        self.records.push(Record::ISend {
            to,
            bytes,
            tag,
            req,
        });
        let meta_idx = self.sends.len();
        self.sends.push(SendMeta {
            record_idx,
            to,
            bytes,
            tag,
            channel_seq,
            buffer: Some(buf),
            production: Some(production),
            send_instant: self.mem.now(),
            reuse_write: None,
            wait_record_idx: None,
            reuse_watch: Some(watch),
        });
        self.pending.insert(req.get(), Pending::Send { meta_idx });
        Ok(SendHandle(req))
    }

    /// Completes a non-blocking send.
    ///
    /// # Errors
    ///
    /// Fails if the handle is not outstanding.
    pub fn wait_send(&mut self, handle: SendHandle) -> Result<(), TraceError> {
        let req = handle.0;
        match self.pending.remove(&req.get()) {
            Some(Pending::Send { meta_idx }) => {
                self.sends[meta_idx].wait_record_idx = Some(self.records.len());
                self.records.push(Record::Wait { req });
                Ok(())
            }
            other => {
                if let Some(p) = other {
                    self.pending.insert(req.get(), p);
                }
                Err(TraceError::UnknownRequest { rank: self.rank })
            }
        }
    }

    /// Blocking receive into a registered buffer.
    ///
    /// # Errors
    ///
    /// Fails if `from` is invalid or the buffer is empty.
    pub fn recv(&mut self, from: Rank, buf: BufferId, tag: Tag) -> Result<(), TraceError> {
        self.check_peer(from)?;
        let bytes = self.mem.buffer_info(buf).bytes();
        if bytes == 0 {
            return Err(TraceError::EmptyMessage { rank: self.rank });
        }
        let channel_seq = self.next_in_seq(from, tag);
        let record_idx = self.records.len();
        self.records.push(Record::Recv { from, bytes, tag });
        let meta_idx = self.recvs.len();
        self.recvs.push(RecvMeta {
            post_record_idx: record_idx,
            wait_record_idx: None,
            from,
            bytes,
            tag,
            channel_seq,
            buffer: Some(buf),
            consumption: None,
            complete_instant: self.mem.now(),
        });
        self.open_consumption_window(buf, meta_idx);
        Ok(())
    }

    /// Blocking receive of raw bytes (no consumption tracking; left
    /// unsplit by the overlap transform).
    ///
    /// # Errors
    ///
    /// Fails if `from` is invalid or `bytes == 0`.
    pub fn recv_bytes(&mut self, from: Rank, bytes: u64, tag: Tag) -> Result<(), TraceError> {
        self.check_peer(from)?;
        if bytes == 0 {
            return Err(TraceError::EmptyMessage { rank: self.rank });
        }
        let channel_seq = self.next_in_seq(from, tag);
        let record_idx = self.records.len();
        self.records.push(Record::Recv { from, bytes, tag });
        self.recvs.push(RecvMeta {
            post_record_idx: record_idx,
            wait_record_idx: None,
            from,
            bytes,
            tag,
            channel_seq,
            buffer: None,
            consumption: None,
            complete_instant: self.mem.now(),
        });
        Ok(())
    }

    /// Non-blocking receive into a registered buffer; complete with
    /// [`TraceContext::wait_recv`].
    ///
    /// # Errors
    ///
    /// Same as [`TraceContext::recv`].
    pub fn irecv(&mut self, from: Rank, buf: BufferId, tag: Tag) -> Result<RecvHandle, TraceError> {
        self.check_peer(from)?;
        let bytes = self.mem.buffer_info(buf).bytes();
        if bytes == 0 {
            return Err(TraceError::EmptyMessage { rank: self.rank });
        }
        let channel_seq = self.next_in_seq(from, tag);
        let req = self.fresh_req();
        let record_idx = self.records.len();
        self.records.push(Record::IRecv {
            from,
            bytes,
            tag,
            req,
        });
        let meta_idx = self.recvs.len();
        self.recvs.push(RecvMeta {
            post_record_idx: record_idx,
            wait_record_idx: None,
            from,
            bytes,
            tag,
            channel_seq,
            buffer: Some(buf),
            consumption: None,
            complete_instant: self.mem.now(),
        });
        self.pending.insert(req.get(), Pending::Recv { meta_idx });
        Ok(RecvHandle(req))
    }

    /// Completes a non-blocking receive; the buffer's consumption window
    /// opens here (data is valid only after the wait).
    ///
    /// # Errors
    ///
    /// Fails if the handle is not outstanding.
    pub fn wait_recv(&mut self, handle: RecvHandle) -> Result<(), TraceError> {
        let req = handle.0;
        match self.pending.remove(&req.get()) {
            Some(Pending::Recv { meta_idx }) => {
                self.recvs[meta_idx].wait_record_idx = Some(self.records.len());
                self.recvs[meta_idx].complete_instant = self.mem.now();
                self.records.push(Record::Wait { req });
                if let Some(buf) = self.recvs[meta_idx].buffer {
                    self.open_consumption_window(buf, meta_idx);
                }
                Ok(())
            }
            other => {
                if let Some(p) = other {
                    self.pending.insert(req.get(), p);
                }
                Err(TraceError::UnknownRequest { rank: self.rank })
            }
        }
    }

    fn open_consumption_window(&mut self, buf: BufferId, meta_idx: usize) {
        // Close the previous window on this buffer first.
        if let Some(prev) = self.open_consumption.remove(&buf) {
            self.recvs[prev].consumption = Some(self.mem.snapshot_consumption(buf));
        }
        self.mem.reset_consumption(buf);
        self.open_consumption.insert(buf, meta_idx);
    }

    /// Barrier across all ranks.
    pub fn barrier(&mut self) {
        self.records.push(Record::Barrier);
    }

    /// All-reduce of `bytes` across all ranks.
    pub fn allreduce(&mut self, bytes: u64) {
        self.records.push(Record::AllReduce { bytes });
    }

    /// Broadcast of `bytes` from `root`.
    pub fn bcast(&mut self, root: Rank, bytes: u64) {
        self.records.push(Record::Bcast { root, bytes });
    }

    /// Reduce of `bytes` to `root`.
    pub fn reduce(&mut self, root: Rank, bytes: u64) {
        self.records.push(Record::Reduce { root, bytes });
    }

    /// All-to-all with `bytes` per rank pair.
    pub fn alltoall(&mut self, bytes: u64) {
        self.records.push(Record::AllToAll { bytes });
    }

    /// All-gather with `bytes` per rank.
    pub fn allgather(&mut self, bytes: u64) {
        self.records.push(Record::AllGather { bytes });
    }

    /// Emits a visualization marker (no timing effect).
    pub fn marker(&mut self, code: u32) {
        self.records.push(Record::Marker { code });
    }

    /// Finalizes the context: closes open consumption windows, resolves
    /// reuse watches and returns the original records plus metadata.
    ///
    /// # Errors
    ///
    /// Fails if any non-blocking request was never waited on.
    pub fn finish(mut self) -> Result<(Vec<Record>, RankMeta), TraceError> {
        if !self.pending.is_empty() {
            return Err(TraceError::DanglingRequests {
                rank: self.rank,
                count: self.pending.len(),
            });
        }
        let open: Vec<(BufferId, usize)> = self
            .open_consumption
            .iter()
            .map(|(b, i)| (*b, *i))
            .collect();
        for (buf, meta_idx) in open {
            self.recvs[meta_idx].consumption = Some(self.mem.snapshot_consumption(buf));
        }
        for send in &mut self.sends {
            if let Some(watch) = send.reuse_watch.take() {
                send.reuse_write = self.mem.watch_result(watch);
            }
        }
        let meta = RankMeta {
            sends: self.sends,
            recvs: self.recvs,
            total_instr: self.mem.now(),
        };
        Ok((self.records, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_memtrace::{AccessKind, IndexPattern};

    fn ctx() -> TraceContext {
        TraceContext::new(Rank::new(0), 4)
    }

    #[test]
    fn compute_coalesces_bursts() {
        let mut c = ctx();
        c.compute(Instr::new(10));
        c.compute(Instr::new(20));
        let (records, meta) = c.finish().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0],
            Record::Burst {
                instr: Instr::new(30)
            }
        );
        assert_eq!(meta.total_instr, Instr::new(30));
    }

    #[test]
    fn zero_compute_is_elided() {
        let mut c = ctx();
        c.compute(Instr::ZERO);
        let (records, _) = c.finish().unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn send_records_production_profile() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 64, 8);
        let k = Kernel::builder()
            .phase(Instr::new(80))
            .access(buf, AccessKind::Write, IndexPattern::Sequential)
            .build();
        c.kernel(&k);
        c.send(Rank::new(1), buf, Tag::new(5)).unwrap();
        let (records, meta) = c.finish().unwrap();
        assert_eq!(records.len(), 2);
        let send = &meta.sends[0];
        assert_eq!(send.bytes, 64);
        assert_eq!(send.send_instant, Instr::new(80));
        let prof = send.production.as_ref().unwrap();
        assert_eq!(prof.fully_ready_at(), Instr::new(80));
        assert!(prof.ready_at(0..8) < Instr::new(80));
        assert_eq!(send.reuse_write, None);
    }

    #[test]
    fn reuse_write_resolved_at_finish() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        let k = Kernel::builder()
            .phase(Instr::new(10))
            .access(buf, AccessKind::Write, IndexPattern::Sequential)
            .build();
        c.kernel(&k);
        c.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.kernel(&k); // rewrite the buffer => reuse
        let (_, meta) = c.finish().unwrap();
        assert_eq!(meta.sends[0].reuse_write, Some(Instr::new(20)));
    }

    #[test]
    fn recv_consumption_window_closes_on_next_recv() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        let read = Kernel::builder()
            .phase(Instr::new(10))
            .access(buf, AccessKind::Read, IndexPattern::Sequential)
            .build();
        c.recv(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.kernel(&read);
        c.recv(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.kernel(&read);
        let (_, meta) = c.finish().unwrap();
        // First recv consumed at t=10 (during first read kernel).
        let c0 = meta.recvs[0].consumption.as_ref().unwrap();
        assert_eq!(c0.first_needed_at(), Some(Instr::new(10)));
        // Second recv consumed at t=20.
        let c1 = meta.recvs[1].consumption.as_ref().unwrap();
        assert_eq!(c1.first_needed_at(), Some(Instr::new(20)));
    }

    #[test]
    fn isend_wait_pairs() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        let h = c.isend(Rank::new(2), buf, Tag::new(1)).unwrap();
        c.compute(Instr::new(5));
        c.wait_send(h).unwrap();
        let (records, meta) = c.finish().unwrap();
        assert!(matches!(records[0], Record::ISend { .. }));
        assert!(matches!(records[2], Record::Wait { .. }));
        assert_eq!(meta.sends[0].wait_record_idx, Some(2));
    }

    #[test]
    fn irecv_consumption_opens_at_wait() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        let read = Kernel::builder()
            .phase(Instr::new(10))
            .access(buf, AccessKind::Read, IndexPattern::Sequential)
            .build();
        let h = c.irecv(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.compute(Instr::new(100));
        c.wait_recv(h).unwrap();
        c.kernel(&read);
        let (_, meta) = c.finish().unwrap();
        let m = &meta.recvs[0];
        assert_eq!(m.complete_instant, Instr::new(100));
        assert_eq!(m.wait_record_idx, Some(2));
        assert_eq!(
            m.consumption.as_ref().unwrap().first_needed_at(),
            Some(Instr::new(110))
        );
    }

    #[test]
    fn dangling_request_fails_finish() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        let _h = c.isend(Rank::new(1), buf, Tag::new(0)).unwrap();
        assert!(matches!(
            c.finish(),
            Err(TraceError::DanglingRequests { count: 1, .. })
        ));
    }

    #[test]
    fn double_wait_fails() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        let h = c.isend(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.wait_send(h).unwrap();
        assert!(matches!(
            c.wait_send(h),
            Err(TraceError::UnknownRequest { .. })
        ));
    }

    #[test]
    fn peer_validation() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        assert!(matches!(
            c.send(Rank::new(9), buf, Tag::new(0)),
            Err(TraceError::PeerOutOfRange { .. })
        ));
        assert!(matches!(
            c.send(Rank::new(0), buf, Tag::new(0)),
            Err(TraceError::SelfMessage { .. })
        ));
        assert!(matches!(
            c.send_bytes(Rank::new(1), 0, Tag::new(0)),
            Err(TraceError::EmptyMessage { .. })
        ));
    }

    #[test]
    fn channel_seq_counts_per_peer_and_tag() {
        let mut c = ctx();
        let buf = c.register_buffer("b", 8, 8);
        c.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        c.send(Rank::new(1), buf, Tag::new(1)).unwrap();
        c.send(Rank::new(2), buf, Tag::new(0)).unwrap();
        let (_, meta) = c.finish().unwrap();
        let seqs: Vec<u32> = meta.sends.iter().map(|s| s.channel_seq).collect();
        assert_eq!(seqs, vec![0, 1, 0, 0]);
    }

    #[test]
    fn collectives_and_markers_record() {
        let mut c = ctx();
        c.barrier();
        c.allreduce(8);
        c.bcast(Rank::new(0), 100);
        c.reduce(Rank::new(1), 100);
        c.alltoall(64);
        c.allgather(32);
        c.marker(7);
        let (records, _) = c.finish().unwrap();
        assert_eq!(records.len(), 7);
        assert!(records[6] == Record::Marker { code: 7 });
    }
}
