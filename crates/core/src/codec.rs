//! The `.ovlb` versioned binary artifact format.
//!
//! Replay artifacts — a [`TraceSet`] or a [`CompiledTrace`] — can be
//! persisted as compact binary files and reloaded without re-tracing or
//! recompiling. The format is built for a long-lived artifact cache, so
//! it is defensive end to end:
//!
//! * a 4-byte magic (`OVLB`) and a format version gate every load — a
//!   future incompatible layout bumps [`FORMAT_VERSION`] and old readers
//!   refuse cleanly with [`DecodeError::UnsupportedVersion`],
//! * the payload is split into sections listed in a table of
//!   per-section lengths **and checksums**; every section's bytes are
//!   verified against its checksum *before* any field is parsed, so a
//!   single flipped bit anywhere in a file is detected,
//! * decoding never panics and never allocates more than the input
//!   could justify: every length is bounds-checked against the bytes
//!   actually present, and every failure is a typed [`DecodeError`],
//! * decoded [`CompiledTrace`]s are structurally re-validated (arena
//!   sizes, slot bounds, channel ids) so even a hypothetical
//!   checksum-colliding corruption cannot send a replay engine out of
//!   bounds.
//!
//! Encoding is canonical: equal artifacts encode to equal bytes, and
//! `decode(encode(x)) == x` bit-for-bit (property-tested).
//!
//! # Layout
//!
//! ```text
//! [0..4)   magic "OVLB"
//! [4..6)   format version, u16 LE
//! [6..7)   artifact kind  (1 = trace set, 2 = compiled trace)
//! [7..8)   section count
//! then per section: { id: u8, len: u64 LE, checksum: u64 LE }
//! then the section payloads, back to back, no padding
//! ```
//!
//! A trace set has two sections: a header (name, MIPS rate, rank count)
//! and each rank's records. A compiled trace has three: a header (name,
//! MIPS rate, rank count), the channel endpoints, and per rank the
//! instruction columns (opcode, `a`, `b`, `payload`), the `WaitAll` slot
//! arena and the slot count.
//!
//! The trace-set layout is the same since version 1, so trace sets decode
//! at version 1 or 2. The compiled-trace layout is version 2's (a burst
//! carries its duration in `payload`, and no side arena holds it), so a
//! program cached by an earlier build fails with
//! [`DecodeError::UnsupportedVersion`] and is rebuilt.
//!
//! Trailing bytes after the last section are an error
//! ([`DecodeError::TrailingBytes`]): a truncated *or* grown file never
//! decodes.

use std::fmt;

use crate::hash::StableHasher;
use crate::ids::{Rank, RequestId, Tag};
use crate::instr::{Instr, MipsRate};
use crate::program::{ChannelEndpoints, CompiledTrace, RankProgram};
use crate::record::{RankTrace, Record, RecordKind, TraceSet};

/// The 4-byte file magic.
pub const MAGIC: [u8; 4] = *b"OVLB";

/// Current format version. Bump on any incompatible layout change; old
/// readers then fail with [`DecodeError::UnsupportedVersion`] instead of
/// misparsing.
pub const FORMAT_VERSION: u16 = 2;

/// Canonical file extension (without the dot) for encoded artifacts.
pub const EXTENSION: &str = "ovlb";

/// Which artifact a `.ovlb` byte string carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A [`TraceSet`] (per-rank record streams).
    TraceSet,
    /// A [`CompiledTrace`] (flat replay program).
    CompiledTrace,
}

impl ArtifactKind {
    fn tag(self) -> u8 {
        match self {
            ArtifactKind::TraceSet => 1,
            ArtifactKind::CompiledTrace => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(ArtifactKind::TraceSet),
            2 => Some(ArtifactKind::CompiledTrace),
            _ => None,
        }
    }

    /// The oldest format version whose layout of this kind is the current
    /// one (see the module docs).
    fn oldest_version(self) -> u16 {
        match self {
            ArtifactKind::TraceSet => 1,
            ArtifactKind::CompiledTrace => 2,
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactKind::TraceSet => f.write_str("trace set"),
            ArtifactKind::CompiledTrace => f.write_str("compiled trace"),
        }
    }
}

/// Why a `.ovlb` byte string could not be decoded. Decoding never
/// panics: every malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input does not start with the `OVLB` magic — not an artifact
    /// file at all (or one overwritten past recognition).
    BadMagic,
    /// The file's format version is newer than this build, or an older
    /// layout of the artifact that this build no longer reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// The file holds a different artifact than the caller asked for.
    WrongArtifact {
        /// What the caller wanted.
        expected: ArtifactKind,
        /// The kind tag found in the file.
        found: u8,
    },
    /// The input ends before a declared structure is complete.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A section's bytes do not hash to the checksum in the section
    /// table — the file was corrupted after it was written.
    ChecksumMismatch {
        /// Section id whose payload failed verification.
        section: u8,
    },
    /// Extra bytes follow the last section.
    TrailingBytes {
        /// Number of unexpected trailing bytes.
        extra: usize,
    },
    /// A section verified but its contents are not a valid artifact
    /// (impossible for encoder output; defends against checksum
    /// collisions and foreign writers).
    Malformed {
        /// Absolute byte offset of the offending field.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an .ovlb artifact (bad magic)"),
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported .ovlb format version {found} (this build reads up to {supported})"
            ),
            DecodeError::WrongArtifact { expected, found } => {
                write!(f, "expected a {expected} artifact, found kind tag {found}")
            }
            DecodeError::Truncated { offset } => {
                write!(f, "truncated .ovlb input at byte {offset}")
            }
            DecodeError::ChecksumMismatch { section } => {
                write!(
                    f,
                    "checksum mismatch in .ovlb section {section} (corrupted file)"
                )
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last .ovlb section")
            }
            DecodeError::Malformed { offset, reason } => {
                write!(f, "malformed .ovlb content at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Identifies the artifact kind of a `.ovlb` byte string from its
/// header alone (magic + kind tag), without decoding. Returns `None`
/// for anything that is not a recognizable artifact header.
#[must_use]
pub fn sniff(bytes: &[u8]) -> Option<ArtifactKind> {
    if bytes.len() < 7 || bytes[..4] != MAGIC {
        return None;
    }
    ArtifactKind::from_tag(bytes[6])
}

// ---------------------------------------------------------------------
// Stable opcode numbering (shared with the record hasher in `hash.rs`).
// ---------------------------------------------------------------------

impl RecordKind {
    /// The stable on-disk opcode of this kind. The numbering matches the
    /// per-variant tags the content hasher uses; changing it is a format
    /// break ([`FORMAT_VERSION`] must be bumped).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            RecordKind::Burst => 1,
            RecordKind::Send => 2,
            RecordKind::ISend => 3,
            RecordKind::Recv => 4,
            RecordKind::IRecv => 5,
            RecordKind::Wait => 6,
            RecordKind::WaitAll => 7,
            RecordKind::Barrier => 8,
            RecordKind::AllReduce => 9,
            RecordKind::Bcast => 10,
            RecordKind::Reduce => 11,
            RecordKind::AllToAll => 12,
            RecordKind::AllGather => 13,
            RecordKind::Marker => 14,
        }
    }

    /// The kind for a stable opcode, if `code` is one.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => RecordKind::Burst,
            2 => RecordKind::Send,
            3 => RecordKind::ISend,
            4 => RecordKind::Recv,
            5 => RecordKind::IRecv,
            6 => RecordKind::Wait,
            7 => RecordKind::WaitAll,
            8 => RecordKind::Barrier,
            9 => RecordKind::AllReduce,
            10 => RecordKind::Bcast,
            11 => RecordKind::Reduce,
            12 => RecordKind::AllToAll,
            13 => RecordKind::AllGather,
            14 => RecordKind::Marker,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Names are short; u32 length keeps the header compact.
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish().0
}

/// Assembles header + section table + payloads for `kind`.
fn assemble(kind: ArtifactKind, sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let payload_len: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(8 + sections.len() * 17 + payload_len);
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    out.push(kind.tag());
    out.push(sections.len() as u8);
    for (id, payload) in sections {
        out.push(*id);
        put_u64(&mut out, payload.len() as u64);
        put_u64(&mut out, checksum(payload));
    }
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}

fn put_record(buf: &mut Vec<u8>, r: &Record) {
    buf.push(r.kind().code());
    match *r {
        Record::Burst { instr } => put_u64(buf, instr.get()),
        Record::Send { to, bytes, tag } => {
            put_u32(buf, to.get());
            put_u64(buf, bytes);
            put_u64(buf, tag.get());
        }
        Record::ISend {
            to,
            bytes,
            tag,
            req,
        } => {
            put_u32(buf, to.get());
            put_u64(buf, bytes);
            put_u64(buf, tag.get());
            put_u32(buf, req.get());
        }
        Record::Recv { from, bytes, tag } => {
            put_u32(buf, from.get());
            put_u64(buf, bytes);
            put_u64(buf, tag.get());
        }
        Record::IRecv {
            from,
            bytes,
            tag,
            req,
        } => {
            put_u32(buf, from.get());
            put_u64(buf, bytes);
            put_u64(buf, tag.get());
            put_u32(buf, req.get());
        }
        Record::Wait { req } => put_u32(buf, req.get()),
        Record::WaitAll { ref reqs } => {
            put_u32(buf, reqs.len() as u32);
            for req in reqs {
                put_u32(buf, req.get());
            }
        }
        Record::Barrier => {}
        Record::AllReduce { bytes } | Record::AllToAll { bytes } | Record::AllGather { bytes } => {
            put_u64(buf, bytes);
        }
        Record::Bcast { root, bytes } | Record::Reduce { root, bytes } => {
            put_u32(buf, root.get());
            put_u64(buf, bytes);
        }
        Record::Marker { code } => put_u32(buf, code),
    }
}

/// Encodes a [`TraceSet`] as canonical `.ovlb` bytes.
#[must_use]
pub fn encode_trace_set(trace: &TraceSet) -> Vec<u8> {
    let mut header = Vec::new();
    put_str(&mut header, trace.name());
    put_u64(&mut header, trace.mips().get());
    put_u32(&mut header, trace.rank_count() as u32);

    let mut records = Vec::new();
    for rank in trace.ranks() {
        put_u64(&mut records, rank.len() as u64);
        for rec in rank {
            put_record(&mut records, rec);
        }
    }

    assemble(
        ArtifactKind::TraceSet,
        &[(SEC_HEADER, header), (SEC_RECORDS, records)],
    )
}

/// Encodes a [`CompiledTrace`] as canonical `.ovlb` bytes.
#[must_use]
pub fn encode_compiled_trace(prog: &CompiledTrace) -> Vec<u8> {
    let mut header = Vec::new();
    put_str(&mut header, prog.name());
    put_u64(&mut header, prog.mips().get());
    put_u32(&mut header, prog.rank_count() as u32);

    let mut channels = Vec::new();
    put_u32(&mut channels, prog.channels().len() as u32);
    for ch in prog.channels() {
        put_u32(&mut channels, ch.src.get());
        put_u32(&mut channels, ch.dst.get());
        put_u64(&mut channels, ch.tag.get());
    }

    let mut programs = Vec::new();
    for r in 0..prog.rank_count() {
        let rp = prog.rank(r);
        put_u64(&mut programs, rp.len() as u64);
        for op in rp.ops() {
            programs.push(op.code());
        }
        for &v in rp.a() {
            put_u32(&mut programs, v);
        }
        for &v in rp.b() {
            put_u32(&mut programs, v);
        }
        for &v in rp.payload() {
            put_u64(&mut programs, v);
        }
        put_u64(&mut programs, rp.wait_slots().len() as u64);
        for &v in rp.wait_slots() {
            put_u32(&mut programs, v);
        }
        put_u32(&mut programs, rp.slot_count());
    }

    assemble(
        ArtifactKind::CompiledTrace,
        &[
            (SEC_HEADER, header),
            (SEC_CHANNELS, channels),
            (SEC_PROGRAMS, programs),
        ],
    )
}

const SEC_HEADER: u8 = 1;
const SEC_RECORDS: u8 = 2;
const SEC_CHANNELS: u8 = 2;
const SEC_PROGRAMS: u8 = 3;

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A bounds-checked reader over one byte slice. `base` is the slice's
/// absolute offset in the file, so errors report file positions.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], base: usize) -> Self {
        Cursor {
            bytes,
            pos: 0,
            base,
        }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                offset: self.offset(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a declared element count and checks it against the bytes
    /// actually left (`min_size` bytes per element), so a corrupted
    /// count can never drive a huge allocation.
    fn count(&mut self, declared: u64, min_size: usize) -> Result<usize, DecodeError> {
        let at = self.offset();
        let fits = usize::try_from(declared)
            .ok()
            .is_some_and(|n| n <= self.remaining() / min_size.max(1));
        if !fits {
            return Err(DecodeError::Malformed {
                offset: at,
                reason: format!("element count {declared} exceeds the section"),
            });
        }
        Ok(declared as usize)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let at = self.offset();
        let len = self.u32()?;
        let n = self.count(u64::from(len), 1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed {
            offset: at,
            reason: "name is not valid UTF-8".to_string(),
        })
    }

    fn malformed(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError::Malformed {
            offset: self.offset(),
            reason: reason.into(),
        }
    }

    /// The section must be fully consumed; leftovers mean the declared
    /// counts and the section length disagree.
    fn finish_section(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::Malformed {
                offset: self.offset(),
                reason: format!("{} unconsumed byte(s) in section", self.remaining()),
            });
        }
        Ok(())
    }
}

/// One verified section of an artifact: `(id, payload, base offset)`.
type Section<'a> = (u8, &'a [u8], usize);

/// The verified sections of one artifact. Checksums are verified here,
/// before any field of any section is parsed — a flipped bit is always a
/// [`DecodeError::ChecksumMismatch`], never a half-parsed artifact.
fn split_sections(bytes: &[u8], expected: ArtifactKind) -> Result<Vec<Section<'_>>, DecodeError> {
    let mut cur = Cursor::new(bytes, 0);
    if cur.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = cur.u16()?;
    if !(expected.oldest_version()..=FORMAT_VERSION).contains(&version) {
        return Err(DecodeError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = cur.u8()?;
    if ArtifactKind::from_tag(kind) != Some(expected) {
        return Err(DecodeError::WrongArtifact {
            expected,
            found: kind,
        });
    }
    let nsections = cur.u8()?;
    let mut table = Vec::with_capacity(nsections as usize);
    for _ in 0..nsections {
        let id = cur.u8()?;
        let len = cur.u64()?;
        let sum = cur.u64()?;
        table.push((id, len, sum));
    }
    let mut sections = Vec::with_capacity(table.len());
    for (id, len, sum) in table {
        let at = cur.offset();
        let len = usize::try_from(len).map_err(|_| DecodeError::Truncated { offset: at })?;
        let payload = cur.take(len)?;
        if checksum(payload) != sum {
            return Err(DecodeError::ChecksumMismatch { section: id });
        }
        sections.push((id, payload, at));
    }
    if cur.remaining() != 0 {
        return Err(DecodeError::TrailingBytes {
            extra: cur.remaining(),
        });
    }
    Ok(sections)
}

fn section<'a>(
    sections: &[(u8, &'a [u8], usize)],
    index: usize,
    id: u8,
) -> Result<Cursor<'a>, DecodeError> {
    match sections.get(index) {
        Some(&(found, payload, base)) if found == id => Ok(Cursor::new(payload, base)),
        Some(&(found, _, base)) => Err(DecodeError::Malformed {
            offset: base,
            reason: format!("expected section {id}, found section {found}"),
        }),
        None => Err(DecodeError::Malformed {
            offset: 0,
            reason: format!("missing section {id}"),
        }),
    }
}

fn take_record(cur: &mut Cursor<'_>) -> Result<Record, DecodeError> {
    let at = cur.offset();
    let code = cur.u8()?;
    let kind = RecordKind::from_code(code).ok_or_else(|| DecodeError::Malformed {
        offset: at,
        reason: format!("unknown record opcode {code}"),
    })?;
    Ok(match kind {
        RecordKind::Burst => Record::Burst {
            instr: Instr::new(cur.u64()?),
        },
        RecordKind::Send => Record::Send {
            to: Rank::new(cur.u32()?),
            bytes: cur.u64()?,
            tag: Tag::new(cur.u64()?),
        },
        RecordKind::ISend => Record::ISend {
            to: Rank::new(cur.u32()?),
            bytes: cur.u64()?,
            tag: Tag::new(cur.u64()?),
            req: RequestId::new(cur.u32()?),
        },
        RecordKind::Recv => Record::Recv {
            from: Rank::new(cur.u32()?),
            bytes: cur.u64()?,
            tag: Tag::new(cur.u64()?),
        },
        RecordKind::IRecv => Record::IRecv {
            from: Rank::new(cur.u32()?),
            bytes: cur.u64()?,
            tag: Tag::new(cur.u64()?),
            req: RequestId::new(cur.u32()?),
        },
        RecordKind::Wait => Record::Wait {
            req: RequestId::new(cur.u32()?),
        },
        RecordKind::WaitAll => {
            let declared = u64::from(cur.u32()?);
            let n = cur.count(declared, 4)?;
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(RequestId::new(cur.u32()?));
            }
            Record::WaitAll { reqs }
        }
        RecordKind::Barrier => Record::Barrier,
        RecordKind::AllReduce => Record::AllReduce { bytes: cur.u64()? },
        RecordKind::Bcast => Record::Bcast {
            root: Rank::new(cur.u32()?),
            bytes: cur.u64()?,
        },
        RecordKind::Reduce => Record::Reduce {
            root: Rank::new(cur.u32()?),
            bytes: cur.u64()?,
        },
        RecordKind::AllToAll => Record::AllToAll { bytes: cur.u64()? },
        RecordKind::AllGather => Record::AllGather { bytes: cur.u64()? },
        RecordKind::Marker => Record::Marker { code: cur.u32()? },
    })
}

/// Decodes a [`TraceSet`] from `.ovlb` bytes written at format version 1
/// or 2 (the trace-set layout is the same in both).
///
/// # Errors
///
/// Any structural problem — wrong magic, unsupported version, wrong
/// artifact kind, truncation, checksum mismatch, trailing bytes or
/// malformed content — is a typed [`DecodeError`]; this never panics.
pub fn decode_trace_set(bytes: &[u8]) -> Result<TraceSet, DecodeError> {
    let sections = split_sections(bytes, ArtifactKind::TraceSet)?;

    let mut header = section(&sections, 0, SEC_HEADER)?;
    let name = header.string()?;
    let mips_raw = header.u64()?;
    let mips = MipsRate::new(mips_raw)
        .map_err(|_| header.malformed(format!("invalid MIPS rate {mips_raw}")))?;
    let rank_count = header.u32()? as usize;
    header.finish_section()?;

    let mut records = section(&sections, 1, SEC_RECORDS)?;
    let mut ranks = Vec::new();
    for _ in 0..rank_count {
        let declared = records.u64()?;
        // The smallest record (Barrier) is one opcode byte.
        let n = records.count(declared, 1)?;
        let mut recs = Vec::with_capacity(n);
        for _ in 0..n {
            recs.push(take_record(&mut records)?);
        }
        ranks.push(RankTrace::from_records(recs));
    }
    records.finish_section()?;

    Ok(TraceSet::new(name, mips, ranks))
}

/// Decodes a [`CompiledTrace`] from `.ovlb` bytes.
///
/// Only the current [`FORMAT_VERSION`] decodes (the program layout
/// changed in version 2). Beyond the structural checks shared with
/// [`decode_trace_set`], the result is re-validated (arena sizes,
/// request-slot bounds, channel ids) so a decoded program can never drive
/// a replay engine out of bounds.
///
/// # Errors
///
/// Any structural or consistency problem is a typed [`DecodeError`];
/// this never panics.
pub fn decode_compiled_trace(bytes: &[u8]) -> Result<CompiledTrace, DecodeError> {
    let sections = split_sections(bytes, ArtifactKind::CompiledTrace)?;

    let mut header = section(&sections, 0, SEC_HEADER)?;
    let name = header.string()?;
    let mips_raw = header.u64()?;
    let mips = MipsRate::new(mips_raw)
        .map_err(|_| header.malformed(format!("invalid MIPS rate {mips_raw}")))?;
    let rank_count = header.u32()? as usize;
    header.finish_section()?;

    let mut chans = section(&sections, 1, SEC_CHANNELS)?;
    let declared = u64::from(chans.u32()?);
    let n = chans.count(declared, 16)?;
    let mut channels = Vec::with_capacity(n);
    for _ in 0..n {
        channels.push(ChannelEndpoints {
            src: Rank::new(chans.u32()?),
            dst: Rank::new(chans.u32()?),
            tag: Tag::new(chans.u64()?),
        });
    }
    chans.finish_section()?;

    let mut progs = section(&sections, 2, SEC_PROGRAMS)?;
    let mut ranks = Vec::new();
    for _ in 0..rank_count {
        let declared = progs.u64()?;
        // 1 (op) + 4 (a) + 4 (b) + 8 (payload) bytes per instruction.
        let len = progs.count(declared, 17)?;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let at = progs.offset();
            let code = progs.u8()?;
            ops.push(
                RecordKind::from_code(code).ok_or_else(|| DecodeError::Malformed {
                    offset: at,
                    reason: format!("unknown opcode {code}"),
                })?,
            );
        }
        let mut a = Vec::with_capacity(len);
        for _ in 0..len {
            a.push(progs.u32()?);
        }
        let mut b = Vec::with_capacity(len);
        for _ in 0..len {
            b.push(progs.u32()?);
        }
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push(progs.u64()?);
        }
        let declared = progs.u64()?;
        let nslots = progs.count(declared, 4)?;
        let mut wait_slots = Vec::with_capacity(nslots);
        for _ in 0..nslots {
            wait_slots.push(progs.u32()?);
        }
        let slot_count = progs.u32()?;

        let rp = RankProgram::from_columns(ops, a, b, payload, wait_slots, slot_count);
        if let Err(reason) = rp.check_consistency(channels.len()) {
            return Err(progs.malformed(reason));
        }
        ranks.push(rp);
    }
    progs.finish_section()?;

    Ok(CompiledTrace::from_parts(name, mips, channels, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceSet {
        TraceSet::new(
            "codec-sample",
            MipsRate::new(1200).unwrap(),
            vec![
                RankTrace::from_records(vec![
                    Record::Burst {
                        instr: Instr::new(500),
                    },
                    Record::ISend {
                        to: Rank::new(1),
                        bytes: 4096,
                        tag: Tag::new(7),
                        req: RequestId::new(0),
                    },
                    Record::IRecv {
                        from: Rank::new(1),
                        bytes: 2048,
                        tag: Tag::new(8),
                        req: RequestId::new(1),
                    },
                    Record::WaitAll {
                        reqs: vec![RequestId::new(0), RequestId::new(1)],
                    },
                    Record::Marker { code: 42 },
                    Record::AllReduce { bytes: 64 },
                ]),
                RankTrace::from_records(vec![
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 4096,
                        tag: Tag::new(7),
                    },
                    Record::Send {
                        to: Rank::new(0),
                        bytes: 2048,
                        tag: Tag::new(8),
                    },
                    Record::Bcast {
                        root: Rank::new(0),
                        bytes: 16,
                    },
                    Record::Reduce {
                        root: Rank::new(1),
                        bytes: 16,
                    },
                    Record::AllToAll { bytes: 8 },
                    Record::AllGather { bytes: 8 },
                    Record::Wait {
                        req: RequestId::new(9),
                    },
                    Record::Barrier,
                    Record::AllReduce { bytes: 64 },
                ]),
            ],
        )
    }

    #[test]
    fn trace_set_round_trips_bit_identically() {
        let ts = sample_trace();
        let bytes = encode_trace_set(&ts);
        let back = decode_trace_set(&bytes).unwrap();
        assert_eq!(back, ts);
        assert_eq!(back.fingerprint(), ts.fingerprint());
        // Canonical: re-encoding yields the same bytes.
        assert_eq!(encode_trace_set(&back), bytes);
        // The layout is unchanged since version 1, which still decodes.
        assert_eq!(decode_trace_set(&with_version(bytes, 1)), Ok(ts));
    }

    #[test]
    fn compiled_trace_round_trips_bit_identically() {
        // A structurally valid trace so it compiles.
        let ts = TraceSet::new(
            "codec-prog",
            MipsRate::new(1000).unwrap(),
            vec![
                RankTrace::from_records(vec![
                    Record::Burst {
                        instr: Instr::new(10),
                    },
                    Record::Burst {
                        instr: Instr::new(20),
                    },
                    Record::ISend {
                        to: Rank::new(1),
                        bytes: 64,
                        tag: Tag::new(1),
                        req: RequestId::new(0),
                    },
                    Record::Wait {
                        req: RequestId::new(0),
                    },
                    Record::Barrier,
                ]),
                RankTrace::from_records(vec![
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 64,
                        tag: Tag::new(1),
                    },
                    Record::Barrier,
                ]),
            ],
        );
        let prog = CompiledTrace::build(&ts).unwrap();
        let bytes = encode_compiled_trace(&prog);
        let back = decode_compiled_trace(&bytes).unwrap();
        assert_eq!(back, prog);
        assert_eq!(encode_compiled_trace(&back), bytes);
        // Version 1 had another program layout: refused, never misparsed.
        assert_eq!(
            decode_compiled_trace(&with_version(bytes, 1)),
            Err(DecodeError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION,
            })
        );
    }

    /// Rewrites the header's format version; section checksums cover the
    /// payloads only, so the result is otherwise intact.
    fn with_version(mut bytes: Vec<u8>, version: u16) -> Vec<u8> {
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        bytes
    }

    #[test]
    fn sniff_identifies_kinds() {
        let ts = sample_trace();
        let bytes = encode_trace_set(&ts);
        assert_eq!(sniff(&bytes), Some(ArtifactKind::TraceSet));
        assert_eq!(sniff(b"name x\nmips 10\n"), None);
        assert_eq!(sniff(b"OVL"), None);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_trace_set(&sample_trace());
        bytes[0] = b'X';
        assert_eq!(decode_trace_set(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_trace_set(&sample_trace());
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert_eq!(
            decode_trace_set(&bytes),
            Err(DecodeError::UnsupportedVersion {
                found: 0xFFFF,
                supported: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn wrong_artifact_kind_is_rejected() {
        let bytes = encode_trace_set(&sample_trace());
        match decode_compiled_trace(&bytes) {
            Err(DecodeError::WrongArtifact { expected, found }) => {
                assert_eq!(expected, ArtifactKind::CompiledTrace);
                assert_eq!(found, ArtifactKind::TraceSet.tag());
            }
            other => panic!("expected WrongArtifact, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_trace_set(&sample_trace());
        for n in 0..bytes.len() {
            let err = decode_trace_set(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. }
                        | DecodeError::BadMagic
                        | DecodeError::ChecksumMismatch { .. }
                ),
                "truncation to {n} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = encode_trace_set(&sample_trace());
        bytes.push(0);
        assert_eq!(
            decode_trace_set(&bytes),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let bytes = encode_trace_set(&sample_trace());
        // Flip one bit in the last byte (deep in the records section).
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        assert!(matches!(
            decode_trace_set(&corrupt),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn zero_mips_is_malformed_not_a_panic() {
        let ts = sample_trace();
        let mut bytes = encode_trace_set(&ts);
        // The header section starts right after the 8-byte file header
        // and the two 17-byte table entries; mips sits after the
        // length-prefixed name.
        let header_base = 8 + 2 * 17;
        let mips_at = header_base + 4 + ts.name().len();
        for b in &mut bytes[mips_at..mips_at + 8] {
            *b = 0;
        }
        // The checksum no longer matches — which is the point: content
        // edits are caught before parsing. Rebuild a coherent file to
        // reach the mips validation itself.
        let mut header = Vec::new();
        put_str(&mut header, ts.name());
        put_u64(&mut header, 0);
        put_u32(&mut header, 0);
        let forged = assemble(
            ArtifactKind::TraceSet,
            &[(SEC_HEADER, header), (SEC_RECORDS, Vec::new())],
        );
        match decode_trace_set(&forged) {
            Err(DecodeError::Malformed { reason, .. }) => {
                assert!(reason.contains("MIPS"), "got: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        // A forged records section declaring u64::MAX records must fail
        // fast (Malformed), not attempt a huge Vec.
        let mut header = Vec::new();
        put_str(&mut header, "forged");
        put_u64(&mut header, 1000);
        put_u32(&mut header, 1);
        let mut records = Vec::new();
        put_u64(&mut records, u64::MAX);
        let forged = assemble(
            ArtifactKind::TraceSet,
            &[(SEC_HEADER, header), (SEC_RECORDS, records)],
        );
        match decode_trace_set(&forged) {
            Err(DecodeError::Malformed { reason, .. }) => {
                assert!(reason.contains("count"), "got: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_program_is_rejected() {
        // Forge a version-2 compiled trace whose Wait references a slot
        // beyond the declared slot table: consistency validation must
        // reject it.
        let mut header = Vec::new();
        put_str(&mut header, "forged");
        put_u64(&mut header, 1000);
        put_u32(&mut header, 1);
        let mut channels = Vec::new();
        put_u32(&mut channels, 0);
        let mut programs = Vec::new();
        put_u64(&mut programs, 1); // one instruction
        programs.push(RecordKind::Wait.code());
        put_u32(&mut programs, 5); // a = slot 5
        put_u32(&mut programs, 0); // b
        put_u64(&mut programs, 0); // payload
        put_u64(&mut programs, 0); // wait-slot arena
        put_u32(&mut programs, 1); // slot_count = 1 < 5
        let forged = assemble(
            ArtifactKind::CompiledTrace,
            &[
                (SEC_HEADER, header),
                (SEC_CHANNELS, channels),
                (SEC_PROGRAMS, programs),
            ],
        );
        match decode_compiled_trace(&forged) {
            Err(DecodeError::Malformed { reason, .. }) => {
                assert!(reason.contains("slot"), "got: {reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_human_readable() {
        for err in [
            DecodeError::BadMagic,
            DecodeError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            DecodeError::WrongArtifact {
                expected: ArtifactKind::TraceSet,
                found: 7,
            },
            DecodeError::Truncated { offset: 3 },
            DecodeError::ChecksumMismatch { section: 2 },
            DecodeError::TrailingBytes { extra: 4 },
            DecodeError::Malformed {
                offset: 10,
                reason: "x".into(),
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
