//! Property tests for the `.ovlb` codec: encode→decode bit-identity for
//! arbitrary artifacts, and detection of every single-bit flip and every
//! truncation. Decoding must never panic on any input.

use ovlsim_core::codec::{
    decode_compiled_trace, decode_trace_set, encode_compiled_trace, encode_trace_set, DecodeError,
};
use ovlsim_core::{
    CompiledTrace, Instr, MipsRate, Rank, RankTrace, Record, RequestId, Tag, TraceIndex, TraceSet,
};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 1..13).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

/// Any record at all — encoding does not require structural validity, so
/// the round-trip property quantifies over the full record space.
fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        any::<u64>().prop_map(|i| Record::Burst {
            instr: Instr::new(i)
        }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(to, bytes, tag)| Record::Send {
            to: Rank::new(to),
            bytes,
            tag: Tag::new(tag),
        }),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(to, bytes, tag, req)| Record::ISend {
                to: Rank::new(to),
                bytes,
                tag: Tag::new(tag),
                req: RequestId::new(req),
            }
        ),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(from, bytes, tag)| Record::Recv {
            from: Rank::new(from),
            bytes,
            tag: Tag::new(tag),
        }),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(from, bytes, tag, req)| Record::IRecv {
                from: Rank::new(from),
                bytes,
                tag: Tag::new(tag),
                req: RequestId::new(req),
            }
        ),
        any::<u32>().prop_map(|req| Record::Wait {
            req: RequestId::new(req)
        }),
        proptest::collection::vec(any::<u32>(), 0..5).prop_map(|reqs| Record::WaitAll {
            reqs: reqs.into_iter().map(RequestId::new).collect(),
        }),
        Just(Record::Barrier),
        any::<u64>().prop_map(|bytes| Record::AllReduce { bytes }),
        (any::<u32>(), any::<u64>()).prop_map(|(root, bytes)| Record::Bcast {
            root: Rank::new(root),
            bytes,
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(root, bytes)| Record::Reduce {
            root: Rank::new(root),
            bytes,
        }),
        any::<u64>().prop_map(|bytes| Record::AllToAll { bytes }),
        any::<u64>().prop_map(|bytes| Record::AllGather { bytes }),
        any::<u32>().prop_map(|code| Record::Marker { code }),
    ]
}

fn arb_trace_set() -> impl Strategy<Value = TraceSet> {
    (
        name_strategy(),
        1u64..10_000_000,
        proptest::collection::vec(proptest::collection::vec(arb_record(), 0..10), 0..4),
    )
        .prop_map(|(name, mips, ranks)| {
            TraceSet::new(
                name,
                MipsRate::new(mips).unwrap(),
                ranks.into_iter().map(RankTrace::from_records).collect(),
            )
        })
}

/// A structurally *valid* two-rank trace (unique tag per message, posts
/// matched by waits), so it always compiles: the compiled-trace
/// round-trip property needs real programs.
fn arb_valid_trace() -> impl Strategy<Value = TraceSet> {
    (
        name_strategy(),
        1u64..1_000_000,
        proptest::collection::vec((1u64..1 << 20, any::<bool>(), 0u64..5000), 0..8),
    )
        .prop_map(|(name, mips, msgs)| {
            let mut r0 = vec![Record::Burst {
                instr: Instr::new(100),
            }];
            let mut r1 = Vec::new();
            for (i, &(bytes, nonblocking, burst)) in msgs.iter().enumerate() {
                let tag = Tag::new(i as u64);
                if burst > 0 {
                    r0.push(Record::Burst {
                        instr: Instr::new(burst),
                    });
                }
                if nonblocking {
                    let req = RequestId::new(i as u32);
                    r0.push(Record::ISend {
                        to: Rank::new(1),
                        bytes,
                        tag,
                        req,
                    });
                    r0.push(Record::Wait { req });
                    r1.push(Record::IRecv {
                        from: Rank::new(0),
                        bytes,
                        tag,
                        req,
                    });
                    r1.push(Record::WaitAll { reqs: vec![req] });
                } else {
                    r0.push(Record::Send {
                        to: Rank::new(1),
                        bytes,
                        tag,
                    });
                    r1.push(Record::Recv {
                        from: Rank::new(0),
                        bytes,
                        tag,
                    });
                }
            }
            r0.push(Record::Barrier);
            r1.push(Record::Barrier);
            r1.push(Record::Marker { code: 3 });
            TraceSet::new(
                name,
                MipsRate::new(mips).unwrap(),
                vec![RankTrace::from_records(r0), RankTrace::from_records(r1)],
            )
        })
}

proptest! {
    /// decode(encode(ts)) is the identity, bit for bit: the value
    /// compares equal, its fingerprint is unchanged, and re-encoding
    /// reproduces the exact same bytes (canonical encoding).
    #[test]
    fn trace_set_round_trip_is_bit_identical(ts in arb_trace_set()) {
        let bytes = encode_trace_set(&ts);
        let back = decode_trace_set(&bytes).expect("round trip decodes");
        prop_assert_eq!(&back, &ts);
        prop_assert_eq!(back.fingerprint(), ts.fingerprint());
        prop_assert_eq!(encode_trace_set(&back), bytes);
    }

    /// Compiled programs round-trip bit-identically too, and a decoded
    /// program projects to the trace's index.
    #[test]
    fn compiled_trace_round_trip_is_bit_identical(ts in arb_valid_trace()) {
        let prog = CompiledTrace::build(&ts).expect("generated trace is valid");
        let bytes = encode_compiled_trace(&prog);
        let back = decode_compiled_trace(&bytes).expect("round trip decodes");
        prop_assert_eq!(&back, &prog);
        prop_assert_eq!(encode_compiled_trace(&back), bytes);
        prop_assert_eq!(TraceIndex::of(&back), TraceIndex::build(&ts).unwrap());
    }

    /// Any single flipped bit anywhere in an encoded trace set is
    /// detected: decode returns a typed error, never a panic and never a
    /// silently different artifact.
    #[test]
    fn any_single_bit_flip_is_detected(
        ts in arb_trace_set(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_trace_set(&ts);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_trace_set(&bytes).is_err(),
            "flipping bit {} of byte {} went undetected", bit, pos
        );
    }

    /// Same for compiled programs.
    #[test]
    fn compiled_bit_flip_is_detected(
        ts in arb_valid_trace(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let prog = CompiledTrace::build(&ts).unwrap();
        let mut bytes = encode_compiled_trace(&prog);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            decode_compiled_trace(&bytes).is_err(),
            "flipping bit {} of byte {} went undetected", bit, pos
        );
    }

    /// Any truncation (to any strict prefix, including empty) is
    /// detected with a typed error.
    #[test]
    fn any_truncation_is_detected(ts in arb_trace_set(), cut in any::<u64>()) {
        let bytes = encode_trace_set(&ts);
        let cut = (cut % bytes.len() as u64) as usize;
        let err = decode_trace_set(&bytes[..cut]).expect_err("truncation must fail");
        prop_assert!(
            matches!(
                err,
                DecodeError::Truncated { .. }
                    | DecodeError::BadMagic
                    | DecodeError::ChecksumMismatch { .. }
            ),
            "truncation to {} bytes gave {:?}", cut, err
        );
    }

    /// Arbitrary byte soup never panics the decoder — worst case is a
    /// typed error.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_trace_set(&bytes);
        let _ = decode_compiled_trace(&bytes);
    }
}
