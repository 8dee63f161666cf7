//! Property-based coverage for the distributed driver's frame codec:
//! arbitrary frames round-trip byte-stably through encode/decode,
//! truncated prefixes and corrupted length headers come back as
//! structured [`CodecError`]s (never a panic, never an over-read — the
//! codec only ever sees slices), and the streaming [`FrameDecoder`]
//! reassembles two interleaved endpoint byte streams fed in arbitrary
//! partial writes.
//!
//! `Frame` deliberately carries no `PartialEq` (it holds `Arc`'d
//! messages); re-encoded bytes are the equality oracle throughout, which
//! is also the stronger property — byte-stable, not just value-equal.

use std::sync::Arc;

use proptest::prelude::*;
use waku_gossip::transport::MAX_FRAME_LEN;
use waku_gossip::{
    CodecError, Frame, FrameDecoder, Message, MessageId, Rpc, TrafficClass, WireEvent, WirePayload,
};

fn class_of(tag: u8) -> TrafficClass {
    match tag {
        0 => TrafficClass::Honest,
        1 => TrafficClass::Spam,
        _ => TrafficClass::Invalid,
    }
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn arb_times() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..6)
}

fn arb_id() -> impl Strategy<Value = MessageId> {
    proptest::array::uniform32(any::<u8>()).prop_map(MessageId)
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        arb_bytes(24),
        any::<usize>(),
        any::<u64>(),
        0u8..3,
        any::<u64>(),
    )
        .prop_map(|(topic, data, origin, seq, class, published_at)| {
            let mut m = Message::new(topic, data, origin % 10_000, seq, class_of(class));
            m.published_at = published_at;
            m
        })
}

fn arb_rpc() -> impl Strategy<Value = Rpc> {
    // The vendored stub has no `prop_oneof!`; a mapped integer range
    // plays the same role (same trick as `proptest_cache.rs`).
    (
        0u8..5,
        arb_message(),
        proptest::collection::vec(arb_id(), 0..5),
        any::<u32>(),
    )
        .prop_map(|(kind, m, ids, topic)| match kind {
            0 => Rpc::Publish(Arc::new(m)),
            1 => Rpc::IHave(topic, ids.into()),
            2 => Rpc::IWant(ids),
            3 => Rpc::Graft(topic),
            _ => Rpc::Prune(topic),
        })
}

fn arb_payload() -> impl Strategy<Value = WirePayload> {
    (
        0u8..5,
        arb_rpc(),
        any::<usize>(),
        arb_bytes(16),
        (any::<u32>(), any::<i64>(), 0u8..3),
    )
        .prop_map(
            |(kind, rpc, from, data, (topic, delta_ms, class))| match kind {
                0 => WirePayload::Rpc {
                    from: from % 10_000,
                    rpc,
                },
                1 => WirePayload::Heartbeat,
                2 => WirePayload::Publish {
                    topic,
                    data,
                    class: class_of(class),
                },
                3 => WirePayload::Restart,
                _ => WirePayload::ClockSkew { delta_ms },
            },
        )
}

fn arb_event() -> impl Strategy<Value = WireEvent> {
    (
        (any::<u64>(), any::<usize>(), any::<u64>(), any::<usize>()),
        arb_payload(),
    )
        .prop_map(|((at, origin, seq, target), payload)| WireEvent {
            at,
            origin: origin % 10_000,
            seq,
            target: target % 10_000,
            payload,
        })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..8,
        (any::<u32>(), any::<u32>(), any::<u64>()),
        arb_bytes(40),
        (arb_times(), arb_times(), arb_times()),
        proptest::collection::vec(arb_event(), 0..4),
    )
        .prop_map(
            |(kind, (a, b, processed), bytes, (t1, t2, t3), events)| match kind {
                0 => Frame::Hello {
                    worker: a,
                    workers: b,
                },
                1 => Frame::Config(bytes),
                2 => Frame::Ready {
                    dist: t1,
                    cyc: t2,
                    heads: t3,
                },
                3 => Frame::Round {
                    horizons: t1,
                    events,
                },
                4 => Frame::RoundResult {
                    processed,
                    heads: t1,
                    events,
                },
                5 => Frame::Finish,
                6 => Frame::Snapshot(bytes),
                _ => Frame::Report(bytes),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every frame round-trips byte-stably, and the one-shot decoder
    // consumes exactly the encoded length.
    #[test]
    fn frames_round_trip_byte_stably(frame in arb_frame()) {
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.encode(), bytes);
    }

    // Every strict prefix of a valid frame is a structured `Truncated`
    // error — the codec never panics and never reads past the slice.
    #[test]
    fn truncated_prefixes_are_structured_errors(frame in arb_frame()) {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(CodecError::Truncated) => {}
                other => prop_assert!(
                    false,
                    "prefix {}/{} gave {:?}",
                    cut, bytes.len(), other.map(|(_, n)| n)
                ),
            }
        }
    }

    // A corrupted (oversized) length header fails fast in both the
    // one-shot and the streaming decoder — it must not be mistaken for
    // "need more data", which would stall a socket read forever.
    #[test]
    fn corrupted_length_header_is_rejected(frame in arb_frame(), extra in any::<u32>()) {
        let mut bytes = frame.encode();
        let bogus = (MAX_FRAME_LEN as u32).saturating_add(1).saturating_add(extra % 1024);
        bytes[..4].copy_from_slice(&bogus.to_le_bytes());
        prop_assert!(matches!(Frame::decode(&bytes), Err(CodecError::Oversized)));

        let mut streaming = FrameDecoder::new();
        streaming.feed(&bytes);
        prop_assert!(matches!(streaming.next_frame(), Err(CodecError::Oversized)));
    }

    // Arbitrary single-byte corruption anywhere in the frame either
    // still decodes (the flipped byte landed in opaque payload bytes) or
    // fails with a structured error — never a panic, never an over-read.
    #[test]
    fn corrupted_bytes_never_panic(
        frame in arb_frame(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = frame.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        match Frame::decode(&bytes) {
            Ok((decoded, consumed)) => {
                // Whatever decoded must re-encode to what was consumed.
                prop_assert_eq!(decoded.encode(), bytes[..consumed].to_vec());
            }
            Err(
                CodecError::Truncated
                | CodecError::Oversized
                | CodecError::BadTag(_)
                | CodecError::TrailingBytes,
            ) => {}
            // `CodecError` is now the workspace-wide enum; the envelope
            // and string variants can never come out of a frame decode.
            Err(other) => prop_assert!(false, "not a frame error: {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Two endpoints of an in-memory pipe, each streaming a frame
    // sequence to the other in arbitrary partial writes: the receiving
    // `FrameDecoder`s must reassemble exactly the sent sequences no
    // matter how the writes interleave or where the chunk boundaries
    // fall (mid-header, mid-payload, across frames).
    #[test]
    fn streaming_decoders_survive_interleaved_partial_writes(
        a_frames in proptest::collection::vec(arb_frame(), 1..5),
        b_frames in proptest::collection::vec(arb_frame(), 1..5),
        chunks in proptest::collection::vec((any::<bool>(), 1usize..17), 1..64),
    ) {
        let streams: [Vec<u8>; 2] = [
            a_frames.iter().flat_map(Frame::encode).collect(),
            b_frames.iter().flat_map(Frame::encode).collect(),
        ];
        let mut sent = [a_frames, b_frames];
        let mut offsets = [0usize; 2];
        let mut decoders = [FrameDecoder::new(), FrameDecoder::new()];
        let mut received: [Vec<Frame>; 2] = [Vec::new(), Vec::new()];

        // Drive the interleaving from the proptest chunk schedule, then
        // flush whatever it left over so every byte always arrives.
        let schedule = chunks
            .into_iter()
            .map(|(side, len)| (side as usize, len))
            .chain([(0, usize::MAX), (1, usize::MAX)]);
        for (side, len) in schedule {
            let stream = &streams[side];
            let take = len.min(stream.len() - offsets[side]);
            decoders[side].feed(&stream[offsets[side]..offsets[side] + take]);
            offsets[side] += take;
            while let Some(frame) = decoders[side].next_frame().expect("clean stream") {
                received[side].push(frame);
            }
        }

        for side in [0, 1] {
            let got: Vec<Vec<u8>> = received[side].iter().map(Frame::encode).collect();
            let want: Vec<Vec<u8>> = sent[side].drain(..).map(|f| f.encode()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
