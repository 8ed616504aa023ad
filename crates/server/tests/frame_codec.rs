//! Property tests for the wire codec: encode→decode identity for
//! requests and responses, and split-read resilience — a frame stream
//! chopped at arbitrary byte boundaries reassembles to the same
//! frames.

use e2nvm_server::frame::{
    encode_request, encode_response, encode_scan_chunk, is_continuation, parse_request,
    parse_response, FrameDecoder, Opcode, Request, Response, Status, DEFAULT_MAX_BODY,
};
use proptest::prelude::*;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        any::<u64>().prop_map(|key| Request::Get { key }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(key, value)| Request::Put { key, value }),
        any::<u64>().prop_map(|key| Request::Delete { key }),
        (any::<u64>(), any::<u64>(), any::<u32>())
            .prop_map(|(lo, hi, limit)| { Request::ScanStream { lo, hi, limit } }),
        Just(Request::Metrics),
        Just(Request::Flush),
        Just(Request::Shutdown),
    ]
}

fn arb_error_status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Degraded),
        Just(Status::PoolDepleted),
        Just(Status::OutOfSpace),
        Just(Status::StoreError),
        Just(Status::Malformed),
        Just(Status::UnsupportedVersion),
        Just(Status::UnknownOpcode),
        Just(Status::FrameTooLarge),
        Just(Status::Busy),
        Just(Status::ShuttingDown),
    ]
}

/// Arbitrary printable-ASCII text (the vendored proptest has no regex
/// string strategies).
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7Fu8, 0..64)
        .prop_map(|b| String::from_utf8(b).expect("printable ASCII is UTF-8"))
}

/// Responses paired with the echo opcode their encoding carries (OK
/// bodies are interpreted through the echoed opcode, so the pair is
/// what must round-trip).
fn arb_entry() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
}

fn arb_response() -> impl Strategy<Value = (Response, Option<Opcode>)> {
    prop_oneof![
        Just((Response::Pong, Some(Opcode::Ping))),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|v| (Response::Value(v), Some(Opcode::Get))),
        Just((Response::NotFound, Some(Opcode::Get))),
        Just((Response::Stored, Some(Opcode::Put))),
        any::<bool>().prop_map(|b| (Response::Deleted(b), Some(Opcode::Delete))),
        (any::<bool>(), proptest::collection::vec(arb_entry(), 0..8)).prop_map(
            |(more, entries)| {
                (
                    Response::ScanChunk { more, entries },
                    Some(Opcode::ScanStream),
                )
            }
        ),
        arb_text().prop_map(|s| (Response::Metrics(s), Some(Opcode::Metrics))),
        any::<u64>().prop_map(|b| (Response::Flushed(b), Some(Opcode::Flush))),
        Just((Response::ShutdownAck, Some(Opcode::Shutdown))),
        (arb_error_status(), any::<u64>(), arb_text()).prop_map(|(status, retired, message)| {
            (
                Response::Error {
                    status,
                    retired,
                    message,
                },
                Some(Opcode::Put),
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_encode_decode_identity(req in arb_request()) {
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let frame = dec.next_frame().unwrap().expect("one whole frame buffered");
        prop_assert_eq!(parse_request(&frame).unwrap(), req);
        prop_assert_eq!(dec.next_frame().unwrap(), None);
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn response_encode_decode_identity((resp, echo) in arb_response()) {
        let mut bytes = Vec::new();
        encode_response(&resp, echo, &mut bytes);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let frame = dec.next_frame().unwrap().expect("one whole frame buffered");
        prop_assert_eq!(parse_response(&frame).unwrap(), resp);
    }

    #[test]
    fn request_stream_survives_arbitrary_chunking(
        reqs in proptest::collection::vec(arb_request(), 1..12),
        chunk_seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        for req in &reqs {
            encode_request(req, &mut bytes);
        }
        // Deterministic "random" chunk sizes derived from the seed —
        // every boundary placement must reassemble identically.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        let mut decoded = Vec::new();
        let mut state = chunk_seed | 1;
        let mut at = 0usize;
        while at < bytes.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let chunk = ((state >> 33) as usize % 17) + 1;
            let end = (at + chunk).min(bytes.len());
            dec.extend(&bytes[at..end]);
            at = end;
            while let Some(frame) = dec.next_frame().unwrap() {
                decoded.push(parse_request(&frame).unwrap());
            }
        }
        prop_assert_eq!(decoded, reqs);
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn chunked_scan_stream_reassembles(
        entries in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)), 0..48),
        chunk_bytes in 1usize..256,
        chunk_seed in any::<u64>(),
    ) {
        // Produce the chunk frames exactly the way the server does:
        // greedily pack entries until the next one would exceed the
        // byte bound, emit a more=1 chunk, and finish with one more=0
        // chunk holding the tail (possibly empty). Every placement of
        // the chunk boundary — including one entry per chunk and
        // everything in the terminal chunk — must reassemble to the
        // original entry list through a split-read decoder.
        let mut bytes = Vec::new();
        let mut frames_expected = 0usize;
        let mut chunk: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut used = 0usize;
        for (k, v) in &entries {
            let entry_bytes = 12 + v.len();
            if !chunk.is_empty() && used + entry_bytes > chunk_bytes {
                encode_scan_chunk(true, &chunk, &mut bytes);
                frames_expected += 1;
                chunk.clear();
                used = 0;
            }
            used += entry_bytes;
            chunk.push((*k, v.clone()));
        }
        encode_scan_chunk(false, &chunk, &mut bytes);
        frames_expected += 1;

        // Feed the stream through the decoder at LCG-derived split
        // points and reassemble.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        let mut reassembled: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut frames_seen = 0usize;
        let mut done = false;
        let mut state = chunk_seed | 1;
        let mut at = 0usize;
        while at < bytes.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let step = ((state >> 33) as usize % 17) + 1;
            let end = (at + step).min(bytes.len());
            dec.extend(&bytes[at..end]);
            at = end;
            while let Some(frame) = dec.next_frame().unwrap() {
                prop_assert!(!done, "frames after the terminal chunk");
                let terminal = !is_continuation(&frame);
                match parse_response(&frame).unwrap() {
                    Response::ScanChunk { more, entries } => {
                        prop_assert_eq!(more, !terminal);
                        reassembled.extend(entries);
                    }
                    other => prop_assert!(false, "expected ScanChunk, got {:?}", other),
                }
                frames_seen += 1;
                done = terminal;
            }
        }
        prop_assert!(done, "stream never terminated");
        prop_assert_eq!(frames_seen, frames_expected);
        prop_assert_eq!(reassembled, entries);
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..8),
    ) {
        // Whatever bytes arrive, the decoder either yields frames,
        // asks for more, or reports a typed error — it never panics
        // and fatal errors are sticky decisions left to the caller.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        'outer: for chunk in &chunks {
            dec.extend(chunk);
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => {
                        // Parsing may fail; it must not panic.
                        let _ = parse_request(&frame);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        prop_assert!(e.is_fatal() || !e.is_fatal());
                        if e.is_fatal() {
                            break 'outer;
                        }
                        break;
                    }
                }
            }
        }
    }
}
