//! Abuse a live server with malformed byte streams and prove it never
//! panics: framing-level violations are answered with a typed error
//! frame and a close, frame-level violations are answered and the
//! connection keeps serving, and the server remains healthy for fresh
//! connections throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use e2nvm_server::frame::{
    encode_request, parse_response, FrameDecoder, FrameError, Opcode, RawFrame, Request, Response,
    Status, DEFAULT_MAX_BODY, MAGIC, VERSION,
};
use e2nvm_server::{demo::demo_store, Client, Server, ServerConfig, ServerHandle};

fn start_server() -> ServerHandle {
    let store = demo_store(2, 64, 32, 11);
    Server::new(store, ServerConfig::default())
        .start()
        .expect("server binds an ephemeral port")
}

/// Read frames from `stream` until one whole response is decodable.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("response frames are well-formed") {
            return parse_response(&frame).expect("response parses");
        }
        let n = stream.read(&mut chunk).expect("read from server");
        assert!(n > 0, "server closed before answering");
        dec.extend(&chunk[..n]);
    }
}

fn expect_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    // After a fatal violation the server closes; EOF (Ok with eventual
    // read of 0) is the expected terminal state.
    match stream.read_to_end(&mut rest) {
        Ok(_) => {}
        Err(e) => panic!("expected clean close, got {e}"),
    }
}

fn raw_frame(
    body_len_field: u32,
    magic: u8,
    version: u8,
    code: u8,
    aux: u8,
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&body_len_field.to_le_bytes());
    out.extend_from_slice(&[magic, version, code, aux]);
    out.extend_from_slice(body);
    out
}

#[test]
fn malformed_streams_get_error_frames_and_no_panic() {
    let handle = start_server();
    let addr = handle.local_addr();

    // 1. Arbitrary non-protocol bytes (an HTTP request): bad magic is a
    //    framing-level violation — one MALFORMED error frame, then close.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::Malformed),
            other => panic!("expected MALFORMED error frame, got {other:?}"),
        }
        expect_closed(&mut s);
    }

    // 2. Oversized body_len: FRAME_TOO_LARGE, then close.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&raw_frame(
            1 << 30,
            MAGIC,
            VERSION,
            Opcode::Put as u8,
            0,
            &[],
        ))
        .unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::FrameTooLarge),
            other => panic!("expected FRAME_TOO_LARGE error frame, got {other:?}"),
        }
        expect_closed(&mut s);
    }

    // 3. Unsupported version: UNSUPPORTED_VERSION, then close.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&raw_frame(0, MAGIC, 0x7E, Opcode::Ping as u8, 0, &[]))
            .unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::UnsupportedVersion),
            other => panic!("expected UNSUPPORTED_VERSION error frame, got {other:?}"),
        }
        expect_closed(&mut s);
    }

    // 4. Unknown opcode and bad body shape: frame-level violations — the
    //    connection gets an error frame and KEEPS SERVING.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&raw_frame(0, MAGIC, VERSION, 0x55, 0, &[]))
            .unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::UnknownOpcode),
            other => panic!("expected UNKNOWN_OPCODE error frame, got {other:?}"),
        }
        // GET with a truncated 4-byte key.
        s.write_all(&raw_frame(
            4,
            MAGIC,
            VERSION,
            Opcode::Get as u8,
            0,
            &[1, 2, 3, 4],
        ))
        .unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::Malformed),
            other => panic!("expected MALFORMED error frame, got {other:?}"),
        }
        // Same connection still answers a well-formed request.
        let mut ping = Vec::new();
        encode_request(&Request::Ping, &mut ping);
        s.write_all(&ping).unwrap();
        assert_eq!(read_response(&mut s), Response::Pong);
    }

    // 5. A truncated frame followed by a hangup: the server is left
    //    waiting for the rest of the body and must simply drop the
    //    connection when the peer disappears — no reply, no panic.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&raw_frame(
            20,
            MAGIC,
            VERSION,
            Opcode::ScanStream as u8,
            0,
            &[0xAB; 5],
        ))
        .unwrap();
        drop(s);
    }

    // 6. Nonzero reserved byte in a request header: survivable.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&raw_frame(0, MAGIC, VERSION, Opcode::Ping as u8, 0x99, &[]))
            .unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::Malformed),
            other => panic!("expected MALFORMED error frame, got {other:?}"),
        }
        let mut ping = Vec::new();
        encode_request(&Request::Ping, &mut ping);
        s.write_all(&ping).unwrap();
        assert_eq!(read_response(&mut s), Response::Pong);
    }

    // 7. SCAN_STREAM with a truncated 19-byte body: frame-level
    //    violation — error frame, connection keeps serving, and a
    //    well-formed stream on the same connection still terminates.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&raw_frame(
            19,
            MAGIC,
            VERSION,
            Opcode::ScanStream as u8,
            0,
            &[0; 19],
        ))
        .unwrap();
        match read_response(&mut s) {
            Response::Error { status, .. } => assert_eq!(status, Status::Malformed),
            other => panic!("expected MALFORMED error frame, got {other:?}"),
        }
        let mut scan = Vec::new();
        encode_request(
            &Request::ScanStream {
                lo: 0,
                hi: u64::MAX,
                limit: 4,
            },
            &mut scan,
        );
        s.write_all(&scan).unwrap();
        match read_response(&mut s) {
            Response::ScanChunk { more, .. } => assert!(!more, "short stream is one final chunk"),
            other => panic!("expected ScanChunk, got {other:?}"),
        }
    }

    // 8. Retired code points (PROTOCOL.md §7). An old peer's
    //    single-frame SCAN (opcode 0x04, its well-formed 20-byte body)
    //    or STATS (opcode 0x05, empty body) is an unknown opcode now —
    //    survivable — and a response frame carrying the retired
    //    SCAN_TOO_LARGE status (0x06) is a decode error on the
    //    receiving side, not a panic.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut scan = Vec::new();
        encode_request(
            &Request::ScanStream {
                lo: 0,
                hi: u64::MAX,
                limit: 0,
            },
            &mut scan,
        );
        scan[6] = 0x04;
        let mut stats = Vec::new();
        encode_request(&Request::Ping, &mut stats);
        stats[6] = 0x05;
        for legacy in [scan, stats] {
            s.write_all(&legacy).unwrap();
            match read_response(&mut s) {
                Response::Error { status, .. } => assert_eq!(status, Status::UnknownOpcode),
                other => panic!("expected UNKNOWN_OPCODE error frame, got {other:?}"),
            }
            let mut ping = Vec::new();
            encode_request(&Request::Ping, &mut ping);
            s.write_all(&ping).unwrap();
            assert_eq!(read_response(&mut s), Response::Pong);
        }

        let retired_status = RawFrame {
            code: 0x06,
            aux: Opcode::ScanStream as u8,
            body: &[0; 8],
        };
        assert_eq!(
            parse_response(&retired_status),
            Err(FrameError::UnknownStatus(0x06))
        );
    }

    // After all of the abuse above, a fresh client connection is served
    // normally: the process never panicked and the accept loop is alive.
    let mut client = Client::connect(addr).unwrap();
    client.put(1234, b"still alive").unwrap();
    assert_eq!(client.get(1234).unwrap(), Some(b"still alive".to_vec()));

    handle.shutdown();
    let served = handle.join();
    assert!(
        served >= 9,
        "expected >= 9 connections served, got {served}"
    );
}

/// A SCAN_STREAM chunk whose body stops mid-entry must parse as a
/// typed BadBody error on the receiving side, never a panic or a
/// silent short read — the client treats it as a poisoned stream.
#[test]
fn truncated_mid_chunk_is_rejected() {
    use e2nvm_server::frame::encode_scan_chunk;

    let entries = vec![(7u64, vec![0xAA; 24]), (9u64, vec![0xBB; 24])];
    let mut bytes = Vec::new();
    encode_scan_chunk(true, &entries, &mut bytes);
    let body = &bytes[8..];
    // Truncate at every point inside the body: through the
    // continuation byte, the count, and both entries. The count claims
    // more entries than the truncated body holds, so every cut must be
    // a survivable BadBody (or a count/size mismatch at the exact
    // entry boundary) — never Ok with fewer entries.
    for cut in 0..body.len() {
        let frame = RawFrame {
            code: Status::Ok as u8,
            aux: Opcode::ScanStream as u8,
            body: &body[..cut],
        };
        match parse_response(&frame) {
            Err(FrameError::BadBody(_)) => {}
            Ok(resp) => panic!("cut at {cut}/{} parsed as {resp:?}", body.len()),
            Err(other) => panic!("cut at {cut} gave unexpected error {other:?}"),
        }
    }
    // The untruncated body still parses whole.
    let frame = RawFrame {
        code: Status::Ok as u8,
        aux: Opcode::ScanStream as u8,
        body,
    };
    assert_eq!(
        parse_response(&frame).unwrap(),
        Response::ScanChunk {
            more: true,
            entries
        }
    );
}
