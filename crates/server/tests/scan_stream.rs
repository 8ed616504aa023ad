//! End-to-end streaming SCAN: a range whose values total more than
//! the 1 MiB frame cap completes over the wire as multiple chunk
//! frames, each under the cap.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;

use e2nvm_server::frame::{
    encode_request, parse_response, FrameDecoder, Request, Response, DEFAULT_MAX_BODY,
    MAX_RESPONSE_BODY,
};
use e2nvm_server::{demo::demo_store, Client, Server, ServerConfig, ServerHandle};

const VALUE_LEN: usize = 3600;
const KEYS: u64 = 320;

/// Deterministic value for `key`, sized so [`KEYS`] of them total
/// ~1.15 MiB — past the frame cap.
fn value_for(key: u64) -> Vec<u8> {
    let mut state = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..VALUE_LEN)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn start() -> ServerHandle {
    // 384 x 4 KiB segments across 2 shards: room for the 320 values
    // plus placement headroom.
    let store = demo_store(2, 384, 4096, 11);
    Server::new(store, ServerConfig::default())
        .start()
        .expect("server binds an ephemeral port")
}

fn load(client: &mut Client) -> BTreeMap<u64, Vec<u8>> {
    let mut expected = BTreeMap::new();
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(32) {
        let pairs: Vec<(u64, Vec<u8>)> = chunk.iter().map(|&k| (k, value_for(k))).collect();
        client.put_many(&pairs).expect("load put_many");
        expected.extend(pairs);
    }
    let total: usize = expected.values().map(Vec::len).sum();
    assert!(
        total > DEFAULT_MAX_BODY,
        "test data ({total} B) must exceed the {DEFAULT_MAX_BODY} B frame cap"
    );
    expected
}

#[test]
fn streamed_scan_past_the_frame_cap_completes() {
    let handle = start();
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let expected = load(&mut client);

    // The range is served whole — limit = 0 (unlimited) included —
    // although no single frame could carry it.
    let all = client
        .scan(0, u64::MAX, 0)
        .expect("streamed scan completes");
    assert_eq!(all.len(), expected.len());
    for ((k, v), (ek, ev)) in all.iter().zip(&expected) {
        assert_eq!((k, v), (ek, ev));
    }

    // Dropping a stream mid-way drains it: the connection stays
    // frame-aligned and keeps serving.
    {
        let mut stream = client.scan_stream(0, u64::MAX, 0).expect("start stream");
        let first = stream.next().expect("one entry").expect("no error");
        assert_eq!(first.0, 0);
    }
    assert_eq!(
        client.get(7).expect("get after dropped stream"),
        Some(value_for(7))
    );

    // Pin the multi-frame shape on the raw socket: one SCAN_STREAM
    // request, N > 1 chunk frames back, every non-terminal chunk
    // flagged more=1, reassembling to the same entries.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let mut req = Vec::new();
    encode_request(
        &Request::ScanStream {
            lo: 0,
            hi: u64::MAX,
            limit: 0,
        },
        &mut req,
    );
    raw.write_all(&req).expect("send raw SCAN_STREAM");
    let mut dec = FrameDecoder::new(MAX_RESPONSE_BODY);
    let mut chunks = 0usize;
    let mut reassembled: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    'stream: loop {
        while let Some(frame) = dec.next_frame().expect("well-formed response frames") {
            match parse_response(&frame).expect("chunk parses") {
                Response::ScanChunk { more, entries } => {
                    chunks += 1;
                    reassembled.extend(entries);
                    if !more {
                        break 'stream;
                    }
                }
                other => panic!("expected ScanChunk, got {other:?}"),
            }
        }
        let n = raw.read(&mut buf).expect("read stream");
        assert!(n > 0, "server closed mid-stream");
        dec.extend(&buf[..n]);
    }
    assert!(
        chunks > 1,
        "a > 1 MiB scan must span multiple chunk frames, got {chunks}"
    );
    assert_eq!(reassembled.len(), expected.len());
    drop(raw);

    // Bounded limits still bound: limit = 3 yields the 3 smallest.
    let three = client.scan(0, u64::MAX, 3).expect("bounded stream");
    assert_eq!(
        three.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// A tiny chunk bound forces many chunks, and entries must never
/// split across them.
#[test]
fn tiny_chunks_carry_whole_entries() {
    let store = demo_store(2, 64, 64, 11);
    let config = ServerConfig::builder()
        .scan_chunk_bytes(64)
        .build()
        .expect("config");
    let handle = Server::new(store, config).start().expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for k in 0..20u64 {
        client.put(k, &[k as u8; 40]).expect("put");
    }
    // 40-byte values against a 64-byte chunk bound: one entry per
    // chunk (12 + 40 = 52 fits, two do not), so the stream is ~20
    // chunks — and every entry arrives whole.
    let seen = client.scan(0, u64::MAX, 0).expect("chunked stream");
    let want: Vec<(u64, Vec<u8>)> = (0..20).map(|k| (k, vec![k as u8; 40])).collect();
    assert_eq!(seen, want);
    client.shutdown_server().expect("shutdown");
    handle.join();
}
