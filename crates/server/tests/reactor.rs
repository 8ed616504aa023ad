//! What an event-driven server has to prove: slow-loris byte
//! trickles, backpressure under a pipelined flood, idle connections
//! riding alongside active ones, 256-way active fan-in, prompt drain,
//! and the BUSY cliff at the connection limit.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use e2nvm_server::frame::{
    encode_request, parse_response, FrameDecoder, Request, Response, Status, DEFAULT_MAX_BODY,
};
use e2nvm_server::{demo::demo_store, Client, Server, ServerConfig, ServerHandle};

fn start_server(config: ServerConfig) -> ServerHandle {
    let store = demo_store(2, 64, 32, 11);
    Server::new(store, config)
        .start()
        .expect("server binds an ephemeral port")
}

/// Read exactly `n` responses off `stream`, in order.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<Response> {
    let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
    let mut out = Vec::with_capacity(n);
    let mut chunk = [0u8; 16 * 1024];
    while out.len() < n {
        if let Some(frame) = dec.next_frame().expect("response frames are well-formed") {
            out.push(parse_response(&frame).expect("response parses"));
            continue;
        }
        let read = stream.read(&mut chunk).expect("read from server");
        assert!(
            read > 0,
            "server closed with {} responses owed",
            n - out.len()
        );
        dec.extend(&chunk[..read]);
    }
    out
}

/// A request stream dribbled in one byte at a time must decode — and
/// answer — exactly like the same bytes in one write. This is the
/// partial-frame path: every header and body split lands mid-field at
/// least once.
#[test]
fn slow_loris_byte_trickle_is_served_identically() {
    let handle = start_server(ServerConfig::default());
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();

    let mut bytes = Vec::new();
    encode_request(&Request::Ping, &mut bytes);
    encode_request(&Request::Get { key: 999_999 }, &mut bytes);
    encode_request(
        &Request::Put {
            key: 7,
            value: b"trickled".to_vec(),
        },
        &mut bytes,
    );
    encode_request(&Request::Get { key: 7 }, &mut bytes);

    for byte in &bytes {
        s.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let responses = read_responses(&mut s, 4);
    assert_eq!(responses[0], Response::Pong);
    assert_eq!(responses[1], Response::NotFound);
    assert_eq!(responses[2], Response::Stored);
    assert_eq!(responses[3], Response::Value(b"trickled".to_vec()));

    drop(s);
    handle.shutdown();
    handle.join();
}

/// Three pipelined requests: a PUT, a GET of it and a PING, as bytes.
fn put_get_ping(key: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_request(
        &Request::Put {
            key,
            value: b"split".to_vec(),
        },
        &mut bytes,
    );
    encode_request(&Request::Get { key }, &mut bytes);
    encode_request(&Request::Ping, &mut bytes);
    bytes
}

fn assert_put_get_ping(responses: &[Response]) {
    assert_eq!(
        responses,
        [
            Response::Stored,
            Response::Value(b"split".to_vec()),
            Response::Pong
        ]
    );
}

/// A pipelined batch that reaches the server in two writes — the first
/// ending mid-frame, read short and alone — is answered in full once
/// the second lands: a short read ends a readiness event, and the rest
/// raises the next one.
#[test]
fn pipelined_batch_in_two_writes_is_answered_in_full() {
    let handle = start_server(ServerConfig::default());
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let bytes = put_get_ping(21);
    let split = bytes.len() / 2 + 3;
    s.write_all(&bytes[..split]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    s.write_all(&bytes[split..]).unwrap();
    assert_put_get_ping(&read_responses(&mut s, 3));

    drop(s);
    handle.shutdown();
    handle.join();
}

/// Requests followed at once by the client's EOF (a half-close) are
/// all answered before the server closes its side: the EOF behind a
/// short read still arrives, as the next readiness event.
#[test]
fn eof_right_after_data_is_answered_in_full() {
    let handle = start_server(ServerConfig::default());
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.write_all(&put_get_ping(22)).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    assert_put_get_ping(&read_responses(&mut s, 3));
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing after the three responses");

    handle.shutdown();
    handle.join();
}

/// A connection that floods far past the per-connection queue bound
/// gets every response, in order — backpressure pauses its reads
/// instead of dropping it or corrupting the pipeline.
#[test]
fn flood_past_queue_bound_is_answered_in_order() {
    let config = ServerConfig::builder()
        .queue_depth(2)
        .build()
        .expect("tiny queue bound is valid");
    let handle = start_server(config);
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();

    // A small rotating key set keeps the demo store inside its segment
    // budget while the pipeline floods; ordered execution guarantees
    // each GET observes the PUT immediately before it, not a later
    // overwrite of the same key.
    const FLOOD: usize = 500;
    const KEYS: u64 = 8;
    let mut bytes = Vec::new();
    for i in 0..FLOOD {
        let key = i as u64 % KEYS;
        encode_request(
            &Request::Put {
                key,
                value: format!("v{i}").into_bytes(),
            },
            &mut bytes,
        );
        encode_request(&Request::Get { key }, &mut bytes);
    }
    s.write_all(&bytes).unwrap();

    let responses = read_responses(&mut s, FLOOD * 2);
    for i in 0..FLOOD {
        assert_eq!(responses[2 * i], Response::Stored, "PUT {i}");
        assert_eq!(
            responses[2 * i + 1],
            Response::Value(format!("v{i}").into_bytes()),
            "GET {i}"
        );
    }

    drop(s);
    handle.shutdown();
    handle.join();
}

/// The flood above must actually exercise the pause path (not just
/// happen to keep up).
#[cfg(target_os = "linux")]
#[test]
fn flood_past_queue_bound_pauses_reads() {
    use e2nvm_telemetry::TelemetryRegistry;

    let store = demo_store(2, 64, 32, 11);
    let registry = TelemetryRegistry::new();
    let config = ServerConfig::builder()
        .queue_depth(2)
        .build()
        .expect("tiny queue bound is valid");
    let handle = Server::new(store, config)
        .with_telemetry(&registry)
        .start()
        .expect("server binds an ephemeral port");

    let mut client = Client::connect(handle.local_addr()).unwrap();
    // Rotate a small key set (stays inside the demo store's segment
    // budget); the 400-deep pipeline against queue_depth=2 is what
    // forces the pause.
    let pairs: Vec<(u64, Vec<u8>)> = (0..400u64).map(|i| (i % 8, vec![i as u8; 16])).collect();
    client.put_many(&pairs).expect("flooded puts all answered");
    let metrics = client.metrics().expect("METRICS frame");

    let paused: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("e2nvm_server_reads_paused_total "))
        .expect("reactor publishes the reads-paused series")
        .trim()
        .parse()
        .unwrap();
    assert!(
        paused > 0.0,
        "a 400-deep pipeline against a 2-item queue bound never paused reads"
    );

    drop(client);
    handle.shutdown();
    handle.join();
}

/// Idle connections cost nothing and break nothing: requests on an
/// active connection are served normally while many idle sockets sit
/// registered, and the idle sockets stay open throughout.
#[test]
fn idle_connections_ride_alongside_active_ones() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();

    let idle: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut client = Client::connect(addr).unwrap();
    for i in 0..50u64 {
        client.put(i, format!("busy{i}").as_bytes()).unwrap();
        assert_eq!(
            client.get(i).unwrap(),
            Some(format!("busy{i}").into_bytes())
        );
    }
    // The idle sockets were never closed under us: a request on one is
    // still served.
    let mut late = idle.into_iter().next().unwrap();
    let mut ping = Vec::new();
    encode_request(&Request::Ping, &mut ping);
    late.write_all(&ping).unwrap();
    assert_eq!(read_responses(&mut late, 1)[0], Response::Pong);

    drop(client);
    drop(late);
    handle.shutdown();
    handle.join();
}

/// Fan-in: 256 connections all *active* at once on one event loop —
/// every socket has a pipelined PUT/GET batch in flight before the
/// first reply is drained. Every reply must be right and in order, the
/// server must not have sent a single error frame (no BUSY reject, no
/// violation, no store error), and shutdown must still drain promptly
/// with all 256 sockets open.
#[cfg(target_os = "linux")]
#[test]
fn many_active_pipelined_connections_are_all_served() {
    use e2nvm_telemetry::TelemetryRegistry;

    const CONNS: usize = 256;
    const ROUNDS: usize = 8;
    // One key per connection, so a GET can only observe its own
    // connection's preceding PUT.
    let store = demo_store(2, 4 * CONNS, 32, 11);
    let registry = TelemetryRegistry::new();
    let config = ServerConfig::builder()
        .max_connections(CONNS + 1) // the fleet + the METRICS client
        .build()
        .expect("fan-in connection limit is valid");
    let handle = Server::new(store, config)
        .with_telemetry(&registry)
        .start()
        .expect("server binds an ephemeral port");
    let addr = handle.local_addr();

    let value = |conn: usize, round: usize| format!("c{conn}r{round}").into_bytes();
    let mut fleet: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for (conn, s) in fleet.iter_mut().enumerate() {
        let key = conn as u64;
        let mut bytes = Vec::new();
        for round in 0..ROUNDS {
            encode_request(
                &Request::Put {
                    key,
                    value: value(conn, round),
                },
                &mut bytes,
            );
            encode_request(&Request::Get { key }, &mut bytes);
        }
        s.write_all(&bytes).unwrap();
    }
    for (conn, s) in fleet.iter_mut().enumerate() {
        let responses = read_responses(s, ROUNDS * 2);
        for round in 0..ROUNDS {
            assert_eq!(
                responses[2 * round],
                Response::Stored,
                "conn {conn} PUT {round}"
            );
            assert_eq!(
                responses[2 * round + 1],
                Response::Value(value(conn, round)),
                "conn {conn} GET {round}"
            );
        }
    }

    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().expect("METRICS frame");
    let error_frames: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("e2nvm_server_error_frames_total{"))
        .collect();
    assert!(
        !error_frames.is_empty(),
        "server publishes the error-frame family"
    );
    for line in error_frames {
        assert!(line.ends_with(" 0"), "server sent error frames: {line}");
    }
    drop(client);

    handle.shutdown();
    let t0 = Instant::now();
    let served = handle.join();
    let drain = t0.elapsed();
    assert!(
        served > CONNS,
        "expected > {CONNS} connections served, got {served}"
    );
    assert!(
        drain < Duration::from_secs(1),
        "drain took {drain:?} with {CONNS} open connections"
    );
}

/// The drain-latency regression pin: a server with a fleet of idle
/// connections must still shut down promptly. Outside a drain the
/// event loop sleeps until a socket is ready, so a drain that waited
/// for an event would never come; the eventfd wakeup plus drain walk
/// retires it in milliseconds.
#[cfg(target_os = "linux")]
#[test]
fn reactor_drain_is_prompt_despite_long_read_timeout() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.local_addr();

    let _idle: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().is_ok());
    drop(client);

    handle.shutdown();
    let t0 = Instant::now();
    let served = handle.join();
    let drain = t0.elapsed();
    assert!(
        served >= 9,
        "expected >= 9 connections served, got {served}"
    );
    assert!(
        drain < Duration::from_secs(1),
        "drain took {drain:?}; the reactor must not wait out read timeouts"
    );
}

/// Past `max_connections` the next client is still told why: a BUSY
/// error frame, then close — the fd-exhaustion backstop (ordinary
/// overload is handled by backpressure long before this).
#[test]
fn busy_frame_past_max_connections() {
    let config = ServerConfig::builder()
        .max_connections(2)
        .build()
        .expect("tiny connection limit is valid");
    let handle = start_server(config);
    let addr = handle.local_addr();

    // Fill the limit and prove both are registered (served a request).
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.ping().is_ok());
    assert!(b.ping().is_ok());

    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match &read_responses(&mut rejected, 1)[0] {
        Response::Error { status, .. } => assert_eq!(*status, Status::Busy),
        other => panic!("expected BUSY error frame, got {other:?}"),
    }
    let mut rest = Vec::new();
    rejected
        .read_to_end(&mut rest)
        .expect("rejected connection closes cleanly");
    assert!(rest.is_empty(), "nothing follows the BUSY frame");

    // The registered connections were untouched by the reject.
    assert!(a.ping().is_ok());
    assert!(b.ping().is_ok());

    drop(a);
    drop(b);
    handle.shutdown();
    handle.join();
}
