//! What `TcpServer` promises about *where* a request runs, *who* writes
//! its response and *when* a connection stops being read. Handlers are
//! gated by channels, never by timers: every interleaving a test checks
//! is forced, and the only clocks are hang guards.

mod common;

use common::{eventually, parse, serve_gated};
use dasp_net::{
    encode_frame, BlockingConn, FrameDecoder, FrameKind, ReactorConfig, TcpClient, TcpClientConfig,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Read whole responses off a raw socket until `n` have arrived.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u64, Vec<u8>)> {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut got = Vec::new();
    while got.len() < n {
        while let Some(frame) = decoder.next_frame().expect("valid frames") {
            assert_eq!(frame.kind, FrameKind::Response);
            got.push((frame.token, frame.payload));
        }
        if got.len() < n {
            let read = stream.read(&mut buf).expect("read");
            assert!(
                read > 0,
                "server closed after {} of {n} responses",
                got.len()
            );
            decoder.extend(&buf[..read]);
        }
    }
    got
}

#[test]
fn a_read_is_not_queued_behind_a_write_on_its_connection() {
    // One worker: at the parent commit the read would wait in the pool's
    // queue behind the parked write.
    let (server, gates) = serve_gated(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    let client = Arc::new(
        TcpClient::connect(server.local_addr(), TcpClientConfig::default()).expect("dial"),
    );
    let writer = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || client.call(b"w1").expect("write call"))
    };
    gates.entered.recv().expect("the write reached its handler");
    // The write is parked on the only worker; the read on the same
    // connection is answered by the connection's own thread.
    let (thread, echoed) = parse(&client.call(b"r1").expect("read call"));
    assert!(thread.starts_with("dasp-reactor-"), "read ran on {thread}");
    assert_eq!(echoed, b"r1");
    assert!(!writer.is_finished(), "the write is still parked");
    gates.release.send(()).expect("release");
    let (thread, echoed) = parse(&writer.join().expect("writer thread"));
    assert!(
        thread.starts_with("dasp-tcp-worker-"),
        "write ran on {thread}"
    );
    assert_eq!(echoed, b"w1");
    let stats = server.stats();
    assert_eq!((stats.frames_in, stats.frames_out), (2, 2));
}

#[test]
fn without_a_pool_everything_runs_on_the_connection_thread() {
    let (server, gates) = serve_gated(ReactorConfig {
        workers: 0,
        ..ReactorConfig::default()
    });
    let mut conn =
        BlockingConn::connect(server.local_addr(), Duration::from_secs(5)).expect("dial");
    gates.release.send(()).expect("release ahead of the write");
    for request in [&b"w"[..], b"r", b"b"] {
        let (thread, _) = parse(&conn.call(request).expect("call"));
        assert!(
            thread.starts_with("dasp-reactor-"),
            "{request:?} on {thread}"
        );
    }
}

#[test]
fn a_peer_that_never_reads_cannot_hold_the_pool() {
    let (server, _gates) = serve_gated(ReactorConfig {
        workers: 2,
        max_inflight_per_conn: 4,
        max_outbound_bytes: 1 << 20,
        ..ReactorConfig::default()
    });
    // 32 MiB of responses, far more than loopback's socket buffers take,
    // to a peer that reads none of it: a worker ends up blocked in
    // `write` on this connection.
    let mut deaf = TcpStream::connect(server.local_addr()).expect("dial");
    for token in 0..64 {
        deaf.write_all(&encode_frame(token, FrameKind::Request, b"b"))
            .expect("pipeline");
    }
    // Calls on a second connection (accepted after the first, so both
    // are open once one call has returned) complete the whole time, and
    // the first connection is closed at the stall limit.
    let mut conn =
        BlockingConn::connect(server.local_addr(), Duration::from_secs(5)).expect("dial");
    eventually("the deaf peer is closed", || {
        let (thread, echoed) = parse(&conn.call(b"x").expect("second connection starved"));
        assert!(thread.starts_with("dasp-tcp-worker-"), "ran on {thread}");
        assert_eq!(echoed, b"x");
        server.stats().open == 1
    });
    // The deaf peer reads what the kernel had buffered, then the close.
    let mut sink = vec![0u8; 1 << 20];
    while matches!(deaf.read(&mut sink), Ok(n) if n > 0) {}
    conn.call(b"x").expect("the second connection outlives it");
}

#[test]
fn a_connection_is_not_read_past_its_inflight_limit() {
    let (server, gates) = serve_gated(ReactorConfig {
        workers: 4,
        max_inflight_per_conn: 2,
        ..ReactorConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
    let mut frames = Vec::new();
    for token in 0..10u64 {
        frames.extend(encode_frame(token, FrameKind::Request, b"w"));
    }
    stream
        .write_all(&frames)
        .expect("ten requests in one write");
    gates.entered.recv().expect("first handler");
    gates.entered.recv().expect("second handler");
    eventually("the connection thread pauses", || {
        server.stats().backpressure_pauses >= 1
    });
    // Two admitted, two workers idle, eight requests unread.
    assert_eq!(server.stats().frames_in, 2);
    assert!(gates.entered.try_recv().is_err(), "a third handler started");
    for _ in 0..10 {
        gates.release.send(()).expect("release");
    }
    let tokens: BTreeSet<u64> = read_responses(&mut stream, 10)
        .into_iter()
        .map(|(token, _)| token)
        .collect();
    assert_eq!(tokens, (0..10).collect::<BTreeSet<u64>>());
    let stats = server.stats();
    assert_eq!((stats.frames_in, stats.frames_out), (10, 10));
}

#[test]
fn a_batch_of_inline_requests_comes_back_as_one_envelope() {
    let (server, _gates) = serve_gated(ReactorConfig::default());
    let mut conn =
        BlockingConn::connect(server.local_addr(), Duration::from_secs(5)).expect("dial");
    // Before it has sent a batch frame the peer sees plain frames only.
    conn.call(b"r").expect("plain call");
    assert_eq!(server.stats().batch_frames_out, 0);
    let requests: Vec<Vec<u8>> = (0..8u8).map(|i| vec![b'r', i]).collect();
    let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
    let responses = conn.call_many(&refs).expect("call_many");
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(&parse(response).1, request);
    }
    let stats = server.stats();
    assert_eq!((stats.batch_frames_in, stats.batch_frames_out), (1, 1));
    assert_eq!((stats.frames_in, stats.frames_out), (9, 9));
}
