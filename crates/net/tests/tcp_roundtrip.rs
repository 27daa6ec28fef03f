//! End-to-end reactor + transport integration: a real TCP server echoing
//! through a `SharedService`, driven by the multiplexing client, the
//! blocking connection, and a full `Cluster` over sockets.

use dasp_net::{
    encode_frame, BlockingConn, Cluster, FrameDecoder, FrameKind, QuorumMode, QuorumOptions,
    ReactorConfig, RetryPolicy, RpcError, SharedService, TcpClient, TcpClientConfig, TcpServer,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Echoes the payload back with a leading marker byte.
struct Echo(u8);

impl SharedService for Echo {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.push(self.0);
        out.extend_from_slice(request);
        out
    }
}

fn serve(marker: u8) -> TcpServer {
    TcpServer::serve(
        "127.0.0.1:0",
        Arc::new(Echo(marker)),
        ReactorConfig::default(),
    )
    .expect("bind")
}

#[test]
fn blocking_conn_roundtrip() {
    let server = serve(0xEE);
    let mut conn =
        BlockingConn::connect(server.local_addr(), Duration::from_secs(5)).expect("dial");
    for i in 0..100u32 {
        let req = i.to_le_bytes();
        let resp = conn.call(&req).expect("call");
        assert_eq!(resp[0], 0xEE);
        assert_eq!(&resp[1..], &req);
    }
    let snap = server.stats();
    assert!(snap.frames_in >= 100);
    assert!(snap.frames_out >= 100);
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn multiplexed_client_concurrent_calls() {
    let server = serve(0xAB);
    let client = Arc::new(
        TcpClient::connect(server.local_addr(), TcpClientConfig::default()).expect("dial"),
    );
    let hits = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for t in 0..8u64 {
        let client = Arc::clone(&client);
        let hits = Arc::clone(&hits);
        threads.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let req = (t * 1000 + i).to_le_bytes();
                let resp = client.call(&req).expect("call");
                assert_eq!(resp[0], 0xAB);
                assert_eq!(&resp[1..], &req);
                hits.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for th in threads {
        th.join().expect("join");
    }
    assert_eq!(hits.load(Ordering::Relaxed), 400);
    let snap = server.stats();
    // Every request/response message is counted individually, also when
    // concurrent calls were coalesced into batch envelopes.
    assert!(snap.frames_in >= 400, "frames_in = {}", snap.frames_in);
    assert!(snap.frames_out >= 400, "frames_out = {}", snap.frames_out);
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn batched_client_concurrent_calls() {
    // More callers than the multiplexed test, on a payload large enough
    // that writes take measurable time: followers staged behind the
    // leader's write leave together in batch frames, with no window.
    let server = serve(0xBA);
    let client = Arc::new(
        TcpClient::connect(server.local_addr(), TcpClientConfig::default()).expect("dial"),
    );
    let hits = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for t in 0..16u64 {
        let client = Arc::clone(&client);
        let hits = Arc::clone(&hits);
        threads.push(std::thread::spawn(move || {
            for i in 0..25u64 {
                let mut req = vec![(t as u8) ^ (i as u8); 1024];
                req[..8].copy_from_slice(&(t * 1000 + i).to_le_bytes());
                let resp = client.call(&req).expect("call");
                assert_eq!(resp[0], 0xBA);
                assert_eq!(&resp[1..], &req[..]);
                hits.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for th in threads {
        th.join().expect("join");
    }
    assert_eq!(hits.load(Ordering::Relaxed), 400);
    let snap = server.stats();
    // Every request/response message is counted individually even when
    // coalesced into batch envelopes.
    assert!(snap.frames_in >= 400, "frames_in = {}", snap.frames_in);
    assert!(snap.frames_out >= 400, "frames_out = {}", snap.frames_out);
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn blocking_conn_call_many_roundtrip() {
    let server = serve(0xCD);
    let mut conn =
        BlockingConn::connect(server.local_addr(), Duration::from_secs(5)).expect("dial");
    let payloads: Vec<Vec<u8>> = (0..37u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let responses = conn.call_many(&refs).expect("call_many");
    assert_eq!(responses.len(), payloads.len());
    for (req, resp) in payloads.iter().zip(&responses) {
        assert_eq!(resp[0], 0xCD);
        assert_eq!(&resp[1..], req.as_slice());
    }
    // Mixed traffic afterwards still works (tokens stay in sync).
    let resp = conn.call(b"after").expect("call");
    assert_eq!(&resp[1..], b"after");
    let snap = server.stats();
    assert!(snap.batch_frames_in >= 1, "server saw no batch envelope");
    assert!(snap.frames_in >= 38);
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn call_many_empty_is_ok() {
    let server = serve(0x00);
    let mut conn =
        BlockingConn::connect(server.local_addr(), Duration::from_secs(5)).expect("dial");
    assert_eq!(conn.call_many(&[]).expect("empty"), Vec::<Vec<u8>>::new());
}

#[test]
fn large_payload_roundtrip() {
    let server = serve(0x11);
    let client = TcpClient::connect(server.local_addr(), TcpClientConfig::default()).expect("dial");
    // Big enough to exercise partial reads/writes and outbound queuing.
    let big: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
    let resp = client.call(&big).expect("call");
    assert_eq!(resp.len(), big.len() + 1);
    assert_eq!(resp[0], 0x11);
    assert_eq!(&resp[1..], &big[..]);
}

#[test]
fn cluster_runs_over_sockets() {
    let servers: Vec<TcpServer> = (0..3).map(|i| serve(0xC0 + i as u8)).collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let cluster = Cluster::connect_tcp(&addrs, Duration::from_secs(5)).expect("connect");
    for i in 0..3 {
        let resp = cluster.call(i, b"ping".to_vec()).expect("call");
        assert_eq!(resp[0], 0xC0 + i as u8);
        assert_eq!(&resp[1..], b"ping");
    }
    let all: Vec<_> = cluster
        .call_quorum_rounds(
            (0..3).map(|i| vec![(i, b"fan".to_vec())]).collect(),
            1,
            &QuorumOptions::default(),
        )
        .into_iter()
        .enumerate()
        .collect();
    assert!(all.iter().all(|(_, r)| r.is_ok()));
    let mut cluster = cluster;
    cluster.shutdown();
}

/// Names of this process's threads whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

#[test]
#[cfg(target_os = "linux")]
fn a_tcp_cluster_runs_no_provider_threads() {
    let servers: Vec<TcpServer> = (0..3).map(|i| serve(0xD0 + i as u8)).collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let cluster = Cluster::connect_tcp(&addrs, Duration::from_secs(5)).expect("connect");
    let got = cluster
        .call_quorum((0..3).map(|i| (i, b"q".to_vec())).collect(), 2)
        .expect("quorum");
    assert!(got.len() >= 2);
    assert_eq!(threads_named("dasp-provider-"), Vec::<String>::new());
    assert!(
        threads_named("dasp-tcp-reader").len() >= 3,
        "one reader per provider"
    );
}

#[test]
fn a_shut_down_tcp_cluster_refuses_calls() {
    let server = serve(0x02);
    // A deadline no test run reaches: only a refusal can end the call.
    let mut cluster =
        Cluster::connect_tcp(&[server.local_addr()], Duration::from_secs(3600)).expect("connect");
    assert!(cluster.call(0, b"up".to_vec()).is_ok());
    cluster.shutdown();
    assert_eq!(cluster.call(0, b"x".to_vec()), Err(RpcError::Closed));
    let sent = cluster.stats().snapshot().messages_sent;
    assert_eq!(sent, 1, "nothing is sent to a closed provider");
}

#[test]
fn a_send_held_by_a_stalled_peer_times_out_no_provider_that_answered() {
    // Provider 2 accepts and never reads, and its request outgrows both
    // socket buffers, so writing it holds the caller for the whole
    // per-attempt deadline — after providers 0 and 1 have answered.
    let servers: Vec<TcpServer> = (0..2).map(|i| serve(0x20 + i as u8)).collect();
    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    addrs.push(stalled.local_addr().expect("addr"));
    let cluster = Cluster::connect_tcp(&addrs, Duration::from_millis(300)).expect("connect");
    let (_peer, _) = stalled.accept().expect("accept");
    let reqs = vec![
        (0, b"a".to_vec()),
        (1, b"b".to_vec()),
        (2, vec![0u8; 16 << 20]),
    ];
    let opts = QuorumOptions {
        retry: RetryPolicy::none(),
        hedge: usize::MAX,
        ..Default::default()
    };
    let got = cluster
        .call_quorum_rounds(vec![reqs], 2, &opts)
        .remove(0)
        .expect("two healthy providers answered");
    assert_eq!(got, vec![(0, b"\x20a".to_vec()), (1, b"\x21b".to_vec())]);
    let health = cluster.health().snapshot();
    for p in 0..2 {
        assert_eq!(
            health.providers[p].total_failures, 0,
            "provider {p} charged"
        );
    }
}

/// Accept one connection on `listener`, wait for the first byte of a
/// request, and drop the connection: a reset in mid-call.
fn reset_after_first_request(listener: &TcpListener) {
    let (mut conn, _) = listener.accept().expect("accept");
    let mut byte = [0u8; 1];
    conn.read_exact(&mut byte).expect("a request");
}

#[test]
fn a_reset_connection_escalates_a_read_at_once() {
    // k = 2 of n = 3 with no hedge: providers 0 and 1 are asked, and
    // provider 0's connection is reset under the request.
    let flaky = TcpListener::bind("127.0.0.1:0").expect("bind");
    let servers: Vec<TcpServer> = (1..3).map(|i| serve(0x30 + i as u8)).collect();
    let mut addrs = vec![flaky.local_addr().expect("addr")];
    addrs.extend(servers.iter().map(|s| s.local_addr()));
    let timeout = Duration::from_secs(30);
    let cluster = Cluster::connect_tcp(&addrs, timeout).expect("connect");
    let opts = QuorumOptions {
        retry: RetryPolicy::none(),
        hedge: 0,
        mode: QuorumMode::FirstK,
        ..Default::default()
    };
    let start = Instant::now();
    let got = std::thread::scope(|s| {
        s.spawn(|| reset_after_first_request(&flaky));
        let reqs = (0..3).map(|p| (p, b"r".to_vec())).collect();
        cluster.call_quorum_rounds(vec![reqs], 2, &opts).remove(0)
    })
    .expect("providers 1 and 2 answer");
    assert_eq!(got, vec![(1, b"\x31r".to_vec()), (2, b"\x32r".to_vec())]);
    assert!(
        start.elapsed() < timeout / 10,
        "waited {:?}",
        start.elapsed()
    );
}

/// Answer every request on `conn` with its own payload, until the
/// client goes away.
fn echo_frames(mut conn: TcpStream) {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
            let reply = encode_frame(frame.token, FrameKind::Response, &frame.payload);
            conn.write_all(&reply).expect("reply");
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => decoder.extend(&buf[..n]),
        }
    }
}

#[test]
fn a_reset_connection_resends_a_read_within_its_attempt() {
    // The one provider asked has no stand-in: only a resend on a fresh
    // connection can answer before the deadline.
    let flaky = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = flaky.local_addr().expect("addr");
    let timeout = Duration::from_secs(30);
    let cluster = Cluster::connect_tcp(&[addr], timeout).expect("connect");
    let opts = QuorumOptions {
        retry: RetryPolicy::none(),
        ..Default::default()
    };
    let start = Instant::now();
    let got = std::thread::scope(|s| {
        s.spawn(|| {
            reset_after_first_request(&flaky);
            echo_frames(flaky.accept().expect("the redial").0);
        });
        let got = cluster
            .call_quorum_rounds(vec![vec![(0, b"again".to_vec())]], 1, &opts)
            .remove(0);
        drop(cluster);
        // Frees the peer should no redial have come.
        drop(TcpStream::connect(addr));
        got
    })
    .expect("the resend is answered");
    assert_eq!(got, vec![(0, b"again".to_vec())]);
    assert!(
        start.elapsed() < timeout / 10,
        "waited {:?}",
        start.elapsed()
    );
}

#[test]
fn dead_server_surfaces_as_timeout() {
    let server = serve(0x01);
    let addr = server.local_addr();
    let cluster = Cluster::connect_tcp(&[addr], Duration::from_millis(300)).expect("connect");
    assert!(cluster.call(0, b"up".to_vec()).is_ok());
    let mut server = server;
    server.shutdown();
    drop(server);
    // The provider process is gone: the client retries inside its error
    // hold, the cluster deadline fires first — a crash looks like a
    // timeout, exactly as with in-process providers.
    let err = cluster
        .call(0, b"down".to_vec())
        .expect_err("server is gone");
    assert!(matches!(err, RpcError::Timeout(_)));
    let mut cluster = cluster;
    cluster.shutdown();
}

#[test]
fn client_reconnects_after_server_restart() {
    let server = serve(0x55);
    let addr = server.local_addr();
    let client = TcpClient::connect(
        addr,
        TcpClientConfig {
            reconnect_backoff: Duration::from_millis(10),
            ..TcpClientConfig::default()
        },
    )
    .expect("dial");
    assert_eq!(client.call(b"one").expect("call")[0], 0x55);
    let mut server = server;
    server.shutdown();
    drop(server);
    // Dead server: calls fail with a typed transport error.
    assert!(client.call(b"two").is_err());
    // Restart on the same port (may need a few tries if the OS lags).
    let mut revived = None;
    for _ in 0..50 {
        match TcpServer::serve(addr, Arc::new(Echo(0x66)), ReactorConfig::default()) {
            Ok(s) => {
                revived = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let _revived = revived.expect("rebind same port");
    // The client heals on its own within a few retries.
    let mut healed = false;
    for _ in 0..100 {
        if let Ok(resp) = client.call(b"three") {
            assert_eq!(resp[0], 0x66);
            healed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(healed, "client never reconnected");
}
