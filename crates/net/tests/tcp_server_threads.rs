//! What `TcpServer`'s threads cost while nothing happens, and that none
//! outlives `shutdown` — both read off `/proc/self/task`, which shows
//! every thread of the process: the tests here run one at a time, in a
//! test binary of their own.
#![cfg(target_os = "linux")]

mod common;

use common::{eventually, serve_gated};
use dasp_net::{encode_frame, BlockingConn, FrameKind, ReactorConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// `tid → (name, scheduler state, on-CPU ns)` of every thread this
/// process runs under one of `TcpServer`'s names.
fn server_threads() -> BTreeMap<u64, (String, char, u64)> {
    let mut threads = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
    {
        let read = |file: &str| std::fs::read_to_string(entry.path().join(file));
        // A thread can exit between the listing and the reads.
        let (Ok(comm), Ok(stat), Ok(schedstat)) = (read("comm"), read("stat"), read("schedstat"))
        else {
            continue;
        };
        let name = comm.trim_end();
        let ours = ["dasp-reactor-", "dasp-acceptor", "dasp-tcp-worker"];
        if !ours.iter().any(|prefix| name.starts_with(prefix)) {
            continue;
        }
        let tid = entry.file_name().to_string_lossy().parse().expect("tid");
        // `pid (comm) state ...`: the state follows the last `)`.
        let state = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.trim_start().chars().next())
            .expect("state in stat");
        let on_cpu_ns = schedstat
            .split_ascii_whitespace()
            .next()
            .and_then(|ns| ns.parse().ok())
            .expect("a kernel with scheduler statistics");
        threads.insert(tid, (name.to_string(), state, on_cpu_ns));
    }
    threads
}

/// `n` connections that have each completed one exchange (through the
/// pool: `x` is not inline).
fn exchange_on(addr: SocketAddr, n: usize) -> Vec<BlockingConn> {
    (0..n)
        .map(|_| {
            let mut conn = BlockingConn::connect(addr, Duration::from_secs(5)).expect("dial");
            conn.call(b"x").expect("call");
            conn
        })
        .collect()
}

/// After `shutdown`: no server thread is left and the address binds at
/// the first attempt.
fn assert_gone(addr: SocketAddr) {
    // `join` returns when a thread has finished running, which is a
    // moment before the kernel drops it from `/proc`.
    eventually("no server thread is left", || server_threads().is_empty());
    drop(TcpListener::bind(addr).expect("the port is free again"));
}

#[test]
fn an_idle_server_uses_no_cpu_at_all() {
    let _alone = alone();
    let (server, _gates) = serve_gated(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    let _conns = exchange_on(server.local_addr(), 4);
    // Wait until every server thread is back in its blocking call: all
    // asleep in two scans in a row with nothing having run in between.
    let mut before = server_threads();
    eventually("every server thread blocks", || {
        let again = server_threads();
        let settled = again == before && again.values().all(|(_, state, _)| *state == 'S');
        before = again;
        settled
    });
    // Nothing wakes a blocked thread but a byte, a connection or a job.
    // The claim is an equality, so the length of the interval is not a
    // margin: the parent commit's threads woke 1000 times a second.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(server_threads(), before, "an idle server thread ran");
    let names: Vec<&str> = before.values().map(|(name, _, _)| name.as_str()).collect();
    assert_eq!(
        names.len(),
        6,
        "acceptor, 4 connections, 1 worker: {names:?}"
    );
}

#[test]
fn shutdown_with_idle_connections_leaves_nothing_behind() {
    let _alone = alone();
    let (mut server, gates) = serve_gated(ReactorConfig::default());
    let addr = server.local_addr();
    let mut conns = exchange_on(addr, 3);
    server.shutdown();
    assert_gone(addr);
    for conn in &mut conns {
        conn.call(b"x").expect_err("the connection was closed");
    }
    server.shutdown(); // idempotent
    drop(server);
    assert_eq!(Arc::strong_count(&gates.service), 1, "service still held");
}

#[test]
fn shutdown_with_an_idle_acceptor_leaves_nothing_behind() {
    let _alone = alone();
    let (mut server, _gates) = serve_gated(ReactorConfig {
        workers: 0,
        ..ReactorConfig::default()
    });
    let addr = server.local_addr();
    server.shutdown();
    assert_gone(addr);
    assert_eq!(server.stats().accepted, 0, "the wake-up is not a client");
}

#[test]
fn shutdown_waits_for_a_parked_handler_but_closes_its_connection_first() {
    let _alone = alone();
    let (mut server, gates) = serve_gated(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("dial");
    stream
        .write_all(&encode_frame(7, FrameKind::Request, b"w"))
        .expect("request");
    gates.entered.recv().expect("the handler is running");
    let stopping = std::thread::spawn(move || server.shutdown());
    // The peer is cut off while its request is still in service ...
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "a response after shutdown began");
    assert!(
        !stopping.is_finished(),
        "shutdown returned over a live worker"
    );
    // ... and `shutdown` returns once the handler does.
    gates.release.send(()).expect("release");
    stopping.join().expect("shutdown thread");
    assert_gone(addr);
    assert_eq!(Arc::strong_count(&gates.service), 1, "service still held");
}
