//! The gated service and the poll helper the `tcp_server*` tests share.
#![allow(dead_code)] // each test binary uses its own part

use dasp_net::{ReactorConfig, SharedService, TcpServer};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The first request byte picks the behaviour:
/// `r` — a "read": promised inline, answers at once;
/// `w` — a "write": reports on `entered`, then parks until `release`
///       holds a token;
/// `b` — not inline, answers at once with [`BIG`] bytes;
/// anything else — not inline, answers at once.
/// Every answer starts with the name of the thread that ran the handler
/// and a `|`, then echoes the request (`b`: then pads to [`BIG`]).
pub struct Gated {
    entered: Sender<()>,
    /// Parked writers queue on the lock; each token frees one of them.
    release: Mutex<Receiver<()>>,
}

pub const BIG: usize = 512 * 1024;

impl SharedService for Gated {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if request.first() == Some(&b'w') {
            self.entered.send(()).expect("test dropped `entered`");
            let release = self.release.lock().expect("a writer panicked");
            release.recv().expect("test dropped `release`");
        }
        let mut out = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .as_bytes()
            .to_vec();
        out.push(b'|');
        out.extend_from_slice(request);
        if request.first() == Some(&b'b') {
            out.resize(BIG, 0);
        }
        out
    }

    fn runs_inline(&self, request: &[u8]) -> bool {
        request.first() == Some(&b'r')
    }
}

/// The test's end of a [`Gated`] service.
pub struct Gates {
    pub entered: Receiver<()>,
    pub release: Sender<()>,
    /// The served service, to count who still holds it.
    pub service: Arc<Gated>,
}

pub fn serve_gated(cfg: ReactorConfig) -> (TcpServer, Gates) {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let service = Arc::new(Gated {
        entered: entered_tx,
        release: Mutex::new(release_rx),
    });
    let server = TcpServer::serve("127.0.0.1:0", service.clone(), cfg).expect("bind");
    let gates = Gates {
        entered,
        release,
        service,
    };
    (server, gates)
}

/// `(thread name, echoed request)` of one response.
pub fn parse(response: &[u8]) -> (String, Vec<u8>) {
    let bar = response
        .iter()
        .position(|&b| b == b'|')
        .expect("no thread name in response");
    (
        String::from_utf8_lossy(&response[..bar]).into_owned(),
        response[bar + 1..].to_vec(),
    )
}

/// Poll `cond` until it holds. The deadline guards against a hang; no
/// verdict depends on how long a poll takes.
pub fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}
