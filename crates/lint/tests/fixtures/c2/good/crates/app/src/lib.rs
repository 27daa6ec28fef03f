//! C2 good fixture: the fixed shapes of the bad fixture.
//!
//! `Conn::reconnect` drops the state guard *before* joining the reader
//! (the e3a2826 fix); `pipeline` is plain producer/consumer flow — the
//! bounded job send and the worker's recv of the same channel unblock
//! each other, which is rendezvous, not deadlock. One known lock-held
//! join is waived with a reason.

pub struct Conn {
    pub state: Mutex<u32>,
}

fn reader_loop(conn: &Conn) {
    let g = conn.state.lock();
    drop(g);
}

impl Conn {
    pub fn reconnect(&self) {
        let g = self.state.lock();
        drop(g);
        let h = std::thread::spawn(|| reader_loop(self));
        let _ = h.join();
    }
}

pub fn pipeline() {
    let (job_tx, job_rx) = bounded(1);
    let h = std::thread::spawn(move || worker(job_rx));
    feed(job_tx);
    let _ = h.join();
}

fn feed(job_tx: Sender<u32>) {
    let _ok = job_tx.send(1);
}

fn worker(job_rx: Receiver<u32>) {
    let _j = job_rx.recv();
}

pub struct Flusher {
    pub buf: Mutex<u32>,
}

fn flush_loop(f: &Flusher) {
    let g = f.buf.lock();
    drop(g);
}

impl Flusher {
    pub fn shutdown(&self) {
        let g = self.buf.lock();
        let h = std::thread::spawn(|| flush_loop(self));
        // dasp::allow(C2): the flusher thread exits before shutdown is
        // callable (single-owner handoff); the join cannot block on `buf`.
        let _ = h.join();
        drop(g);
    }
}

/// A send after the write guard is dropped, and one under a shared read
/// guard.
pub struct Channel;

impl Channel {
    pub fn send(&self, _v: u64) {}
}

pub fn send_after_drop(tables: &RwLock<u32>, ch: &Channel) {
    let g = tables.write();
    drop(g);
    ch.send(7);
}

pub fn send_under_read(tables: &RwLock<u32>, ch: &Channel) {
    let g = tables.read();
    ch.send(7);
    drop(g);
}
