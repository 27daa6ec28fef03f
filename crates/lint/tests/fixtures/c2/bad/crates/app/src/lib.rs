//! C2 bad fixture: both wait-cycle shapes, and sends under a write guard.
//!
//! `Conn::reconnect` is the e3a2826 regression: it holds `Conn.state`
//! while joining the reader thread, and the reader's first act is to
//! lock `Conn.state` — the join can never finish.
//!
//! `pipeline` is a bounded-channel ring: the caller thread blocks
//! sending jobs on a capacity-1 channel while the worker thread blocks
//! sending results back on another capacity-1 channel.

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
        let h = std::thread::spawn(|| reader_loop(self));
        let _ = h.join();
        drop(g);
    }
}

pub fn pipeline() {
    let (job_tx, job_rx) = bounded(1);
    let (res_tx, res_rx) = bounded(1);
    let h = std::thread::spawn(move || worker(job_rx, res_tx));
    feed(job_tx, res_rx);
    let _ = h.join();
}

fn feed(job_tx: Sender<u32>, res_rx: Receiver<u32>) {
    let _ok = job_tx.send(1);
    let _r = res_rx.recv();
}

fn worker(job_rx: Receiver<u32>, res_tx: Sender<u32>) {
    let _j = job_rx.recv();
    let _ok = res_tx.send(2);
}

/// A send made under a write guard, directly and through a helper.
pub struct Channel;

impl Channel {
    pub fn send(&self, _v: u64) {}
}

fn notify(ch: &Channel) {
    ch.send(1);
}

pub fn send_under_write(tables: &RwLock<u32>, ch: &Channel) {
    let g = tables.write();
    ch.send(7);
    drop(g);
}

pub fn send_via_helper(tables: &RwLock<u32>, ch: &Channel) {
    let g = tables.write();
    notify(ch);
    drop(g);
}
