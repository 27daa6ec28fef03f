//! C2 turbofish fixture: the bounded ring of `c2/bad`, with both
//! channels built by `bounded::<u64>(…)`.

pub fn pipeline() {
    let (job_tx, job_rx) = bounded::<u64>(1);
    let (res_tx, res_rx) = bounded::<u64>(1);
    let h = std::thread::spawn(move || worker(job_rx, res_tx));
    feed(job_tx, res_rx);
    let _ = h.join();
}

fn feed(job_tx: Sender<u64>, res_rx: Receiver<u64>) {
    let _ok = job_tx.send(1);
    let _r = res_rx.recv();
}

fn worker(job_rx: Receiver<u64>, res_tx: Sender<u64>) {
    let _j = job_rx.recv();
    let _ok = res_tx.send(2);
}
