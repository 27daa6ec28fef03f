//! B1 bad fixture: blocking operations reachable from `execute_read`,
//! the path a connection thread runs inline.

pub struct Wal;

impl Wal {
    pub fn append_durable(&self, _rec: u64) -> u64 {
        0
    }
}

fn spill(f: &File) {
    f.sync_all();
}

pub struct ProviderEngine {
    write: Mutex<u64>,
    tx: Sender,
    wal: Wal,
    log: File,
}

impl ProviderEngine {
    pub fn execute_read(&self) -> u64 {
        self.probe();
        self.pump(7);
        spill(&self.log);
        self.nap();
        self.log_durable(1)
    }

    fn probe(&self) {
        let g = self.write.lock();
        drop(g);
    }

    fn pump(&self, v: u64) {
        self.tx.send(v);
    }

    fn nap(&self) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    fn log_durable(&self, rec: u64) -> u64 {
        self.wal.append_durable(rec)
    }
}
