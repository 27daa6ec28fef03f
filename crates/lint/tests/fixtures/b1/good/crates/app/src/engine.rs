//! B1 good fixture: bounded ops, WouldBlock-aware I/O and a waived sleep
//! under `execute_read`; a write path that blocks but is not reachable
//! from it.

pub struct ProviderEngine {
    tables: RwLock<u64>,
    write: Mutex<u64>,
    tx: Sender,
    rx: Receiver,
    log: File,
}

impl ProviderEngine {
    pub fn execute_read(&self, stream: &TcpStream, buf: &mut [u8]) -> usize {
        self.peek();
        self.offer(7);
        self.backoff();
        self.fill(stream, buf)
    }

    fn peek(&self) -> u64 {
        let g = self.tables.read();
        *g
    }

    fn offer(&self, v: u64) {
        let _ = self.tx.try_send(v);
        let _ = self.rx.recv_timeout(v);
    }

    fn fill(&self, stream: &TcpStream, buf: &mut [u8]) -> usize {
        match stream.read(buf) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => 0,
            Err(_) => 0,
        }
    }

    fn backoff(&self) {
        // dasp::allow(B1): fixture — a waiver must surface as waived
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    pub fn apply_write(&self) {
        let g = self.write.lock();
        self.log.sync_all();
        drop(g);
    }
}
