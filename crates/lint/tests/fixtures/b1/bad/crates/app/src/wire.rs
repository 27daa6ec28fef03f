//! B1 bad fixture: the decoder feed runs on the connection thread too.

pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    pub fn new() -> Self {
        std::thread::sleep(std::time::Duration::from_millis(1));
        FrameDecoder { buf: Vec::new() }
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.buf.extend_from_slice(bytes);
    }
}
