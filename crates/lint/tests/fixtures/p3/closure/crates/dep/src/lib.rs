pub struct Widget(pub Vec<u64>);

impl Widget {
    pub fn frob(&self) -> u64 {
        self.0[0]
    }
}
