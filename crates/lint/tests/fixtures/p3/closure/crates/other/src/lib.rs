pub struct Gadget(pub Vec<u64>);

impl Gadget {
    pub fn frob(&self) -> u64 {
        self.0[1]
    }
}
