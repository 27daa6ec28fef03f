//! P3 turbofish fixture: the panic is reached only through a
//! `helper::<u8>(…)` call.

pub struct DataSource;

fn helper<T>(v: &[u64]) -> u64 {
    v[0]
}

impl DataSource {
    pub fn select(&self, v: &[u64]) -> u64 {
        helper::<u8>(v)
    }
}
