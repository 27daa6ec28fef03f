//! P3 closure fixture: `app` depends on `dep` and not on `other`, so the
//! untypable `x.frob()` below can only be `dep`'s `frob`.

pub struct DataSource;

impl DataSource {
    pub fn poke(&self, xs: &[Widget]) -> u64 {
        xs.iter().map(|x| x.frob()).sum()
    }
}
