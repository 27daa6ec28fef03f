//! P3 bad fixture: panics reachable from DataSource entry points.

pub struct DataSource;

struct Shares;

impl Shares {
    fn pick(&self, v: &[u64]) -> u64 {
        v[0]
    }
}

fn decode(v: &[u64]) -> u64 {
    let s = Shares;
    s.pick(v)
}

impl DataSource {
    pub fn select(&self, v: &[u64]) -> u64 {
        decode(v)
    }

    pub fn first(&self, v: &[u64]) -> u64 {
        v.first().copied().unwrap()
    }

    pub fn sample(&self, rng: &Rng, pool: &[u64]) -> u64 {
        rng.next_u64(pool)
    }
}

fn orphan(v: &[u64]) -> u64 {
    v[1]
}

impl DataSource {
    pub fn last(&self, v: &[u64]) -> u64 {
        // A local item is reached through its enclosing fn.
        fn tail(v: &[u64]) -> u64 {
            v[v.len() - 1]
        }
        tail(v)
    }
}
