//! P3 good fixture: checked access everywhere, one justified waiver.

pub struct DataSource;

fn decode(v: &[u64]) -> Option<u64> {
    v.first().copied()
}

impl DataSource {
    pub fn select(&self, v: &[u64]) -> Option<u64> {
        decode(v)
    }

    pub fn waived(&self, v: &[u64]) -> u64 {
        // dasp::allow(P3): fixture demonstrates a justified waiver.
        v.first().copied().unwrap()
    }
}

impl DataSource {
    pub fn depth(&self, v: &[u64]) -> usize {
        // A local item: the call below resolves to it, not to the
        // module-level `walk`, though the two share a name.
        fn walk(v: &[u64], at: usize) -> usize {
            match v.get(at) {
                Some(_) => 1 + walk(v, at + 1),
                None => 0,
            }
        }
        walk(v, 0)
    }
}

/// Panics, but no entry point reaches it: `depth` calls its own `walk`.
fn walk(v: &[u64]) -> u64 {
    v[0]
}
