//! C1 bad fixture: a two-lock order cycle, closed interprocedurally.
//!
//! `publish` takes `Engine.tables` then `Engine.pool`; `evict` takes
//! `Engine.pool` and then reaches `Engine.tables` through `flush`.
//! Interleaved, each thread waits for the lock the other holds.

pub struct Engine {
    pub tables: Mutex<u32>,
    pub pool: Mutex<u32>,
}

impl Engine {
    pub fn publish(&self) {
        let t = self.tables.lock();
        let p = self.pool.lock();
        drop(p);
        drop(t);
    }

    pub fn evict(&self) {
        let p = self.pool.lock();
        self.flush();
        drop(p);
    }

    fn flush(&self) {
        let t = self.tables.lock();
        drop(t);
    }
}

/// `record` holds `Stats.hits` and calls `reset`, which takes the same
/// mutex again: the lock is not reentrant, so the thread waits for itself.
pub struct Stats {
    pub hits: Mutex<u32>,
}

impl Stats {
    pub fn record(&self) {
        let h = self.hits.lock();
        self.reset();
        drop(h);
    }

    fn reset(&self) {
        let h = self.hits.lock();
        drop(h);
    }
}
