//! C1 good fixture: every path takes `Engine.tables` before
//! `Engine.pool` — same shapes as the bad fixture, no cycle — plus one
//! known two-lock ring that is waived with a reason.

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
        let t = self.tables.lock();
        self.reclaim();
        drop(t);
    }

    fn reclaim(&self) {
        let p = self.pool.lock();
        drop(p);
    }
}

pub struct Journal {
    pub log: Mutex<u32>,
    pub index: Mutex<u32>,
}

impl Journal {
    pub fn rotate(&self) {
        let l = self.log.lock();
        let i = self.index.lock();
        drop(i);
        drop(l);
    }

    pub fn compact(&self) {
        let i = self.index.lock();
        // dasp::allow(C1): rotate and compact both run on the single
        // maintenance thread, never concurrently; the ring is unreachable.
        let l = self.log.lock();
        drop(l);
        drop(i);
    }
}

/// Two distinct mutexes held together, and a mutex taken before an
/// `RwLock` in one fn and after it in another: every pair is a
/// different pair of locks, so no order cycle.
pub fn double_mutex(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}

pub fn inversion(shard: &Mutex<u32>, tables: &RwLock<u32>) {
    let g = shard.lock();
    let t = tables.read();
    drop(t);
    drop(g);
}

pub fn declared_order(tables: &RwLock<u32>, shard: &Mutex<u32>) {
    let t = tables.read();
    let s = shard.lock();
    drop(s);
    drop(t);
}
