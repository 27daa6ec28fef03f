#!/usr/bin/env bash
# CI: the whole gate, locally and in the GitHub workflow (which runs
# this script).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== dasp-lint (secrecy hygiene & panic safety, deny-new vs baseline) =="
mkdir -p target
cargo run -q -p dasp-lint -- --explain-new --baseline lint-baseline.json --format json > target/lint-report.json

echo "== dasp-lint smoke (seeded violations must be caught) =="
smoke="$(mktemp -d)"
mkdir -p "$smoke/crates/app/src"
cat > "$smoke/crates/app/src/lib.rs" <<'EOF'
pub struct DataSource;
impl DataSource {
    pub fn boom(&self, v: &[u64]) -> u64 {
        v[0]
    }
}
EOF
if cargo run -q -p dasp-lint -- --root "$smoke" --deny-all > /dev/null 2>&1; then
    echo "smoke FAILED: seeded P3 violation was not caught" >&2
    rm -rf "$smoke"
    exit 1
fi
cat > "$smoke/crates/app/src/engine.rs" <<'EOF'
pub struct ProviderEngine {
    log: File,
}
impl ProviderEngine {
    pub fn execute_read(&self) {
        self.log.sync_all();
    }
}
EOF
report="$(cargo run -q -p dasp-lint -- --root "$smoke" --format json 2>/dev/null)"
if ! grep -q '"rule": "B1"' <<< "$report"; then
    echo "smoke FAILED: seeded B1 fsync on the inline read path was not caught" >&2
    rm -rf "$smoke"
    exit 1
fi
rm -f "$smoke/crates/app/src/engine.rs"
cat > "$smoke/crates/app/src/engine.rs" <<'EOF'
pub struct Wal;
impl Wal {
    pub fn commit(&self, _lsn: u64) {}
}
pub struct ProviderEngine {
    wal: Wal,
    published: RwLock<u64>,
}
impl ProviderEngine {
    pub fn execute_write(&self, snap: u64, lsn: u64) {
        *self.published.write() = snap;
        self.wal.commit(lsn);
    }
}
EOF
report="$(cargo run -q -p dasp-lint -- --root "$smoke" --format json 2>/dev/null)"
if ! grep -q '"rule": "W1"' <<< "$report"; then
    echo "smoke FAILED: seeded W1 publish-before-append violation was not caught" >&2
    rm -rf "$smoke"
    exit 1
fi
rm -f "$smoke/crates/app/src/engine.rs"
cat > "$smoke/crates/app/src/locks.rs" <<'EOF'
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
        let t = self.tables.lock();
        drop(t);
        drop(p);
    }
}
EOF
report="$(cargo run -q -p dasp-lint -- --root "$smoke" --format json 2>/dev/null)"
if ! grep -q '"rule": "C1"' <<< "$report"; then
    echo "smoke FAILED: seeded C1 lock-order cycle was not caught" >&2
    rm -rf "$smoke"
    exit 1
fi
rm -f "$smoke/crates/app/src/locks.rs"
cat > "$smoke/crates/app/src/conn.rs" <<'EOF'
pub struct Conn {
    pub state: Mutex<u32>,
}
fn reader_loop(conn: &Conn) {
    let g = conn.state.lock();
    drop(g);
}
impl Conn {
    pub fn reconnect(&self) {
        let g = self.state.lock();
        let h = std::thread::spawn(|| reader_loop(self));
        let _ = h.join();
        drop(g);
    }
}
EOF
report="$(cargo run -q -p dasp-lint -- --root "$smoke" --format json 2>/dev/null)"
if ! grep -q '"rule": "C2"' <<< "$report"; then
    echo "smoke FAILED: seeded C2 lock-held join deadlock was not caught" >&2
    rm -rf "$smoke"
    exit 1
fi
rm -rf "$smoke"

echo "== dasp-lint timing (full workspace must stay under 5 s) =="
cargo build --release -q -p dasp-lint
start_ms=$(( $(date +%s%N) / 1000000 ))
./target/release/dasp-lint --timing --baseline lint-baseline.json > /dev/null
elapsed_ms=$(( $(date +%s%N) / 1000000 - start_ms ))
echo "full lint run took ${elapsed_ms} ms"
if [ "$elapsed_ms" -ge 5000 ]; then
    echo "timing FAILED: full lint run took ${elapsed_ms} ms (budget 5000 ms)" >&2
    exit 1
fi

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== concurrency stress (provider workers 1 and 4) =="
DASP_PROVIDER_WORKERS=1 cargo test -q -p dasp-server --test concurrent_engine
DASP_PROVIDER_WORKERS=4 cargo test -q -p dasp-server --test concurrent_engine

echo "== kill-and-recover WAL stress (provider workers 1 and 4) =="
DASP_PROVIDER_WORKERS=1 cargo run --release -q -p dasp-bench --bin wal_stress
DASP_PROVIDER_WORKERS=4 cargo run --release -q -p dasp-bench --bin wal_stress

echo "== fault injection over TCP (same suite, socket transport) =="
DASP_TRANSPORT=tcp cargo test -q -p dasp-apps --test fault_injection

echo "== transport equivalence (channel vs tcp) =="
cargo test -q -p dasp-apps --test transport_equivalence

echo "== dasp-benchmark: own tests, then every workload verified against the oracle (--quick) =="
cargo test -q --manifest-path benchmark/Cargo.toml --target-dir target
bash benchmark/run.sh --quick > /dev/null

echo "== cargo bench --no-run =="
cargo bench --no-run --workspace

echo "CI green."
