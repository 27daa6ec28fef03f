#!/usr/bin/env bash
# CI: the whole gate, locally and in the GitHub workflow (which runs
# this script).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== dasp-lint (findings must match the baseline; full workspace under 5 s) =="
mkdir -p target
cargo build --release -q -p dasp-lint
start_ms=$(( $(date +%s%N) / 1000000 ))
./target/release/dasp-lint --deny-new --timing --baseline lint-baseline.json --format json > target/lint-report.json
elapsed_ms=$(( $(date +%s%N) / 1000000 - start_ms ))
echo "full lint run took ${elapsed_ms} ms"
if [ "$elapsed_ms" -ge 5000 ]; then
    echo "timing FAILED: full lint run took ${elapsed_ms} ms (budget 5000 ms)" >&2
    exit 1
fi

echo "== cargo build --release =="
cargo build --release --workspace

echo "== layering (no cipher bignum in the product, no storage under dasp-net, nothing under dasp-crypto) =="
layering_failed() {
    echo "layering FAILED: $1" >&2
    exit 1
}
deps=$(cargo tree --offline -e normal -p dasp-client -p dasp-server)
if grep -q dasp-bigint <<<"$deps"; then layering_failed "dasp-client or dasp-server depends on dasp-bigint"; fi
deps=$(cargo tree --offline -e normal -p dasp-net)
if grep -q dasp-storage <<<"$deps"; then layering_failed "dasp-net depends on dasp-storage"; fi
deps=$(cargo tree --offline -e normal -p dasp-crypto)
if [ "$(wc -l <<<"$deps")" -ne 1 ]; then layering_failed "dasp-crypto has a normal dependency"; fi

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
