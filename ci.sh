#!/usr/bin/env bash
# The full static-analysis + test gate, in the order cheapest-first so a
# formatting slip fails in seconds, not after a full build.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p xtask -- lint"
cargo run -p xtask -- lint

# Rustdoc gate: an intra-doc link to a private item, or to a name that no
# longer exists, fails here instead of rendering as plain text. The
# vendored shims are left out.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps -p <first-party crates>"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps -p plos -p plos-bench -p plos-ckpt \
    -p plos-core -p plos-exec -p plos-linalg -p plos-lint -p plos-ml -p plos-net -p plos-obs \
    -p plos-opt -p plos-sensing -p xtask

# Dynamic checkers complement the plos-lint static rules. Miri interprets
# the pure wire/digest crates (framing, JSON, digests — no threads, no
# blocking I/O in their unit tests) and catches UB the syntactic rules
# cannot see. It needs a nightly toolchain with the miri component, so the
# step probes first and skips with a visible notice when unavailable.
echo "==> cargo miri test (wire/digest crates: plos-ckpt, plos-obs)"
if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -q -p plos-ckpt -p plos-obs
else
    echo "    SKIPPED: no nightly miri component on this host" \
         "(rustup +nightly component add miri to enable)"
fi

# ThreadSanitizer build over the concurrency-bearing crates. Opt-in via
# PLOS_TSAN=1 because it requires nightly + rust-src and multiplies test
# runtime; skipped with a visible notice when the toolchain lacks support.
if [ "${PLOS_TSAN:-0}" = "1" ]; then
    echo "==> ThreadSanitizer (PLOS_TSAN=1: plos-exec, plos-obs)"
    tsan_host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src (installed)'; then
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$tsan_host" \
            -p plos-exec -p plos-obs
    else
        echo "    SKIPPED: nightly rust-src unavailable" \
             "(rustup +nightly component add rust-src to enable)"
    fi
else
    echo "==> ThreadSanitizer: opt-in, rerun with PLOS_TSAN=1"
fi

# Each test binary runs once per environment. This step runs every facade
# test at default parallelism, among them the golden-model digest diff
# (tests/golden_models.rs), the mux and shard parity matrices
# (tests/mux_parity.rs, tests/shard_parity.rs) and the pool parity suite
# (tests/parallel_parity.rs).
echo "==> cargo test -q"
cargo test -q

# `cargo test -q` at the root runs only the facade package; the unit tests
# of the first-party crates (the QP solver, the device runner, the trainers
# and their kill-at-every-seam resume chains, the lint fixture corpus, ...)
# need their own -p flags. The vendored shims are left out.
echo "==> cargo test -q -p <first-party crates> (crate unit tests)"
cargo test -q -p plos-bench -p plos-ckpt -p plos-core -p plos-exec -p plos-linalg \
    -p plos-lint -p plos-ml -p plos-net -p plos-obs -p plos-opt -p plos-sensing -p xtask

# The parity suite proves the fork-join pool leaves training output
# bit-identical; `cargo test -q` ran it at default parallelism, this runs it
# pinned to one thread.
echo "==> PLOS_THREADS=1 cargo test -q --test parallel_parity"
PLOS_THREADS=1 cargo test -q --test parallel_parity

# The chaos suite drives distributed training through seeded fault
# injection (drops, delays, corruption, dead devices); pinning the seed
# keeps the injected schedule — and thus the suite — reproducible.
echo "==> PLOS_FAULT_SEED=2024 cargo test -q --test fault_tolerance"
PLOS_FAULT_SEED=2024 cargo test -q --test fault_tolerance

# Trace parity: telemetry must not perturb training. The same seeded runs,
# once dark and once under PLOS_TRACE, must print bit-identical model
# digests — and the traced run must actually produce the per-iteration
# events the observability layer promises (DESIGN.md §9). trace_parity is
# the one parity binary: PLOS_TRACE, PLOS_THREADS and PLOS_NO_SIMD are each
# read once per process, so each setting needs a process of its own.
echo "==> trace parity (PLOS_TRACE on/off, bit-identical models)"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo build -q --release -p plos-bench --bin trace_parity
./target/release/trace_parity > "$trace_tmp/dark.txt"
PLOS_TRACE="$trace_tmp/trace.jsonl" ./target/release/trace_parity > "$trace_tmp/lit.txt"
diff "$trace_tmp/dark.txt" "$trace_tmp/lit.txt"
test -s "$trace_tmp/trace.jsonl"
for event in cccp_round cutting_round admm_round qp_solve span; do
    grep -q "\"event\":\"$event\"" "$trace_tmp/trace.jsonl" \
        || { echo "trace missing $event events"; exit 1; }
done

# Thread parity: the same seeded fits — the quick scale sweep's 20-user
# cohort among them — at a 1-thread and an 8-thread pool must print
# identical model digests. The parallel_parity tests pin this via
# with_threads; this leg exercises the PLOS_THREADS env path end to end
# through the same digest binary.
echo "==> thread parity (PLOS_THREADS=1 vs 8, bit-identical models)"
PLOS_THREADS=1 ./target/release/trace_parity > "$trace_tmp/threads1.txt"
PLOS_THREADS=8 ./target/release/trace_parity > "$trace_tmp/threads8.txt"
diff "$trace_tmp/threads1.txt" "$trace_tmp/threads8.txt"

# SIMD parity: forcing the scalar kernel bodies must not change a single
# bit of any trained model versus the dispatched (AVX2 where the host has
# it) run recorded above in dark.txt.
echo "==> SIMD parity (PLOS_NO_SIMD=1 vs dispatched, bit-identical models)"
PLOS_NO_SIMD=1 ./target/release/trace_parity > "$trace_tmp/nosimd.txt"
diff "$trace_tmp/dark.txt" "$trace_tmp/nosimd.txt"

# Benchmark ledger: a standalone package that imports the trainers' public
# API (reports, topology, checkpoint policy, wire messages). Building and
# unit-testing it here makes an API change that breaks the benchmark fail
# CI instead of the next benchmark run. `--locked` keeps its frozen
# `ledger/Cargo.lock`: a change to any library crate's dependency list fails
# here instead of silently rewriting the benchmark's lock file.
echo "==> benchmark ledger (build + unit tests, --locked)"
cargo build -q --release --locked --manifest-path ledger/Cargo.toml
cargo test -q --locked --manifest-path ledger/Cargo.toml

# Benchmark correctness: one shortest measured run per workload (two passes
# over the six-cohort panel, ~1 min for all four). The ledger exits non-zero
# if a digest drifts between trials, the tree's digests differ from the
# fleet's, accuracy falls below 0.70, or an operation fails.
echo "==> benchmark ledger checks (four workloads, --seconds 0)"
for workload in central_t16 star_t16 fleet_t64 tree_t64; do
    ./ledger/target/release/ledger --workload "$workload" --seed 1 --seconds 0 --trace 0 \
        > "$trace_tmp/ledger_$workload.json"
done

# Scale smoke: the quick Sec. VI-E sweep plus one 1000-user distributed
# point through the mux runner, with the OS thread count bounded by the
# pool instead of the fleet, must train end to end. A quick run prints its
# tables and writes no file.
echo "==> scale smoke (scale_suite --quick, 1000-user mux point)"
cargo build -q --release -p plos-bench --bin scale_suite
./target/release/scale_suite --quick > "$trace_tmp/scale_quick.txt"
grep -Eq '^ +1000 ' "$trace_tmp/scale_quick.txt" \
    || { echo "scale smoke missing the 1000-user mux point"; exit 1; }

echo "==> cargo test -q --features strict-invariants"
cargo test -q --features strict-invariants

echo "ci: all gates passed"
