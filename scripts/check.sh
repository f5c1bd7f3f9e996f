#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test suite.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo clippy (-D warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

# Doc-link gate: a doc comment naming a function, module or type that no
# longer exists (a renamed or deleted kernel entry point, say) fails here.
echo "=== cargo doc (-D rustdoc::broken_intra_doc_links) ==="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --no-deps --workspace

echo "=== tier-1: cargo build --release ==="
cargo build --release

echo "=== tier-1: cargo test -q ==="
cargo test -q

# The root manifest is itself a package, so `cargo test -q` above runs only
# its integration tests; every crate's unit tests and `crates/*/tests`
# suites (runtime, check, the serve zero-alloc suite, tensor proptests, …)
# run here.
echo "=== workspace tests: cargo test -q --workspace --exclude temco-repro ==="
cargo test -q --workspace --exclude temco-repro

# Deterministic short mode of the differential + fault-injection harness
# (the workspace tests above run its self-tests; this exercises the
# user-facing `temco check` entry point end to end). Scale up with e.g.
# `cargo run --release --bin temco -- check --iters 500 --faults 100000`.
echo "=== temco check (short mode) ==="
cargo run --release -q -p temco-cli --bin temco -- check --iters 8 --faults 2000 --seed 42

# Model-file loader gate: a truncated `.temco` file must be refused with a
# plain error and exit code 1 — never a panic (101) or an abort.
echo "=== temco info on a truncated model file (exit 1, no panic) ==="
model_dir="$(mktemp -d)"
cargo run --release -q -p temco-cli --bin temco -- compile alexnet --image 64 --save "$model_dir/alexnet.temco" > /dev/null
truncate -s 1000 "$model_dir/alexnet.temco"
status=0
./target/release/temco info "$model_dir/alexnet.temco" 2> /dev/null || status=$?
rm -rf "$model_dir"
if [[ "$status" -ne 1 ]]; then
    echo "temco info on a truncated file exited $status, expected 1" >&2
    exit 1
fi

# Transformer-encoder smoke: build the tiny encoder, compress its weight
# matrices through the per-layer Tucker/CP/TT selector, then gate on
# (a) pass invariance of the compressed graph across all opt levels,
# (b) dense-vs-compressed drift within the tolerance calibrated from the
# selector's own measured per-layer errors, (c) the independent plan
# invariant checker on both alias modes, and (d) aliasing-never-hurts.
echo "=== temco encoder --smoke (compressed-transformer gate) ==="
cargo run --release -q -p temco-cli --bin temco -- encoder --smoke

# Aliasing regression gate: replans the zoo at a pinned quick scale,
# asserts the alias-aware plan beats the alias-free layout on slab bytes
# AND bytes moved (>= 8/10 models strictly), and diffs the numbers against
# the committed results/fig10_quick_baseline.csv. After an intentional
# planner change: ./target/release/fig10_guard --write and commit the csv.
echo "=== fig10 slab / bytes-moved guard ==="
cargo build --release -q -p temco-bench --bin fig10_guard
./target/release/fig10_guard

# Decomposition lowering gate: regenerates Figure 2 for Tucker, CP and TT,
# running each factor chain layer by layer against one convolution with
# the reconstructed kernel; exits non-zero if any row deviates by > 1e-3.
echo "=== fig2_decomposition (factor-chain lowering gate) ==="
cargo build --release -q -p temco-bench --bin fig2_decomposition
./target/release/fig2_decomposition

# Observability overhead gate: interleaved off/on medians of the traced
# engine (fig11-style); fail if span recording costs more than 3%.
echo "=== obs overhead gate (<= ${TEMCO_OBS_GATE_PCT:-3}%) ==="
cargo build --release -q -p temco-bench --bin bench_obs
TEMCO_OBS_GATE_PCT="${TEMCO_OBS_GATE_PCT:-3}" ./target/release/bench_obs

# Serve scaling gate: burst absorption on the event-driven connection
# plane must scale with the worker count — workers=4 is required to
# absorb at least 2x the burst throughput of workers=1 on an identical
# workload (the full sweep lives in `./scripts/bench.sh serve`).
echo "=== serve scaling gate (workers=4 >= 2x workers=1) ==="
cargo build --release -q -p temco-bench --bin bench_serve
./target/release/bench_serve --smoke

# Autotuner smoke gate: tiny trial budget, fixed seed. Asserts candidate
# generation and selection are deterministic, the tuning DB round-trips
# through its on-disk text format, and the selected schedule never loses
# to the hand-tuned default on the smoke shapes (structural: the default
# is always a candidate of the argmin).
echo "=== temco tune --smoke (seeded, deterministic) ==="
cargo run --release -q -p temco-cli --bin temco -- tune --smoke --trials 3 --seed 42

# Flight-recorder + SLO gate: serve a tiny model on the event plane, run
# the loadgen against it, pull a DUMP capture over the wire, require at
# least one request traceable end to end through the capture's flow
# events (accept → admit → queue → batch → reply), and evaluate the run
# against the SLO spec — nonzero exit on burn fails CI here.
echo "=== temco slo --smoke (flight recorder + SLO gate) ==="
cargo run --release -q -p temco-cli --bin temco -- slo --smoke --clients 4 --requests 64

# Opt-in perf smoke: TEMCO_CHECK_BENCH=1 ./scripts/check.sh also refreshes
# BENCH_kernels.json (a few extra minutes; off by default so CI stays fast).
if [[ "${TEMCO_CHECK_BENCH:-0}" == "1" ]]; then
    ./scripts/bench.sh
fi

echo "all checks passed"
