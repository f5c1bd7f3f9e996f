#!/usr/bin/env bash
# The one command of the repo's benchmark (see BENCHMARK.json, README.md).
#
#   benchmark/run.sh
#       every workload, untraced (end-to-end metrics) then traced (per-layer
#       metrics, benchmark/out/trace-<workload>.json); prints every metric by
#       name with its unit and writes benchmark/out/results.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is the JSON result
#
# Builds the benchmark package first (into $CARGO_TARGET_DIR if set, else
# benchmark/target), so it can only run from a checkout of the whole repo.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "benchmark/run.sh: the repo's Cargo.toml and crates/ are not here" >&2
  exit 1
fi

# The benchmark is its own workspace, so the root [profile.release] does not
# reach it; the two tables must say the same or it would time another program.
release_profile() {
  awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 } on' "$1" |
    sed -e 's/#.*//' -e 's/[[:space:]]//g' | grep -v '^$' | sort
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
  echo "benchmark/run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
  exit 1
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/temco-benchmark" "$@"
