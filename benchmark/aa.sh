#!/usr/bin/env bash
# A/A check: two sets of runs of the same code, judged by the rule the
# benchmark is accepted under (see `a_a` in src/aa.rs). Prints each
# end-to-end metric x workload with its spread against its bound and exits
# non-zero on a violation.
#
#   benchmark/aa.sh [runs per set, default 10]
set -euo pipefail
exec "$(dirname "$0")/run.sh" --aa "${1:-10}"
