#!/usr/bin/env bash
# One command for the whole benchmark: builds the harness in release mode,
# then hands every argument to it.
#
#   benchmark/run.sh                      every workload untraced, then traced;
#                                         writes benchmark/out/results.json
#   benchmark/run.sh --seed S --repeat N  the same, N untraced runs per workload
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#                                         one run; last stdout line is the result
#   benchmark/run.sh --list               workloads and metrics
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/pasgal-benchmark" "$@"
