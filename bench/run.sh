#!/usr/bin/env bash
# Builds popbench (release, offline, path dependencies only) and runs it
# with the arguments given:
#
#   bench/run.sh                         the suite: every workload untraced,
#                                        then traced; bench/out/report.json
#   bench/run.sh --null N                N untraced suites on this commit:
#                                        each metric's quartiles and spread
#   bench/run.sh --quick                 miniature suite, a smoke test
#   bench/run.sh --workload W --seed S --seconds T --trace 0|1
#                                        one run, as the driver starts it
#
# Exits non-zero when the build fails or a run's outputs are wrong.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export POPBENCH_OUT="$here/out"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/popbench" "$@"
