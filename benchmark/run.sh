#!/usr/bin/env bash
# The one command of the benchmark: builds the harness offline, then
# passes every argument through to it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                 one run under the driver's contract
#   run.sh [--quick] [--seed <n>] [--out <file>]
#                                 the whole suite, 5 repetitions interleaved
#   run.sh --compare <a.json> <b.json>
#                                 apply the bounds to two suite results
#   run.sh --bless                rewrite expected/ (benchmark changes only)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR names a directory of the caller's checkout;
# cargo would resolve it against the manifest's directory instead.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/powerapi-benchmark" "$@"
