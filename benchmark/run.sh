#!/usr/bin/env bash
# The one command: builds the benchmark package and runs every workload,
# each in a child process of its own, printing `workload/metric value unit`
# lines and failing on any correctness miss.
#
#   benchmark/run.sh                      every workload, end to end
#   benchmark/run.sh --traced             ... plus the per-layer run of each
#   benchmark/run.sh --quick              3 cycles each (smoke; not comparable)
#   benchmark/run.sh --seed 7 --seconds 12
#   benchmark/run.sh --selfcheck          two sets of runs, spreads beside bounds
#   benchmark/run.sh --workload ae_bulk --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
case "${1:-}" in
    --selfcheck | --workload) mode=() ;;
    *) mode=(--all) ;;
esac
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "${mode[@]}" "$@"
