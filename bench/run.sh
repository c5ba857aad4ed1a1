#!/usr/bin/env bash
# The repo's benchmark, one command. Run it from the root of a checkout.
#
#   bash bench/run.sh                       every workload, both phases
#   bash bench/run.sh --workload NAME       one workload, both phases
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                           one phase (the driver's form)
#   bash bench/run.sh --quick               smoke test, numbers not comparable
#   bash bench/run.sh --manifest            print BENCHMARK.json from the tables
#
# Builds bench/ (its own workspace, offline, against the vendored
# shims), runs each workload in a process of its own on one thread,
# prints `workload/metric value unit` for every metric, writes
# bench/out/<workload>.result.json (or --out FILE) and, after a traced
# phase, bench/out/<workload>.trace.json. The last line of standard
# output is the result as one JSON object. Exits non-zero if an output
# check failed.
set -euo pipefail

cd "$(dirname "$0")/.."

# The driver sets CARGO_TARGET_DIR; on your own, build into the same
# place it would.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/legion-perfbench"

workload=""
pass=()
while (($#)); do
    case "$1" in
    --manifest) exec "$bin" manifest ;;
    --workload)
        workload="${2:?--workload takes a name}"
        shift 2
        ;;
    *)
        pass+=("$1")
        shift
        ;;
    esac
done

if [[ -n "$workload" ]]; then
    exec "$bin" run --workload "$workload" ${pass[@]+"${pass[@]}"}
fi

# No workload named: all four, in the contract's order.
status=0
for w in train_pa serve_steady serve_oversub_drift fleet_churn; do
    "$bin" run --workload "$w" ${pass[@]+"${pass[@]}"} || status=$?
done
exit "$status"
