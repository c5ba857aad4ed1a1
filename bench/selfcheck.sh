#!/usr/bin/env bash
# Does the benchmark repeat? Runs two complete sets back to back on the
# same build and compares them with the benchmark's own bounds:
# model-clock metrics must be bit-equal, host-clock end-to-end metrics
# within their bound. Prints, per workload and metric, both values and
# the relative difference beside the bound, and how far the raw and the
# normalised host numbers each moved.
#
#   bash bench/selfcheck.sh            two clean sets (about 6 minutes)
#   bash bench/selfcheck.sh --hog      the second set runs beside a thread
#                                      of gathers on the other core, to
#                                      record how far normalised and raw
#                                      numbers each move under a known
#                                      neighbour (differences reported,
#                                      not judged)
#   bash bench/selfcheck.sh --quick    smoke test of this script
set -euo pipefail

cd "$(dirname "$0")/.."

hog=()
extra=()
for arg in "$@"; do
    case "$arg" in
    --hog) hog=(--hog) ;;
    *) extra+=("$arg") ;;
    esac
done

out=bench/out/selfcheck
mkdir -p "$out"
workloads=(train_pa serve_steady serve_oversub_drift fleet_churn)
for w in "${workloads[@]}"; do
    bash bench/run.sh --workload "$w" --out "$out/$w.first.json" ${extra[@]+"${extra[@]}"} >/dev/null
done
pairs=()
for w in "${workloads[@]}"; do
    bash bench/run.sh --workload "$w" --out "$out/$w.second.json" ${extra[@]+"${extra[@]}"} ${hog[@]+"${hog[@]}"} >/dev/null
    pairs+=("$out/$w.first.json" "$out/$w.second.json")
done

exec "${CARGO_TARGET_DIR:-.bench_build}/release/legion-perfbench" compare "${pairs[@]}"
