#!/usr/bin/env bash
# Hot-path microbenchmark runner: builds and runs the `hotpath` criterion
# suite and leaves machine-readable results in BENCH_hotpath.json at the
# repo root (schema: legion-bench-hotpath/v1; ns/op and ops/sec per
# bench, grouped). The `bench_store` group compares out-of-core reads
# against the SSD tier: staged (prefetched), cold, and DRAM-resident.
# The `bench_net` group prices the fleet fabric's remote-charging path:
# per-row vs coalesced per-owner, with and without uplink contention.
# The `bench_mutate` group prices the delta-CSR overlay: applying a
# mutation stream, merging dirty rows at sample time, compaction, and
# the from-scratch rebuild oracle.
# The `bench_plan` group prices the planning path on the PR-shaped graph
# the end-to-end benchmark serves: symmetrisation, the LDG partition,
# CSLP over a sparse window, and `plan_layout` on that window.
# Seeds are fixed, so the output is deterministic modulo the timing
# fields.
#
#   scripts/bench.sh           full measurement run
#   scripts/bench.sh --smoke   shrunken inputs, for CI gating
#
# Compare two snapshots with scripts/bench_compare OLD.json NEW.json —
# it flags >20% ns/op regressions (exit 1 unless --warn-only).
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
    esac
done

if [[ "$SMOKE" == 1 ]]; then
    MODE="SMOKE (shrunken inputs — CI gate only, not comparable to full runs)"
    LEGION_BENCH_SMOKE=1 cargo bench -q -p legion-bench --bench hotpath
else
    MODE="FULL (measurement run)"
    cargo bench -q -p legion-bench --bench hotpath
fi

echo "=================================================================="
echo "bench mode: $MODE"
echo "=================================================================="
echo "bench: OK (BENCH_hotpath.json; diff snapshots with scripts/bench_compare)"
