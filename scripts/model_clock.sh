#!/usr/bin/env bash
# The model-clock trajectory: every benchmark workload at seeds 1-3,
# model-clock metrics (`model_*`) only. Model time is exact per seed on
# any two builds with the same behaviour, so the committed readings are
# compared by equality, like a golden row.
#
#   scripts/model_clock.sh            re-baseline: rewrite BENCH_model.json
#   scripts/model_clock.sh --check    compare a fresh run with BENCH_model.json,
#                                     print each mover on a line of its own
#                                     and exit 1 if anything moved; also
#                                     exit 1 if the last BENCH_history.jsonl
#                                     line's `model` differs from its rows
#
# Each reading is `bash bench/run.sh --workload W --seed N --quick --trace 0`
# (about 25 s for all twelve). A row is `"workload/seed/metric": value`,
# the value exactly as the benchmark printed it.
#
# BENCH_history.jsonl is the trajectory: one JSON object per PR, appended
# and never edited, with `pr`, `commit` (null on the line a commit adds
# about itself), `parent`, `kind`, `model` (its BENCH_model.json rows) and
# `ab` (scripts/ab.sh verdicts, when run).
set -euo pipefail
# A failed reading inside `$(rows)` must stop the script too.
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

BASELINE=BENCH_model.json
HISTORY=BENCH_history.jsonl
WORKLOADS=(train_pa serve_steady serve_oversub_drift fleet_churn)
SEEDS=(1 2 3)

mode="${1:-}"
case "$mode" in
"" | --check) ;;
*)
    echo "usage: scripts/model_clock.sh [--check]" >&2
    exit 2
    ;;
esac

# committed_rows: BENCH_model.json's rows, one `"workload/seed/metric": value`
# line each.
committed_rows() {
    grep -E '^ +"[a-z_]+/[0-9]+/model_' "$BASELINE" | sed -E 's/^ +//; s/,$//'
}

# A re-baseline appends its history line: the last line's `model` object
# holds the committed rows, value for value as printed.
if [[ "$mode" == --check ]]; then
    history="$(tail -n 1 "$HISTORY" | { grep -oE '"[a-z_]+/[0-9]+/model_[a-z_]+": [^,}]*' || true; } | sort)"
    if ! unequal="$(diff <(echo "$history") <(committed_rows | sort))"; then
        echo "model_clock: the last $HISTORY line's model differs from $BASELINE" \
            "(< history, > baseline):" >&2
        grep -E '^[<>]' <<<"$unequal" >&2
        echo "model_clock: a re-baseline appends its $HISTORY line" >&2
        exit 1
    fi
fi

# rows: one `"workload/seed/metric": value` line per reading.
rows() {
    local w s line
    for w in "${WORKLOADS[@]}"; do
        for s in "${SEEDS[@]}"; do
            line="$(bash bench/run.sh --workload "$w" --seed "$s" --quick --trace 0 | tail -n 1)"
            grep -o '"model_[a-z_]*":{"value":[^,}]*' <<<"$line" |
                sed -E "s|^\"(model_[a-z_]*)\":\\{\"value\":(.*)$|\"$w/$s/\\1\": \\2|"
        done
    done
}

fresh="$(rows)"
expected=$((${#WORKLOADS[@]} * ${#SEEDS[@]} * 3))
if [[ "$(wc -l <<<"$fresh")" -ne "$expected" ]]; then
    echo "model_clock: expected $expected rows, the benchmark printed $(wc -l <<<"$fresh")" >&2
    exit 1
fi
case "$mode" in
"")
    {
        echo '{'
        echo '  "command": "bash bench/run.sh --workload W --seed N --quick --trace 0",'
        echo '  "rows": {'
        sed -e 's/^/    /' -e '$!s/$/,/' <<<"$fresh"
        echo '  }'
        echo '}'
    } >"$BASELINE"
    echo "model_clock: wrote $(wc -l <<<"$fresh") rows to $BASELINE"
    ;;
--check)
    committed="$(committed_rows)"
    # Movers, one per line: `row: old → new (+x %)`; a row on one side
    # only reads `(none)` on the other.
    movers="$(awk -F': ' '
        NR == FNR { old[$1] = $2; next }
        { seen[$1] = 1
          if (!($1 in old)) print $1 ": (none) → " $2
          else if (old[$1] "" == $2 "") next
          else if (old[$1] + 0 == 0) print $1 ": " old[$1] " → " $2
          else printf "%s: %s → %s (%+.3g %%)\n", $1, old[$1], $2, ($2 - old[$1]) * 100 / old[$1] }
        END { for (k in old) if (!(k in seen)) print k ": " old[k] " → (none)" }
    ' <(echo "$committed") <(echo "$fresh"))"
    if [[ -n "$movers" ]]; then
        echo "model_clock: model time moved against $BASELINE:" >&2
        echo "$movers" >&2
        echo "model_clock: if the change is meant, re-baseline with scripts/model_clock.sh" >&2
        exit 1
    fi
    echo "model_clock: $(wc -l <<<"$fresh") rows equal to $BASELINE"
    ;;
esac
