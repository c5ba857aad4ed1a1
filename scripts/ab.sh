#!/usr/bin/env bash
# A/B a change against a parent commit on the repo's benchmark, by the
# alternating-pairs protocol of the `choosing-metrics` guide, section 8.
#
#   scripts/ab.sh <parent-ref> [workload ...]
#
# The parent is exported (`git archive`, nothing registered in .git) into
# a scratch directory and built there with a CARGO_TARGET_DIR of its own;
# the change is the working tree, built in place into another. For seeds
# 1..10 and each workload (default: all four) both sides run
#
#   bash bench/run.sh --workload W --seed N --seconds 20 --trace 0 --out ...
#
# the parent first on odd seeds and the change first on even ones. Then,
# per workload and end-to-end metric of BENCHMARK.json: each side's
# median and quartiles, in how many pairs the change read better, and
# the verdict —
#
#   bit-equal    every pair reads the same value (the model clock)
#   gain         better in >= 9/10 of the pairs (ties count for neither)
#                and medians apart by more than the parent's q3 - q1
#   WORSE        median worse than the parent's by more than the bound
#   unresolved   inside the bound, but the parent's own quartile spread
#                is wider than the bound and the runs overlap
#   within       none of the above: no worse than the bound allows
#
# the change side's median pass length per workload (flagged when it is
# below the benchmark's 0.2 s sizing rule, i.e. when a re-size is owed),
# and the share of failed operations on each side. Only bench/'s command
# line is used. AB_DIR names the scratch directory (default: a fresh
# mktemp one; results stay in $AB_DIR/out). AB_SEEDS / AB_SECONDS shorten
# a smoke test of this script; numbers from one are not comparable.
#
# Both sides run with glibc's mmap threshold pinned at 128 KiB. Under
# glibc's dynamic threshold, large buffers can move between the heap and
# mmap from run to run, so host_peak_rss_mib can land in one of several
# modes. On a 2-vCPU Xeon train_pa read 94.7-95.0 MiB pinned and 97.2
# MiB unpinned, serve_steady 101.8-102.2 pinned. bench/run.sh
# itself sets no tunable, so a plain benchmark run is unpinned.
set -euo pipefail
cd "$(dirname "$0")/.."
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072

parent_ref="${1:?usage: scripts/ab.sh <parent-ref> [workload ...]}"
shift
workloads=("$@")
((${#workloads[@]})) || workloads=(train_pa serve_steady serve_oversub_drift fleet_churn)
read -r -a seeds <<<"${AB_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
seconds="${AB_SECONDS:-20}"
work="${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/legion-ab.XXXXXX")}"
change_dir="$PWD"

mkdir -p "$work/parent" "$work/out"
git archive "$parent_ref" | tar -x -C "$work/parent"

# run_side parent|change workload seed: one benchmark process; keeps the
# result file and the one-line JSON summary bench/run.sh prints last.
run_side() {
    local side="$1" w="$2" seed="$3" dir="$change_dir"
    [[ "$side" == parent ]] && dir="$work/parent"
    (cd "$dir" && CARGO_TARGET_DIR="$work/build-$side" bash bench/run.sh \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$work/out/$w.$side.$seed.json") | tail -n 1 >"$work/out/$w.$side.$seed.line"
}

for w in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
        order=(parent change)
        ((seed % 2)) || order=(change parent)
        for side in "${order[@]}"; do
            echo "ab: $w seed $seed $side" >&2
            run_side "$side" "$w" "$seed"
        done
    done
done

# `name better bound` per end-to-end metric, read from BENCHMARK.json.
metrics="$(awk '
    /"end_to_end": *\[/ { on = 1; next }
    on && /^ *\]/       { on = 0 }
    on && /"name":/     { gsub(/[",]/, ""); name = $2 }
    on && /"better":/   { gsub(/[",]/, ""); better = $2 }
    on && /"bound":/    { gsub(/[",]/, ""); print name, better, $2 }
' BENCHMARK.json)"

echo "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change / parent | pairs ahead | verdict |"
echo "|---|---|---|---|---|---|---|"
for w in "${workloads[@]}"; do
    while read -r name better bound; do
        for seed in "${seeds[@]}"; do
            for side in parent change; do
                value="$(grep -o "\"$name\":{\"value\":[^,}]*" "$work/out/$w.$side.$seed.line" | sed 's/.*://')"
                echo "$side $value"
            done
        done | awk -v w="$w" -v name="$name" -v better="$better" -v bound="$bound" '
            function sort(a, n,    i, j, t) {
                for (i = 2; i <= n; i++) {
                    t = a[i]
                    for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                    a[j + 1] = t
                }
            }
            # Linear interpolation between the two nearest ranks.
            function quantile(a, n, p,    h, lo) {
                h = (n - 1) * p + 1; lo = int(h)
                return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
            }
            $1 == "parent" { p[++np] = $2 + 0; ps[np] = $2 }
            $1 == "change" { c[++nc] = $2 + 0; cs[nc] = $2 }
            END {
                sign = better == "higher" ? 1 : -1
                for (i = 1; i <= np; i++) {
                    if (cs[i] == ps[i]) equal++
                    else if (sign * (c[i] - p[i]) > 0) ahead++
                }
                sort(p, np); sort(c, nc)
                pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
                pq1 = quantile(p, np, 0.25); pq3 = quantile(p, np, 0.75)
                cq1 = quantile(c, nc, 0.25); cq3 = quantile(c, nc, 0.75)
                worse = pm != 0 ? sign * (pm - cm) / (pm < 0 ? -pm : pm) : 0
                # Every run of the change better than every run of the parent.
                clear = sign > 0 ? c[1] > p[np] : c[nc] < p[1]
                if (equal == np) verdict = "bit-equal"
                else if (worse > bound) verdict = "WORSE"
                else if (ahead >= 0.9 * np && sign * (cm - pm) > pq3 - pq1) verdict = "gain"
                else if (pm != 0 && (pq3 - pq1) / pm > bound && !clear) verdict = "unresolved"
                else verdict = "within"
                printf "| `%s` | `%s` | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.3f | %d/%d | %s |\n", \
                    w, name, pm, pq1, pq3, cm, cq1, cq3, pm != 0 ? cm / pm : 1, ahead, np, verdict
            }'
    done <<<"$metrics"
done

# The change side's median pass length per workload, from each result
# file: operations per pass (`attempted` / passes) over the un-normalised
# `host_seeds_per_s`. bench/README.md sizes a pass at 0.2 s or more.
echo
for w in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
        awk '
            /"attempted":/          { gsub(/,/, ""); attempted = $2 }
            /"host_seeds_per_s": *{/ { on = 1 }
            on && /"n":/            { gsub(/,/, ""); n = $2 }
            on && /"raw_value":/    { print attempted / n / $2; exit }
        ' "$work/out/$w.change.$seed.json"
    done | sort -g | awk -v w="$w" '
        { a[NR] = $1 }
        END {
            m = NR % 2 ? a[(NR + 1) / 2] : (a[NR / 2] + a[NR / 2 + 1]) / 2
            printf "%s change: median pass %.3f s%s\n", w, m, \
                m < 0.2 ? " -- below the 0.2 s sizing rule: the benchmark owes a re-size (ROADMAP 3(a))" : ""
        }'
done

echo
for w in "${workloads[@]}"; do
    for side in parent change; do
        for seed in "${seeds[@]}"; do cat "$work/out/$w.$side.$seed.line"; done | awk -v w="$w" -v side="$side" '
            { match($0, /"attempted":[0-9]+/); a += substr($0, RSTART + 12, RLENGTH - 12)
              match($0, /"failed":[0-9]+/);    f += substr($0, RSTART + 9, RLENGTH - 9)
              if ($0 !~ /"correct":true/) bad++ }
            END { printf "%s %s: failed %d of %d attempted, %d run(s) with a failed output check\n", w, side, f, a, bad }'
    done
done
echo "results: $work/out"
