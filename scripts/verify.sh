#!/usr/bin/env bash
# Full verification gate: format, lint, build, test.
#
# Lint/format are scoped to the first-party crates/ members; the vendored
# dependency shims under vendor/ are third-party-style code we keep
# byte-stable and don't hold to the same style bar.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier-1 wall guard: one 56 s test once hid in a 63 s binary for a whole
# round; no test binary may run longer than this.
TEST_BINARY_LIMIT_S=30

FIRST_PARTY=()
for c in crates/*; do
    FIRST_PARTY+=(-p "$(basename "$c")")
done

echo "==> cargo fmt --check (first-party crates)"
for c in crates/*; do
    (cd "$c" && cargo fmt --check)
done

echo "==> cargo clippy --all-targets -D warnings (first-party crates)"
cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings

echo "==> cargo doc --no-deps -D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet "${FIRST_PARTY[@]}"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (no test binary over ${TEST_BINARY_LIMIT_S}s)"
test_out="$(cargo test -q 2>&1 | tee /dev/stderr)"
# `-q` names no binary: the k-th result line belongs to the k-th
# executable `cargo test --no-run` lists; doc-test runs follow them.
slow="$(grep '^test result:' <<<"$test_out" | awk -v limit="$TEST_BINARY_LIMIT_S" \
    '{ s = $NF; sub(/s$/, "", s); if (s + 0 > limit) print NR, s }')"
if [[ -n "$slow" ]]; then
    mapfile -t bins < <(cargo test --no-run 2>&1 | sed -n 's/^ *Executable //p')
    while read -r k secs; do
        echo "verify: FAILED: a test binary ran ${secs}s: ${bins[k - 1]:-a doc-test run}" >&2
    done <<<"$slow"
    exit 1
fi

# --locked: a first-party manifest edge that would rewrite the committed
# bench/Cargo.lock fails here instead of silently editing a file under bench/.
echo "==> bench/ builds and its own tests pass, --locked (a renamed public item or a moved lock file must break here)"
cargo build --release --offline --locked --manifest-path bench/Cargo.toml
cargo test --offline --locked --manifest-path bench/Cargo.toml

echo "==> bench/run.sh --quick (four workloads, both phases: byte-identical passes, bypass matrix, traced replay == run_epoch)"
bash bench/run.sh --quick >/dev/null

# Model time is exact per seed: any move is declared and re-baselined
# (scripts/model_clock.sh), like a golden row.
echo "==> model clock equals BENCH_model.json"
bash scripts/model_clock.sh --check

# `--fleet 16` is left out: its contended "advantage widens" claim fails.
for args in "" "--router --oversubscribe --churn --fleet 2" "--fleet 4" "--fleet 8"; do
    echo "==> servectl $args"
    cargo run --release -q -p legion-bench --bin servectl -- $args
done

echo "verify: OK"
