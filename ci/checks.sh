#!/usr/bin/env bash
# The checks that need a real subprocess: interpreter start, process exit
# codes and stderr, wall-clock bounds and the perfbench runs.  Every other
# assertion lives in the Tier-1 tests.  It takes no arguments and needs no
# network; run it from anywhere in a source checkout:
#
#     bash ci/checks.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
tmp=$(mktemp -d)
# perfbench/run.py writes each run to a fixed perfbench/out/ path, where
# the long benchmark records live; keep them and put them back on exit
shopt -s nullglob
records=(perfbench/out/*.json perfbench/out/*.npz)
mkdir "$tmp/records"
restore() {
    local saved=("$tmp"/records/*)
    if [ ${#saved[@]} -gt 0 ]; then cp -p "${saved[@]}" perfbench/out/; fi
    rm -rf "$tmp"
}
trap restore EXIT
if [ ${#records[@]} -gt 0 ]; then cp -p "${records[@]}" "$tmp/records/"; fi

# usage_error ARGS...: ntkms ARGS exits 2 within 30 s, with nothing on
# stdout and an error: line, but no traceback, on stderr
usage_error() {
    local code=0
    timeout 30 python3 -m ntkms "$@" > "$tmp/out" 2> "$tmp/err" || code=$?
    if [ "$code" -ne 2 ] || [ -s "$tmp/out" ] || ! grep -q '^error:' "$tmp/err" \
        || grep -q Traceback "$tmp/err"; then
        echo "ntkms $*: exit $code, want 2" >&2
        cat "$tmp/err" >&2
        return 1
    fi
}

# same_bytes ARGS...: verify prints the same bytes under two hash seeds
same_bytes() {
    PYTHONHASHSEED=1 python3 -m ntkms verify "$@" > "$tmp/first"
    PYTHONHASHSEED=2 python3 -m ntkms verify "$@" > "$tmp/second"
    cmp "$tmp/first" "$tmp/second"
}

# bench WORKLOAD SEED TRACE: a 5 s perfbench run whose last line is correct
bench() {
    python3 perfbench/run.py --workload "$1" --seed "$2" --seconds 5 --trace "$3" > "$tmp/bench"
    tail -n 1 "$tmp/bench"
    tail -n 1 "$tmp/bench" | grep -q '"correct": true'
}

for system in affine-toeplitz lattice-dilation cuntz; do
    same_bytes --system "$system" --seed 7 --suite all
done
states=(--suite kms --suite trace --suite ground --suite reconstruct --suite euler)
same_bytes --system lattice-dilation --d 2 --seed 7 "${states[@]}"
same_bytes --system cuntz --k 3 --seed 11 "${states[@]}"

# the rank s^2 and 3^n structure suites pass under wall-clock bounds
timeout 12 python3 -m ntkms verify --system lattice-dilation --d 2 --seed 7 --suite structure > /dev/null
timeout 11 python3 -m ntkms verify --system cuntz --k 3 --seed 7 --suite structure > /dev/null
# the scaling identity compares once per basis index, so the rank s^4 kms suite ends
timeout 10 python3 -m ntkms verify --system lattice-dilation --d 4 --seed 7 --suite kms > /dev/null

# windows past the associativity cell cap are refused before any grid is built
usage_error verify --system cuntz --k 4 --suite structure
usage_error verify --system lattice-dilation --d 3 --suite structure

# exact normal-form identities; traced runs, since the tracer patches
# product-system and KMSContext methods by name
bench normal-form 1 0
bench verify 1 1
bench kms-sweep 1 1
# every sweep value within its tail: seed 2 runs other betas through the
# held zeta prefix, and seed 3 had the most rounding misses before the
# tails counted rounding
for seed in 1 2 3; do
    bench kms-sweep "$seed" 0
    grep -Eq '^tail violations per pass \[0(, 0)*\]$' "$tmp/bench"
done
echo "ci/checks.sh: all checks passed"
