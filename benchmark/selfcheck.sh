#!/bin/sh
# Runs two full sets of the same build, three runs per workload each, and
# has `faas-bench compare` judge the second against the first with the
# bounds in BENCHMARK.json: no verdict may be "Worse" and nothing may fail.
# This is the A/A test of the benchmark itself.
#
#   benchmark/selfcheck.sh [--seed S] [--seconds N]
#
# Result files are left under $CARGO_TARGET_DIR/faas-bench-work/.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR="$target"

seed=1
seconds=20
# Runs per workload and set, with seeds S, S+1, S+2: one 20 s run's
# setup_s differs by more than its bound between spells of a shared host.
runs=3
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "usage: selfcheck.sh [--seed S] [--seconds N]" >&2; exit 2 ;;
    esac
    shift 2
done

out=$target/faas-bench-work
mkdir -p "$out"
for set in a b; do
    rm -f "$out/selfcheck-$set.json"
    for workload in sim_sweep serve_warm serve_churn_http cluster_mixed; do
        run=0
        while [ "$run" -lt "$runs" ]; do
            sh "$here/run.sh" --workload "$workload" --seed "$((seed + run))" \
                --seconds "$seconds" --trace 0 --out "$out/selfcheck-$set.json" >/dev/null
            run=$((run + 1))
        done
        echo "selfcheck: set $set $workload done" >&2
    done
done
exec "$target/release/faas-bench" compare "$out/selfcheck-a.json" "$out/selfcheck-b.json" \
    --benchmark-json "$root/BENCHMARK.json"
