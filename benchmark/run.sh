#!/bin/sh
# Builds the servers under test and the harness, then runs one workload.
#
#   benchmark/run.sh --workload W --seed S [--seconds N] [--trace 0|1]
#                    [--out F] [--spans F]
#   benchmark/run.sh --smoke        every workload for two seconds, checks only
#
# Needs only POSIX sh and an offline cargo. Build products and work
# directories go under $CARGO_TARGET_DIR (default: <repo>/target).
set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout's last line is the result.
cargo build --offline --release --manifest-path "$root/Cargo.toml" \
    -p faascache-server --bin faascached --bin faas-router >&2
cargo build --offline --release --manifest-path "$here/Cargo.toml" >&2

FAAS_BENCH_RUSTC=${FAAS_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}
export FAAS_BENCH_RUSTC

bench() {
    "$target/release/faas-bench" run --bin-dir "$target/release" \
        --work-root "$target/faas-bench-work" \
        --benchmark-json "$root/BENCHMARK.json" "$@"
}

if [ "${1:-}" = "--smoke" ]; then
    for workload in sim_sweep serve_warm serve_churn_http cluster_mixed; do
        for trace in 0 1; do
            bench --workload "$workload" --seed 1 --seconds 2 --trace "$trace" >/dev/null ||
                { echo "smoke: $workload --trace $trace failed" >&2; exit 1; }
            echo "smoke: $workload --trace $trace ok" >&2
        done
    done
    exit 0
fi

bench "$@"
