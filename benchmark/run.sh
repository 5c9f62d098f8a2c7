#!/usr/bin/env bash
# The benchmark's one command. Run it from the root of the repository.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, untraced then traced, each in a process of its own;
#       prints every metric as `name workload value unit` and writes
#       benchmark/out/*.json (results, layer metrics, Chrome traces)
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload, as the gating harness calls it: the last
#       line of standard output is the result object
#
#   benchmark/run.sh --set FILE [--runs N] [--seed N] [--seconds S] [--smoke]
#       N (default 10) untraced runs of every workload, seeds N, N+1, ...,
#       one line per run appended to FILE, for `bsfs-bench compare`
#
# Builds the two binaries first (release, offline), into $CARGO_TARGET_DIR
# if that is set and into benchmark/target otherwise. Exits non-zero if the
# build or any run fails, or if any operation of any run failed its check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(scan_distinct append_shared snapshot_mixed mr_jobs)

workload="" seed=1 seconds=10 trace="" set_file="" runs=10
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) extra+=(--smoke); seconds=0.3; shift ;;
        --set) set_file="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"

# run_one WORKLOAD SEED TRACE: one run in a process of its own.
run_one() {
    local args=(--workload "$1" --seed "$2" --seconds "$seconds" --out-dir "$here/out" ${extra[@]+"${extra[@]}"})
    if [ "$3" = 1 ]; then
        "$bin/bsfs-trace" "${args[@]}"
    else
        "$bin/bsfs-bench" run "${args[@]}"
    fi
}

if [ -n "$workload" ]; then
    run_one "$workload" "$seed" "${trace:-0}"
elif [ -n "$set_file" ]; then
    for ((i = 0; i < runs; i++)); do
        for w in "${workloads[@]}"; do
            result="$(run_one "$w" "$((seed + i))" 0 | tail -n 1)"
            printf '{"workload": "%s", "seed": %d, "trace": 0, "result": %s}\n' \
                "$w" "$((seed + i))" "$result" >>"$set_file"
            echo "$w seed $((seed + i)): $result" >&2
        done
    done
else
    for w in "${workloads[@]}"; do
        run_one "$w" "$seed" 0
        run_one "$w" "$seed" 1
    done
fi
