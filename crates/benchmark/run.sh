#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   crates/benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#       one run of one workload; the arguments go to sb-benchmark as they
#       are. This is the `command` of BENCHMARK.json.
#
#   crates/benchmark/run.sh --all [seed] [out-dir]
#       the four workloads, then the four traced runs, for one seed, into
#       out-dir (default target/benchmark): <workload>.s<seed>.json holds
#       the end-to-end result line, <workload>.s<seed>.layers.json the
#       per-layer one, <workload>.trace.json the spans. Two such
#       directories are what `sb-benchmark --check A B` compares.
#
# Builds `-p sb-benchmark -p sb-fleet` (the fleet point needs the real
# sb-fleet-worker next to the benchmark binary), always offline and always
# against the stand-ins under stubs/ for the workspace's five published
# crates: the checkout the benchmark is run in holds no registry, and one
# dependency set on every host means one stream of generated inputs, so any
# two result sets this script produces can be compared.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/core ]; then
    echo "run.sh: $root is not the space-booking workspace; nothing to measure" >&2
    exit 2
fi

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --config "$here/stubs/config.toml" \
    -p sb-benchmark -p sb-fleet >&2
bin="${CARGO_TARGET_DIR:-target}/release/sb-benchmark"

if [ "${1:-}" != "--all" ]; then
    exec "$bin" "$@"
fi

seed=${2:-1}
out=${3:-target/benchmark}
mkdir -p "$out"
status=0
for trace in 0 1; do
    for workload in sweep_paper12 topo_mega serve_open serve_durable; do
        if [ "$trace" = 0 ]; then
            result="$out/$workload.s$seed.json"
        else
            result="$out/$workload.s$seed.layers.json"
        fi
        echo "== $workload seed=$seed trace=$trace" >&2
        if "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --dir "$out" \
            | tee "$out/$workload.s$seed.trace$trace.log" | tail -n 1 >"$result"; then
            :
        else
            echo "run.sh: $workload (trace=$trace) failed a check; see $out/$workload.s$seed.trace$trace.log" >&2
            status=1
        fi
    done
done
exit $status
