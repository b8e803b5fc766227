#!/usr/bin/env bash
# Regenerate BENCH_obs.json, the machine-readable perf baseline for the two
# engines (ns per packet-simulator event and per packet transmission, ns per
# guarded RK4 step, ns per per-flow RHS evaluation at 10000 DCQCN flows,
# sweep-task dispatch throughput). Values are wall-clock: compare runs from the same
# machine only — the v2 schema records a hostname-free machine descriptor
# (arch + hw threads) and the git SHA of the measured tree, plus a per-metric
# relative tolerance that ecnd-report uses when comparing a fresh run against
# this snapshot. The google-benchmark suite is skipped (--benchmark_filter
# matches nothing); only the dedicated baseline loops run.
#
# Every run also appends the measurement as one compact JSON line to
# BENCH_history.jsonl (same v2 doc: git SHA + machine descriptor + metrics),
# the append-only perf trend log that `ecnd-diff --bench-history` renders.
#
# Usage: scripts/bench_baseline.sh [output.json]   (default: BENCH_obs.json)

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_obs.json}"

cmake -B build -S . > /dev/null
cmake --build build -j --target bench_micro_perf

git_sha="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
ECND_GIT_SHA="$git_sha" ECND_BENCH_JSON="$out" \
  ./build/bench/bench_micro_perf --benchmark_filter='^$'

python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out"

python3 - "$out" BENCH_history.jsonl <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
with open(sys.argv[2], "a") as f:
    f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
EOF
echo "bench_baseline.sh: wrote $out (git $git_sha); appended to BENCH_history.jsonl"
