#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite — first
# plain (the gate CI enforces), then with ECND_SANITIZE=ON so ASan+UBSan sweep
# the same tests for memory and UB bugs the plain run can't see.
#
# Before building, the plain mode also fails if the FNV-1a offset basis or
# the SplitMix64 multiplier appears under src/ outside src/core/hash.hpp:
# those primitives have one home, and a hand-written copy is how one drifts.
#
# The plain suite runs twice, under ECND_THREADS=1 and ECND_THREADS=4: the
# sweep engine promises results are a function of the grid, not of the
# scheduler, and the cheapest way to keep that promise honest is to run every
# test on both the serial and the threaded path.
#
# The plain mode then configures the benchmark package (ecndbench/, which
# compiles ../src itself) into build-ecndbench/ and runs its probe tests
# (ecnd_bench_test): wrapped, traced and untraced runs must stay bit-identical
# to the plain engines, or the benchmark's per-layer numbers stop describing
# the code users run.
#
# --obs-smoke exercises the observability layer (see OBSERVABILITY.md): one
# traced quick bench, JSON validity, metrics/trace bit-identical across thread
# counts, and stdout CSV byte-identical with obs armed and idle.
#
# --report runs the quick figure set with ECND_MANIFEST armed, gates the
# resulting manifests against bench/expectations.json via ecnd-report, and
# checks the manifest contract: bit-identical at ECND_THREADS=1 vs 4 and
# stdout untouched by the writer.
#
# --perf runs the benchmark (ecndbench/, workloads in BENCHMARK.json) A/B on
# this box: HEAD, checked out as a temporary git worktree, against the working
# tree. Each side runs every workload once through its own ecndbench/run.py
# (--seed 1 --seconds 30 --trace 0). run.py stamps both sides with HEAD's
# SHA, so the script first prints which tree each side is (HEAD, and the
# working tree with its count of uncommitted paths). It exits with
# ecndbench/compare.py's status: nonzero when an end-to-end metric is worse
# than its BENCHMARK.json bound, or when the two builds' stamps differ. Both
# sides are built and measured on the same box in the same session, so no
# recorded number from another machine enters the verdict. It takes about
# 5 minutes. The mode takes no argument; the base is always HEAD.
#
# --resume-smoke exercises the crash-resume path end to end: run a journaled
# sweep (bench_fig14 with ECND_JOURNAL), SIGKILL it mid-flight, re-run with
# --resume, and require (a) the journal reported reused cells and (b) the
# resumed stdout is byte-identical to an uninterrupted run.
#
# --fabric-smoke runs the Clos fabric suite (bench_ext_fabric, quick: fat-tree
# incast + all-to-all shuffle + PFC pause storm) under ECND_THREADS=1 and 4
# and requires stdout and the run manifest byte-identical across thread
# counts: ECMP path choice is a seeded hash, so multipath fabrics must keep
# the same determinism promise as single-path sweeps.
#
# --flight-smoke exercises the flight recorder (OBSERVABILITY.md "Flight
# recorder"): a quick sampled incast + pause storm with ECND_FLIGHT armed,
# postcard/timeline/pause-tree exports byte-identical at ECND_THREADS=1 vs 4,
# JSON validity (sampled postcards present, rooted pause tree with trigger
# flows), and stdout byte-identical with the recorder armed and idle.
#
# --diff-smoke exercises the differential layer (OBSERVABILITY.md "Metric
# time-series snapshots" / "Hierarchical profiler" / "ecnd-diff"): quick runs
# with ECND_METRICS_TS and ECND_PROF armed must export byte-identical
# snapshots and folded profiles at ECND_THREADS=1 vs 4, ecnd-diff must exit 0
# on an identical-seed pair and nonzero (with a first-divergence timestamp)
# on a perturbed-seed pair, and stdout must stay untouched by the sampler.
#
# With no argument it runs the plain and sanitized suites. Any argument other
# than the modes in the usage line below, or more than one, prints that line and
# exits 2, so a mistyped mode cannot pass as a plain run.

set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/check.sh [--plain-only|--sanitize-only|--tsan-only|--obs-smoke|--report|--perf|--resume-smoke|--fabric-smoke|--flight-smoke|--diff-smoke]"
mode="${1:-all}"
case "${1-}" in
  "" | --plain-only | --sanitize-only | --tsan-only | --obs-smoke | --report \
    | --perf | --resume-smoke | --fabric-smoke | --flight-smoke | --diff-smoke) ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
if [[ $# -gt 1 ]]; then
  echo "$usage" >&2
  exit 2
fi

build_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
}

run_tests() {
  local build_dir="$1" threads="$2"
  echo "-- ctest ($build_dir, ECND_THREADS=$threads)"
  ECND_THREADS="$threads" ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

if [[ "$mode" == "all" || "$mode" == "--plain-only" ]]; then
  echo "== hash primitives have one home (src/core/hash.hpp) =="
  # The FNV-1a offset basis and the SplitMix64 multiplier mark hand-written
  # copies of the primitives; every caller must use core/hash.hpp instead.
  copies="$(grep -rniE 'cbf29ce484222325|bf58476d1ce4e5b9' src \
    | grep -v '^src/core/hash\.hpp:' || true)"
  if [[ -n "$copies" ]]; then
    echo "$copies" >&2
    echo "ERROR: hash constants outside src/core/hash.hpp (use its helpers)" >&2
    exit 1
  fi

  echo "== plain build + tests (serial and threaded sweep paths) =="
  build_suite build
  run_tests build 1
  run_tests build 4

  echo "== benchmark probe tests (ecndbench/) =="
  cmake -B build-ecndbench -S ecndbench
  cmake --build build-ecndbench -j --target ecnd_bench_test
  ./build-ecndbench/ecnd_bench_test
fi

if [[ "$mode" == "all" || "$mode" == "--sanitize-only" ]]; then
  echo "== ASan+UBSan build + tests =="
  build_suite build-sanitize -DECND_SANITIZE=ON
  run_tests build-sanitize 4
fi

# TSan is opt-in (--tsan-only): it needs its own build tree and roughly 5-15x
# slower tests, but it is the tool that actually sees data races in the
# parallel sweep engine — run it after touching src/core/parallel.*.
if [[ "$mode" == "--tsan-only" ]]; then
  echo "== ThreadSanitizer build + tests =="
  build_suite build-tsan -DECND_TSAN=ON
  run_tests build-tsan 4
fi

if [[ "$mode" == "--obs-smoke" ]]; then
  echo "== observability smoke (bench_fig14, quick) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  bench=build/bench/bench_fig14_fct_vs_load

  echo "-- baseline run (obs idle)"
  ECND_QUICK=1 "$bench" > "$tmp/plain.csv" 2>/dev/null

  echo "-- traced run, ECND_THREADS=1"
  ECND_QUICK=1 ECND_THREADS=1 ECND_METRICS="$tmp/m1.json" \
    ECND_TRACE="$tmp/t1.json" "$bench" > "$tmp/obs1.csv" 2>/dev/null
  echo "-- traced run, ECND_THREADS=4"
  ECND_QUICK=1 ECND_THREADS=4 ECND_METRICS="$tmp/m4.json" \
    ECND_TRACE="$tmp/t4.json" "$bench" > "$tmp/obs4.csv" 2>/dev/null

  echo "-- JSON validity"
  python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
m = json.load(open(f"{tmp}/m1.json"))
assert m["schema"] == "ecnd-metrics-v1", m.get("schema")
assert m["counters"].get("sim.events", 0) > 0, "no sim.events counted"
t = json.load(open(f"{tmp}/t1.json"))
assert isinstance(t["traceEvents"], list) and t["traceEvents"], "empty trace"
print(f"   metrics: {len(m['counters'])} counters; trace: {len(t['traceEvents'])} events")
EOF

  echo "-- determinism across thread counts"
  cmp "$tmp/m1.json" "$tmp/m4.json"
  cmp "$tmp/t1.json" "$tmp/t4.json"

  echo "-- stdout CSV purity (obs armed vs idle)"
  cmp "$tmp/plain.csv" "$tmp/obs1.csv"
  cmp "$tmp/plain.csv" "$tmp/obs4.csv"

  echo "obs smoke: all checks passed"
fi

if [[ "$mode" == "--report" ]]; then
  echo "== regression report (quick figure set + ecnd-report) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  # The quick figure set: every manifest-wired harness, sized so the whole
  # sweep takes tens of seconds. bench/expectations.json is calibrated for
  # exactly these sizes (ECND_QUICK=1 where honored; fault_study 4 0.05 1).
  run_quick_set() {
    local threads="$1" mdir="$2" outdir="$3"
    mkdir -p "$mdir" "$outdir"
    local t="$threads" q="ECND_QUICK=1"
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig02.json" \
      build/bench/bench_fig02_dcqcn_validation > "$outdir/fig02.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig03.json" \
      build/bench/bench_fig03_dcqcn_phase_margin > "$outdir/fig03.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig09.json" \
      build/bench/bench_fig09_timely_unfairness > "$outdir/fig09.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig11.json" \
      build/bench/bench_fig11_patched_phase_margin > "$outdir/fig11.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig12.json" \
      build/bench/bench_fig12_patched_timely > "$outdir/fig12.csv" 2>/dev/null
    env "$q" ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig14.json" \
      build/bench/bench_fig14_fct_vs_load > "$outdir/fig14.csv" 2>/dev/null
    env "$q" ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig16.json" \
      build/bench/bench_fig16_queue_timeseries > "$outdir/fig16.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fig20.json" \
      build/bench/bench_fig20_jitter > "$outdir/fig20.csv" 2>/dev/null
    env "$q" ECND_THREADS="$t" ECND_MANIFEST="$mdir/ext_fabric.json" \
      build/bench/bench_ext_fabric > "$outdir/ext_fabric.csv" 2>/dev/null
    ECND_THREADS="$t" ECND_MANIFEST="$mdir/fault_study.json" \
      build/examples/fault_study 4 0.05 1 > "$outdir/fault_study.csv" 2>/dev/null
  }

  echo "-- quick figure set, ECND_THREADS=1"
  run_quick_set 1 "$tmp/manifests1" "$tmp/out1"
  echo "-- quick figure set, ECND_THREADS=4"
  run_quick_set 4 "$tmp/manifests4" "$tmp/out4"

  echo "-- manifests bit-identical across thread counts"
  for f in "$tmp"/manifests1/*.json; do
    cmp "$f" "$tmp/manifests4/$(basename "$f")"
  done

  echo "-- stdout untouched by the manifest writer (fig02 armed vs idle)"
  build/bench/bench_fig02_dcqcn_validation > "$tmp/fig02_idle.csv" 2>/dev/null
  cmp "$tmp/out1/fig02.csv" "$tmp/fig02_idle.csv"

  echo "-- ecnd-report gate (bench/expectations.json)"
  build/src/report/ecnd-report \
    --expectations bench/expectations.json \
    --manifest-dir "$tmp/manifests1" \
    --out REPORT.md
  echo "report: wrote REPORT.md"
fi

if [[ "$mode" == "--perf" ]]; then
  echo "== perf gate (ecndbench/ at HEAD vs the working tree) =="
  tmp="$(mktemp -d)"
  base="$tmp/base"
  trap 'git worktree remove --force "$base" > /dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
  git worktree add --detach --quiet "$base" HEAD
  head_sha="$(git rev-parse --short HEAD)"

  # One run of one workload on one side; run.py's stdout and its build log go
  # to a file, which is shown only when the run fails.
  bench_side() {
    local label="$1" tree="$2" results="$3" workload="$4" rc=0
    local log="$tmp/$label-$workload.log"
    CARGO_TARGET_DIR="$tree/.bench_build" python3 "$tree/ecndbench/run.py" \
      --workload "$workload" --seed 1 --seconds 30 --trace 0 \
      --out "$results" > "$log" 2>&1 || rc=$?
    if [[ $rc -ne 0 ]]; then
      cat "$log" >&2
      echo "ERROR: $label run of $workload failed (run.py exit $rc)" >&2
      exit "$rc"
    fi
    grep '^# ' "$log" | sed "s/^# /   $label: /"
  }

  workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for workload in $workloads; do
    echo "-- $workload"
    bench_side "HEAD-$head_sha" "$base" "$tmp/base.jsonl" "$workload"
    bench_side worktree "$PWD" "$tmp/new.jsonl" "$workload"
  done

  echo "-- compare.py (bounds from BENCHMARK.json)"
  dirty="$(git status --porcelain | wc -l | tr -d ' ')"
  echo "   base = HEAD $head_sha; change = working tree on $head_sha, $dirty uncommitted paths"
  python3 ecndbench/compare.py "$tmp/base.jsonl" "$tmp/new.jsonl" || exit $?
  echo "perf gate: no end-to-end metric worse than its bound"
fi

if [[ "$mode" == "--resume-smoke" ]]; then
  echo "== crash-resume smoke (bench_fig14 + ECND_JOURNAL) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  bench=build/bench/bench_fig14_fct_vs_load

  echo "-- uninterrupted reference run"
  ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/ref_journal.txt" \
    "$bench" > "$tmp/clean.csv" 2>/dev/null
  total="$(grep -c ' done ' "$tmp/ref_journal.txt")"
  echo "   $total cells journaled"

  echo "-- interrupted run (SIGKILL once >=3 cells are journaled)"
  ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/journal.txt" \
    "$bench" > /dev/null 2>&1 &
  pid=$!
  for _ in $(seq 1 200); do
    done_cells="$(grep -c ' done ' "$tmp/journal.txt" 2>/dev/null || true)"
    if [[ "${done_cells:-0}" -ge 3 ]]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.05
  done
  if kill -9 "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null || true
    echo "   killed after ${done_cells:-0} of $total cells"
  else
    wait "$pid" 2>/dev/null || true
    echo "   note: sweep finished before the kill landed (resume still checked)"
  fi

  echo "-- resumed run"
  ECND_QUICK=1 ECND_THREADS=2 ECND_JOURNAL="$tmp/journal.txt" \
    "$bench" --resume > "$tmp/resumed.csv" 2> "$tmp/resumed.err"
  if ! grep -q '^\[journal\]' "$tmp/resumed.err"; then
    echo "ERROR: resumed run printed no [journal] summary" >&2
    exit 1
  fi
  reused="$(sed -n 's/^\[journal\].*reused \([0-9]*\) of.*/\1/p' "$tmp/resumed.err")"
  echo "   $(grep '^\[journal\]' "$tmp/resumed.err")"
  if [[ "${reused:-0}" -lt 1 ]]; then
    echo "ERROR: resumed run reused no journaled cells" >&2
    exit 1
  fi

  echo "-- resumed stdout byte-identical to the uninterrupted run"
  cmp "$tmp/clean.csv" "$tmp/resumed.csv"

  echo "-- journal now covers the full grid"
  final="$(grep -c ' done ' "$tmp/journal.txt")"
  if [[ "$final" -ne "$total" ]]; then
    echo "ERROR: journal has $final done cells, expected $total" >&2
    exit 1
  fi

  echo "resume smoke: all checks passed"
fi

if [[ "$mode" == "--fabric-smoke" ]]; then
  echo "== fabric smoke (bench_ext_fabric, quick, 1 vs 4 threads) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  bench=build/bench/bench_ext_fabric

  echo "-- quick fabric suite, ECND_THREADS=1"
  ECND_QUICK=1 ECND_THREADS=1 ECND_MANIFEST="$tmp/fabric1.json" \
    "$bench" > "$tmp/fabric1.txt" 2>/dev/null
  echo "-- quick fabric suite, ECND_THREADS=4"
  ECND_QUICK=1 ECND_THREADS=4 ECND_MANIFEST="$tmp/fabric4.json" \
    "$bench" > "$tmp/fabric4.txt" 2>/dev/null

  echo "-- stdout byte-identical across thread counts"
  cmp "$tmp/fabric1.txt" "$tmp/fabric4.txt"
  echo "-- manifest byte-identical across thread counts"
  cmp "$tmp/fabric1.json" "$tmp/fabric4.json"

  echo "-- manifest reports a lossless pause storm"
  python3 - "$tmp" <<'EOF'
import json, sys
m = json.load(open(f"{sys.argv[1]}/fabric1.json"))
obs = m["observables"]
for variant in ("default", "tight"):
    assert obs[f"pause_depth.{variant}"] >= 1, variant
    assert obs[f"storm_drops.{variant}"] == 0, variant
incast_keys = [k for k in obs if k.startswith("incast_fct_ms.")]
assert incast_keys, "no incast observables in the manifest"
print(f"   {len(obs)} observables; pause storm lossless in both variants")
EOF

  echo "fabric smoke: all checks passed"
fi

if [[ "$mode" == "--flight-smoke" ]]; then
  echo "== flight recorder smoke (bench_ext_fabric, quick, sampled) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  bench=build/bench/bench_ext_fabric

  echo "-- baseline run (recorder idle)"
  ECND_QUICK=1 ECND_THREADS=1 "$bench" > "$tmp/idle.txt" 2>/dev/null

  # Sample modulus 4 (1 in 4 flows) so even the quick grids carry postcards.
  echo "-- armed run, ECND_THREADS=1"
  ECND_QUICK=1 ECND_THREADS=1 ECND_FLIGHT="$tmp/fl1" ECND_FLIGHT_SAMPLE=4 \
    "$bench" > "$tmp/armed1.txt" 2>/dev/null
  echo "-- armed run, ECND_THREADS=4"
  ECND_QUICK=1 ECND_THREADS=4 ECND_FLIGHT="$tmp/fl4" ECND_FLIGHT_SAMPLE=4 \
    "$bench" > "$tmp/armed4.txt" 2>/dev/null

  echo "-- exports byte-identical across thread counts"
  for kind in postcards timeline pausetree; do
    cmp "$tmp/fl1.$kind.json" "$tmp/fl4.$kind.json"
  done

  echo "-- stdout untouched by the recorder (armed vs idle)"
  cmp "$tmp/idle.txt" "$tmp/armed1.txt"
  cmp "$tmp/idle.txt" "$tmp/armed4.txt"

  echo "-- JSON validity (postcards sampled, pause tree rooted + attributed)"
  python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
p = json.load(open(f"{tmp}/fl1.postcards.json"))
assert p["schema"] == "ecnd-flight-postcards-v1", p.get("schema")
records = sum(len(t["records"]) for t in p["tasks"])
assert records > 0, "no postcards sampled"
hop = next(r for t in p["tasks"] if t["records"] for r in t["records"])
assert hop["port"] and hop["t_out_ps"] >= hop["t_in_ps"], hop
t = json.load(open(f"{tmp}/fl1.timeline.json"))
spans = [e for e in t["traceEvents"] if e.get("ph") == "X"]
assert spans, "no flow spans in the timeline"
pt = json.load(open(f"{tmp}/fl1.pausetree.json"))
assert pt["schema"] == "ecnd-flight-pausetree-v1", pt.get("schema")
stormy = [task for task in pt["tasks"] if task["nodes"]]
assert stormy, "no pause records in the pause tree"
for task in stormy:
    roots = [n for n in task["nodes"] if n["parent"] == 0]
    assert roots and task["roots"] >= len({n["id"] for n in roots}) > 0
    assert all(n["trigger_flow"] > 0 for n in task["nodes"]), "unattributed pause"
    assert task["top_offender"]["flow"] > 0
print(f"   {records} postcards, {len(spans)} spans, "
      f"{sum(len(task['nodes']) for task in stormy)} pause nodes")
EOF

  echo "flight smoke: all checks passed"
fi

if [[ "$mode" == "--diff-smoke" ]]; then
  echo "== differential smoke (snapshots + profiler + ecnd-diff) =="
  build_suite build
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  bench=build/bench/bench_fig14_fct_vs_load
  diff_bin=build/src/report/ecnd-diff

  echo "-- baseline run (sampler idle)"
  ECND_QUICK=1 ECND_THREADS=1 "$bench" > "$tmp/idle.csv" 2>/dev/null

  echo "-- armed run, ECND_THREADS=1"
  ECND_QUICK=1 ECND_THREADS=1 ECND_METRICS_TS="$tmp/s1" ECND_PROF="$tmp/s1" \
    "$bench" > "$tmp/armed1.csv" 2>/dev/null
  echo "-- armed run, ECND_THREADS=4"
  ECND_QUICK=1 ECND_THREADS=4 ECND_METRICS_TS="$tmp/s4" ECND_PROF="$tmp/s4" \
    "$bench" > "$tmp/armed4.csv" 2>/dev/null

  echo "-- exports byte-identical across thread counts"
  cmp "$tmp/s1.metrics_ts.json" "$tmp/s4.metrics_ts.json"
  cmp "$tmp/s1.prof.folded" "$tmp/s4.prof.folded"

  echo "-- stdout untouched by the sampler (armed vs idle)"
  cmp "$tmp/idle.csv" "$tmp/armed1.csv"
  cmp "$tmp/idle.csv" "$tmp/armed4.csv"

  echo "-- ecnd-diff: identical-seed pair exits 0"
  "$diff_bin" "$tmp/s1.metrics_ts.json" "$tmp/s4.metrics_ts.json" \
    > "$tmp/d_same.md"

  echo "-- ecnd-diff: perturbed-seed pair exits nonzero"
  ECND_THREADS=2 ECND_METRICS_TS="$tmp/p1" \
    build/examples/fault_study 4 0.05 1 > /dev/null 2>&1
  ECND_THREADS=2 ECND_METRICS_TS="$tmp/p2" \
    build/examples/fault_study 4 0.05 2 > /dev/null 2>&1
  if "$diff_bin" "$tmp/p1.metrics_ts.json" "$tmp/p2.metrics_ts.json" \
      > "$tmp/d_diff.md"; then
    echo "ERROR: ecnd-diff reported no drift between different seeds" >&2
    exit 1
  fi
  if ! grep -q 'first divergence' "$tmp/d_diff.md"; then
    echo "ERROR: perturbed-pair diff carries no divergence timestamp" >&2
    exit 1
  fi

  echo "diff smoke: all checks passed"
fi

echo "check.sh: all requested suites passed"
