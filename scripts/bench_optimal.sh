#!/usr/bin/env bash
# Record the provably-optimal search comparison into BENCH_optimal.json:
# the kernel-backed best-first branch-and-bound (search/optimal_search)
# vs the old callback-DFS optimal path and the beam heuristic, plus the
# beam-vs-optimal quality gap on the crime and synthetic scenarios.
# Usage: scripts/bench_optimal.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_optimal.json}"

# Dedicated Release build dir (same rationale as bench_baseline.sh).
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j "$(nproc)" --target bench_optimal

tmp=$(mktemp)
tmp_gap=$(mktemp)
trap 'rm -f "$tmp" "$tmp_gap"' EXIT

./build-bench/bench/bench_optimal --benchmark_format=json >"$tmp"
./build-bench/bench/bench_optimal --gap-json >"$tmp_gap"

python3 - "$tmp" "$tmp_gap" "$out" <<'EOF'
import json, sys
raw, gap_path, out = sys.argv[1:4]
with open(raw) as f:
    doc = json.load(f)
with open(gap_path) as f:
    gap = json.load(f)

# Refuse to record numbers measured through a debug-built timing path.
build_type = doc["context"]["library_build_type"]
if build_type != "release":
    sys.exit(f"refusing to record: library_build_type={build_type!r} "
             f"(expected 'release')")

by_name = {b["name"]: b for b in doc["benchmarks"]}

def seconds(name):
    b = by_name[name]
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[b["time_unit"]]
    return b["real_time"] * unit

def ratio(slow, fast):
    return round(seconds(slow) / seconds(fast), 3)

summary = {
    # The headline: new engine vs the old callback-DFS optimal path
    # (reference::ExhaustiveSearch + MakeUnivariateSiBound), both optimal,
    # single-threaded, depth 2 on the full crime shape.
    "crime_speedup_vs_callback_dfs_bnb":
        ratio("BM_Crime_CallbackDfsBnB", "BM_Crime_OptimalBnB_1thread"),
    # Context: vs unbounded callback enumeration and with all threads.
    "crime_speedup_vs_callback_dfs_plain":
        ratio("BM_Crime_CallbackDfsPlain", "BM_Crime_OptimalBnB_1thread"),
    "crime_speedup_allthreads_vs_callback_dfs_bnb":
        ratio("BM_Crime_CallbackDfsBnB", "BM_Crime_OptimalBnB_allthreads"),
    # How far provable optimality sits from the heuristic's wall-clock.
    "crime_optimal_over_beam_wallclock":
        ratio("BM_Crime_OptimalBnB_1thread", "BM_Crime_Beam"),
    "synthetic_speedup_vs_callback_dfs":
        ratio("BM_Synth_CallbackDfs", "BM_Synth_Optimal_1thread"),
    "synthetic_optimal_over_beam_wallclock":
        ratio("BM_Synth_Optimal_1thread", "BM_Synth_Beam"),
    "candidates_per_second_crime_bnb":
        round(by_name["BM_Crime_OptimalBnB_1thread"]["items_per_second"]),
    # Beam optimality gap (exact search outputs, not timings).
    "quality_gap": gap,
}

snapshot = {
    "context": doc["context"],
    "summary": summary,
    "bench_optimal": doc["benchmarks"],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(summary, indent=2))
EOF
