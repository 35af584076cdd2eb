#!/usr/bin/env bash
# Record the subgroup-list miner comparison into BENCH_list.json: the
# fused-kernel greedy list engine (search/list_miner) vs the naive
# materializing reference, single-threaded and at the hardware thread
# count, plus the greedy-list-vs-iterative-miner quality comparison on
# all five paper scenarios (both scored by the same MDL list gain).
# Usage: scripts/bench_list.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_list.json}"

# Dedicated Release build dir (same rationale as bench_baseline.sh).
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j "$(nproc)" --target bench_list

tmp=$(mktemp)
tmp_quality=$(mktemp)
trap 'rm -f "$tmp" "$tmp_quality"' EXIT

./build-bench/bench/bench_list --benchmark_format=json >"$tmp"
./build-bench/bench/bench_list --quality-json >"$tmp_quality"

python3 - "$tmp" "$tmp_quality" "$out" <<'EOF'
import json, sys
raw, quality_path, out = sys.argv[1:4]
with open(raw) as f:
    doc = json.load(f)
with open(quality_path) as f:
    quality = json.load(f)

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
    # Engine vs the naive materializing reference (identical output by
    # the differential test; this records what the fused path buys).
    "synthetic_engine_speedup_vs_naive":
        ratio("BM_Synth_ListNaive", "BM_Synth_ListEngine_1thread"),
    "crime_engine_speedup_vs_naive":
        ratio("BM_Crime_ListNaive", "BM_Crime_ListEngine_1thread"),
    "crime_allthreads_speedup_vs_naive":
        ratio("BM_Crime_ListNaive", "BM_Crime_ListEngine_allthreads"),
    "crime_list_seconds_1thread":
        round(seconds("BM_Crime_ListEngine_1thread"), 6),
    # Greedy list vs iterative-patterns-as-list, same MDL gain currency
    # (exact search outputs, not timings).
    "quality": quality,
}

snapshot = {
    "context": doc["context"],
    "summary": summary,
    "bench_list": doc["benchmarks"],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(summary, indent=2))
EOF
