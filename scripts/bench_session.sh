#!/usr/bin/env bash
# Record the session-refit benchmark (incremental rank-one factor updates
# vs full refactorization; warm-started Refit vs RefitFromScratch) into
# BENCH_session.json, including computed speedup summaries.
# Usage: scripts/bench_session.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_session.json}"

# Dedicated Release build dir (same rationale as bench_baseline.sh).
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j "$(nproc)" --target bench_session_refit

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

./build-bench/bench/bench_session_refit --benchmark_format=json >"$tmp"

python3 - "$tmp" "$out" <<'EOF'
import json, sys
raw, out = sys.argv[1:3]
with open(raw) as f:
    doc = json.load(f)

# Refuse to record numbers measured through a debug-built timing path.
build_type = doc["context"]["library_build_type"]
if build_type != "release":
    sys.exit(f"refusing to record: library_build_type={build_type!r} "
             f"(expected 'release')")

by_name = {b["name"]: b["real_time"] for b in doc["benchmarks"]}

def ratio(slow, fast):
    return round(by_name[slow] / by_name[fast], 3)

summary = {
    # Per-assimilation model update: O(dy^2) rank-one factor maintenance
    # vs the old invalidate-and-refactorize O(dy^3) path.
    "spread_assimilate_speedup_by_dy": {
        str(d): ratio(f"BM_SpreadAssimilate_Refactorize/{d}",
                      f"BM_SpreadAssimilate_Incremental/{d}")
        for d in (5, 16, 64, 124)
    },
    # Table-II-style refit cost as constraints accumulate: warm-started
    # cyclic descent vs full from-scratch refit.
    "refit_warm_vs_scratch_speedup_by_k": {
        str(k): ratio(f"BM_RefitScratch/{k}", f"BM_RefitWarm/{k}")
        for k in (2, 4, 8, 12)
    },
}

snapshot = {
    "context": doc["context"],
    "summary": summary,
    "bench_session_refit": doc["benchmarks"],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(summary, indent=2))
EOF
