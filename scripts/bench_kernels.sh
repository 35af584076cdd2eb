#!/usr/bin/env bash
# Record the SIMD scoring-kernel comparison into BENCH_simd.json: per-kernel
# scalar vs AVX2 throughput plus the headline candidate-evaluation benchmark
# (SiLocationEvaluator::ScoreChunk over a crime-shaped batch at dy=1).
# bench_kernels measures both ISAs in one process (the AVX2 variants
# register only on AVX2 hosts), so one run yields the controlled comparison.
# Usage: scripts/bench_kernels.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_simd.json}"

# Dedicated Release build dir (same rationale as bench_baseline.sh).
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j "$(nproc)" --target bench_kernels

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

./build-bench/bench/bench_kernels --benchmark_format=json >"$tmp"

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
    if slow not in by_name or fast not in by_name:
        return None  # AVX2 leg absent on non-AVX2 hosts
    return round(by_name[slow] / by_name[fast], 3)

kernel_speedups = {}
for base in ("BM_CountAnd2", "BM_CountAnd3", "BM_AndInto",
             "BM_MaskedSumAnd", "BM_MaskedMomentsAnd"):
    for n in (2000, 100000):
        r = ratio(f"{base}<ScalarTable>/{n}", f"{base}<Avx2Table>/{n}")
        if r is not None:
            kernel_speedups[f"{base}/{n}"] = r

summary = {
    # Per-kernel AVX2-over-scalar speedup (direct table calls, density-0.5
    # random masks; real candidate masks are sparser and skip more).
    "kernel_speedup_avx2_over_scalar": kernel_speedups,
    # The headline: full ScoreChunk candidate evaluation at dy=1 through
    # the production dispatch path, scalar vs AVX2.
    "candidate_eval_dy1_speedup":
        ratio("BM_CandidateEvalDy1_scalar", "BM_CandidateEvalDy1_avx2"),
}

snapshot = {
    "context": doc["context"],
    "summary": summary,
    "bench_kernels": doc["benchmarks"],
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(summary, indent=2))
EOF
