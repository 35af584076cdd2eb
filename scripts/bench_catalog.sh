#!/usr/bin/env bash
# Record the catalog open-storm benchmark into BENCH_catalog.json:
# time + memory to open 64 sessions on one dataset, catalog-shared
# (dataset_load once, open by dataset_ref) vs per-session private copies.
# Two scenarios of different sizes show that the catalog's marginal
# per-session memory is independent of dataset size.
# Usage: scripts/bench_catalog.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_catalog.json}"

# Dedicated Release build dir (same rationale as bench_baseline.sh).
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j "$(nproc)" --target bench_catalog_storm

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# One process per (mode, scenario) so RSS numbers do not contaminate.
for scenario in crime synthetic; do
  for mode in catalog copy; do
    ./build-bench/bench/bench_catalog_storm --mode "$mode" \
      --scenario "$scenario" --sessions 64 \
      >"$tmpdir/${mode}_${scenario}.json"
  done
done

python3 - "$tmpdir" "$out" <<'EOF'
import json, os, sys
tmpdir, out = sys.argv[1:3]

runs = {}
for name in os.listdir(tmpdir):
    with open(os.path.join(tmpdir, name)) as f:
        doc = json.load(f)
    # Refuse to record numbers from a non-release build.
    build_type = doc["context"]["library_build_type"]
    if build_type != "release":
        sys.exit(f"refusing to record: library_build_type={build_type!r} "
                 f"(expected 'release') in {name}")
    runs[f"{doc['mode']}_{doc['scenario']}"] = doc

def summary_for(scenario):
    catalog = runs[f"catalog_{scenario}"]
    copy = runs[f"copy_{scenario}"]
    warm = max(catalog["warm_open_mean_ms"], 1e-6)
    return {
        # Warm catalog opens skip pool build entirely: vs the catalog's own
        # cold (pool-building) open and vs a per-session-copy open.
        "warm_open_vs_cold_open_speedup":
            round(catalog["cold_open_ms"] / warm, 1),
        "warm_open_vs_copy_open_speedup":
            round(copy["warm_open_mean_ms"] / warm, 1),
        "catalog_marginal_kb_per_session":
            round(catalog["marginal_kb_per_session"], 1),
        "copy_marginal_kb_per_session":
            round(copy["marginal_kb_per_session"], 1),
        "catalog_peak_rss_kb": catalog["peak_rss_kb"],
        "copy_peak_rss_kb": copy["peak_rss_kb"],
    }

snapshot = {
    "sessions": 64,
    "summary": {s: summary_for(s) for s in ("crime", "synthetic")},
    "runs": runs,
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(snapshot["summary"], indent=2))
EOF
