#!/usr/bin/env bash
# Record the serve load benchmark into BENCH_serve.json: sisd_loadgen
# drives 64 concurrent analyst connections of mixed
# open/mine/assimilate/history traffic against the epoll event loop
# (--epoll, fixed worker pool, pipelined requests), recording RPS and
# client-observed latency percentiles.
# Usage: scripts/bench_serve.sh [output.json] [connections] [rounds]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_serve.json}"
connections="${2:-64}"
rounds="${3:-6}"

# Dedicated Release build dir (same rationale as bench_catalog.sh): the
# loadgen refuses nothing itself, so the recorder below checks the
# build_type it reports and aborts on a non-release build.
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DSISD_SANITIZE= \
  -DSISD_BUILD_TESTS=OFF -DSISD_BUILD_EXAMPLES=OFF
cmake --build build-bench -j "$(nproc)" --target sisd_serve_bin sisd_loadgen

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

./build-bench/tools/sisd_serve --epoll 0 \
  --max-connections "$connections" --threads 1 \
  --workers 4 --queue-capacity 256 2>"$tmpdir/epoll.err" &
srv=$!
port=""
for _ in $(seq 1 400); do
  port=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' \
    "$tmpdir/epoll.err" 2>/dev/null || true)
  [ -n "$port" ] && break
  sleep 0.05
done
[ -n "$port" ] || { echo "error: server never announced" >&2; exit 1; }
./build-bench/tools/sisd_loadgen --port "$port" \
  --connections "$connections" --rounds "$rounds" --pipeline 8 \
  --output "$tmpdir/epoll.json"
wait "$srv"

python3 - "$tmpdir" "$out" "$connections" "$rounds" <<'EOF'
import json, os, sys
tmpdir, out, connections, rounds = sys.argv[1:5]

with open(os.path.join(tmpdir, "epoll.json")) as f:
    epoll = json.load(f)
# Refuse to record numbers from a non-release build.
if epoll["build_type"] != "release":
    sys.exit(f"refusing to record: build_type={epoll['build_type']!r} "
             f"(expected 'release')")
if epoll["invalid"] != 0:
    sys.exit(f"refusing to record: {epoll['invalid']} invalid "
             f"responses: {epoll.get('first_error')}")

snapshot = {
    "connections": int(connections),
    "rounds": int(rounds),
    "summary": {
        "epoll_rps": round(epoll["rps"], 1),
        "epoll_p50_us": epoll["latency"]["p50_us"],
        "epoll_p99_us": epoll["latency"]["p99_us"],
        "epoll_rejected": epoll["rejected"],
    },
    "runs": {"epoll": epoll},
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
print(json.dumps(snapshot["summary"], indent=2))
EOF
