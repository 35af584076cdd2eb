#!/usr/bin/env bash
# Tier-1 verify: the ROADMAP command, with the build's job count bounded
# by the core count (a bare -j starts every compile at once). Exits
# nonzero on any configure, build, or test failure. CI and builders
# invoke this one entry point.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
cd build
ctest --output-on-failure -j
