#!/usr/bin/env bash
# Sanitizer smoke run: build with ASan+UBSan (SISD_SANITIZE) and run
# the unit- and fuzz-labelled tests (the fuzz suites feed the model and
# snapshot decoders hostile input, which is what the sanitizers are for).
# Benches are skipped to keep the build short; integration suites run in
# the unsanitized tier-1 run.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-asan -S . \
  -DSISD_SANITIZE=address,undefined \
  -DSISD_BUILD_BENCH=OFF
cmake --build build-asan -j "$(nproc)"
cd build-asan
ctest --output-on-failure -L 'unit|fuzz' -j "$(nproc)"
