#!/bin/sh
# Build psc and the benchmark from this checkout, then run the benchmark.
#   sh perfbench/run.sh --workload kernels|compile|serve|all \
#      [--seed N] [--seconds S] [--trace 0|1] [--smoke]
# Build output goes to stderr; the last line of stdout is the result JSON.
set -eu
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release -j 2 \
  ./perfbench/main.exe ./bin/psc_main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
