#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through:
#   bash perfbench/run.sh --workload em3d --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# dune's shared cache lives outside the checkout: build inside it only
export DUNE_CACHE=disabled
# A build can fail for reasons outside the code on a busy shared host
# (a compiler killed for memory, say), so it is tried three times.  In
# a directory without the simulator's sources every attempt fails fast
# and the script exits 1 without a result line.
for attempt in 1 2 3; do
  if dune build --root . --display quiet ./perfbench/bin/perfbench.exe 1>&2; then
    exec ./_build/default/perfbench/bin/perfbench.exe "$@"
  fi
  echo "perfbench: build attempt $attempt of 3 failed" >&2
  sleep 2
done
exit 1
