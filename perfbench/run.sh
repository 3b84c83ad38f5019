#!/usr/bin/env bash
# Builds the simulator and the benchmark from source, then runs one
# benchmark workload. Run from the root of a source checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the result as one JSON object;
# build output goes to standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: not the root of a source checkout (need dune-project, lib/ and perfbench/)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
