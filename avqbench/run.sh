#!/usr/bin/env bash
# Build the avq benchmark from this checkout's sources, then run it.
#
#   bash avqbench/run.sh --workload served_hot|analytic_cold|ingest_mv|all \
#        --seed N --seconds S --trace 0|1
#   bash avqbench/run.sh --self-test
#
# Build output goes to stderr; the benchmark's last line on stdout is its
# JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "avqbench: no avq sources in $root (dune-project or lib/ missing)" >&2
  exit 2
fi
dune build --root . ./avqbench/avqbench.exe 1>&2
exec ./_build/default/avqbench/avqbench.exe "$@"
