#!/usr/bin/env bash
# Builds the benchmark suite from source in this checkout and runs it;
# every argument goes to suite.exe. Run from anywhere:
#
#   bash bench/suite/run.sh --workload topoB-vbr --seed 1 --seconds 30 --trace 0
#   bash bench/suite/run.sh --repeats 5 --out set.json
#
# The build lands in _build/ and the dune cache is off, so nothing is
# written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  bench/suite/suite.exe -- "$@"
