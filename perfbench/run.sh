#!/usr/bin/env bash
# Builds the ccdp daemon under test and the perfbench load generator from the
# checkout in the current directory, then runs one benchmark, e.g.
#
#   bash perfbench/run.sh --workload query-http --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ccdp" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a nodedp checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/ccdp" ./cmd/ccdp
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/ccdp" -out "$out" "$@"
