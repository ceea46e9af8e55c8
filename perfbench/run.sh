#!/usr/bin/env bash
# Builds cmd/ftserve and the perfbench harness from the checkout it is run
# in, then runs the harness. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query-hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
#
# Everything it builds or writes stays under .perfbench/ in the checkout,
# including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" || ! -d "$root/cmd/ftserve" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/ftserve and perfbench/)" >&2
	exit 2
fi
work="$root/.perfbench"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$work/bin/ftserve" ./cmd/ftserve
(cd perfbench && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" -work "$work" -ftserve "$work/bin/ftserve" "$@"
