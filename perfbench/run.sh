#!/usr/bin/env bash
# Builds chronosd and the perfbench command from this checkout's sources into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout), then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 20 --trace 0
#
# Binaries are rebuilt only when a .go file or go.mod is newer than them.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
mkdir -p "$out/bin" "$GOCACHE" "$GOTMPDIR"

stale() { # stale BINARY DIR...: true when BINARY is missing or older than a source
	local bin=$1
	shift
	[[ ! -x $bin ]] && return 0
	[[ -n $(find "$@" \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit) ]]
}

if stale "$out/bin/chronosd" "$root/go.mod" "$root"/*.go "$root/internal" "$root/cmd/chronosd"; then
	go build -o "$out/bin/chronosd" ./cmd/chronosd
fi
if stale "$out/bin/perfbench" "$root/go.mod" "$root"/*.go "$root/internal" "$root/perfbench"; then
	(cd perfbench && go build -o "$out/bin/perfbench" .)
fi
exec "$out/bin/perfbench" "$@"
