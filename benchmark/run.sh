#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off \
	GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly
(cd "$root/benchmark" && go build -o "$out/ishbench" .)
exec "$out/ishbench" -spans "$out/spans" "$@"
