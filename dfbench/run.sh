#!/usr/bin/env bash
# Builds dfserve and the dfbench command from source into .bench_build/
# and runs the benchmark from the repository root; every argument goes
# to dfbench (see dfbench/main.go). Go's build cache, temporary files and
# home directory are kept inside .bench_build/ as well, so a run reads
# and writes nothing outside the checkout. The binaries are rebuilt only
# when a file of the checkout is newer than them, so repeated runs do not
# rewrite them on the disk the benchmark measures.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
if [ ! -f go.mod ] || [ ! -d cmd/dfserve ]; then
	echo "dfbench: no dfserve source (go.mod, cmd/dfserve) in $PWD" >&2
	exit 1
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/home/.config/go/telemetry"
# Telemetry off: otherwise the go command may fork a detached telemetry
# child that outlives the build and the benchmark.
echo off >"$out/home/.config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
stale() {
	[ ! -x "$1" ] || [ -n "$(find . \( -path ./.bench_build -o -path ./.git \) -prune -o \
		-type f -newer "$1" -print -quit)" ]
}
if stale "$out/dfserve" || stale "$out/dfbench"; then
	go build -o "$out/dfserve" ./cmd/dfserve
	(cd dfbench && go build -o "$out/dfbench" .)
fi
exec "$out/dfbench" --dfserve "$out/dfserve" --work-dir "$out" "$@"
