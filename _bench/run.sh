#!/usr/bin/env bash
# Builds the repository benchmark from this checkout and runs it:
#
#   bash _bench/run.sh --workload lte-paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binary, the
# span files of traced runs and the deployment's scratch files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/ran" ]]; then
	echo "run.sh: run from the root of an outran checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$root/_bench" -o "$out/outran-bench-suite" .
exec "$out/outran-bench-suite" "$@"
