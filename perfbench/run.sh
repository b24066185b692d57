#!/usr/bin/env bash
# Builds the benchmark and cmd/hsserve from the checkout's source into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload paper-scale --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache included) stays under
# .bench_build/ in the directory this is started from, which must be the
# repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found in $root)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
go -C "$root" build -o "$build/hsserve" ./cmd/hsserve >&2

exec "$build/perfbench" -hsserve "$build/hsserve" -workdir "$build/work" "$@"
