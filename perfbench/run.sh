#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# argument is passed through (see perfbench/LAYERS.md). All build state lives
# under .bench_build in the directory this is started from, which must be
# the repository root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
