#!/usr/bin/env bash
# Builds the benchmark and codsnode from source into bench/.build/ and runs
# the benchmark with the given arguments. Everything the Go toolchain writes
# (build cache, temporaries, module cache, telemetry) stays inside
# bench/.build/, so a run reads and writes only inside its checkout, and
# only under bench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/.build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The toolchain's telemetry counters and its env file live in the user
# configuration directory; keep that inside the checkout too.
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(
	cd "$root/bench"
	go build -o "$build/bin/codsbench" .
	go build -o "$build/bin/codsnode" github.com/insitu/cods/cmd/codsnode
) >&2
cd "$root"
exec "$build/bin/codsbench" "$@"
