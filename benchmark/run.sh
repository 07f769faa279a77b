#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, temporaries, telemetry)
# is redirected under .bench_build/ so a run touches nothing outside.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/benchmark" && go build -o "$build/sagnn-benchmark" .) >&2
exec "$build/sagnn-benchmark" "$@"
