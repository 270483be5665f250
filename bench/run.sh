#!/usr/bin/env bash
# Builds the benchmark driver from source into .bench_build/ at the root of
# the checkout and runs it there, passing every argument through. The Go
# build cache and the toolchain's telemetry counters (which go to the user's
# configuration directory by default) live in the same directory, so nothing
# is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
go build -C "$here" -o "$build/powerchief-bench" .
cd "$root"
exec "$build/powerchief-bench" "$@"
