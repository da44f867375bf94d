#!/usr/bin/env bash
# Builds adpmbench from this checkout and runs it with the arguments
# given. Everything the Go toolchain writes (build cache, temp files,
# module cache, telemetry) is kept under bench/out/build/ in the
# checkout, so a run reads and writes nothing outside it. adpmbench
# builds adpmd and adpmproxy the same way before it starts them.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
build="$root/bench/out/build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/bench" build -o "$build/bin/adpmbench" .
exec "$build/bin/adpmbench" "$@"
