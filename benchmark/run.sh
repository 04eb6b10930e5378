#!/usr/bin/env bash
# Builds the benchmark (once per checkout) and runs it. The benchmark is the
# main package ./benchmark of the repository's module; this script is its
# build file. Everything the build writes — the Go build cache, work
# directory, module cache and telemetry counters included — stays under
# .bench_build in the checkout, because a run may write nowhere else; nothing
# is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
bin="$out/bipie-benchmark"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: $root holds no go.mod, so there is no program to build and measure" >&2
	exit 2
fi
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on (the default in a fresh config directory) the go command
# starts a detached child that outlives the run; a run may leave no process.
echo off >"$out/config/go/telemetry/mode"
cd "$root"
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$bin" ./benchmark >&2
fi
exec "$bin" "$@"
