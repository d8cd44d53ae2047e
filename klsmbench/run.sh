#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash klsmbench/run.sh --workload engine_uniform --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced run's spans all go under
# the build directory ($CARGO_TARGET_DIR if set, else .bench_build), so the
# run reads and writes nothing outside the repository besides the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOMAXPROCS=2

sha=unknown
if [ -d .git ]; then
	sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd klsmbench && go build -buildvcs=false -o "$build/klsmbench" .)
KLSMBENCH_GIT_SHA="$sha" exec "$build/klsmbench" --trace-dir "$build/trace" "$@"
