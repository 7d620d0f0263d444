#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload chaos-cold --seed 0 --seconds 15 --trace 0
#
# Run it from the root of the repository. Every file the build or the
# run writes (Go build cache, binary, spans, scratch state) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
