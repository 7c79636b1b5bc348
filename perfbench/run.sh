#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it from the checkout's root. Build outputs, the Go build cache and traced
# reports all stay under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload spec-read --seed 1 --seconds 30 --trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain off the network and out of the home directory.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
