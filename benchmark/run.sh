#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, module cache, telemetry) inside the checkout,
# under .bench_build/. Arguments go to the benchmark unchanged:
#
#   bash benchmark/run.sh --workload hot_mix --seed 7 --seconds 12 --trace 0
#   bash benchmark/run.sh -runs 3 -out /tmp/new.json
#   bash benchmark/run.sh -compare benchmark/results/baseline.json /tmp/new.json
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/pctbenchmark" .)
cd "$root"
exec "$build/pctbenchmark" "$@"
