#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash simbench/run.sh --workload mc4-intensive --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and output stays under .bench_build/ in
# the checkout. The build fails (and nothing is run) when the simulator
# sources are not beside simbench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/simbench"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

bin="$build/simbench"
tmp="$build/simbench.$$"
(cd "$root/simbench" && go build -o "$tmp" .)
mv -f "$tmp" "$bin"
exec "$bin" --out "$build" "$@"
