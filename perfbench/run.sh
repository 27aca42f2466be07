#!/usr/bin/env bash
# Runs the repository benchmark. Call it from the repository root:
#
#   bash perfbench/run.sh --workload tpcc --seed 1 --seconds 30 --trace 0
#
# perfbench/ is a main package in a module of its own that uses the
# repository's packages through a replace directive, so it builds only inside
# a full checkout. Every build product, WAL directory and trace file goes to
# .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd "$root/perfbench"
exec go run . --out "$out" "$@"
