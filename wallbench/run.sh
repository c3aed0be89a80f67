#!/usr/bin/env bash
# Builds the wall benchmark from the checkout's source and runs it.
#
#   bash wallbench/run.sh --workload hd-2x2 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, generated-content cache, traces, profiles) stays
# under .bench_build/ in the current directory.
set -euo pipefail

out=.bench_build
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$GOTMPDIR"

# With only the benchmark directory present (no module source next to it)
# the build fails here and the benchmark exits non-zero without a result.
(cd wallbench && go build -o "$out/wallbench" .)

exec "$out/wallbench" --out-dir "$out/wallbench-out" "$@"
