#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <sim-sync|sim-async|net-flat|net-tree> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
