#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash nocbench/run.sh --workload table3|scale1024|serve --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Every file the build and the run
# write stays under .bench_build/ in that checkout: the Go build and
# module caches, the binary, and the serve workload's store directories.
# Without the simulator's sources beside nocbench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

# The official Go distribution installs under /usr/local/go.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/nocbench" && go build -o "$out/nocbench" .)
exec "$out/nocbench" "$@"
