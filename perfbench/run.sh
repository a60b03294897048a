#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in (the current
# directory) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload explore-timing --seed 1 --seconds 10 --trace 0
#
# Build caches and temporary files stay under .bench_build/ in the
# checkout; nothing is fetched (the benchmark uses only the standard
# library and the repository's own packages).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
