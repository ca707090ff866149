#!/usr/bin/env bash
# Builds faction-serve, faction-router and the e2ebench runner from the
# checkout it is run in, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload predict-small --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything it builds or writes stays under
# .bench_build in that root, including the Go build cache.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/faction-serve" ]]; then
	echo "e2ebench: $root holds no faction source tree; run from the checkout root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOPROXY=off

(cd "$root" && go build -o "$build/bin/" ./cmd/faction-serve ./cmd/faction-router) >&2
(cd "$here" && go build -o "$build/bin/e2ebench" .) >&2
exec "$build/bin/e2ebench" "$@"
