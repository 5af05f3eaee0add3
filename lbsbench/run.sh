#!/usr/bin/env bash
# Builds rexpd and the lbsbench program from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash lbsbench/run.sh --workload lbs-mixed --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ (or $CARGO_TARGET_DIR
# when set): binaries, the Go build cache, index files, spans, profiles.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/rexpd || ! -f lbsbench/go.mod ]]; then
	echo "lbsbench: run from the repository root (go.mod, cmd/rexpd and lbsbench/ are required)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/work"
# The build needs only the standard library, so the module cache and
# GOPATH can live under the build directory too.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOFLAGS= GOTOOLCHAIN=local GOENV=off

go build -o "$build/rexpd" ./cmd/rexpd
(cd lbsbench && go build -o "$build/lbsbench" .)
exec "$build/lbsbench" -rexpd "$build/rexpd" -workdir "$build/work" "$@"
