#!/usr/bin/env bash
# Builds the validator benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload campaign|space|triage --seed N \
#       --seconds S --trace 0|1
#   bash perfbench/run.sh --harvest DIR [--from A --to B]
#
# Run from the repository root. Every build and cache file stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build), so the
# script writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off # every dependency is in the checkout; never fetch

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -spans "$build" -inputs "$here/triage" "$@"
