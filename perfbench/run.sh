#!/usr/bin/env bash
# Builds the whole-system benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <diurnal|push|failover> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build artefact (Go build
# cache, temporary files, the binary) and every trace file goes under
# .bench_build (or $CARGO_TARGET_DIR when set), so a run reads and writes
# nothing outside the checkout. The last line on standard output is the
# JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
unset GOWORK

# A build failure (for example, no program source beside the benchmark)
# ends the run here with go's exit code and no result line.
go -C perfbench build -o "$build/perfbench" . >&2

exec "$build/perfbench" --out "$build/perfbench-out" "$@"
