#!/bin/sh
# Benchmark pass with machine-readable output.
#
# Usage: scripts/bench.sh OUT.json [bench-pattern]
#
# Parses `go test -bench` lines into OUT.json as an array of
# {"op": name, "ns_per_op": n, "bytes_per_op": n, "allocs_per_op": n}
# records so successive PRs can diff performance without re-reading prose
# tables. Earlier PRs' snapshots (BENCH_PR2.json onward) stay in the repo
# for comparison; those before BENCH_PR13.json carry no bytes_per_op.
#
# Two suites live behind this script:
#   make bench        regular suite, BENCH_SHORT=1 so the Scale* 1M-fleet
#                     benchmarks skip themselves (they guard on -short)
#   make bench-scale  only the Scale* benchmarks — 1M tasks / 100K shards /
#                     10K containers / 1M series — into BENCH_SCALE.json
#
# Env knobs:
#   BENCHTIME    value for -benchtime (default 2s)
#   BENCH_SHORT  non-empty adds -short: scale-tier benchmarks skip
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: $0 OUT.json [bench-pattern]" >&2
    exit 2
fi
OUT="$1"
PATTERN="${2:-.}"
BENCHTIME="${BENCHTIME:-2s}"
SHORT=""
if [ -n "${BENCH_SHORT:-}" ]; then
    SHORT="-short"
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# shellcheck disable=SC2086 # SHORT is deliberately word-split ("" or -short)
go test ./... -run 'XXXNONE' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" $SHORT | tee "$RAW"

# Benchmark lines look like:
#   BenchmarkRecordParallel16-1   123456   55.95 ns/op   0 B/op   0 allocs/op
awk '
BEGIN { print "["; n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (bytes == "") bytes = "null"
    if (allocs == "") allocs = "null"
    if (n++) printf ",\n"
    printf "  {\"op\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT"
