#!/bin/sh
# Tier-1 verification: vet, build, race-enabled tests, and a one-shot
# benchmark smoke pass (compiles and exercises every benchmark body once;
# perf numbers come from `go test -bench . -benchtime 2s`, see
# EXPERIMENTS.md).
set -eux
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race -shuffle=on ./...
# The benchmark harness is its own module, so the root ./... patterns
# skip it; vet and self-test it against the packages it drives.
go -C perfbench vet ./...
go -C perfbench test ./...
# -short keeps the Scale* 1M-fleet benchmarks out of tier-1; CI's
# scale-smoke job runs them once, and `make bench-scale` measures them.
go test -short ./... -run 'XXXNONE' -bench . -benchtime 1x
# Wire-codec fuzz smoke: a few seconds per target over the committed
# corpus plus fresh mutations. Long fuzzing sessions grow the corpus
# offline; this catches frame-decoder and round-trip regressions fast.
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzFrameDecode' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzDocRoundTrip' -fuzztime 5s
go test ./internal/wire/stream -run 'XXXNONE' -fuzz 'FuzzStreamDecode' -fuzztime 5s
# The typed config decoder reads operator-supplied layers; its fuzz
# target checks it against the encoding/json round trip it replaces.
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzJobConfigFromDoc' -fuzztime 5s
