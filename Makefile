.PHONY: check test bench bench-scale build

check: ## tier-1 verify: vet + build + race tests + bench smoke
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

bench: ## regular benchmark pass (scale tier skipped); writes BENCH_PR14.json
	BENCH_SHORT=1 ./scripts/bench.sh BENCH_PR14.json

bench-scale: ## 1M-fleet scale tier only; writes BENCH_SCALE.json
	BENCHTIME=$${BENCHTIME:-20x} ./scripts/bench.sh BENCH_SCALE.json Scale
