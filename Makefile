# Local targets mirror .github/workflows/ci.yml one for one, so `make ci`
# reproduces exactly what a PR is gated on.

GO ?= go

.PHONY: all fmt vet build test bench bench-json bench-check bench-diff cover ring-demo ci

all: build

fmt: ## fail if any file needs gofmt
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

bench: ## one-iteration benchmark smoke run (the CI bench-smoke job)
	@$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.txt 2>&1; \
		rc=$$?; cat bench.txt; exit $$rc

bench-json: ## regenerate the per-PR perf trajectory JSON (BENCH_<n>.json)
	./scripts/bench-json.sh $(or $(OUT),bench.json)

bench-check: ## fail on >10% cached- or cold-plan slowdown, any alloc growth, or a replay throughput drop vs baseline
	./scripts/bench-json.sh --check $(or $(BASELINE),BENCH_10.json)

bench-diff: ## report the delta between the last two committed BENCH_*.json
	./scripts/bench-diff.sh

cover: ## -race suite + per-package coverage + the server+tenant gate
	./scripts/coverage.sh

ring-demo: ## 3-replica escrow fleet smoke: local plans, trace across a lease call, eviction/re-admission, owner-crash lease reclaim
	./scripts/ring-demo.sh

# cover subsumes test (its single -race run is both gates), so ci does not
# execute the suite twice.
ci: fmt vet build cover bench ring-demo
