# Standard developer entry points. Everything is stdlib Go; no tools
# beyond the Go toolchain are required.

GO ?= go

.PHONY: all build vet test race cover bench bench-figures bench-json bench-kernels experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# The complete benchmark suite (all paper figures, the org audit, and
# the ablations). Expect ~10-20 minutes; the float64-baseline points
# are intentionally slow — they are the paper's argument.
bench:
	$(GO) test -bench=. -benchmem ./...

# Only the paper-figure benchmark families, one iteration each.
bench-figures:
	$(GO) test -bench 'Figure2|Figure3$$|OrgScale' -benchtime 1x .

# Figures + ablations + arena kernels with -benchmem, median-of-5 per
# point, converted to a committed JSON snapshot (BENCH_PR9.json) via
# cmd/benchjson, with a non-blocking regression diff against the
# previous snapshot. BENCH_TIME, BENCH_COUNT and BENCH_CPU tune the
# runs; see scripts/bench_json.sh.
bench-json:
	sh scripts/bench_json.sh

# Arena kernel micro-benchmarks only (internal/bitmat), median-of-5,
# diffed against the committed BENCH_PR9.json; >25% ns/op kernel
# regressions emit non-blocking ::warning:: annotations (see
# scripts/bench_kernels.sh). Fast enough for per-push CI.
bench-kernels:
	sh scripts/bench_kernels.sh

# Regenerate the recorded evaluation outputs under results/.
experiments:
	$(GO) run ./cmd/rolediet sweep -axis users -fixed 1000 \
		-values 1000,2000,4000,7000,10000 -runs 5 > results/figure2.txt
	$(GO) run ./cmd/rolediet sweep -axis roles -fixed 1000 \
		-values 1000,2000,4000,7000,10000 -runs 5 > results/figure3.txt
	$(GO) run ./examples/orgaudit > results/orgaudit_full.txt
	$(GO) run ./cmd/rolediet recall > results/recall.txt

clean:
	rm -f rolediet roledietd
