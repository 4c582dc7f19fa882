# Tier-1 gate: everything `make ci` runs must stay green.

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci vet lint staticcheck build test race race-internal race-serve \
	race-diff race-rest race-cmd fuzz-smoke bench bench-smoke benchdiff \
	perfbench-test api apicheck serve loadtest clean

ci: vet lint staticcheck build apicheck race fuzz-smoke perfbench-test

# Public API surface gate: API.txt is the committed `go doc -all`
# rendering of the root package. apicheck regenerates it and fails on
# any drift, so every exported-surface change is explicit in review;
# after an intentional change, `make api` refreshes the committed file.
api:
	$(GO) doc -all . > API.txt

apicheck:
	@mkdir -p .tmp
	@$(GO) doc -all . > .tmp/API.txt
	@diff -u API.txt .tmp/API.txt \
		|| { echo "apicheck: exported API drifted from API.txt; run 'make api' and commit if intended" >&2; exit 1; }

vet:
	$(GO) vet ./...

# Invariant gate: the repo's own analyzer suite (internal/analysis,
# driven by cmd/pugzvet) run through `go vet -vettool`, so findings
# carry file:line positions and per-package caching like any vet pass.
# The tree must stay finding-free — there is no suppression syntax and
# no baseline file by design; fix the code or fix the analyzer.
PUGZVET := .tmp/pugzvet
lint:
	@mkdir -p .tmp
	$(GO) build -o $(PUGZVET) ./cmd/pugzvet
	$(GO) vet -vettool=$(abspath $(PUGZVET)) ./...

# Optional extra linting: runs staticcheck when (and only when) a
# staticcheck binary is already on PATH. The container and CI cache may
# lack network access, so this is a local convenience, not a gate —
# CI installs its own copy in the lint job.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: binary not found on PATH; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race suite runs as separate package groups with explicit
# timeouts (mirrored by CI), so one slow group cannot mask which area
# regressed and a local reproduction can target just the group that
# failed — essential on small boxes where the monolithic run crawls.
RACETIMEOUT ?= 15m
# Root-package split: the differential/roundtrip suite vs the
# streaming/file/index surfaces. The two patterns are complements by
# construction (-run vs -skip on the same expression), so every root
# test runs under -race in exactly one group.
DIFFPAT := ^(TestDifferential|TestDecompress|TestCorrupt|TestFullCircle|TestCompress|TestClassify|TestPublic|TestExperiments)

race: race-internal race-serve race-diff race-rest race-cmd

# The serving subsystem is its own group: its eviction-storm and
# concurrency stress tests dominate the internal-package wall time.
race-internal:
	$(GO) test -race -timeout $(RACETIMEOUT) $$($(GO) list ./internal/... | grep -v '/internal/serve')

race-serve:
	$(GO) test -race -timeout $(RACETIMEOUT) ./internal/serve/...

race-diff:
	$(GO) test -race -timeout $(RACETIMEOUT) -run '$(DIFFPAT)' .

race-rest:
	$(GO) test -race -timeout $(RACETIMEOUT) -skip '$(DIFFPAT)' .

race-cmd:
	$(GO) test -race -timeout $(RACETIMEOUT) ./cmd/...

# Short-iteration fuzz smoke over both differential targets: enough to
# replay the checked-in corpus plus a burst of fresh mutations.
fuzz-smoke:
	$(GO) test . -run '^$$' -fuzz FuzzDecompress -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzNewReader -fuzztime $(FUZZTIME)

# Full benchmark sweep with allocation accounting, captured as test2json
# event lines for the perf trajectory (BENCH_PR2.json, BENCH_PR4.json,
# ...). Set PR to this PR's number when capturing a new checkpoint —
# `make bench PR=5` writes BENCH_PR5.json — and commit the file;
# `make benchdiff` (and CI) compares the two most recent captures.
# BENCHTIME can be raised for stable numbers on quiet hardware.
PR ?= 13
BENCHTIME ?= 1x
BENCHOUT ?= BENCH_PR$(PR).json
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . > $(BENCHOUT)
	@grep -o '"Output":"Benchmark[^"]*"' $(BENCHOUT) | sed 's/"Output":"//;s/"$$//;s/\\t/\t/g;s/\\n//' || true

# Quick smoke: every benchmark runs once, no JSON capture. CI uses this
# to catch bit-rotted benchmark code without paying for real timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Perf-trajectory gate: diff the two most recent BENCH_PRn.json
# captures; >30% ns/op or allocs/op regressions on the gated hot-path
# benchmarks fail, everything else warns (see cmd/benchdiff).
benchdiff:
	$(GO) run ./cmd/benchdiff -auto .

# perfbench (the repository's benchmark, see BENCHMARK.json) is a
# nested module, so ./... above never reaches it; yet it imports the
# internal decoders directly. Vet it and run its tiny-scale smoke of
# every workload so a library change cannot silently break it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# --- Serving daemon -------------------------------------------------
# `make serve` mounts a synthetic blob corpus (generated once into
# .tmp/blobs, one blob with a sidecar index) under a local pugzd;
# `make loadtest` is the end-to-end smoke: daemon up, a short mixed
# sequential/random trace (every response must be a correct 206), then
# SIGTERM and an asserted clean exit 0.
SERVEADDR ?= 127.0.0.1:8457
BLOBDIR := .tmp/blobs

$(BLOBDIR)/.stamp:
	mkdir -p $(BLOBDIR)
	$(GO) run ./cmd/gzsynth -reads 20000 -seed 41 -o $(BLOBDIR)/reads.fastq.gz
	$(GO) run ./cmd/gzsynth -kind dna -bytes 2000000 -seed 42 -level 9 -o $(BLOBDIR)/genome.gz
	$(GO) run ./cmd/gzsynth -reads 8000 -seed 43 -level 0 -o $(BLOBDIR)/stored.gz
	$(GO) run ./cmd/pugz -mkindex $(BLOBDIR)/reads.fastq.gz.gzx $(BLOBDIR)/reads.fastq.gz
	touch $@

serve: $(BLOBDIR)/.stamp
	$(GO) run ./cmd/pugzd -addr $(SERVEADDR) -dir $(BLOBDIR)

loadtest: $(BLOBDIR)/.stamp
	$(GO) build -o .tmp/pugzd ./cmd/pugzd
	@set -e; \
	.tmp/pugzd -addr $(SERVEADDR) -dir $(BLOBDIR) & pid=$$!; \
	ok=0; .tmp/pugzd -loadtest -duration 2s -c 8 http://$(SERVEADDR) && ok=1; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	if [ $$ok -ne 1 ]; then echo "loadtest: trace had errors" >&2; exit 1; fi; \
	if [ $$rc -ne 0 ]; then echo "loadtest: daemon exit $$rc, want clean 0" >&2; exit 1; fi; \
	echo "loadtest: trace clean, daemon drained and exited 0"

clean:
	rm -rf .tmp
