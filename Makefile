# Local entry points mirroring .github/workflows/ci.yml, so local and CI
# runs cannot drift: `make ci` executes exactly the workflow's steps.
# (The only tolerated difference: staticcheck/govulncheck are installed
# on CI runners; locally they run when present on PATH and are skipped
# with a notice otherwise, since offline sandboxes cannot `go install`.)

GO ?= go
COVERAGE_FLOOR ?= 75.0

.PHONY: build test race-stress alloc-stress bench bench-sim bench-repo loc coverage smoke smoke-scenarios smoke-incremental smoke-trace fuzz-smoke lint ci fmt

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Mirrors the workflow's race-stress step: exercise the parallel sweep
# workers, the online submission paths, and fault recovery repeatedly
# under -race at two GOMAXPROCS widths.
race-stress:
	GOMAXPROCS=2 $(GO) test -race -count=2 ./internal/sched/ ./internal/core/ ./internal/serve/
	GOMAXPROCS=8 $(GO) test -race -count=2 ./internal/sched/ ./internal/core/ ./internal/serve/

# Mirrors the workflow's alloc-stress step: the allocation gates must hold
# while tests share the CPU, as they do under `go test ./...`. Six copies
# run at once, eight rounds each; a round runs every allocation gate
# (experiments' goldens, the pairstore ingest budget, core's and the
# fleet's allocation tests) from prebuilt test binaries. All 48 rounds
# must pass.
ALLOC_GATES = experiments:Golden pairstore:TestIngestAllocationBudget \
	core:'TestAllocations|TestRunFixedCost|TestSpansAllocateOnlyTheRing' \
	fleet:TestFleetAllocationBudget
alloc-stress:
	rm -rf /tmp/rocket-alloc-stress && mkdir -p /tmp/rocket-alloc-stress
	for pkg in experiments pairstore core fleet; do \
		$(GO) test -c -o /tmp/rocket-alloc-stress/$$pkg.test ./internal/$$pkg || exit 1; \
	done
	for copy in 1 2 3 4 5 6; do \
		for round in 1 2 3 4 5 6 7 8; do \
			ok=pass; \
			for gate in $(ALLOC_GATES); do \
				pkg=$${gate%%:*}; \
				(cd internal/$$pkg && /tmp/rocket-alloc-stress/$$pkg.test -test.run "$${gate#*:}" -test.count 1 > /dev/null) || ok=FAIL; \
			done; \
			echo "copy $$copy round $$round $$ok"; \
		done > /tmp/rocket-alloc-stress/copy$$copy.log & \
	done; \
	wait
	@cat /tmp/rocket-alloc-stress/copy*.log | grep FAIL || true
	@passed=$$(grep -c 'pass$$' /tmp/rocket-alloc-stress/copy*.log | awk -F: '{n += $$2} END {print n}'); \
	echo "alloc-stress: $$passed of 48 rounds passed"; test "$$passed" -eq 48

# Full evaluation at reporting scale (minutes): every table and figure,
# printed. No timing; bench-repo is the timing reference, and
# internal/experiments' TestExperimentsGolden pins the outputs and counts.
bench:
	$(GO) run ./cmd/rocket experiments -exp all

# Engine microbenchmarks: event dispatch, deep-queue churn, arrival churn,
# contended resource hand-off, typed-mailbox throughput; -benchmem reads 0
# on all.
bench-sim:
	$(GO) test -bench=. -benchmem -count=1 -run='^$$' ./internal/sim/

# The repo benchmark (BENCHMARK.json): all six workloads, one process each,
# built into .bench_build/. The timing reference; see bench/README.md.
bench-repo:
	bash bench/run.sh --seed 1

# Non-test Go lines outside bench/: the counter every deletion PR reports
# against (24 710 before PR 20).
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l

# Mirrors the workflow's coverage job: total statement coverage across all
# packages must not drop below the seed-measured floor.
coverage:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./... ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub("%","",$$NF); print $$NF}'); \
	echo "total coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }'

# Mirrors the workflow's smoke job: every example and every rocket
# subcommand runs end to end at tiny scale, including a serve -> drain ->
# offline-replay round trip.
smoke:
	for d in examples/*/; do echo "== go run ./$$d"; $(GO) run "./$$d" > /dev/null || exit 1; done
	$(GO) build -o /tmp/rocket-smoke ./cmd/rocket
	/tmp/rocket-smoke experiments -exp fig6 -scale 200 -seed 1 > /dev/null
	/tmp/rocket-smoke trace timeline -app forensics -n 8 -limit 20 > /dev/null
	/tmp/rocket-smoke queue -example > /tmp/rocket-smoke-jobs.json
	/tmp/rocket-smoke queue -manifest /tmp/rocket-smoke-jobs.json -policy fifo > /dev/null
	/tmp/rocket-smoke queue -replay /tmp/rocket-smoke-jobs.json -json > /dev/null
	/tmp/rocket-smoke serve -addr 127.0.0.1:18080 -nodes 4 -time-scale 0 -log /tmp/rocket-smoke-served.json > /tmp/rocket-smoke-report.txt & \
	pid=$$!; \
	sleep 1; \
	curl -sf 127.0.0.1:18080/healthz > /dev/null && \
	curl -sf 127.0.0.1:18080/v1/jobs -d '{"app":"forensics","items":8}' > /dev/null && \
	curl -sf 127.0.0.1:18080/v1/jobs -d '{"app":"microscopy","items":8,"tenant":"lab"}' > /dev/null && \
	sleep 2 && \
	curl -sf 127.0.0.1:18080/metrics | grep -q 'rocketd_jobs' && \
	kill -TERM $$pid && wait $$pid || { kill $$pid 2>/dev/null; exit 1; }
	/tmp/rocket-smoke queue -replay /tmp/rocket-smoke-served.json > /tmp/rocket-smoke-replay.txt
	tail -2 /tmp/rocket-smoke-report.txt > /tmp/rocket-smoke-report-tail.txt
	tail -2 /tmp/rocket-smoke-replay.txt > /tmp/rocket-smoke-replay-tail.txt
	diff /tmp/rocket-smoke-report-tail.txt /tmp/rocket-smoke-replay-tail.txt
	/tmp/rocket-smoke load -local -jobs 16 -clients 8 -items 8
	/tmp/rocket-smoke load -local -jobs 8 -mode open -rate 100 -items 8 -fault-rate 0.25
	/tmp/rocket-smoke load -local -jobs 8 -items 8 -max-nodes 4 -scenario scenarios/crash-recovery.yaml

# Mirrors the workflow's smoke-scenarios job: every committed scenario
# runs twice with the same seed; the run fails on any assertion failure
# (exit 1) and the two JSON reports of each scenario must be
# byte-identical — a replayability gate over the whole corpus. Reports
# land in /tmp/rocket-scenario-reports (uploaded as a CI artifact).
smoke-scenarios:
	$(GO) build -o /tmp/rocket-smoke ./cmd/rocket
	/tmp/rocket-smoke scenario validate scenarios/*.yaml
	rm -rf /tmp/rocket-scenario-reports /tmp/rocket-scenario-reports-rerun
	mkdir -p /tmp/rocket-scenario-reports /tmp/rocket-scenario-reports-rerun
	/tmp/rocket-smoke scenario run -report /tmp/rocket-scenario-reports scenarios/*.yaml
	/tmp/rocket-smoke scenario run -q -report /tmp/rocket-scenario-reports-rerun scenarios/*.yaml
	diff -r /tmp/rocket-scenario-reports /tmp/rocket-scenario-reports-rerun

# Mirrors the workflow's smoke-incremental step: the pair-store
# warm-start flow end to end — create a dataset, run it, append, run the
# delta, assert the base pairs were served from the store (66 = C(12,2)
# hits on the delta job), then replay the served log offline and require
# byte-identical fleet summaries. Store segment stats land in
# /tmp/rocket-incr-store-stats.json (uploaded as a CI artifact).
smoke-incremental:
	$(GO) build -o /tmp/rocket-smoke ./cmd/rocket
	rm -f /tmp/rocket-incr-store.json /tmp/rocket-incr-store.json.datasets
	rm -rf /tmp/rocket-incr-store.json.segments
	/tmp/rocket-smoke serve -addr 127.0.0.1:18081 -nodes 4 -time-scale 0 \
		-log /tmp/rocket-incr-served.json -store /tmp/rocket-incr-store.json \
		-store-stats /tmp/rocket-incr-store-stats.json > /tmp/rocket-incr-report.txt & \
	pid=$$!; \
	sleep 1; \
	curl -sf 127.0.0.1:18081/v1/datasets -d '{"id":"corpus","app":"forensics","items":12,"seed":7}' > /dev/null && \
	curl -sf -X POST 127.0.0.1:18081/v1/datasets/corpus/jobs -d '{}' > /dev/null && \
	sleep 2 && \
	curl -sf -X POST 127.0.0.1:18081/v1/datasets/corpus/append -d '{"items":4}' > /dev/null && \
	curl -sf -X POST 127.0.0.1:18081/v1/datasets/corpus/jobs -d '{}' > /dev/null && \
	sleep 2 && \
	curl -sf 127.0.0.1:18081/v1/jobs/job1/result | grep -q '"store_hits": 66' && \
	curl -sf 127.0.0.1:18081/metrics | grep -q 'rocketd_store_served_pairs_total 66' && \
	curl -sf 127.0.0.1:18081/v1/store > /dev/null && \
	kill -TERM $$pid && wait $$pid || { kill $$pid 2>/dev/null; exit 1; }
	/tmp/rocket-smoke queue -replay /tmp/rocket-incr-served.json > /tmp/rocket-incr-replay.txt
	tail -3 /tmp/rocket-incr-report.txt > /tmp/rocket-incr-report-tail.txt
	tail -3 /tmp/rocket-incr-replay.txt > /tmp/rocket-incr-replay-tail.txt
	diff /tmp/rocket-incr-report-tail.txt /tmp/rocket-incr-replay-tail.txt
	test -s /tmp/rocket-incr-store.json
	test -s /tmp/rocket-incr-store-stats.json

# Mirrors the workflow's smoke-trace step: the observability layer's
# determinism gate. The quickstart and stress-1k scenarios
# export Perfetto JSON twice each and every pair must be byte-identical —
# the flight recorder's canonical span ordering makes trace output a pure
# function of the workload. (That recording changes no experiment's output
# is TestExperimentsWorkerAndTraceInvariance's to check.) Exports land in
# /tmp/rocket-trace-exports (uploaded as a CI artifact).
smoke-trace:
	$(GO) build -o /tmp/rocket-smoke ./cmd/rocket
	rm -rf /tmp/rocket-trace-exports
	mkdir -p /tmp/rocket-trace-exports
	for sc in quickstart stress-1k; do \
		/tmp/rocket-smoke trace export -scenario scenarios/$$sc.yaml -o /tmp/rocket-trace-exports/$$sc.json && \
		/tmp/rocket-smoke trace export -scenario scenarios/$$sc.yaml -o /tmp/rocket-trace-exports/$$sc.rerun.json && \
		cmp /tmp/rocket-trace-exports/$$sc.json /tmp/rocket-trace-exports/$$sc.rerun.json || exit 1; \
	done
	/tmp/rocket-smoke trace top -scenario scenarios/stress-1k.yaml > /dev/null

# Mirrors the workflow's fuzz step: short go-native fuzz runs over the
# manifest codec (seed corpus under internal/jobspec/testdata), the
# columnar segment codec — truncated or bit-flipped segment files must
# fail with a structured *CorruptError, never a panic — the store against
# its map model (seed corpora under internal/pairstore/testdata), the
# scheduler over generated queue programs (internal/sched/testdata), and
# the scenario decoder (internal/scenario/testdata): Parse never panics
# and an accepted scenario compiles to a valid, repeatable schedule.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzManifestRoundTrip -fuzztime=10s ./internal/jobspec/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentRoundTrip -fuzztime=10s ./internal/pairstore/
	$(GO) test -run='^$$' -fuzz=FuzzStoreOps -fuzztime=10s ./internal/pairstore/
	$(GO) test -run='^$$' -fuzz=FuzzQueueProgram -fuzztime=10s ./internal/sched/
	$(GO) test -run='^$$' -fuzz=FuzzScenarioParse -fuzztime=10s ./internal/scenario/
	$(GO) test -run='^$$' -fuzz=FuzzKeyHeap -fuzztime=10s ./internal/sim/

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not on PATH, skipped (CI installs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not on PATH, skipped (CI installs it)"; fi
	@echo "non-test Go lines outside bench/: $$($(MAKE) -s loc)"

fmt:
	gofmt -w .

ci: lint build test race-stress alloc-stress bench-sim
	$(MAKE) coverage
	$(MAKE) fuzz-smoke
	$(MAKE) smoke
	$(MAKE) smoke-scenarios
	$(MAKE) smoke-incremental
	$(MAKE) smoke-trace
