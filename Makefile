# Local development and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test test-short lint fmt vet bench bench-base bench-compare run-all scenario-golden catalog-golden perfbench-test fuzz-smoke serve-smoke serve-load serve-restart-smoke sweep-resume-smoke trace-smoke dist-smoke stream-smoke clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

lint: fmt vet

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# One iteration per benchmark: a smoke pass that keeps bench_test.go and
# ablation_bench_test.go compiling and running without a full measurement.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The gated hot-path benchmarks — the event kernel, the streaming work-plan
# executor every runner/sweep/API request rides on, and the population job
# stream (which must stay ~0 allocs/job at any client count) — measured long
# enough to gate on.
BENCH_KERNEL = $(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkExecStream|BenchmarkWorldTick|BenchmarkPopulationStream' -benchmem -benchtime 1s ./internal/sim ./internal/exec ./internal/mmog ./internal/workload

# Regenerate the committed perf baseline (run on the reference machine after
# an intentional kernel change, and commit the result).
bench-base:
	$(BENCH_KERNEL) | $(GO) run ./cmd/bench2json -suite kernel-base > BENCH_base.json

# Fail on a >20% ns/op or allocs/op regression of any kernel benchmark vs the
# committed baseline (the allocs gate has a +2 absolute slack so near-zero
# baselines tolerate an incidental allocation). CI runs this on every push;
# baselines from different hardware shift both sides of later comparisons
# together once regenerated. (A temp file instead of a pipe so a failing
# benchmark run fails the target under POSIX sh.)
bench-compare:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(BENCH_KERNEL) > "$$tmp"; \
	$(GO) run ./cmd/bench2json -compare BENCH_base.json -tolerance 0.20 -allocs-tolerance 0.20 < "$$tmp"

run-all:
	$(GO) run ./cmd/atlarge run --all --parallel 4

# End-to-end determinism check of the scenario engine through the CLI: each
# committed golden sweep (one per pinned domain) must produce byte-identical
# JSON at --parallel 1 and --parallel 8, matching the committed golden file.
scenario-golden:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for spec in policy-vs-load autoscaler-vs-load; do \
		$(GO) run ./cmd/atlarge scenario sweep examples/scenarios/$$spec.json --replicas 3 --parallel 1 --format json > "$$tmp/p1.json"; \
		$(GO) run ./cmd/atlarge scenario sweep examples/scenarios/$$spec.json --replicas 3 --parallel 8 --format json > "$$tmp/p8.json"; \
		cmp "$$tmp/p1.json" "$$tmp/p8.json"; \
		cmp "$$tmp/p1.json" internal/scenario/testdata/$$spec.golden.json; \
		echo "scenario-golden: $$spec OK"; \
	done

# Pin the machine-readable experiment catalog against its committed golden,
# so `atlarge list --format json` (and the serve API's /v1/experiments,
# which emits the same document) cannot drift silently. Regenerate with
#   go run ./cmd/atlarge list --format json > cmd/atlarge/testdata/catalog.golden.json
# after an intentional catalog change.
catalog-golden:
	@$(GO) run ./cmd/atlarge list --format json | cmp - cmd/atlarge/testdata/catalog.golden.json
	@echo "catalog-golden: OK"

# Vet and test the end-to-end benchmark module (perfbench/, a separate
# module that replaces atlarge with this checkout), so a break in the public
# API it calls fails here rather than only when the benchmark runs.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Short fuzz pass over the spec boundary the serve API exposes to remote
# clients: Parse + Expand must never panic, and a successful expansion must
# have exactly SweepSize cells (the server's pre-expansion cell bound relies
# on it). See FuzzParseSpec in internal/scenario.
fuzz-smoke:
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s

# End-to-end smoke of `atlarge serve`: boot it on an ephemeral port, check
# /v1/experiments matches the committed catalog golden, hit one /v1/run
# twice (the second, cached response must be byte-identical), drive a sweep
# through /v1/jobs (its result bytes must equal `atlarge scenario sweep
# --format json` on the same spec, and an identical resubmission must dedup
# onto the same job), check the removed POST /v1/scenario/sweep is no
# longer routed, and scrape /metrics.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill "$$pid" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" serve --addr 127.0.0.1:0 > "$$tmp/serve.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "serving" "$$tmp/serve.log" 2>/dev/null && break; sleep 0.2; \
	done; \
	url=$$(sed -n 's|.*\(http://[0-9.:]*\).*|\1|p' "$$tmp/serve.log"); \
	test -n "$$url" || { echo "serve-smoke: server never came up"; cat "$$tmp/serve.log"; exit 1; }; \
	curl -fsS "$$url/v1/experiments" > "$$tmp/catalog.json"; \
	cmp "$$tmp/catalog.json" cmd/atlarge/testdata/catalog.golden.json; \
	curl -fsS "$$url/v1/run?ids=fig9&seed=7" > "$$tmp/run1.json"; \
	curl -fsS "$$url/v1/run?ids=fig9&seed=7" > "$$tmp/run2.json"; \
	cmp "$$tmp/run1.json" "$$tmp/run2.json"; \
	printf '%s\n' '{"version": 2, "name": "smoke", "domain": "sched",' \
		'"policy": "sjf", "workload": {"class": "syn", "jobs": 8},' \
		'"cluster": {"machines": 2}, "seed": 7,' \
		'"sweep": {"policy": ["sjf", "fcfs"]}}' > "$$tmp/spec.json"; \
	printf '{"kind": "sweep", "spec": %s}' "$$(cat "$$tmp/spec.json")" > "$$tmp/job.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/job.json" "$$url/v1/jobs" > "$$tmp/accept.json"; \
	id=$$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$$tmp/accept.json" | head -1); \
	test -n "$$id" || { echo "serve-smoke: no job id"; cat "$$tmp/accept.json"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -fsS "$$url/v1/jobs/$$id" > "$$tmp/doc.json"; \
		grep -q '"state": "done"' "$$tmp/doc.json" && break; sleep 0.1; \
	done; \
	grep -q '"state": "done"' "$$tmp/doc.json" || { echo "serve-smoke: job never finished"; cat "$$tmp/doc.json"; exit 1; }; \
	curl -fsS "$$url/v1/jobs/$$id/result" > "$$tmp/result.json"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --format json > "$$tmp/cli.json"; \
	cmp "$$tmp/result.json" "$$tmp/cli.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/job.json" "$$url/v1/jobs" | grep -q "\"id\": \"$$id\"" \
		|| { echo "serve-smoke: identical resubmission did not dedup"; exit 1; }; \
	code=$$(curl -sS -o /dev/null -w '%{http_code}' -X POST --data-binary @"$$tmp/spec.json" "$$url/v1/scenario/sweep"); \
	case "$$code" in 2*) echo "serve-smoke: POST /v1/scenario/sweep still answers $$code"; exit 1;; esac; \
	curl -fsS "$$url/metrics" > "$$tmp/metrics.txt"; \
	for m in atlarge_queue_depth atlarge_cache_hit_ratio atlarge_http_requests_total atlarge_jobs; do \
		grep -q "$$m" "$$tmp/metrics.txt" || { echo "serve-smoke: /metrics missing $$m"; exit 1; }; \
	done; \
	echo "serve-smoke: OK (run cache, /v1/jobs result == CLI sweep, dedup, /v1/scenario/sweep unrouted, /metrics)"

# Load-test the serving layer in-process: N concurrent clients of mixed
# /v1/run and async /v1/jobs traffic; asserts zero dropped jobs, a
# client-observed p99 bound, and that /metrics reconciles with the clients'
# own tally. See cmd/serve-load.
serve-load:
	$(GO) run ./cmd/serve-load -clients 8 -rounds 30 -jobs 2 -p99 2s
	$(GO) run ./cmd/serve-load -clients 8 -rounds 30 -jobs 2 -p99 2s -workers 3

# End-to-end smoke of distributed sweep execution: boot 3 worker processes,
# run the 32-task sweep across them while SIGKILLing one worker mid-flight,
# and byte-compare the output against an in-process --parallel 8 run. Also
# pins the single-worker path (CSV this time, so both renderers are
# covered). The kill lands wherever it lands — the invariant is that the
# dispatcher re-runs exactly the lost tasks and the merged output is
# byte-identical regardless.
dist-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill "$$w1" "$$w2" "$$w3" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	printf '%s\n' '{"version": 1, "name": "dist-smoke",' \
		'"workload": {"class": "scientific", "jobs": 700},' \
		'"cluster": {"kind": "CL", "machines": 16, "cores": 8},' \
		'"replicas": 2, "seed": 42,' \
		'"sweep": {"policy": ["sjf", "fcfs", "easy-bf", "random"], "load": [0.5, 0.7, 0.9, 1.1]}}' \
		> "$$tmp/spec.json"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 8 --format json > "$$tmp/inprocess.json"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 8 --format csv > "$$tmp/inprocess.csv"; \
	"$$tmp/atlarge" worker --listen 127.0.0.1:0 --parallel 2 > "$$tmp/w1.log" 2>&1 & w1=$$!; \
	"$$tmp/atlarge" worker --listen 127.0.0.1:0 --parallel 2 > "$$tmp/w2.log" 2>&1 & w2=$$!; \
	"$$tmp/atlarge" worker --listen 127.0.0.1:0 --parallel 2 > "$$tmp/w3.log" 2>&1 & w3=$$!; \
	for log in w1 w2 w3; do \
		for i in $$(seq 1 50); do \
			grep -q "http://" "$$tmp/$$log.log" 2>/dev/null && break; sleep 0.1; \
		done; \
		grep -q "http://" "$$tmp/$$log.log" || { echo "dist-smoke: worker $$log never came up"; cat "$$tmp/$$log.log"; exit 1; }; \
	done; \
	a1=$$(sed -n 's|.*http://||p' "$$tmp/w1.log"); \
	a2=$$(sed -n 's|.*http://||p' "$$tmp/w2.log"); \
	a3=$$(sed -n 's|.*http://||p' "$$tmp/w3.log"); \
	( sleep 1.5; kill -9 "$$w3" 2>/dev/null ) & \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 2 --format json \
		--workers "$$a1,$$a2,$$a3" > "$$tmp/dist3.json" 2>"$$tmp/dist3.log"; \
	cmp "$$tmp/dist3.json" "$$tmp/inprocess.json"; \
	if grep -q "re-dispatched" "$$tmp/dist3.log"; then \
		echo "dist-smoke: $$(cat "$$tmp/dist3.log")"; \
	else \
		echo "dist-smoke: WARNING: sweep finished before the kill cost any claims; byte-identity still checked"; \
	fi; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 2 --format csv \
		--workers "$$a1" > "$$tmp/dist1.csv"; \
	cmp "$$tmp/dist1.csv" "$$tmp/inprocess.csv"; \
	echo "dist-smoke: OK (3-worker run with a mid-flight SIGKILL and 1-worker run both byte-identical to in-process)"

# Restart-durability smoke of `atlarge serve --state-dir`: submit the same
# multi-second sweep sweep-resume-smoke uses as an async job, SIGKILL the
# server mid-flight, restart it on the same state dir, and byte-compare the
# recovered job's result against an uninterrupted CLI run. The kill lands
# wherever it lands — resume must be byte-identical from ANY prefix of
# completed work.
serve-restart-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill "$$pid" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	printf '%s\n' '{"version": 1, "name": "restart-smoke",' \
		'"workload": {"class": "scientific", "jobs": 700},' \
		'"cluster": {"kind": "CL", "machines": 16, "cores": 8},' \
		'"replicas": 2, "seed": 42,' \
		'"sweep": {"policy": ["sjf", "fcfs", "easy-bf", "random"], "load": [0.5, 0.7, 0.9, 1.1]}}' \
		> "$$tmp/spec.json"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 1 --format json > "$$tmp/uninterrupted.json"; \
	"$$tmp/atlarge" serve --addr 127.0.0.1:0 --parallel 2 --state-dir "$$tmp/state" > "$$tmp/serve1.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "serving" "$$tmp/serve1.log" 2>/dev/null && break; sleep 0.2; \
	done; \
	url=$$(sed -n 's|.*\(http://[0-9.:]*\).*|\1|p' "$$tmp/serve1.log"); \
	test -n "$$url" || { echo "serve-restart-smoke: server never came up"; cat "$$tmp/serve1.log"; exit 1; }; \
	printf '{"kind": "sweep", "spec": %s}' "$$(cat "$$tmp/spec.json")" > "$$tmp/job.json"; \
	curl -fsS -X POST --data-binary @"$$tmp/job.json" "$$url/v1/jobs" > "$$tmp/accept.json"; \
	id=$$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$$tmp/accept.json" | head -1); \
	test -n "$$id" || { echo "serve-restart-smoke: no job id"; cat "$$tmp/accept.json"; exit 1; }; \
	sleep 1.5; \
	kill -9 "$$pid" 2>/dev/null; wait "$$pid" 2>/dev/null || true; \
	echo "serve-restart-smoke: killed server with $$(ls "$$tmp"/state/$$id/task-*.json 2>/dev/null | wc -l)/32 tasks checkpointed"; \
	"$$tmp/atlarge" serve --addr 127.0.0.1:0 --parallel 2 --state-dir "$$tmp/state" > "$$tmp/serve2.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		grep -q "serving" "$$tmp/serve2.log" 2>/dev/null && break; sleep 0.2; \
	done; \
	url=$$(sed -n 's|.*\(http://[0-9.:]*\).*|\1|p' "$$tmp/serve2.log"); \
	test -n "$$url" || { echo "serve-restart-smoke: restart never came up"; cat "$$tmp/serve2.log"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -fsS "$$url/v1/jobs/$$id" > "$$tmp/doc.json" 2>/dev/null || true; \
		grep -q '"state": "done"' "$$tmp/doc.json" 2>/dev/null && break; sleep 0.2; \
	done; \
	grep -q '"state": "done"' "$$tmp/doc.json" || { echo "serve-restart-smoke: job never finished after restart"; cat "$$tmp/doc.json"; exit 1; }; \
	curl -fsS "$$url/v1/jobs/$$id/result" > "$$tmp/resumed.json"; \
	cmp "$$tmp/resumed.json" "$$tmp/uninterrupted.json"; \
	echo "serve-restart-smoke: OK (recovered job result byte-identical to uninterrupted run)"

# End-to-end check of checkpoint/resume through the CLI: run a sweep sized
# to take a few seconds, kill it at roughly 50% via --timeout, resume from
# the checkpoint directory, and byte-compare the final JSON against an
# uninterrupted --parallel 1 run. The timeout lands wherever it lands — the
# invariant under test is that resume is byte-identical from ANY prefix of
# completed work (including none or all of it), so the target is
# deterministic even though the kill point is not.
sweep-resume-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	printf '%s\n' '{"version": 1, "name": "resume-smoke",' \
		'"workload": {"class": "scientific", "jobs": 700},' \
		'"cluster": {"kind": "CL", "machines": 16, "cores": 8},' \
		'"replicas": 2, "seed": 42,' \
		'"sweep": {"policy": ["sjf", "fcfs", "easy-bf", "random"], "load": [0.5, 0.7, 0.9, 1.1]}}' \
		> "$$tmp/spec.json"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 1 --format json > "$$tmp/uninterrupted.json"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 2 --format json \
		--checkpoint "$$tmp/ckpt" --timeout 1s > /dev/null 2>"$$tmp/interrupt.log" \
		&& { echo "sweep-resume-smoke: WARNING: sweep finished before the 1s kill; resume path still checked"; } \
		|| grep -q "run interrupted" "$$tmp/interrupt.log"; \
	echo "sweep-resume-smoke: interrupted with $$(ls "$$tmp"/ckpt/*/task-*.json 2>/dev/null | wc -l)/32 tasks checkpointed"; \
	"$$tmp/atlarge" scenario sweep "$$tmp/spec.json" --parallel 8 --format json --checkpoint "$$tmp/ckpt" > "$$tmp/resumed.json"; \
	cmp "$$tmp/resumed.json" "$$tmp/uninterrupted.json"; \
	echo "sweep-resume-smoke: OK (resumed report byte-identical to uninterrupted run)"

# End-to-end smoke of `atlarge trace`: trace one cell of the committed
# example sweep twice, check the Chrome trace-event artifact is well-formed
# (Perfetto-loadable, monotone per-track timestamps) via the built-in
# validator, and byte-compare both runs — traces must be deterministic in
# their virtual-time fields.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/atlarge" ./cmd/atlarge; \
	"$$tmp/atlarge" trace --spec examples/scenarios/policy-vs-load.json \
		--cell "policy-vs-load/load=0.7,policy=sjf" --dir "$$tmp/t1" > /dev/null; \
	"$$tmp/atlarge" trace --spec examples/scenarios/policy-vs-load.json \
		--cell "policy-vs-load/load=0.7,policy=sjf" --dir "$$tmp/t2" > /dev/null; \
	"$$tmp/atlarge" trace --validate "$$tmp/t1/trace.json" > /dev/null; \
	cmp "$$tmp/t1/trace.ndjson" "$$tmp/t2/trace.ndjson"; \
	cmp "$$tmp/t1/trace.json" "$$tmp/t2/trace.json"; \
	echo "trace-smoke: OK (Chrome trace valid, both runs byte-identical)"

# Memory gate for the streaming workload engine: stream a million jobs from a
# million-client population and fail if peak heap exceeds the budget, proving
# resident state is O(clients) rather than O(jobs). See cmd/stream-smoke.
stream-smoke:
	$(GO) run ./cmd/stream-smoke -clients 1000000 -jobs 1000000 -skew zipf -shards 8

clean:
	$(GO) clean ./...
