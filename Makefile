GO ?= go

# SMOKE_TRACE is where the serving-telemetry smoke run writes the server's
# Perfetto trace; CI uploads it as an artifact when the job fails.
SMOKE_TRACE ?= /tmp/mrserved-smoke-trace.json
SMOKE_ADDR  ?= 127.0.0.1:18077
SMOKE_DEBUG ?= 127.0.0.1:18078
# SMOKE_PPROF is the daemon's net/http/pprof base URL the smoke run reads
# with go tool pprof.
SMOKE_PPROF = http://$(SMOKE_DEBUG)/debug/pprof/

# LOC_BUDGET is the ceiling on non-test Go lines under cmd/ + internal/,
# as `make loc` counts them; `make check` fails above it. It is a ratchet:
# lower it when a PR removes code.
LOC_BUDGET = 21032

.PHONY: all build test check race smoke smoke-fleet bench bench-gate loc loc-budget

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the concurrency-heavy packages under the race detector: the
# service, its telemetry layer, the simulator stack (which has no
# synchronisation beyond iter.Pull's own coroutine switch, so the detector
# is the proof that none is needed), the fleet and its seeded chaos plans,
# the advisor search engine the service dispatches to, and the closed-loop
# client, whose workers share only their merge under one lock. The simulator's
# determinism tests, its event-order and mailbox oracles and the bit pin
# then run three times more, as in CI.
race:
	$(GO) test -race ./internal/mapd/... ./internal/obs/... ./internal/sim/... ./internal/netmodel/... ./internal/fault/... ./internal/mpi/... ./internal/bench/... ./internal/procmap/... ./internal/topology/... ./internal/fleet/... ./internal/advisor/... ./internal/metrics/... ./internal/loadgen/...
	$(GO) test -race -count=3 -run 'TestSimulatedResultsAreBitReproducible|TestSimulatedBitsPinned|TestSyntheticMatchesPayloadCollectives|TestMailboxHoldsOnlyOutstandingMessages|TestMailboxMatchesMapOracle|TestInstantQueueMatchesSequenceHeap|TestRunLeaksNoGoroutine' ./internal/sim/... ./internal/bench/... ./internal/mpi/...

# check is the tier-1 gate: formatting, vet (the benchmark module too: it
# is compiled against the program's exported signatures, so an API
# deletion that breaks it fails here), staticcheck (when installed), build
# (including the serving commands), the full test suite under the race
# detector, every program under examples/ run to exit 0 (nothing else
# executes them), the perf harness smoke, the two serving drills, and
# the line counts of `make loc`, so every CI log carries them, held to
# LOC_BUDGET.
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	$(GO) build ./...
	$(GO) build ./cmd/mrserved ./cmd/mrload ./cmd/mrgate
	$(GO) test -race ./...
	@for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "check: $$e failed"; exit 1; }; \
	done
	$(GO) run ./cmd/mrperf smoke
	$(MAKE) smoke
	$(MAKE) smoke-fleet
	@$(MAKE) --no-print-directory loc-budget

# smoke boots a real mrserved with the pprof debug listener and trace
# export, sends one traced request, probes every telemetry surface
# (/metrics incl. runtime-sampler series; /v1/slo, whose shortest map
# window must count that request with no error; the live heap profile,
# which go tool pprof must decode),
# drives the matrix-aware mapping end to end (mrmap matrix -emit →
# -server → /v1/map/matrix), shuts the daemon down gracefully, and
# validates the written Perfetto trace by opening it with mrtrace. A probe
# that pipes curl into grep lets grep read the whole body (no -q): grep -q
# exits at its first match, and curl, still writing, fails with
# "curl: (23) Failed writing body".
smoke:
	$(GO) build -o /tmp/mrserved.smoke ./cmd/mrserved
	$(GO) build -o /tmp/mrtrace.smoke ./cmd/mrtrace
	$(GO) build -o /tmp/mrmap.smoke ./cmd/mrmap
	@set -e; \
	rm -f $(SMOKE_TRACE); \
	/tmp/mrserved.smoke -addr $(SMOKE_ADDR) -debug-addr $(SMOKE_DEBUG) \
		-trace $(SMOKE_TRACE) -announce 100ms & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	test $$up = 1 || { echo "smoke: mrserved never came up on $(SMOKE_ADDR)"; exit 1; }; \
	curl -fsS -X POST -H 'traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01' \
		-d '{"hierarchy":"2,2,4","rank":5}' http://$(SMOKE_ADDR)/v1/map >/dev/null; \
	curl -fsS http://$(SMOKE_ADDR)/metrics | grep '^rt_goroutines' >/dev/null; \
	curl -fsS http://$(SMOKE_ADDR)/metrics | grep '^slo_burn_rate' >/dev/null; \
	curl -fsS http://$(SMOKE_ADDR)/v1/slo \
		| grep -E '"endpoint":"map","windows":\[\{"window":"[^"]*","requests":[1-9][0-9]*,"errors":0,' >/dev/null || \
		{ echo "smoke: /v1/slo does not count the traced /v1/map as served"; curl -fsS http://$(SMOKE_ADDR)/v1/slo; exit 1; }; \
	PPROF_TMPDIR=/tmp/mrserved-smoke-pprof $(GO) tool pprof -top $(SMOKE_PPROF)heap \
		| grep 'Type: inuse_space' >/dev/null || \
		{ echo "smoke: go tool pprof cannot read the live heap profile"; exit 1; }; \
	/tmp/mrmap.smoke matrix -gen halo:4x8 -emit > /tmp/mrmap-smoke-matrix.json; \
	/tmp/mrmap.smoke matrix -h 2,4,4 -matrix /tmp/mrmap-smoke-matrix.json \
		-server http://$(SMOKE_ADDR) | grep -q 'matrix-aware \[matrix\]'; \
	curl -fsS http://$(SMOKE_ADDR)/metrics | grep '^procmap_map_seconds' >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	/tmp/mrtrace.smoke -open $(SMOKE_TRACE) | grep -q 'http /v1/map'; \
	grep -q 'trace 0af7651916cd43dd8448eb211c80319c' $(SMOKE_TRACE) || \
		{ echo "smoke: injected trace id missing from server trace"; exit 1; }; \
	rm -rf /tmp/mrserved.smoke /tmp/mrtrace.smoke /tmp/mrmap.smoke /tmp/mrmap-smoke-matrix.json \
		/tmp/mrserved-smoke-pprof; \
	echo "smoke: serving telemetry OK ($(SMOKE_TRACE))"

# smoke-fleet is the chaos e2e: three real mrserved replicas behind
# mrgate, mrload closed-loop traffic through the gate, and a seeded fault
# plan that picks the victim replica, the kill time, and the restart
# time. Mid-run the victim dies; the run must finish with zero unretried
# failures (gave_up = 0, no client-visible 5xx) and the surviving fleet
# must answer non-degraded. Then the drill executes the plan's restart:
# the victim comes back on its old address, the gate's health checker
# must re-admit it (state healthy in /v1/fleet), and a second load run
# must show traffic attributed to the restarted replica. One advise
# sent with a fixed traceparent must — after every process has drained
# and written its trace export — stitch (mrtrace -stitch) into a single
# cross-process trace carrying both gate and replica spans on that id.
# Finally, with every replica
# killed, the gate must still answer, flagged degraded, from its local
# σ-order fallback. On CI failure the trace exports under
# /tmp/fleet-stitch* and /tmp/mr*-trace.json upload as artifacts.
SMOKE_FLEET_GATE    ?= 127.0.0.1:18070
SMOKE_FLEET_R0      ?= 127.0.0.1:18071
SMOKE_FLEET_R1      ?= 127.0.0.1:18072
SMOKE_FLEET_R2      ?= 127.0.0.1:18073
SMOKE_FLEET_PLAN    ?= seed=42;replica-chaos:kills=1,by=1.6s,restart=2s@t=1.1s
SMOKE_FLEET_TRACEID ?= 1af7651916cd43dd8448eb211c80319d

smoke-fleet:
	$(GO) build -o /tmp/mrserved.smoke ./cmd/mrserved
	$(GO) build -o /tmp/mrgate.smoke ./cmd/mrgate
	$(GO) build -o /tmp/mrload.smoke ./cmd/mrload
	$(GO) build -o /tmp/mrtrace.smoke ./cmd/mrtrace
	@set -e; \
	rm -f /tmp/mrgate-smoke-trace.json /tmp/mrserved-r0-trace.json \
		/tmp/mrserved-r1-trace.json /tmp/mrserved-r2-trace.json; \
	rm -rf /tmp/fleet-stitch; \
	/tmp/mrserved.smoke -addr $(SMOKE_FLEET_R0) -name r0 -announce 50ms \
		-trace /tmp/mrserved-r0-trace.json & p0=$$!; \
	/tmp/mrserved.smoke -addr $(SMOKE_FLEET_R1) -name r1 -announce 50ms \
		-trace /tmp/mrserved-r1-trace.json & p1=$$!; \
	/tmp/mrserved.smoke -addr $(SMOKE_FLEET_R2) -name r2 -announce 50ms \
		-trace /tmp/mrserved-r2-trace.json & p2=$$!; \
	/tmp/mrgate.smoke -addr $(SMOKE_FLEET_GATE) \
		-replicas http://$(SMOKE_FLEET_R0),http://$(SMOKE_FLEET_R1),http://$(SMOKE_FLEET_R2) \
		-check-interval 100ms -backoff 1ms -max-backoff 20ms -announce 50ms \
		-trace /tmp/mrgate-smoke-trace.json & pg=$$!; \
	trap 'kill $$p0 $$p1 $$p2 $$pg 2>/dev/null || true' EXIT; \
	up=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(SMOKE_FLEET_GATE)/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	test $$up = 1 || { echo "smoke-fleet: mrgate never came up on $(SMOKE_FLEET_GATE)"; exit 1; }; \
	curl -fsS -X POST -H 'traceparent: 00-$(SMOKE_FLEET_TRACEID)-b7ad6b7169203331-01' \
		-d '{"machine":"hydra","nodes":4,"collective":"allreduce","comm_size":16}' \
		http://$(SMOKE_FLEET_GATE)/v1/advise >/dev/null; \
	victim=$$(/tmp/mrgate.smoke -print-plan -plan '$(SMOKE_FLEET_PLAN)' -fleet-size 3 \
		| awk '/^kill/{print $$2; exit}'); \
	killat=$$(/tmp/mrgate.smoke -print-plan -plan '$(SMOKE_FLEET_PLAN)' -fleet-size 3 \
		| awk '/^kill/{gsub(/[@s]/,"",$$3); print $$3; exit}'); \
	restartat=$$(/tmp/mrgate.smoke -print-plan -plan '$(SMOKE_FLEET_PLAN)' -fleet-size 3 \
		| awk '/^restart/{gsub(/[@s]/,"",$$3); print $$3; exit}'); \
	test -n "$$restartat" || { echo "smoke-fleet: plan has no restart event"; exit 1; }; \
	echo "smoke-fleet: seeded plan kills r$$victim at t=$${killat}s, restarts it at t=$${restartat}s"; \
	/tmp/mrload.smoke -url http://$(SMOKE_FLEET_GATE) -c 16 -warmup 300ms -d 3s \
		-backoff 1ms -maxbackoff 50ms -json > /tmp/mrload-fleet.json & pl=$$!; \
	sleep $$killat; \
	eval vpid=\$$p$$victim; \
	kill $$vpid 2>/dev/null || { echo "smoke-fleet: victim r$$victim already gone"; exit 1; }; \
	wait $$pl || { echo "smoke-fleet: mrload run failed"; cat /tmp/mrload-fleet.json; exit 1; }; \
	grep -q '"gave_up": 0' /tmp/mrload-fleet.json || \
		{ echo "smoke-fleet: client-visible unretried failures"; cat /tmp/mrload-fleet.json; exit 1; }; \
	grep -q '"other_5xx": 0' /tmp/mrload-fleet.json || \
		{ echo "smoke-fleet: unretried 5xx leaked through the gate"; cat /tmp/mrload-fleet.json; exit 1; }; \
	recovered=$$(curl -fsS -X POST -d '{"hierarchy":"2,2,4","rank":5}' http://$(SMOKE_FLEET_GATE)/v1/map); \
	case "$$recovered" in *'"degraded":true'*) \
		echo "smoke-fleet: fleet still degraded after recovery: $$recovered"; exit 1;; esac; \
	case "$$victim" in \
		0) vaddr=$(SMOKE_FLEET_R0);; 1) vaddr=$(SMOKE_FLEET_R1);; 2) vaddr=$(SMOKE_FLEET_R2);; \
		*) echo "smoke-fleet: unexpected victim index $$victim"; exit 1;; esac; \
	/tmp/mrserved.smoke -addr $$vaddr -name r$$victim -announce 50ms & pvr=$$!; \
	eval p$$victim=$$pvr; \
	readmitted=0; for i in $$(seq 1 100); do \
		if curl -fsS http://$(SMOKE_FLEET_GATE)/v1/fleet \
			| grep "\"name\":\"r$$victim\",\"url\":\"[^\"]*\",\"state\":\"healthy\"" >/dev/null; then readmitted=1; break; fi; \
		sleep 0.1; \
	done; \
	test $$readmitted = 1 || { echo "smoke-fleet: gate never re-admitted restarted r$$victim"; \
		curl -fsS http://$(SMOKE_FLEET_GATE)/v1/fleet; exit 1; }; \
	/tmp/mrload.smoke -url http://$(SMOKE_FLEET_GATE) -c 8 -warmup 200ms -d 1s \
		-backoff 1ms -maxbackoff 50ms -json > /tmp/mrload-fleet2.json || \
		{ echo "smoke-fleet: post-restart mrload run failed"; cat /tmp/mrload-fleet2.json; exit 1; }; \
	grep -A1 "\"target\": \"r$$victim\"" /tmp/mrload-fleet2.json \
		| grep '"ok":' | grep -qv '"ok": 0,' || \
		{ echo "smoke-fleet: no traffic reached restarted r$$victim"; cat /tmp/mrload-fleet2.json; exit 1; }; \
	kill $$p0 $$p1 $$p2 2>/dev/null || true; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(SMOKE_FLEET_GATE)/healthz | grep degraded >/dev/null; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	test $$ok = 1 || { echo "smoke-fleet: gate never reported degraded with the fleet down"; exit 1; }; \
	fallback=$$(curl -fsS -X POST -d '{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}' \
		http://$(SMOKE_FLEET_GATE)/v1/advise); \
	case "$$fallback" in *'"degraded":true'*) ;; *) \
		echo "smoke-fleet: fleet-down advise not served degraded: $$fallback"; exit 1;; esac; \
	kill -TERM $$pg; wait $$pg; \
	trap - EXIT; \
	wait $$vpid $$p0 $$p1 $$p2 2>/dev/null || true; \
	mkdir -p /tmp/fleet-stitch; \
	/tmp/mrtrace.smoke -stitch /tmp/mrgate-smoke-trace.json,/tmp/mrserved-r0-trace.json,/tmp/mrserved-r1-trace.json,/tmp/mrserved-r2-trace.json \
		-o /tmp/fleet-stitch > /tmp/fleet-stitch/stitch.txt; \
	grep -E 'trace $(SMOKE_FLEET_TRACEID): .*mrgate.*mrserved' /tmp/fleet-stitch/stitch.txt || \
		{ echo "smoke-fleet: stitched trace lacks gate+replica spans on the injected id"; \
		  cat /tmp/fleet-stitch/stitch.txt; exit 1; }; \
	rm -f /tmp/mrserved.smoke /tmp/mrgate.smoke /tmp/mrload.smoke /tmp/mrtrace.smoke \
		/tmp/mrload-fleet.json /tmp/mrload-fleet2.json; \
	echo "smoke-fleet: kill/failover/restart/stitch/fallback OK (victim r$$victim from seeded plan)"

# BENCH_SUITES are the committed trajectory baselines the regression gate
# compares against; BENCH_GIT/BENCH_TS stamp fresh records so trajectory
# points are attributable (CI passes the workflow's SHA explicitly).
BENCH_SUITES ?= kernels mixedradix order_search procmap fleet sim serving
BENCH_GIT    ?= $(shell git rev-parse --short HEAD 2>/dev/null)
BENCH_TS     ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)

# bench regenerates the committed BENCH_<suite>.json trajectory points via
# the in-process observatory harness (5 reps each, with significance-ready
# samples).
bench:
	@for s in $(BENCH_SUITES); do \
		$(GO) run ./cmd/mrperf run -suite $$s -git "$(BENCH_GIT)" -ts "$(BENCH_TS)" || exit 1; \
	done

# bench-gate reruns every gated suite and compares it against the
# committed baseline with the suite's own threshold and a Mann-Whitney
# significance test; it exits nonzero when any benchmark regressed beyond
# the gate. Fresh records land in /tmp for artifact upload.
bench-gate:
	@mkdir -p /tmp/bench-gate
	$(GO) run ./cmd/mrperf gate -suites "$$(echo $(BENCH_SUITES) | tr ' ' ',')" \
		-keep /tmp/bench-gate -git "$(BENCH_GIT)" -ts "$(BENCH_TS)"

# loc prints the net line count ROADMAP tracks: non-test and test Go lines
# per package of the tracked files, benchmark/ excluded (the totals equal
# `git ls-files '*.go' | grep -v '^benchmark/' | grep -v _test.go | xargs cat | wc -l`
# and its _test.go counterpart).
loc:
	@git ls-files '*.go' | grep -v '^benchmark/' | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		  if ($$2 ~ /_test\.go$$/) t[d] += $$1; else c[d] += $$1; seen[d] = 1 } \
		END { fmt = "%-22s %7d non-test %7d test\n"; \
		  for (d in seen) { printf fmt, d, c[d], t[d] | "sort"; C += c[d]; T += t[d]; \
		    if (d ~ /^(cmd|internal)\//) { CI += c[d]; TI += t[d] } } \
		  close("sort"); printf fmt, "cmd/ + internal/", CI, TI; printf fmt, "total", C, T }'

# loc-budget prints `make loc` and fails when the cmd/ + internal/
# non-test total exceeds LOC_BUDGET.
loc-budget:
	@$(MAKE) --no-print-directory loc | awk -v budget=$(LOC_BUDGET) ' \
		{ print } $$1 == "cmd/" && $$3 == "internal/" { n = $$4 } \
		END { if (n > budget) { \
			printf "loc: cmd/ + internal/ is %d non-test lines, LOC_BUDGET is %d: lower the count, or raise the budget in this same diff and say why in CHANGES.md\n", n, budget; \
			exit 1 } }'
