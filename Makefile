# Developer entry points. `make check smoke` is exactly what CI runs
# (.github/workflows/ci.yml calls these targets one step each).

GO ?= go

.PHONY: build test vet fmt-check race check \
	campaign-smoke chaos-smoke detect-smoke serve-smoke smoke bench bench-ospf \
	bench-bgp bench-fib bench-controller bench-transport bench-sim bench-recovery \
	bench-smoke serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

# The whole suite under the race detector. Besides the test assertions,
# this is the no-shared-mutable-state guarantee: the campaign tests run
# simulations on parallel workers, so a package-level variable written on
# any simulation path is reported as a data race (DESIGN.md §7, §10).
race:
	$(GO) test -race ./...

check: build fmt-check vet race bench-smoke

# Smoke campaign (`f2tree-lab campaign`): the k=4 testbed matrix on two
# workers into a resumable store (campaign-smoke.jsonl +
# campaign-smoke.agg.jsonl).
campaign-smoke:
	$(GO) run ./cmd/f2tree-lab campaign -preset smoke -j 2 -out campaign-smoke.jsonl

# Fixed-seed chaos fuzz (`f2tree-lab chaos`) across all three control
# planes, checked by the invariant oracles (internal/chaos). Any violation is
# shrunk to a minimal replayable scenario under chaos-artifacts/ and fails
# the target.
chaos-smoke:
	mkdir -p chaos-artifacts
	$(GO) run ./cmd/f2tree-lab chaos -n 10 -schemes f2tree -ports 8 \
		-controls ospf,bgp,centralized -seed 42 -j 4 -artifacts chaos-artifacts

# Detector study smoke (`f2tree-lab detect`): F²Tree fast reroute vs BGP
# graceful restart vs plain reconvergence under both detector models on the
# dual-ToR fabric, run on the campaign worker pool and double-run
# (byte-identical traces required), all four oracles checked. Any oracle
# violation or trace divergence fails the target; the result list lands in
# detect-smoke.json (DESIGN.md §15), byte-identical at any -j.
detect-smoke:
	$(GO) run ./cmd/f2tree-lab detect -ports 6 \
		-conditions C1,C4,flap-storm,ctrl-crash,false-detect,rand \
		-double -out detect-smoke.json

# What-if service smoke: boot f2tree-serve, post the same query twice — the
# first answer is simulated, the second must come back from the memoization
# cache — then scrape /metrics. Needs curl.
serve-smoke:
	$(GO) build -o .serve-smoke-bin ./cmd/f2tree-serve
	@./.serve-smoke-bin -addr 127.0.0.1:8970 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -f .serve-smoke-bin' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:8970/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	query='{"scheme":"f2tree","ports":6,"link":{"a":"tor-p0-0","b":"agg-p0-0"}}'; \
	curl -sf http://127.0.0.1:8970/query -d "$$query" | grep -q '"blackholeMs"' && \
	curl -sf http://127.0.0.1:8970/query -d "$$query" | grep -q '"cached": *true' && \
	curl -sf http://127.0.0.1:8970/metrics | grep -q '"poolWorkers"' && \
	echo "serve-smoke: ok"

smoke: campaign-smoke chaos-smoke detect-smoke serve-smoke

bench:
	$(GO) test -bench=. -benchmem

# OSPF microbenchmarks. BenchmarkSPF: one domain-wide SPF pass per op on
# F²Tree N=8/12/16, over a converged LSDB, one link down, and one link
# withdrawn by one end only. BenchmarkFlood: one link, or every link of a
# pod, failed and restored through the simulator, each to quiescence, at
# N=8/16.
# BenchmarkDomain: NewDomain + Bootstrap on a fresh network at N=8/12/16.
bench-ospf:
	$(GO) test -run '^$$' -bench 'BenchmarkSPF|BenchmarkFlood|BenchmarkDomain' -benchmem ./internal/ospf

# BGP microbenchmarks: bootstrap, one link failed and restored, and a ToR
# speaker crash and restart without GR, each to quiescence on F²Tree
# N=8/12/16, bootstrap also at N=20/22 (N=16 withdraw-storm takes seconds
# per op).
bench-bgp:
	$(GO) test -run '^$$' -bench BenchmarkBGP -benchmem ./internal/bgp

# FIB microbenchmarks on a ToR-shaped table (18 subnets at N=8, 98 at N=16):
# lookups of 1,024 spread flows by LPM, through the live-hop memo and falling
# through to the static backup; same-set and one-change installs; bootstrap.
bench-fib:
	$(GO) test -run '^$$' -bench BenchmarkFIB -benchmem ./internal/fib

# Centralized controller microbenchmarks on F²Tree N=8/12/16: one Bootstrap
# (a kernel search from every switch plus every install) per op, and one
# aggregation uplink failed and restored through the simulator, each to
# quiescence.
bench-controller:
	$(GO) test -run '^$$' -bench BenchmarkController -benchmem ./internal/controller

# Transport microbenchmarks on two hosts behind one ToR: one full TCP data
# segment and its ACK on a warmed connection, and one paced UDP datagram into
# a reserved sink, per op. Both are 0 allocs/op.
bench-transport:
	$(GO) test -run '^$$' -bench 'BenchmarkTCPTransfer|BenchmarkUDPProbe' -benchmem ./internal/transport

# Event-core and forwarding microbenchmarks. BenchmarkRunChurnShape: one
# event per op on a queue shaped like pa_churn_n8's (10 near events, 100 far
# timers, 80 arrivals on one link direction), with every arrival scheduled
# and with only the direction's head scheduled. BenchmarkScheduleAndRun,
# BenchmarkScheduleFanOut, BenchmarkCancel: a one-deep queue, a 1,024-event
# burst, timer churn. BenchmarkForwardPacket: one packet over three switch
# hops.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench BenchmarkForwardPacket -benchmem ./internal/network

# Fig 4's recovery matrix on one campaign worker: 12 cells, each a UDP run
# and a TCP run that go at once. At -cpu 1 the two runs share one processor
# and nothing is gained; the speedup shows only at -cpu 2 (DESIGN.md §14).
bench-recovery:
	$(GO) test -run '^$$' -bench BenchmarkFig4Conditions -cpu 1,2 -benchtime 3x .

# One iteration of every N=8 control-plane and FIB microbenchmark (the
# pattern is matched per name level) and of the transport, event-core and
# forwarding ones and of the Fig 4 recovery matrix, so the families keep
# compiling and running; -benchmem puts B/op and allocs/op in the log next
# to ns/op.
bench-smoke:
	$(GO) test -run '^$$' -bench '././N=8$$' -benchtime 1x -benchmem ./internal/ospf ./internal/bgp ./internal/fib \
		./internal/controller
	$(GO) test -run '^$$' -bench 'BenchmarkTCPTransfer|BenchmarkUDPProbe' -benchtime 1x -benchmem ./internal/transport
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/sim ./internal/network
	$(GO) test -run '^$$' -bench BenchmarkFig4Conditions -benchtime 1x -benchmem .

# Run the what-if query service on localhost (see DESIGN.md §13).
serve:
	$(GO) run ./cmd/f2tree-serve -addr 127.0.0.1:8080 -j 4
