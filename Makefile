GO ?= go

.PHONY: build test verify golden-update live cli-smoke bench trace soak soak-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: build, formatting, vet, tests, and the race
# detector. gofmt -l must list nothing (bench/ included: gofmt reads files, not
# modules). staticcheck runs when installed (no network fetch in the gate); any
# finding fails the build. bench/ is its own module, invisible to the root
# ./... patterns, so it is vetted and self-tested here explicitly: an API
# deletion in the library cannot break the benchmark silently.
verify:
	$(GO) build ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) test ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) soak-smoke

# golden-update rewrites the committed goldens from the current code: the
# deterministic E-series tables (internal/experiment/testdata/eseries.golden)
# and the adaptivesim reports (cmd/adaptivesim/testdata/*.golden). The golden
# tests themselves are plain `go test`, so verify and CI already run them; a
# diff in `git status` after this target is a behaviour change to explain.
golden-update:
	$(GO) test -count=1 -run 'Golden' ./internal/experiment/ ./cmd/adaptivesim/ -update

# live runs the E-series parity scenarios over real UDP loopback sockets
# (segue mid-stream, seeded impairment) under the race detector, plus the
# udpnet lifecycle stress tests: the sim and live runs of each scenario must
# deliver byte-identical streams with zero data loss. Message poison mode is
# on, so a pooled buffer used after its release panics instead of corrupting.
live:
	ADAPTIVE_MSG_POISON=1 $(GO) test -race -count=1 -v -run 'TestLive' ./internal/experiment/
	ADAPTIVE_MSG_POISON=1 $(GO) test -race -count=1 ./internal/udpnet/ ./internal/impair/

# cli-smoke drives the command-line round trips no `go test` reaches: two
# same-seed `adaptivetrace -record e10` flight recordings diffed to zero
# divergence, `adaptivectl migrate` on the simulator and over UDP loopback
# (each gating exact delivery and stale-epoch fencing), and one start of
# every other binary: adaptiveqos, the E3 record/summary/chrome chain that
# `trace` runs, and the six examples.
cli-smoke:
	./scripts/cli_smoke.sh

# bench runs the repo benchmark's layer rungs (bench/, the module
# BENCHMARK.json declares): one isolated cost row per layer, printed as the
# per_layer metrics. The full four-workload run is `bash bench/run.sh`.
bench:
	cd bench && $(GO) run . -layers

# trace flight-records the E3 policy-segue run, renders it to Chrome
# trace-event JSON (load TRACE_e3.json in chrome://tracing or
# ui.perfetto.dev), and prints the per-kind summary. 1/16 sampling keeps the
# whole 10-minute run inside the ring, so the segue markers survive.
trace:
	$(GO) run ./cmd/adaptivetrace -record e3 -sample 16 -o TRACE_e3.trace
	$(GO) run ./cmd/adaptivetrace -chrome TRACE_e3.json -spans TRACE_e3.trace
	$(GO) run ./cmd/adaptivetrace -summary TRACE_e3.trace

# soak is the live-observability leak gate: a long observed E10 soak served
# as a real process (adaptivebench -soak), scraped over HTTP and tailed by a
# separate adaptivetrace process, gating on RSS growth, result-fingerprint
# drift (p999 included), dropped trace chunks, and tail-vs-archive trace
# identity. SESSIONS/ITERS scale it (defaults 1000 x 10).
soak:
	./scripts/soak_e10.sh

# soak-smoke is the verify-sized variant: the same end-to-end loop (serve,
# scrape, tail, diff) at a size that finishes in seconds. It is the
# endpoint's smoke test, not a leak gate.
soak-smoke:
	SESSIONS=100 ITERS=2 PREFIX=SMOKE_ ./scripts/soak_e10.sh

clean:
	rm -f CLI_* TRACE_* SOAK_* SMOKE_*
	rm -rf bin
