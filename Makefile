GO ?= go
BENCH_LABEL ?= dev

.PHONY: build test race race-obs race-rpc vet lint check bench-test bench-index bench-wire bench bench-cluster bench-go

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the cluster tests exercise the
# concurrent heartbeat/transfer/stats paths.
race:
	$(GO) test -race ./...

# Targeted race pass over the observability and accounting packages (event
# ring, histograms, cache counters) — fast enough to run on every edit.
race-obs:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/stats/ ./internal/cache/

# Targeted race pass over the concurrent RPC serving path: the multiplexed
# client conn, the run-to-completion serving loop, the loadgen pipeline, and
# the WAL group-commit batcher + crash-consistency property test.
race-rpc:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/server/ ./internal/client/ ./internal/loadgen/ ./internal/wal/

vet:
	$(GO) vet ./...

# go vet plus the project-specific analyzers (lockheld, determinism,
# wirecheck, statcheck, codeccheck, leasecheck, goroutinecheck, inlinecheck). See
# DESIGN.md "Invariants as lint rules". Use `d2vet -rule <name>` to run one
# rule and `-json` for machine-readable findings (what ci.sh parses).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/d2vet ./...

# bench/ is a module of its own, so ./... above never reaches it. The smoke
# run lists directories on real daemons and checks the child counts.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke --workload lmbe_ls --trace 0 > /dev/null

# One iteration of the listing benchmarks and of the client's cache-hit
# benchmark, so they cannot rot: the MDS handler against store size and
# against index size, the client's merge against index size (all three must
# be flat), and a leased hit through Client.Lookup (hits/op must read 1).
# `make bench-go` gives numbers.
bench-index:
	$(GO) test -run '^$$' -bench 'ReaddirPlus(Store|Index)Size|ClientReaddirPlus|LookupHit' -benchtime 1x ./internal/server/ ./internal/client/

# One iteration of the wire benchmarks, so they cannot rot: the two-step
# frame round trip, a lookup over loopback through Conn.Call and the
# serving loop at 1 and 16 callers, handler inline and on its own goroutine
# (allocs/op for the whole round trip, frames per write on both sides), and
# a setattr through a client, an in-process MDS with a WAL and the Monitor,
# local layer and global (allocs/op for all three, encoding/json fallbacks
# per op, which must read 0). For numbers: -cpu 1 -benchtime 2000x.
bench-wire:
	$(GO) test -run '^$$' -bench 'FrameRoundTrip|EchoInproc|SetAttrInproc' -benchtime 1x ./internal/wire/ ./internal/server/

# The full gate: what ci.sh runs.
check: build lint race-obs race-rpc race bench-test bench-index bench-wire

# Run the replay-tier benchmark suite and append a labelled entry to the
# tracked trajectory BENCH_replay.json (set BENCH_LABEL to tag the run).
bench:
	$(GO) run ./cmd/d2bench -bench -benchout BENCH_replay.json -benchlabel "$(BENCH_LABEL)"

# Run the live-cluster throughput benchmark (real Monitor + MDSs over
# loopback, loadgen-driven) and append a labelled entry to BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/d2bench -clusterbench -benchout BENCH_cluster.json -benchlabel "$(BENCH_LABEL)"

# The full `go test` benchmark sweep (human-readable, not tracked).
bench-go:
	$(GO) test -bench=. -benchmem ./...
