GO ?= go

.PHONY: build test race race-obs race-rpc vet lint repro check bench-test bench-index bench-wire bench bench-go

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
# wirecheck, statcheck, leasecheck, goroutinecheck, inlinecheck). See
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
# frame round trip, an 8-child ReaddirPlus response encoded and decoded (the
# codec rung under lmbe_ls), a lookup over loopback through Conn.Call and the
# serving loop at 1 and 16 callers, handler inline and on its own goroutine
# (allocs/op for the whole round trip, frames per write on both sides), and
# a setattr through a client, an in-process MDS with a WAL and the Monitor,
# local layer and global (allocs/op for all three), and global-layer setattrs
# from 1 and 8 writers with the Monitor's journal off and on (setattrs/s, the
# Monitor's heartbeat p99, records per fsync), and a cold start (snapshot
# read, split, two joins, a 64-path probe, in ms each). For numbers: -cpu 1
# -benchtime 2000x; for the journal rung, -bench GLUpdateJournaled
# -benchtime 2s; for the cold start (the join call and the install apart,
# the bytes each phase allocates, and the bytes of both join answers), -bench
# ColdStart -cpu 1 -benchtime 20x. SubtreeEntries is the Monitor building the subtrees the second MDS
# joins with (roots, nodes, encoded bytes). MDSRestart is an MDS holding a 20k
# and a 200k-node local layer writing its snapshot image and restarting from
# it (image bytes, write, s.mu hold and recovery ms; -benchtime 5x for
# numbers). MonitorRestart is a Monitor restarting after 10k and 1M
# global-layer writes, compacted once and followed by a 1k-write tail
# (restart ms, log and image bytes, offset-index entries; -benchtime 5x for
# numbers). The MDS store's rungs: StoreGet resolves a path by the index and
# by a walk down the child lists, RenameDir renames a directory of 1k and
# 10k entries, ReplaceGL refreshes a 2,051-entry global layer and
# DropSubtree drops a 10,101-entry subtree (-benchmem -cpu 1, and
# -benchtime 100x for the last two, for numbers); go test holds those two
# to a byte and allocation budget on the same inputs
# (TestStoreRefreshAndDropAllocs).
bench-wire:
	$(GO) test -run '^$$' -bench 'FrameRoundTrip|ReaddirPlusCodec|EchoInproc|SetAttrInproc|GLUpdateJournaled|ColdStart|SubtreeEntries|MDSRestart|MonitorRestart|StoreGet|RenameDir|ReplaceGL|DropSubtree' -benchtime 1x ./internal/wire/ ./internal/server/ ./internal/monitor/

# The simulator's reproduction of the paper's Figs. 5-8 must equal the
# committed results_full.txt byte for byte (about 25 s).
repro:
	$(GO) run ./cmd/d2bench -exp all -full | cmp - results_full.txt

# The gate's build, lint, test and benchmark steps, as ci.sh runs them; ci.sh
# also runs the replay checks at 1,000 seeds, the fuzzers, one iteration of
# the replay-tier benchmarks and the crash-recovery scenario.
check: build lint race-obs race-rpc race repro bench-test bench-index bench-wire

# The replay-tier benchmarks: the simulator's replay with one worker and
# with all of them, route compilation, and a Fig. 5 regeneration. The live
# cluster is measured by bench/run.sh (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'ReplayWorkers|CompileRoutes|Fig5Throughput' -benchmem .

# The full `go test` benchmark sweep (human-readable, not tracked).
bench-go:
	$(GO) test -bench=. -benchmem ./...
