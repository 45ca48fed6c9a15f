#!/bin/sh
# CI gate: build, go vet, the project analyzers (d2vet), and the full test
# suite under the race detector. `make check` runs the same build, lint,
# test, repro and benchmark steps; the replay checks at 1,000 seeds, the
# fuzzers, the d2bench smoke runs and the crash-recovery scenario are ci.sh's
# own.
set -eux

cd "$(dirname "$0")"

go build ./...
go vet ./...

# The journal is binary: only the files that upgrade a JSON-era log or
# snapshot, once at open, may import encoding/json in the daemons' packages.
json_files=$(grep -l '"encoding/json"$' internal/wal/*.go internal/server/*.go internal/monitor/*.go |
    grep -v -e '_test\.go$' -e '^internal/wal/upgrade\.go$' -e '^internal/server/upgrade\.go$' || true)
if [ -n "$json_files" ]; then
    echo "ci.sh: encoding/json imported outside the upgrade path: $json_files" >&2
    exit 1
fi

# Project analyzers (make lint), machine-readable: on findings, re-render
# the JSONL stream as GitHub-style file:line: rule: msg annotations.
d2vet_out=$(mktemp)
if ! go run ./cmd/d2vet -json ./... > "$d2vet_out"; then
    sed -E 's/^\{"file":"([^"]*)","line":([0-9]+),"col":([0-9]+),"rule":"([^"]*)","msg":"(.*)"\}$/\1:\2: \4: \5/' "$d2vet_out" >&2
    rm -f "$d2vet_out"
    exit 1
fi
rm -f "$d2vet_out"

# Fast-failing race pass over the observability and accounting packages
# (event ring, histograms, cache counters) before the full suite.
go test -race -count=1 ./internal/obs/ ./internal/stats/ ./internal/cache/

# Race pass over the concurrent RPC serving path: multiplexed client conn,
# run-to-completion serving loop, pipelined loadgen clients, and the client
# cache coherence protocol (TestConcurrentCacheCoherence).
go test -race -count=1 ./internal/wire/ ./internal/server/ ./internal/client/ ./internal/loadgen/ ./internal/wal/

go test -race ./...

# The simulator's reproduction of the paper's Figs. 5-8 (`make repro`):
# internal/namespace, partition and core serve the simulator as well as the
# Monitor, so a change to them must leave its output equal, byte for byte, to
# the committed results_full.txt (about 25 s).
repro_out=$(mktemp)
go run ./cmd/d2bench -exp all -full > "$repro_out"
if ! cmp -s "$repro_out" results_full.txt; then
    diff "$repro_out" results_full.txt | head -40 >&2
    rm -f "$repro_out"
    exit 1
fi
rm -f "$repro_out"

# The Monitor's replay-equals-live check at 1,000 seeded schedules (the
# default run takes 100): recovery from every sampled cut of a live run's
# journal, torn tails included, equals the live state at that record, and no
# answer leaves before the state it carries is durable.
go test -count=1 -run '^TestReplayEqualsLive$' ./internal/monitor/ -args -replay.seeds 1000

# And the MDS's, at 1,000 seeds: a server recovered from a copy of its data
# directory (snapshot and log, whole, cut at a record boundary or torn) equals
# the live local layer at the newest record the copy holds, across snapshots
# taken between a commit and its wait and across restarts.
go test -count=1 -run '^TestReplayEqualsLive$' ./internal/server/ -args -replay.seeds 1000

# One iteration of the listing benchmarks and of the client's cache-hit
# benchmark, so they cannot rot: the MDS handler against store size and
# against index size, the client's merge against index size, and a leased
# hit through Client.Lookup (`make bench-index`).
go test -run '^$' -bench 'ReaddirPlus(Store|Index)Size|ClientReaddirPlus|LookupHit' -benchtime 1x ./internal/server/ ./internal/client/

# And of the wire benchmarks (`make bench-wire`): the frame round trip, a
# ReaddirPlus response through the codec, a lookup over loopback through
# Conn.Call and the serving loop, a setattr through a client, an in-process
# MDS and the Monitor, global-layer setattrs with the Monitor's journal off
# and on, a cold start from the binary namespace snapshot, the Monitor
# building the subtrees a join ships, an MDS writing its snapshot image and
# restarting from it, and a Monitor restarting from its image and a 1k-record
# log after 10k and 1M global-layer writes; and of the MDS store's rungs, a
# path resolved by its index against a walk down the child lists, a
# directory rename, a global-layer refresh and the drop of a shipped subtree.
go test -run '^$' -bench 'FrameRoundTrip|ReaddirPlusCodec|EchoInproc|SetAttrInproc|GLUpdateJournaled|ColdStart|SubtreeEntries|MDSRestart|MonitorRestart|StoreGet|RenameDir|ReplaceGL|DropSubtree' -benchtime 1x ./internal/wire/ ./internal/server/ ./internal/monitor/

# Ten seconds of fuzzing the frame decoder: every input either fails cleanly
# or is a frame that encodes back to the bytes it was read from.
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s ./internal/wire

# And ten of the journal's reader: any bytes are refused for their version or
# read up to a valid prefix, and the records read frame back to those bytes.
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s ./internal/wal

# And ten of the tree shape that the namespace snapshot and the subtrees of
# joins, installs and install records share: no panic, allocation bounded by
# the input, every parent before its node and every name one AddChild takes,
# and an accepted snapshot or subtree list re-encodes to the same bytes.
# Minimizing a new corpus entry may take the default 60 s budget, and on a
# warm corpus it took the whole ten seconds (a few thousand inputs run,
# against about 170k with the budget cut to one second).
go test -run '^$' -fuzz '^FuzzTreeShape$' -fuzztime 10s -fuzzminimizetime 1s ./internal/namespace

# bench/ is a module of its own, so the ./... patterns above do not descend
# into it: vet and test the benchmark harness too.
(cd bench && go vet ./... && go test ./...)

# A 3 s listing run against real daemons. Its validity gate compares every
# listed directory's child count with the generating tree; the crash
# scenario below never lists.
bash bench/run.sh -smoke --workload lmbe_ls --trace 0 > /dev/null

# Benchmark smoke runs: prove the tracked replay-tier and live-cluster
# suites execute and emit well-formed JSON without paying for calibrated
# timing or full-scale load. The clusterbench smoke covers the client
# entry cache both off and on, the inflight×batch compound-frame sweep
# (one batched row per depth×cache point), and the readdir-vs-readdirplus
# listing pair, so the compound path is exercised in CI.
go run ./cmd/d2bench -bench -benchsmoke -benchlabel ci-smoke > /dev/null
go run ./cmd/d2bench -clusterbench -benchsmoke -benchlabel ci-smoke > /dev/null

# --- Crash-recovery scenario -------------------------------------------
# Boot a durable 2-MDS cluster, create entries on both servers, kill -9
# one MDS, let the Monitor's pending-pool failover re-home its subtrees,
# restart the victim from its WAL directory, and gate on d2fsck walking
# the whole namespace with zero lost paths and zero double-owned subtrees.
tmp=$(mktemp -d)
bin="$tmp/bin"
mkdir -p "$bin"
go build -o "$bin" ./cmd/d2monitor ./cmd/d2mds ./cmd/d2ctl ./cmd/d2fsck

MON=127.0.0.1:7470
MDS0=127.0.0.1:7481
MDS1=127.0.0.1:7482
monpid=; mds0pid=; mds1pid=; mds0pid2=
cleanup() {
    kill $monpid $mds0pid $mds1pid $mds0pid2 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

# poll retries a command until it succeeds (10s budget), then fails loudly.
poll() {
    i=0
    while ! "$@" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "ci.sh: timed out waiting for: $*" >&2
            "$@" || true
            exit 1
        fi
        sleep 0.2
    done
}

"$bin/d2monitor" -addr $MON -servers 2 -nodes 800 -events 4000 \
    -hb-timeout 1s -wal "$tmp/monitor.wal" > "$tmp/monitor.log" 2>&1 &
monpid=$!
"$bin/d2mds" -addr $MDS0 -monitor $MON -heartbeat 100ms \
    -wal-dir "$tmp/mds0" -snapshot-interval 500ms > "$tmp/mds0.log" 2>&1 &
mds0pid=$!
"$bin/d2mds" -addr $MDS1 -monitor $MON -heartbeat 100ms \
    -wal-dir "$tmp/mds1" -snapshot-interval 500ms > "$tmp/mds1.log" 2>&1 &
mds1pid=$!
poll "$bin/d2ctl" -monitor $MON stats $MDS0
poll "$bin/d2ctl" -monitor $MON stats $MDS1

# Compound-path smoke against the live durable cluster: batched compound
# frames and the readdirplus listing path must both complete with zero
# errors. The namespace parameters mirror the d2monitor invocation above so
# both sides resolve the same paths.
load_out=$(go run ./cmd/d2load -monitor $MON -profile LMBE -nodes 800 -events 4000 \
    -seed 1 -clients 8 -inflight 2 -batch 8 -timeout 1m)
echo "$load_out" | grep -q "errors=0 "
load_out=$(go run ./cmd/d2load -monitor $MON -profile LMBE -nodes 800 -events 4000 \
    -seed 1 -clients 4 -readdir plus -timeout 1m)
echo "$load_out" | grep -q "errors=0 "

# Journaled creates under one subtree root of each server.
root0=$("$bin/d2ctl" -monitor $MON stats $MDS0 | awk '/^  subtree /{print $2; exit}')
root1=$("$bin/d2ctl" -monitor $MON stats $MDS1 | awk '/^  subtree /{print $2; exit}')
test -n "$root0"
test -n "$root1"
"$bin/d2ctl" -monitor $MON create "$root0/ci-crash-a.txt" file
"$bin/d2ctl" -monitor $MON create "$root0/ci-crash-b.txt" file
"$bin/d2ctl" -monitor $MON create "$root1/ci-crash-c.txt" file
sleep 0.5 # let heartbeat CreatedPaths deltas reach the Monitor

kill -9 $mds0pid
# Wait for the Monitor to declare the victim dead, then restart it from
# the same WAL directory (recovery claims + snapshot/WAL replay).
poll sh -c "\"$bin/d2ctl\" -monitor $MON stats | grep -q \"$MDS0 dead\""
"$bin/d2mds" -addr $MDS0 -monitor $MON -heartbeat 100ms \
    -wal-dir "$tmp/mds0" -snapshot-interval 500ms > "$tmp/mds0-restart.log" 2>&1 &
mds0pid2=$!
poll "$bin/d2ctl" -monitor $MON stats $MDS0

# Every pre-crash entry must still resolve, and the verification walk must
# be clean.
poll "$bin/d2ctl" -monitor $MON lookup "$root0/ci-crash-a.txt"
"$bin/d2ctl" -monitor $MON lookup "$root0/ci-crash-b.txt"
"$bin/d2ctl" -monitor $MON lookup "$root1/ci-crash-c.txt"
"$bin/d2fsck" -monitor $MON -v
