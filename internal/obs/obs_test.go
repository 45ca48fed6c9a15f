package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderSequencesAndStamps(t *testing.T) {
	rec := NewRecorder("mds-0", 8)
	if rec.Seq() != 0 {
		t.Fatalf("fresh recorder seq = %d, want 0", rec.Seq())
	}
	rec.Record(Event{Kind: KindOp, Op: "lookup", Path: "/a"})
	rec.Record(Event{Kind: KindOp, Op: "create", Path: "/b"})
	events, dropped := rec.Since(0, 0)
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Node != "mds-0" {
			t.Errorf("event %d node = %q, want mds-0", i, ev.Node)
		}
		if ev.TS == 0 {
			t.Errorf("event %d has no timestamp", i)
		}
	}
	if events[0].Op != "lookup" || events[1].Op != "create" {
		t.Errorf("ops = %q, %q; want lookup, create", events[0].Op, events[1].Op)
	}
}

// TestRecordAtCarriesTheCallersClockRead: an op that timed itself hands the
// recorder the clock read its duration ended on, and the event is stamped
// with exactly that, so timestamp and duration agree with the histogram.
func TestRecordAtCarriesTheCallersClockRead(t *testing.T) {
	rec := NewRecorder("mds-0", 8)
	end := time.Unix(1700000000, 123456789)
	rec.RecordAt(end, Event{Kind: KindOp, Op: "lookup", DurUS: 17})
	events := rec.Snapshot()
	if len(events) != 1 || events[0].TS != end.UnixNano() || events[0].Seq != 1 || events[0].DurUS != 17 {
		t.Fatalf("RecordAt recorded %+v, want one event stamped %d", events, end.UnixNano())
	}
}

func TestRecorderRingOverwriteReportsDropped(t *testing.T) {
	rec := NewRecorder("n", 4)
	for i := 0; i < 10; i++ {
		rec.Record(Event{Kind: KindOp, Op: "op"})
	}
	// Seqs 1..6 were overwritten; 7..10 remain.
	events, dropped := rec.Since(0, 0)
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	if events[0].Seq != 7 || events[3].Seq != 10 {
		t.Fatalf("seq range [%d,%d], want [7,10]", events[0].Seq, events[3].Seq)
	}

	// A cursor inside the retained window drops nothing.
	events, dropped = rec.Since(8, 0)
	if dropped != 0 || len(events) != 2 || events[0].Seq != 9 {
		t.Fatalf("Since(8) = %d events (first %d), dropped %d", len(events), events[0].Seq, dropped)
	}

	// A cursor past the end returns nothing.
	events, dropped = rec.Since(10, 0)
	if dropped != 0 || len(events) != 0 {
		t.Fatalf("Since(10) = %d events, dropped %d; want none", len(events), dropped)
	}
}

func TestRecorderSinceMax(t *testing.T) {
	rec := NewRecorder("n", 16)
	for i := 0; i < 6; i++ {
		rec.Record(Event{Kind: KindOp})
	}
	events, _ := rec.Since(0, 4)
	if len(events) != 4 || events[0].Seq != 1 || events[3].Seq != 4 {
		t.Fatalf("Since(0,4) returned seqs %v", seqs(events))
	}
	// Resuming from the last seq continues without gaps.
	events, _ = rec.Since(events[3].Seq, 4)
	if len(events) != 2 || events[0].Seq != 5 {
		t.Fatalf("resume returned seqs %v", seqs(events))
	}
}

func seqs(events []Event) []uint64 {
	out := make([]uint64, len(events))
	for i, ev := range events {
		out[i] = ev.Seq
	}
	return out
}

func TestRecorderSetNode(t *testing.T) {
	rec := NewRecorder("mds", 4)
	rec.Record(Event{Kind: KindOp})
	rec.SetNode("mds-3")
	rec.Record(Event{Kind: KindOp})
	events, _ := rec.Since(0, 0)
	if events[0].Node != "mds" || events[1].Node != "mds-3" {
		t.Fatalf("nodes = %q, %q", events[0].Node, events[1].Node)
	}
	if rec.Node() != "mds-3" {
		t.Fatalf("Node() = %q", rec.Node())
	}
}

// TestRecordZeroAlloc pins the tentpole's hot-path contract: recording an
// event and observing an op latency allocate nothing once steady state is
// reached (ring pre-allocated, histogram already created).
func TestRecordZeroAlloc(t *testing.T) {
	rec := NewRecorder("mds-0", 256)
	var ops OpStats
	ops.Observe("lookup", time.Millisecond) // create the histogram up front
	ev := Event{
		Kind:  KindOp,
		Op:    "lookup",
		ReqID: "r-00000000deadbeef",
		From:  "client-1",
		Path:  "/a/b/c",
		DurUS: 42,
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Record(ev)
		ops.Observe("lookup", 123*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Record+Observe allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder("n", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Record(Event{Kind: KindOp, Op: "x"})
				if i%10 == 0 {
					rec.Since(0, 0)
				}
			}
		}()
	}
	wg.Wait()
	if rec.Seq() != 800 {
		t.Fatalf("seq = %d, want 800", rec.Seq())
	}
}

func TestWriteJSONL(t *testing.T) {
	rec := NewRecorder("monitor", 8)
	rec.Record(Event{Kind: KindMigration, Op: "plan", ReqID: "m-1", Path: "/sub"})
	rec.Record(Event{Kind: KindMigration, Op: "issue", ReqID: "m-1", Path: "/sub"})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if ev.ReqID != "m-1" || ev.Node != "monitor" {
			t.Fatalf("decoded %+v", ev)
		}
	}
}

func TestOpStatsLatencies(t *testing.T) {
	var ops OpStats
	for i := 0; i < 10; i++ {
		ops.Observe("lookup", time.Duration(i+1)*time.Millisecond)
	}
	ops.Observe("create", 5*time.Millisecond)
	lat := ops.Latencies()
	if len(lat) != 2 {
		t.Fatalf("got %d ops, want 2", len(lat))
	}
	if lat["lookup"].Count != 10 || lat["create"].Count != 1 {
		t.Fatalf("counts = %d, %d", lat["lookup"].Count, lat["create"].Count)
	}
	if lat["lookup"].P50US == 0 || lat["lookup"].MaxUS == 0 {
		t.Fatalf("lookup summary has zero percentiles: %+v", lat["lookup"])
	}
}

func TestIDGenDeterministicAndUnique(t *testing.T) {
	a := NewIDGen("r", 7)
	b := NewIDGen("r", 7)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := a.Next()
		if id != b.Next() {
			t.Fatalf("same seed diverged at id %d", i)
		}
		if !strings.HasPrefix(id, "r-") || len(id) != 2+16 {
			t.Fatalf("malformed id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// The identifier is prefix, dash and the 64-bit draw as 16 zero-padded hex
// digits, whatever the prefix length, and costs the one string it returns.
func TestIDGenFormatAndAllocs(t *testing.T) {
	for _, prefix := range []string{"r", "m", "", "a-prefix-longer-than-the-stack-buffer"} {
		g := NewIDGen(prefix, 7)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			if got, want := g.Next(), fmt.Sprintf("%s-%016x", prefix, rng.Uint64()); got != want {
				t.Fatalf("prefix %q id %d = %q, want %q", prefix, i, got, want)
			}
		}
	}
	g := NewIDGen("r", 7)
	if allocs := testing.AllocsPerRun(1000, func() { _ = g.Next() }); allocs != 1 {
		t.Fatalf("IDGen.Next allocates %v times per call, want 1", allocs)
	}
}

// syncBuffer makes bytes.Buffer safe for the Flusher goroutine + test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestFlusherDrainsOnClose(t *testing.T) {
	rec := NewRecorder("mds-1", 64)
	var buf syncBuffer
	f := NewFlusher(rec, &buf, time.Hour) // only the final drain fires
	rec.Record(Event{Kind: KindOp, Op: "lookup", ReqID: "r-1"})
	rec.Record(Event{Kind: KindOp, Op: "create", ReqID: "r-2"})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var got []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 || got[0].ReqID != "r-1" || got[1].ReqID != "r-2" {
		t.Fatalf("flushed %+v", got)
	}
}

func TestFlusherMarksDropped(t *testing.T) {
	rec := NewRecorder("n", 4)
	var buf syncBuffer
	f := NewFlusher(rec, &buf, time.Hour)
	for i := 0; i < 10; i++ {
		rec.Record(Event{Kind: KindOp, Op: "x"})
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"kind":"obs"`) || !strings.Contains(out, "overwritten before flush") {
		t.Fatalf("no dropped marker in output:\n%s", out)
	}
}

func TestErrString(t *testing.T) {
	if got := ErrString(nil); got != "" {
		t.Fatalf("ErrString(nil) = %q", got)
	}
	if got := ErrString(errFixed); got != "boom" {
		t.Fatalf("ErrString = %q", got)
	}
}

var errFixed = errFixedType{}

type errFixedType struct{}

func (errFixedType) Error() string { return "boom" }
