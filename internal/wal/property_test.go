package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"d2tree/internal/wire"
)

// TestCrashConsistencyProperty drives random Append / crash(truncate at
// byte K) / reopen / Append interleavings and asserts the two invariants
// the recovery story rests on:
//
//  1. replay always yields a prefix of the logical record sequence — the
//     records surviving a crash are exactly the first N acknowledged ones,
//     never a subset with holes, never bytes from a torn tail;
//  2. Seq is strictly increasing across the whole surviving log, including
//     appends made after any number of crash/reopen cycles.
func TestCrashConsistencyProperty(t *testing.T) {
	const (
		rounds       = 40
		opsPerRound  = 12
		crashEveryth = 3 // ~1 in 3 ops is a crash
	)
	rng := rand.New(rand.NewSource(20260809))
	path := filepath.Join(t.TempDir(), "prop.wal")

	// acked mirrors what the log has acknowledged durable, in order. A
	// crash may drop a suffix of it (bytes past the truncation point),
	// never anything else.
	type logical struct {
		Seq int64
		N   int
	}
	var acked []logical
	nextN := 0

	reopenAndCheck := func() *Log {
		t.Helper()
		var replayed []logical
		if err := Replay(path, func(rec Record) error {
			var p testPayload
			if rec.Data != nil {
				if err := wire.DecodePayload(rec.Data, &p); err != nil {
					return err
				}
			}
			replayed = append(replayed, logical{Seq: rec.Seq, N: int(p.Size)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Invariant 1: replayed is a prefix of acked.
		if len(replayed) > len(acked) {
			t.Fatalf("replayed %d records, only %d were ever acknowledged", len(replayed), len(acked))
		}
		for i, r := range replayed {
			if r != acked[i] {
				t.Fatalf("replay[%d] = %+v, acked[%d] = %+v: not a prefix", i, r, i, acked[i])
			}
		}
		// Invariant 2: strictly increasing Seq.
		for i := 1; i < len(replayed); i++ {
			if replayed[i].Seq <= replayed[i-1].Seq {
				t.Fatalf("seq not strictly increasing at %d: %+v", i, replayed)
			}
		}
		// The survivors are the new logical history.
		acked = replayed

		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(0); len(acked) > 0 {
			want = acked[len(acked)-1].Seq
			if l.Seq() != want {
				t.Fatalf("Seq after reopen = %d, want %d", l.Seq(), want)
			}
		}
		return l
	}

	l := reopenAndCheck()
	for round := 0; round < rounds; round++ {
		for op := 0; op < opsPerRound; op++ {
			if rng.Intn(crashEveryth) == 0 {
				// Crash: close nothing (the process just died), truncate the
				// file at a random byte, reopen, and verify the invariants.
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if info.Size() > 0 {
					cut := rng.Int63n(info.Size() + 1)
					if err := os.Truncate(path, cut); err != nil {
						t.Fatal(err)
					}
				}
				_ = l.Close()
				l = reopenAndCheck()
				continue
			}
			nextN++
			if _, err := l.Append("setattr", &testPayload{Size: int64(nextN)}); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, logical{Seq: l.Seq(), N: nextN})
		}
	}
	_ = l.Close()
	reopenAndCheckFinal := reopenAndCheck()
	_ = reopenAndCheckFinal.Close()
}
