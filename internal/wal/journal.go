package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"d2tree/internal/obs"
	"d2tree/internal/wire"
)

// CompactEvery is the default cadence of compaction: the Monitor's, and the
// MDS's unless -snapshot-interval says otherwise.
const CompactEvery = 5 * time.Second

// Entry is one record a daemon commits, logged under its RecType: a wire
// type with a code method, of a type in ops.
type Entry interface{ RecType() string }

// Image is a daemon's state as taken under its lock. Given its horizon, the
// number of the newest record it holds, it returns the image's body: a wire
// type with a code method (wire.Image, wire.MonitorImage).
type Image func(horizon int64) any

// Machine is what a daemon gives its journal.
type Machine[R Entry] struct {
	Kinds map[string]func() R // an empty record per logged type, to decode into
	// Legacy decodes a JSON-era record of the types whose JSON is not
	// their record's fields by name (upgradeJSON).
	Legacy map[string]func(data []byte) (R, error)
	// Apply makes one record's change: under the daemon's lock from Commit,
	// from recovery before the daemon is shared.
	Apply func(R)
	Image func() Image // called under Lock (a read lock will do)
	Lock  sync.Locker
	// Load applies an image body and returns its horizon; given nil, for
	// want of an image, it sets up the state the log starts from.
	Load func(body []byte) (horizon int64, err error)
	// Tail is the daemon's field, guarded by its lock, where Commit notes
	// the newest ticket; Degraded latches on the first failed flush; Rec
	// takes the journal's events.
	Tail     **Ticket
	Degraded *atomic.Bool
	Rec      *obs.Recorder
}

// Journal keeps one daemon's state durable: it commits records through a
// Batcher and compacts the log behind an image of the state. Without a path
// it is memory-only: a commit only applies.
type Journal[R Entry] struct {
	m           Machine[R]
	log         *Log
	b           *Batcher
	image       string
	compactions atomic.Int64
	stop        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
}

// An image file is a version byte, the body's length and CRC-32 (IEEE), 4
// bytes big-endian each, then the body.
const (
	imageVersion = 1
	imageHead    = 9
)

// OpenJournal recovers a daemon's state: the image, read and checked whole,
// then, in the one read of the log that builds its offset index, each record
// past the image's horizon (a record of an unknown type is skipped). A
// JSON-era log is upgraded first (upgradeJSON).
func OpenJournal[R Entry](path, image string, m Machine[R]) (*Journal[R], error) {
	j := &Journal[R]{m: m, image: image, stop: make(chan struct{})}
	if path == "" {
		return j, nil
	}
	body, err := ReadImage(image)
	if err != nil {
		return nil, err
	}
	horizon, err := m.Load(body)
	if err != nil {
		return nil, fmt.Errorf("wal: image %s: %w", image, err)
	}
	applied, horizon, err := upgradeJSON(path, image, m, horizon)
	if err != nil {
		return nil, err
	}
	j.log, err = open(path, horizon, func(rec Record) error {
		kind := m.Kinds[rec.Type]
		if rec.Seq <= horizon || kind == nil {
			return nil
		}
		r := kind()
		if err := wire.DecodePayload(rec.Data, r); err != nil {
			return fmt.Errorf("wal: %s record %d: %w", rec.Type, rec.Seq, err)
		}
		m.Apply(r)
		applied++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if body != nil || applied > 0 {
		m.Rec.Record(obs.Event{Kind: obs.KindCluster, Op: "journal_recovered",
			Detail: strconv.Itoa(applied) + " records past image horizon " + strconv.FormatInt(horizon, 10)})
	}
	j.b = NewBatcher(j.log)
	return j, nil
}

// Commit enqueues rec, which never blocks, notes its ticket as the tail and
// applies it. Callers hold the daemon's lock, so the log's order is the
// apply order, and answer after Wait on the tail they noted before
// unlocking: windows flush in order, so that covers all the answer reflects.
func (j *Journal[R]) Commit(rec R) {
	if j.b != nil {
		*j.m.Tail = j.b.Enqueue(rec.RecType(), rec)
	}
	j.m.Apply(rec)
}

// Wait parks until t's window is fsynced. The first failed one latches
// Degraded and records one event; the daemon serves on from memory.
func (j *Journal[R]) Wait(t *Ticket) {
	if t == nil {
		return
	}
	if _, err := t.Wait(); err != nil && j.m.Degraded.CompareAndSwap(false, true) {
		j.m.Rec.Record(obs.Event{Kind: obs.KindCluster, Op: "journal_degraded",
			Detail: "WAL append failed; continuing memory-only", Err: err.Error()})
	}
}

// Compact writes the image and drops the log through its horizon, the
// tail's number once it is durable (a record committed but not flushed is in
// the image before it has a number); without a tail, or when its flush
// failed, the log's, read with the image under the same lock. The log's
// header keeps the horizon as its base, so a reopened log numbers on past
// it. A failed image write leaves the old image and the whole log in place.
func (j *Journal[R]) Compact() error {
	if j.log == nil {
		return nil
	}
	j.m.Lock.Lock()
	tail, seq := *j.m.Tail, j.log.Seq()
	img := j.m.Image()
	j.m.Lock.Unlock()
	if tail != nil {
		if n, err := tail.Wait(); err == nil {
			seq = n
		}
	}
	if err := writeImage(j.image, img(seq)); err != nil {
		return err
	}
	if err := j.log.TruncateBefore(seq + 1); err != nil {
		return err
	}
	j.compactions.Add(1)
	return nil
}

// Run compacts every interval until Close, recording each failure.
func (j *Journal[R]) Run(every time.Duration) {
	if j.log == nil {
		return
	}
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-j.stop:
				return
			case <-ticker.C:
				if err := j.Compact(); err != nil {
					j.m.Rec.Record(obs.Event{Kind: obs.KindCluster, Op: "compact_failed", Err: err.Error()})
				}
			}
		}
	}()
}

// Close stops compacting, flushes and closes the log; it may be repeated.
func (j *Journal[R]) Close() error {
	j.stopOnce.Do(func() { close(j.stop) })
	j.wg.Wait()
	if j.log == nil {
		return nil
	}
	_ = j.b.Close()
	return j.log.Close()
}

// Stats reports the records enqueued, windows flushed and compactions done.
func (j *Journal[R]) Stats() (appends, flushes, compactions int64) {
	if j.b != nil {
		appends, flushes = j.b.Stats()
	}
	return appends, flushes, j.compactions.Load()
}

// Log is the journal's log, nil when memory-only.
func (j *Journal[R]) Log() *Log { return j.log }

// ReadImage reads and checks the image at path and returns its body, nil
// when there is no image. It refuses, naming the file, an image that is cut
// short, fails its length or CRC check, or is of another version.
func ReadImage(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, err
	case len(data) < imageHead || data[0] != imageVersion:
		return nil, fmt.Errorf("wal: image %s is cut short or not version %d", path, imageVersion)
	case int64(binary.BigEndian.Uint32(data[1:])) != int64(len(data)-imageHead) ||
		crc32.ChecksumIEEE(data[imageHead:]) != binary.BigEndian.Uint32(data[5:]):
		return nil, fmt.Errorf("wal: image %s fails its length or CRC check", path)
	}
	return data[imageHead:], nil
}

// writeImage puts body, in wire's codec after the image's head, at path
// (replaceFile).
func writeImage(path string, body any) error {
	data, err := wire.AppendPayload(make([]byte, imageHead), "image", body)
	if err != nil {
		return err
	}
	data[0] = imageVersion
	binary.BigEndian.PutUint32(data[1:], uint32(len(data)-imageHead))
	binary.BigEndian.PutUint32(data[5:], crc32.ChecksumIEEE(data[imageHead:]))
	f, err := replaceFile(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
