// Package wal is the journal both daemons keep their state in (Journal): a
// write-ahead log of length-prefixed, CRC-protected JSON records in one file,
// compacted behind an image of the state in another. The Monitor journals
// the global layer, the subtree owners and its namespace tree; each MDS its
// local layer. Replay stops cleanly at the first torn or corrupt record,
// making crash-truncated tails harmless.
//
// Durability contract: Append (and AppendBatch) return only after the
// record bytes are fsynced. A failed write or sync rolls the log back to
// the last durable offset — the sequence counter is restored and the torn
// bytes truncated away — so a later append can never land beyond a torn
// region where replay would not reach it. If that rollback itself fails the
// log is poisoned and every further append reports ErrPoisoned rather than
// compounding the damage.
package wal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
)

// Record is one journal entry.
type Record struct {
	// Seq is the record's 1-based sequence number.
	Seq int64 `json:"seq"`
	// Type tags the payload schema.
	Type string `json:"type"`
	// Data is the type-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Item is one record to append; AppendBatch journals a slice of them under
// a single fsync.
type Item struct {
	Type    string
	Payload interface{}
}

// MaxRecordSize bounds one record (4 MiB).
const MaxRecordSize = 4 << 20

// Errors reported by the log.
var (
	ErrClosed       = errors.New("wal: log closed")
	ErrRecordTooBig = errors.New("wal: record exceeds maximum size")
	// ErrPoisoned marks a log whose tail state is unknown: a failed append
	// could not be rolled back, so further appends are refused — they could
	// otherwise strand valid records behind torn bytes that replay can
	// never cross.
	ErrPoisoned = errors.New("wal: log poisoned by unrecoverable write failure")
)

// syncDir fsyncs a directory so a file just created or renamed in it
// survives a crash. It is a variable so tests can observe that creation and
// rename paths really sync the parent directory (the filesystem effect
// itself is not portably observable).
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, serr)
	}
	return cerr
}

// file is the slice of *os.File the log needs; tests substitute
// fault-injecting implementations to exercise the write-error paths.
type file interface {
	io.Writer
	io.ReadSeeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is an append-only journal. Safe for concurrent use.
type Log struct {
	path string
	dir  string

	mu       sync.Mutex
	f        file
	buf      []byte // the last batch's frames, kept for the next to reuse
	seq      int64
	durable  int64 // file offset just past the last synced record
	closed   bool
	poisoned bool
	// index holds where each record in the file begins, in file order,
	// which is sequence order: compaction finds its cut here instead of
	// decoding the log.
	index []recordAt
}

// recordAt is where the record numbered seq begins in the file.
type recordAt struct{ seq, off int64 }

// Open opens (or creates) the log at path, replays it to find the last
// sequence number, and positions for appending. Creating a new log fsyncs
// the parent directory, so a crash immediately after creation cannot lose
// the file while the caller believes records were synced.
func Open(path string) (*Log, error) { return open(path, nil) }

// open is Open, handing each record of the valid prefix to fn, when set, in
// the same read that finds the append position; an error from fn fails the
// open.
func open(path string, fn func(Record) error) (*Log, error) {
	_, serr := os.Stat(path)
	created := errors.Is(serr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	if created {
		if err := syncDir(dir); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	// Scan to the end of the valid prefix.
	var lastSeq int64
	validEnd := int64(0)
	var index []recordAt
	err = replayFrom(f, func(rec Record, end int64) error {
		index = append(index, recordAt{rec.Seq, validEnd})
		lastSeq = rec.Seq
		validEnd = end
		if fn == nil {
			return nil
		}
		return fn(rec)
	})
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	// Truncate any torn tail and seek to the append position.
	if err := f.Truncate(validEnd); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{path: path, dir: dir, f: f, seq: lastSeq, durable: validEnd, index: index}, nil
}

// Append journals one record and returns its sequence number. The record is
// synced to stable storage before returning.
func (l *Log) Append(recType string, payload interface{}) (int64, error) {
	seqs, err := l.AppendBatch([]Item{{Type: recType, Payload: payload}})
	if err != nil {
		return 0, err
	}
	return seqs[0], nil
}

// Appender is a payload that appends its own JSON encoding, byte for byte
// what json.Marshal would write for it up to the escapes encoding/json adds
// for HTML's sake. AppendBatch encodes such a payload once, straight into the
// record; any other goes through json.Marshal.
type Appender interface {
	AppendJSON(b []byte) []byte
}

// maxKeptBuf bounds the frame buffer a Log keeps between batches; a batch
// that grew it past this (a chunked subtree install) gives it back.
const maxKeptBuf = 1 << 20

// AppendBatch journals every item under one write and one fsync, returning
// their sequence numbers in order. The batch is all-or-nothing: on any
// failure no item is considered durable and the log rolls back as Append
// does. A payload that cannot be marshalled or is too big fails the batch
// before anything touches the file.
func (l *Log) AppendBatch(items []Item) ([]int64, error) {
	if len(items) == 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.poisoned {
		return nil, ErrPoisoned
	}
	start := l.seq
	seqs, err := l.frameLocked(items)
	if err != nil {
		l.rollbackLocked(start)
		return nil, err
	}
	buf := l.buf
	if cap(buf) > maxKeptBuf {
		l.buf = nil
	}
	if _, err := l.f.Write(buf); err != nil {
		l.recoverTailLocked(start)
		return nil, fmt.Errorf("wal: write: %w", err)
	}
	//d2vet:ignore lockheld l.mu serialises the file by design: a batch's write and fsync must not interleave with another's
	if err := l.f.Sync(); err != nil {
		// The bytes may be in the page cache but were never acknowledged as
		// durable; discard them like a torn write.
		l.recoverTailLocked(start)
		return nil, fmt.Errorf("wal: sync: %w", err)
	}
	l.durable += int64(len(buf))
	return seqs, nil
}

// frameLocked encodes items into l.buf as consecutive records, advancing
// l.seq and indexing each where it will land, at the durable end, and
// returns their sequence numbers.
func (l *Log) frameLocked(items []Item) ([]int64, error) {
	buf := l.buf[:0]
	seqs := make([]int64, len(items))
	for i, it := range items {
		l.seq++
		at := len(buf)
		l.index = append(l.index, recordAt{l.seq, l.durable + int64(at)})
		buf = beginRecord(buf, l.seq, it.Type)
		switch p := it.Payload.(type) {
		case nil:
		case Appender:
			buf = p.AppendJSON(append(buf, `,"data":`...))
		default:
			raw, err := json.Marshal(p)
			if err != nil {
				return nil, fmt.Errorf("wal: marshal %s: %w", it.Type, err)
			}
			buf = append(append(buf, `,"data":`...), raw...)
		}
		var err error
		if buf, err = endRecord(buf, at); err != nil {
			return nil, err
		}
		seqs[i] = l.seq
	}
	l.buf = buf
	return seqs, nil
}

// recordHeader is the length and CRC that precede a record's body.
const recordHeader = 8

// beginRecord appends room for a record's header and the body up to its
// type: {"seq":N,"type":"T". The caller appends `,"data":` and the payload's
// encoding when there is one — the bytes encoding/json writes for a Record —
// and endRecord closes the body and fills the header in.
func beginRecord(buf []byte, seq int64, recType string) []byte {
	buf = append(buf, make([]byte, recordHeader)...)
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, seq, 10)
	buf = append(buf, `,"type":`...)
	return appendString(buf, recType)
}

// endRecord finishes the record that begins at buf[at:].
func endRecord(buf []byte, at int) ([]byte, error) {
	buf = append(buf, '}')
	body := buf[at+recordHeader:]
	if len(body) > MaxRecordSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, len(body))
	}
	binary.BigEndian.PutUint32(buf[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(body))
	return buf, nil
}

// appendString appends s as encoding/json quotes it. Record types are plain
// identifiers and copied between quotes; anything json.Marshal would escape
// is left to json.Marshal.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// rollbackLocked returns the sequence counter to seq and forgets where the
// records numbered past it were to land.
func (l *Log) rollbackLocked(seq int64) {
	l.seq = seq
	for len(l.index) > 0 && l.index[len(l.index)-1].seq > seq {
		l.index = l.index[:len(l.index)-1]
	}
}

// recoverTailLocked rolls a failed append back: the sequence counter
// returns to its pre-append value and the file is truncated to the last
// durable offset, so torn bytes can never sit in front of a later record.
// If the truncate or re-seek itself fails the tail state is unknown and the
// log is poisoned.
func (l *Log) recoverTailLocked(seq int64) {
	l.rollbackLocked(seq)
	if err := l.f.Truncate(l.durable); err != nil {
		l.poisoned = true
		return
	}
	if _, err := l.f.Seek(l.durable, io.SeekStart); err != nil {
		l.poisoned = true
	}
}

// TruncateBefore compacts the log, dropping every record with Seq < minSeq
// — used after a snapshot has captured the state those records rebuilt. The
// index gives the offset of the first record kept, and the bytes from there
// to the durable end are copied, unread, into a temp file, which is synced,
// renamed over the log, and the directory synced (replaceFile), so a crash
// at any point leaves either the old or the new log fully intact. All of it
// runs under l.mu, so no append can land in the old file after its records
// were copied.
func (l *Log) TruncateBefore(minSeq int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned {
		return ErrPoisoned
	}
	keep, _ := slices.BinarySearchFunc(l.index, minSeq, func(r recordAt, seq int64) int { return cmp.Compare(r.seq, seq) })
	from := l.durable
	if keep < len(l.index) {
		from = l.index[keep].off
	}
	old, kept := l.f, l.durable-from
	tmp, err := replaceFile(l.path, func(tmp *os.File) error {
		if _, err := old.Seek(from, io.SeekStart); err != nil {
			return err
		}
		_, err := io.CopyN(tmp, old, kept)
		return err
	})
	if tmp == nil {
		l.restoreAppendPosLocked()
		return err
	}
	// The rename happened (a failed directory sync leaves its durability to
	// the filesystem), and the open tmp handle followed the inode through it:
	// it IS the new log file. Swap it in and retire the old handle.
	_ = l.f.Close()
	l.f = tmp
	l.durable -= from
	l.index = append(l.index[:0], l.index[keep:]...)
	for i := range l.index {
		l.index[i].off -= from
	}
	if _, err := tmp.Seek(l.durable, io.SeekStart); err != nil {
		l.poisoned = true
		return fmt.Errorf("wal: seek after compact: %w", err)
	}
	return nil
}

// replaceFile gives the file at path new contents atomically: write fills a
// temporary file beside it, which is fsynced and renamed over path, and then
// the directory is fsynced. It returns the temporary file, open and now at
// path, and the directory sync's error; on any other failure, nil, with
// nothing at path changed and the temporary file removed.
func replaceFile(path string, write func(*os.File) error) (*os.File, error) {
	tmpPath := path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", tmpPath, err)
	}
	if err = write(tmp); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, path)
	}
	if err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		return nil, fmt.Errorf("wal: write %s: %w", tmpPath, err)
	}
	return tmp, syncDir(filepath.Dir(path))
}

// restoreAppendPosLocked re-seeks the file to the append position after a
// replay scan moved the offset; failing that, the log is poisoned.
func (l *Log) restoreAppendPosLocked() {
	if _, err := l.f.Seek(l.durable, io.SeekStart); err != nil {
		l.poisoned = true
	}
}

// Seq returns the last appended sequence number.
func (l *Log) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.poisoned {
		// Nothing past durable was acknowledged; a failed final sync
		// changes nothing for the caller.
		return l.f.Close()
	}
	//d2vet:ignore lockheld the final fsync holds l.mu so no append can race the close
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close()
		return err
	}
	return l.f.Close()
}

// Replay reads the valid record prefix of the log at path, invoking fn per
// record in order. A missing file is an empty log. Torn or corrupt tails
// are ignored; an error from fn aborts the replay.
func Replay(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	return replayFrom(f, func(rec Record, _ int64) error { return fn(rec) })
}

// replayBuf is how much of the log replayFrom reads per call.
const replayBuf = 64 << 10

// replayFrom scans records from the reader, reporting each record plus the
// stream offset just past it. It returns nil at a clean or torn end. It
// reads ahead, so the reader's position afterwards is not the end of the
// last record; callers seek before writing.
func replayFrom(r io.ReadSeeker, fn func(rec Record, end int64) error) error {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	br := bufio.NewReaderSize(r, replayBuf)
	offset := int64(0)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil // clean EOF or torn header: stop at valid prefix
		}
		size := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if size > MaxRecordSize {
			return nil // corrupt length: treat as torn tail
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil // torn body
		}
		if crc32.ChecksumIEEE(body) != sum {
			return nil // corrupt record: stop
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return nil // corrupt JSON: stop
		}
		offset += int64(8 + len(body))
		if err := fn(rec, offset); err != nil {
			return err
		}
	}
}
