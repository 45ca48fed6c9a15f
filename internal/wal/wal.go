// Package wal is the journal both daemons keep their state in (Journal): a
// write-ahead log of length-prefixed, CRC-protected binary records in one
// file, compacted behind an image of the state in another. The Monitor
// journals the global layer, the subtree owners and its namespace tree; each
// MDS its local layer. Replay stops cleanly at the first torn or corrupt
// record, making crash-truncated tails harmless.
//
// A log file opens with a header: the format version (one byte) and the
// base, 8 bytes big-endian, the number of the last record compaction
// dropped, which the first record follows. Then each record:
//
//	length   4 bytes big-endian: the body's
//	crc      4 bytes big-endian: CRC-32 (IEEE) of the body
//	seq      uvarint: the record's number
//	op       1 byte: the record type's index in ops
//	payload  to the end of the body: the record in wire's codec
//
// A log of another version is refused, but for a JSON-era log (its first
// byte is a record length's, 0), which a journal upgrades once at open.
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
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"d2tree/internal/wire"
)

// Record is one journal entry.
type Record struct {
	// Seq is the record's 1-based sequence number.
	Seq int64
	// Type tags the payload schema.
	Type string
	// Data is the payload in wire's codec (wire.DecodePayload): in JSON
	// for a record of a JSON-era log being upgraded.
	Data []byte
}

// ops gives each record type the daemons log its op byte, its index here.
// A type keeps its byte for as long as a log may hold it.
var ops = [...]string{1: "create", "setattr", "rename", "install_trees", "remove", "gl_update", "owner", "ll_paths", "gl_layer"}

// opCode is recType's op byte, 0 for a type not in ops.
func opCode(recType string) byte {
	for i := 1; i < len(ops); i++ {
		if ops[i] == recType {
			return byte(i)
		}
	}
	return 0
}

// The log's header: the format version and the base.
const (
	logVersion = 1
	logHead    = 9
)

func appendHead(b []byte, base int64) []byte {
	return binary.BigEndian.AppendUint64(append(b, logVersion), uint64(base))
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
	base     int64  // the number the file's first record follows
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
// its header and the parent directory, so a crash immediately after creation
// cannot lose the file while the caller believes records were synced.
func Open(path string) (*Log, error) { return open(path, 0, nil) }

// open is Open, handing each record of the valid prefix to fn, when set, in
// the same read that finds the append position; an error from fn fails the
// open. A log it creates numbers its records on from base.
func open(path string, base int64, fn func(Record) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	fail := func(err error) (*Log, error) {
		_ = f.Close()
		return nil, err
	}
	dir := filepath.Dir(path)
	// Read the header, or, where there is none or a crash cut it short (the
	// log was being created, so no record was acked), write it and sync it
	// and the directory.
	head, whole, err := readHead(f, path)
	switch {
	case whole:
		base = head
	case err == nil:
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			_, err = f.Write(appendHead(nil, base))
		}
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = syncDir(dir)
		}
	}
	if err != nil {
		return fail(err)
	}
	// Scan to the end of the valid prefix.
	seq, durable := base, int64(logHead)
	var index []recordAt
	err = replayFrom(f, logHead, decodeRecord, func(rec Record, end int64) error {
		index = append(index, recordAt{rec.Seq, durable})
		seq, durable = rec.Seq, end
		if fn == nil {
			return nil
		}
		return fn(rec)
	})
	if err != nil {
		return fail(err)
	}
	// Truncate any torn tail and seek to the append position.
	if err := f.Truncate(durable); err != nil {
		return fail(fmt.Errorf("wal: truncate torn tail: %w", err))
	}
	if _, err := f.Seek(durable, io.SeekStart); err != nil {
		return fail(fmt.Errorf("wal: seek: %w", err))
	}
	return &Log{path: path, dir: dir, f: f, base: base, seq: seq, durable: durable, index: index}, nil
}

// readHead reads the header at the start of r and returns its base, and
// whether the header is whole. A log of another format version is refused.
func readHead(r io.Reader, path string) (base int64, whole bool, err error) {
	var head [logHead]byte
	n, _ := io.ReadFull(r, head[:])
	if n > 0 && head[0] != logVersion {
		return 0, false, fmt.Errorf("wal: log %s is format version %d; this build reads version %d", path, head[0], logVersion)
	}
	return int64(binary.BigEndian.Uint64(head[1:])), n == logHead, nil
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

// maxKeptBuf bounds the frame buffer a Log keeps between batches; a batch
// that grew it past this (a chunked subtree install) gives it back.
const maxKeptBuf = 1 << 20

// AppendBatch journals every item under one write and one fsync, returning
// their sequence numbers in order. The batch is all-or-nothing: on any
// failure no item is considered durable and the log rolls back as Append
// does. An item of a type not in ops, a payload with no codec or a record
// too big fails the batch before anything touches the file.
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
		op := opCode(it.Type)
		if op == 0 {
			return nil, fmt.Errorf("wal: record type %q is not in the op table", it.Type)
		}
		l.seq++
		at := len(buf)
		l.index = append(l.index, recordAt{l.seq, l.durable + int64(at)})
		buf = append(buf, make([]byte, recordHeader)...)
		buf = append(binary.AppendUvarint(buf, uint64(l.seq)), op)
		var err error
		if it.Payload != nil {
			if buf, err = wire.AppendPayload(buf, it.Type, it.Payload); err != nil {
				return nil, err
			}
		}
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

// endRecord fills in the header of the record that begins at buf[at:].
func endRecord(buf []byte, at int) ([]byte, error) {
	body := buf[at+recordHeader:]
	if len(body) > MaxRecordSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrRecordTooBig, len(body))
	}
	binary.BigEndian.PutUint32(buf[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(body))
	return buf, nil
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
// index gives the offset of the first record kept. A new header, its base
// the last record dropped, and the bytes from there to the durable end,
// copied unread, go into a temp file, which is synced, renamed over the log,
// and the directory synced (replaceFile), so a crash at any point leaves
// either the old or the new log fully intact. All of it runs under l.mu, so
// no append can land in the old file after its records were copied.
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
	from, base := l.durable, l.base
	if keep < len(l.index) {
		from = l.index[keep].off
	}
	if keep > 0 {
		base = l.index[keep-1].seq
	}
	old, kept := l.f, l.durable-from
	tmp, err := replaceFile(l.path, func(tmp *os.File) error {
		if _, err := tmp.Write(appendHead(nil, base)); err != nil {
			return err
		}
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
	l.f, l.base = tmp, base
	l.durable -= from - logHead
	l.index = append(l.index[:0], l.index[keep:]...)
	for i := range l.index {
		l.index[i].off -= from - logHead
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
// record in order. A missing file, or one cut inside its header, is an empty
// log. Torn or corrupt tails are ignored; an error from fn aborts the replay.
func Replay(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	if _, whole, err := readHead(f, path); !whole {
		return err
	}
	return replayFrom(f, logHead, decodeRecord, func(rec Record, _ int64) error { return fn(rec) })
}

// replayBuf is how much of the log replayFrom reads per call.
const replayBuf = 64 << 10

// replayFrom scans the records from offset at, each body read by decode
// (decodeRecord, or the upgrade's decodeJSON), reporting each record plus the
// offset just past it. It returns nil at a clean or torn end, or at a body
// decode reports false for. It reads ahead, so the reader's position
// afterwards is not the end of the last record; callers seek before writing.
func replayFrom(r io.ReadSeeker, at int64, decode func(body []byte) (Record, bool), fn func(rec Record, end int64) error) error {
	if _, err := r.Seek(at, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	br := bufio.NewReaderSize(r, replayBuf)
	var hdr [recordHeader]byte
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
		rec, ok := decode(body)
		if !ok {
			return nil // not a record: stop
		}
		at += int64(recordHeader + len(body))
		if err := fn(rec, at); err != nil {
			return err
		}
	}
}

// decodeRecord reads a record's body: its seq, a uvarint with no redundant
// byte, and an op byte in ops. The payload is left to the journal.
func decodeRecord(body []byte) (Record, bool) {
	seq, n := binary.Uvarint(body)
	if n <= 0 || n >= len(body) || (n > 1 && body[n-1] == 0) || body[n] == 0 || int(body[n]) >= len(ops) {
		return Record{}, false
	}
	return Record{Seq: int64(seq), Type: ops[body[n]], Data: body[n+1:]}, true
}
