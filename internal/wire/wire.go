// Package wire defines the framed binary protocol spoken between clients,
// metadata servers (MDS) and the Monitor: a 4-byte big-endian length prefix
// followed by one envelope (frame ID, op, trace identifiers, error) and the
// payload, each message encoded by the one code method its type declares.
// codec.go has the layout.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// MaxFrameSize bounds a single frame (16 MiB) to stop a corrupt or
// malicious peer from forcing huge allocations.
const MaxFrameSize = 16 << 20

// Message types.
const (
	// Client → MDS.
	TypeLookup  = "lookup"
	TypeCreate  = "create"
	TypeSetAttr = "setattr"
	TypeReaddir = "readdir"
	TypeRename  = "rename"
	TypeStats   = "stats"

	// Client → MDS: body-less version check on an expired cache lease. A
	// matching version renews the lease without resending the entry; a
	// mismatch ships the current entry in the response.
	TypeRevalidate = "revalidate"

	// Client → MDS: one frame carrying N independent sub-operations
	// (lookup/create/setattr/revalidate/create_attrs), executed with one
	// store-lock acquisition per owned run and one group-commit WAL window,
	// with per-sub-op results, redirects and leases. The frame also folds
	// the client's coalesced popularity deltas into the server's access
	// counters, so cache-served hits still drive GL re-evaluation.
	TypeBatch = "batch"

	// Client → MDS: directory listing that returns the child entries with
	// leases instead of bare names, so `ls -l` costs one RPC, not 1+N.
	TypeReaddirPlus = "readdir_plus"

	// Client → MDS: create fused with initial attributes — the create +
	// setattr pair every real client issues, in one journaled commit.
	TypeCreateWithAttrs = "create_attrs"

	// MDS → Monitor.
	TypeJoin      = "join"
	TypeHeartbeat = "heartbeat"
	TypeGLUpdate  = "gl_update"

	// Client → Monitor.
	TypeClusterInfo = "cluster_info"

	// Monitor → MDS (commands carried in heartbeat responses).
	//d2vet:ignore wirecheck piggybacked in HeartbeatResponse.Transfer as a TransferCommand, never dispatched as a standalone frame
	TypeTransfer = "transfer"

	// MDS → MDS.
	TypeInstall = "install"

	// Monitor → MDS: drop a subtree the server should not hold — a
	// recovery push that timed out at the Monitor but landed anyway, after
	// the subtree was re-homed elsewhere.
	TypeUninstall = "uninstall"

	// MDS → Monitor after completing a transfer.
	TypeTransferDone = "transfer_done"

	// MDS → Monitor when a transfer could not be executed (destination
	// unreachable, install rejected): the NACK that lets the Monitor
	// reschedule the subtree instead of leaving it wedged in-flight.
	TypeTransferFailed = "transfer_failed"

	// Client → Monitor: coordinator-side counters and member table.
	TypeMonitorStats = "monitor_stats"

	// Client → MDS and Client → Monitor: buffered observability events and
	// per-op latency histograms.
	TypeObsDump = "obs_dump"

	// Generic.
	//d2vet:ignore wirecheck generic success envelope: payload is the per-op response struct, produced by Envelope helpers rather than a handler case
	TypeOK = "ok"
	//d2vet:ignore wirecheck generic error envelope carrying ErrorBody, decoded by Envelope.Decode rather than a handler case
	TypeError = "error"
)

// ops is the code table: a frame carries its op as the index of its Type*
// constant here and decodes to that constant, so a receiver can compare the
// type it was handed against the constants by pointer. Code 0 is no op. The
// codes are the wire format: append, never reorder. No code is '"' (0x22),
// the second byte of every JSON frame, so a JSON peer is a bad frame.
var ops = [...]string{
	1: TypeOK, TypeError,
	TypeLookup, TypeCreate, TypeSetAttr, TypeReaddir, TypeRename, TypeStats,
	TypeRevalidate, TypeBatch, TypeReaddirPlus, TypeCreateWithAttrs,
	TypeJoin, TypeHeartbeat, TypeGLUpdate, TypeClusterInfo,
	TypeInstall, TypeUninstall, TypeTransferDone, TypeTransferFailed,
	TypeMonitorStats, TypeObsDump,
}

// opCode returns msgType's code, or 0 for a type that is no op.
func opCode(msgType string) byte {
	for i := 1; i < len(ops); i++ {
		if ops[i] == msgType {
			return byte(i)
		}
	}
	return 0
}

// Errors reported by frame handling.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

// Envelope is the outer message structure for every frame.
type Envelope struct {
	// ID correlates a response with its request on a shared connection.
	ID uint64 `json:"id"`
	// Type selects the payload schema.
	Type string `json:"type"`
	// ReqID is the end-to-end request identifier minted once at the edge
	// (client or load generator) and propagated unchanged across every hop
	// the operation touches — MDS forwarding, Monitor RPCs, the migration
	// lifecycle — so one grep over the event logs reconstructs its path.
	// Responses echo the request's ReqID. Empty on untraced traffic.
	ReqID string `json:"reqId,omitempty"`
	// Span names the hop that sent this frame ("client-3", "mds-0",
	// "monitor"): the parent span of whatever work the receiver does for it.
	Span string `json:"span,omitempty"`
	// Error carries a failure message on responses (empty on success).
	Error string `json:"error,omitempty"`
	// Payload is the type-specific body, as its type's code method wrote it.
	Payload []byte `json:"payload,omitempty"`
}

// NewEnvelope encodes payload into a fresh envelope.
func NewEnvelope(id uint64, msgType string, payload interface{}) (*Envelope, error) {
	env := &Envelope{ID: id, Type: msgType}
	if payload != nil {
		raw, err := AppendPayload(nil, msgType, payload)
		if err != nil {
			return nil, err
		}
		env.Payload = raw
	}
	return env, nil
}

// ErrorEnvelope builds an error response for a request.
func ErrorEnvelope(id uint64, err error) *Envelope {
	return &Envelope{ID: id, Type: TypeError, Error: err.Error()}
}

// Decode decodes the envelope payload into out.
func (e *Envelope) Decode(out interface{}) error {
	if e.Error != "" {
		return fmt.Errorf("wire: remote error: %s", e.Error)
	}
	if len(e.Payload) == 0 {
		return nil
	}
	if err := DecodePayload(e.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", e.Type, err)
	}
	return nil
}

// framePool recycles encode and decode buffers across frames. Buffers that
// grew past readBodyChunk are dropped rather than pinned in the pool.
var framePool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= readBodyChunk {
		*bp = (*bp)[:0]
		framePool.Put(bp)
	}
}

// WriteFrame serialises one envelope onto w: length prefix, envelope and
// payload are encoded into a single pooled buffer and issued as one Write,
// so the common small frame costs no per-call allocation and one syscall on
// an unbuffered writer.
func WriteFrame(w io.Writer, env *Envelope) error {
	bp := framePool.Get().(*[]byte)
	buf, err := appendHead(beginFrame((*bp)[:0]), env.ID, env.Type, env.ReqID, env.Span, env.Error)
	if err == nil {
		buf = append(buf, env.Payload...)
		err = endFrame(buf, 0)
	}
	if err == nil {
		_, err = w.Write(buf)
		if err != nil {
			err = fmt.Errorf("wire: write frame: %w", err)
		}
	}
	*bp = buf // keep the buffer if encoding grew it
	putFrameBuf(bp)
	return err
}

// beginFrame appends the room for a frame's length prefix; the body follows,
// and endFrame, given the offset the frame began at, fills the prefix in.
func beginFrame(buf []byte) []byte { return append(buf, 0, 0, 0, 0) }

func endFrame(buf []byte, start int) error {
	size := len(buf) - start - 4
	if size > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(size))
	return nil
}

// appendMessage encodes a whole frame body around payload (nil for none)
// straight onto buf, with no Envelope and no payload buffer in between.
func appendMessage(buf []byte, id uint64, msgType, reqID, span string, payload interface{}) ([]byte, error) {
	buf, err := appendHead(buf, id, msgType, reqID, span, "")
	if err != nil || payload == nil {
		return buf, err
	}
	return AppendPayload(buf, msgType, payload)
}

// appendErrorMessage encodes the error response ErrorEnvelope builds.
func appendErrorMessage(buf []byte, id uint64, reqID, span string, err error) []byte {
	buf, _ = appendHead(buf, id, TypeError, reqID, span, err.Error()) // TypeError has a code
	return buf
}

// ReadFrame reads one envelope from r.
func ReadFrame(r io.Reader) (*Envelope, error) {
	bp, err := readFrameBody(r)
	if err != nil {
		return nil, err
	}
	// The envelope copies what it keeps out of the body, so the buffer can be
	// recycled as soon as decoding finishes.
	var env Envelope
	err = decodeRequest(*bp, &env)
	if err == nil && len(env.Payload) > 0 {
		env.Payload = append([]byte(nil), env.Payload...)
	}
	putFrameBuf(bp)
	if err != nil {
		return nil, err
	}
	return &env, nil
}

// readFrameBody reads one frame off r and returns its body in a buffer the
// caller owns and hands back with putFrameBuf. Common-size bodies land in a
// pooled buffer, the length prefix included, so reading a frame allocates
// nothing.
func readFrameBody(r io.Reader) (*[]byte, error) {
	bp := framePool.Get().(*[]byte)
	hdr := (*bp)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		putFrameBuf(bp)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > MaxFrameSize {
		putFrameBuf(bp)
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	if int(size) <= readBodyChunk {
		if cap(*bp) < int(size) {
			*bp = make([]byte, 0, int(size))
		}
		*bp = (*bp)[:size]
		if _, err := io.ReadFull(r, *bp); err != nil {
			putFrameBuf(bp)
			return nil, fmt.Errorf("wire: read frame body: %w", bodyEOF(err))
		}
		return bp, nil
	}
	// The length prefix is peer-controlled: past the pooled-chunk size,
	// grow the buffer as bytes actually arrive instead of trusting the
	// header with an up-front allocation, so a corrupt or hostile 4-byte
	// prefix cannot pin MaxFrameSize of memory on a connection that then
	// stalls or closes.
	putFrameBuf(bp)
	body, err := readBody(r, int(size))
	if err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return &body, nil
}

// readBodyChunk caps each allocation step while reading a frame body.
const readBodyChunk = 64 << 10

// readBody reads exactly size bytes, allocating in chunks no larger than
// readBodyChunk so memory grows with data received, not with the advertised
// length. The header already promised size bytes, so EOF anywhere in the
// body is reported as io.ErrUnexpectedEOF.
func readBody(r io.Reader, size int) ([]byte, error) {
	if size <= readBodyChunk {
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, bodyEOF(err)
		}
		return body, nil
	}
	body := make([]byte, 0, readBodyChunk)
	for len(body) < size {
		n := min(size-len(body), readBodyChunk)
		body = slices.Grow(body, n)
		if _, err := io.ReadFull(r, body[len(body):len(body)+n]); err != nil {
			return nil, bodyEOF(err)
		}
		body = body[:len(body)+n]
	}
	return body, nil
}

func bodyEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
