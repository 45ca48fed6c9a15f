package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// A frame body, after its 4-byte big-endian length prefix:
//
//	id       uvarint
//	op       1 byte: the op's index in ops
//	reqId    uvarint length, then the bytes
//	span     uvarint length, then the bytes
//	error    uvarint length, then the bytes
//	payload  to the end of the frame: the payload type's code method
//
// A payload is its struct's fields in declaration order. Integers are
// varints (signed ones zigzagged), a bool or a pointer's presence is one byte,
// 0 or 1, a float64 is 8 bytes little-endian, a string is its length and its
// bytes, a slice is its count and its elements, and a map is its count and
// its pairs in ascending key order. Every value has exactly one encoding:
// a decoder refuses a varint with a redundant byte, a flag byte above 1 and
// map keys out of order, so decoding and re-encoding gives back the input.

// Errors a payload decode reports, wrapped with the op it was for.
var (
	errNoCodec   = errors.New("no codec for the type")
	errMalformed = errors.New("malformed encoding")
)

// appendHead appends a frame body's envelope fields; the payload follows.
func appendHead(b []byte, id uint64, msgType, reqID, span, errMsg string) ([]byte, error) {
	code := opCode(msgType)
	if code == 0 {
		return b, fmt.Errorf("wire: unknown op %q", msgType)
	}
	b = append(binary.AppendUvarint(b, id), code)
	for _, s := range [...]string{reqID, span, errMsg} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b, nil
}

// head is a frame body's envelope, parsed where it lies.
type head struct {
	id      uint64
	typ     string    // a Type* constant
	text    [3][2]int // where reqId, span and error lie in the body
	payload []byte
}

// parseHead parses body's envelope. It reports false for an unknown op or a
// length that runs past the frame.
func parseHead(body []byte) (h head, ok bool) {
	id, n := uvarint(body)
	if n == 0 || n >= len(body) || body[n] == 0 || int(body[n]) >= len(ops) {
		return h, false
	}
	h.id, h.typ = id, ops[body[n]]
	i := n + 1
	for k := range h.text {
		l, m := uvarint(body[i:])
		if m == 0 || l > uint64(len(body)-i-m) {
			return h, false
		}
		i += m
		h.text[k] = [2]int{i, i + int(l)}
		i += int(l)
	}
	h.payload = body[i:]
	return h, true
}

// strings returns the reqId, span and error of the body h was parsed from,
// sharing one allocation.
func (h *head) strings(body []byte) (reqID, span, errMsg string) {
	lo, hi := -1, 0
	for _, t := range h.text {
		if t[1] > t[0] {
			if lo < 0 {
				lo = t[0]
			}
			hi = t[1]
		}
	}
	if lo < 0 {
		return "", "", ""
	}
	s := string(body[lo:hi])
	var out [3]string
	for k, t := range h.text {
		if t[1] > t[0] {
			out[k] = s[t[0]-lo : t[1]-lo]
		}
	}
	return out[0], out[1], out[2]
}

// decodeRequest fills env from one frame body in place: Payload aliases
// body, so env is good only until the buffer behind body is reused. Type is
// the code table's constant; ReqID, Span and Error are one allocation.
func decodeRequest(body []byte, env *Envelope) error {
	h, ok := parseHead(body)
	if !ok {
		return ErrBadFrame
	}
	reqID, span, errMsg := h.strings(body)
	*env = Envelope{ID: h.id, Type: h.typ, ReqID: reqID, Span: span, Error: errMsg, Payload: h.payload}
	return nil
}

// peekFrameID is the demultiplexer's read of a response body: its ID, which
// opens it. The body goes to the waiting call undecoded, and decodeResponse
// is the one decode it gets.
func peekFrameID(body []byte) (uint64, error) {
	id, n := uvarint(body)
	if n == 0 {
		return 0, ErrBadFrame
	}
	return id, nil
}

// decodeResponse is the calling side's decode of the response body to its
// call of msgType: the envelope is parsed in place and the payload decoded
// from the body straight into out (which may be nil), so nothing the caller
// does not keep is allocated. It returns ErrBadFrame for a body that is not a
// frame, a *RemoteError for a failure the peer reported, a payload decode
// error, or nil.
func decodeResponse(body []byte, msgType string, out interface{}) error {
	h, ok := parseHead(body)
	if !ok {
		return ErrBadFrame
	}
	if e := h.text[2]; e[1] > e[0] {
		return &RemoteError{MsgType: msgType, Msg: string(body[e[0]:e[1]])}
	}
	if out == nil || len(h.payload) == 0 {
		return nil
	}
	if err := decodePayload(h.payload, out); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", h.typ, err)
	}
	return nil
}

// appendPayload appends payload's encoding to b.
func appendPayload(b []byte, msgType string, payload interface{}) ([]byte, error) {
	c := codec{b: b}
	if !code(&c, payload) {
		return b, fmt.Errorf("wire: %s payload: %w", msgType, errNoCodec)
	}
	return c.b, nil
}

// decodePayload decodes payload into out. The payload is copied into one
// string, and every string out is given is a substring of it: a listing of
// any length costs that string and its entries' slice, and a string kept
// keeps the whole payload in memory.
func decodePayload(payload []byte, out interface{}) error {
	c := codec{dec: true, s: string(payload)}
	switch {
	case !code(&c, out):
		return errNoCodec
	case c.bad || c.i != len(c.s):
		return errMalformed
	}
	return nil
}

// codec encodes or decodes one payload. Each message type has one method,
// code, that walks its fields in declaration order through a codec, so the
// encoder and the decoder are the same lines and cannot disagree.
type codec struct {
	dec bool
	b   []byte // encoding: the output
	s   string // decoding: the payload
	i   int    // decoding: the offset of the next byte to read
	bad bool   // decoding: the input is malformed; every read from here on yields zero

	// marks, when set (by tests), collects where each length, count,
	// integer and flag begins in the encoding.
	marks *[]mark
}

// mark is where one length, count, integer or flag begins in an encoding.
type mark struct {
	at   int
	kind markKind
}

type markKind int

const (
	markLen markKind = iota
	markCount
	markInt
	markFlag
)

func (c *codec) mark(k markKind) {
	if c.marks != nil {
		*c.marks = append(*c.marks, mark{len(c.b), k})
	}
}

func (c *codec) fail() {
	c.bad = true
	c.i = len(c.s)
}

// uvarint reads the unsigned varint that opens b and returns it with the
// number of bytes it took, or 0 for one that is cut short, runs past 64 bits
// or ends in a redundant zero byte: a value has one encoding.
func uvarint[T string | []byte](b T) (v uint64, n int) {
	for shift := uint(0); shift < 64 && n < len(b); shift += 7 {
		x := b[n]
		n++
		if x < 0x80 {
			if (x == 0 && n > 1) || (shift == 63 && x > 1) {
				return 0, 0
			}
			return v | uint64(x)<<shift, n
		}
		v |= uint64(x&0x7f) << shift
	}
	return 0, 0
}

func (c *codec) uvarint() uint64 {
	v, n := uvarint(c.s[c.i:])
	if n == 0 {
		c.fail()
	}
	c.i += n
	return v
}

func (c *codec) putUvarint(v uint64, k markKind) {
	c.mark(k)
	c.b = binary.AppendUvarint(c.b, v)
}

func (c *codec) u64(p *uint64) {
	if c.dec {
		*p = c.uvarint()
		return
	}
	c.putUvarint(*p, markInt)
}

func (c *codec) i64(p *int64) {
	if c.dec {
		u := c.uvarint()
		*p = int64(u>>1) ^ -int64(u&1)
		return
	}
	c.putUvarint(uint64(*p<<1)^uint64(*p>>63), markInt)
}

func (c *codec) integer(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.dec {
		if int64(int(v)) != v {
			c.fail()
			return
		}
		*p = int(v)
	}
}

func (c *codec) u32(p *uint32) {
	v := uint64(*p)
	c.u64(&v)
	if c.dec {
		if v > math.MaxUint32 {
			c.fail()
			return
		}
		*p = uint32(v)
	}
}

func (c *codec) flag(p *bool) {
	if !c.dec {
		c.mark(markFlag)
		if *p {
			c.b = append(c.b, 1)
		} else {
			c.b = append(c.b, 0)
		}
		return
	}
	if c.i >= len(c.s) || c.s[c.i] > 1 {
		c.fail()
		return
	}
	*p = c.s[c.i] == 1
	c.i++
}

func (c *codec) f64(p *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if len(c.s)-c.i < 8 {
		c.fail()
		return
	}
	var u uint64
	for k := 7; k >= 0; k-- {
		u = u<<8 | uint64(c.s[c.i+k])
	}
	c.i += 8
	*p = math.Float64frombits(u)
}

func (c *codec) str(p *string) {
	if !c.dec {
		c.putUvarint(uint64(len(*p)), markLen)
		c.b = append(c.b, *p...)
		return
	}
	n := c.uvarint()
	if n > uint64(len(c.s)-c.i) {
		c.fail()
		return
	}
	*p = c.s[c.i : c.i+int(n)]
	c.i += int(n)
}

// count codes the length of a slice or map of n elements, each of which
// encodes to min bytes or more. Decoding, it refuses a count the bytes left
// cannot hold, before the caller allocates for it.
func (c *codec) count(n, min int) int {
	if !c.dec {
		c.putUvarint(uint64(n), markCount)
		return n
	}
	v := c.uvarint()
	if v > uint64((len(c.s)-c.i)/min) {
		c.fail()
		return 0
	}
	return int(v)
}

// sized returns s when encoding, and when decoding a fresh slice of n
// elements (nil for none) for the caller to decode them into.
func sized[T any](c *codec, s []T, n int) []T {
	if !c.dec {
		return s
	}
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// ascending reports, decoding, whether a map's key k follows prev, the key
// before it (i > 0): keys ascend, so a map has one encoding.
func (c *codec) ascending(i int, prev, k string) {
	if c.dec && i > 0 && k <= prev {
		c.fail()
	}
}

func (c *codec) entryPtr(p **Entry) {
	present := *p != nil
	c.flag(&present)
	if !present {
		*p = nil
		return
	}
	if c.dec {
		*p = new(Entry)
	}
	(*p).code(c)
}

func (c *codec) entries(p *[]Entry) {
	*p = sized(c, *p, c.count(len(*p), entryMin))
	for i := range *p {
		(*p)[i].code(c)
	}
}

func (c *codec) subtrees(p *[]Subtree) {
	if !c.dec {
		size := 0
		for i := range *p {
			size += (*p)[i].encodedSize()
		}
		c.b = slices.Grow(c.b, size)
	}
	if n := c.count(len(*p), subtreeMin); c.dec {
		*p = sized(c, *p, n)
	}
	for i := range *p {
		(*p)[i].code(c)
	}
}

func (c *codec) strs(p *[]string) {
	*p = sized(c, *p, c.count(len(*p), 1))
	for i := range *p {
		c.str(&(*p)[i])
	}
}

// counts codes a path → count map.
func (c *codec) counts(p *map[string]int64) {
	n := c.count(len(*p), 2)
	if !c.dec {
		for _, k := range slices.Sorted(maps.Keys(*p)) {
			v := (*p)[k]
			c.str(&k)
			c.i64(&v)
		}
		return
	}
	*p = nil
	if n > 0 {
		*p = make(map[string]int64, n)
	}
	var prev string
	for i := 0; i < n && !c.bad; i++ {
		var k string
		var v int64
		c.str(&k)
		c.i64(&v)
		c.ascending(i, prev, k)
		(*p)[k], prev = v, k
	}
}

// index codes a subtree root → MDS address map.
func (c *codec) index(p *map[string]string) {
	n := c.count(len(*p), 2)
	if !c.dec {
		for _, k := range slices.Sorted(maps.Keys(*p)) {
			v := (*p)[k]
			c.str(&k)
			c.str(&v)
		}
		return
	}
	*p = nil
	if n > 0 {
		*p = make(map[string]string, n)
	}
	var prev string
	for i := 0; i < n && !c.bad; i++ {
		var k, v string
		c.str(&k)
		c.str(&v)
		c.ascending(i, prev, k)
		(*p)[k], prev = v, k
	}
}

// latencies codes an op → latency summary map.
func (c *codec) latencies(p *map[string]LatencySummary) {
	n := c.count(len(*p), 1+latencyMin)
	if !c.dec {
		for _, k := range slices.Sorted(maps.Keys(*p)) {
			v := (*p)[k]
			c.str(&k)
			v.code(c)
		}
		return
	}
	*p = nil
	if n > 0 {
		*p = make(map[string]LatencySummary, n)
	}
	var prev string
	for i := 0; i < n && !c.bad; i++ {
		var k string
		var v LatencySummary
		c.str(&k)
		v.code(c)
		c.ascending(i, prev, k)
		(*p)[k], prev = v, k
	}
}

// The fewest bytes an element of each decoded slice or map can take: what its
// zero value encodes to. count checks a count against them.
var entryMin, batchOpMin, batchResultMin, transferMin, memberMin, eventMin, latencyMin, subtreeMin int

// subtreeNodeMin is the fewest bytes a subtree node takes: a root's kind,
// size, mode and version, a byte each. Every other node takes more.
const subtreeNodeMin = 4

func init() {
	entryMin = minSize(&Entry{})
	batchOpMin = minSize(&BatchOp{})
	batchResultMin = minSize(&BatchResult{})
	transferMin = minSize(&TransferCommand{})
	memberMin = minSize(&MemberInfo{})
	eventMin = minSize(&ObsEvent{})
	latencyMin = minSize(&LatencySummary{})
	subtreeMin = minSize(&Subtree{})
}

func minSize(zero interface{}) int {
	var c codec
	code(&c, zero)
	return len(c.b)
}

// code runs p's code method through c, and reports false for a type that has
// none. The switch calls each method directly: a codec passed through an
// interface method would escape to the heap on every frame.
func code(c *codec, p interface{}) bool {
	switch m := p.(type) {
	case *LookupRequest:
		m.code(c)
	case *EntryResponse:
		m.code(c)
	case *RevalidateRequest:
		m.code(c)
	case *RevalidateResponse:
		m.code(c)
	case *ReaddirPlusRequest:
		m.code(c)
	case *ReaddirPlusResponse:
		m.code(c)
	case *SetAttrRequest:
		m.code(c)
	case *GLUpdateRequest:
		m.code(c)
	case *GLUpdateResponse:
		m.code(c)
	case *CreateRequest:
		m.code(c)
	case *CreateWithAttrsRequest:
		m.code(c)
	case *BatchRequest:
		m.code(c)
	case *BatchResponse:
		m.code(c)
	case *ReaddirRequest:
		m.code(c)
	case *ReaddirResponse:
		m.code(c)
	case *RenameRequest:
		m.code(c)
	case *Entry:
		m.code(c)
	case *BatchOp:
		m.code(c)
	case *BatchResult:
		m.code(c)
	case *JoinRequest:
		m.code(c)
	case *JoinResponse:
		m.code(c)
	case *HeartbeatRequest:
		m.code(c)
	case *HeartbeatResponse:
		m.code(c)
	case *TransferCommand:
		m.code(c)
	case *ClusterInfoResponse:
		m.code(c)
	case *InstallRequest:
		m.code(c)
	case *Subtree:
		m.code(c)
	case *Image:
		m.code(c)
	case *MonitorImage:
		m.code(c)
	case *UninstallRequest:
		m.code(c)
	case *TransferDoneRequest:
		m.code(c)
	case *TransferFailedRequest:
		m.code(c)
	case *LockResponse:
		m.code(c)
	case *StatsResponse:
		m.code(c)
	case *MonitorStatsResponse:
		m.code(c)
	case *MemberInfo:
		m.code(c)
	case *LatencySummary:
		m.code(c)
	case *MetricsSnapshot:
		m.code(c)
	case *IOSnapshot:
		m.code(c)
	case *ObsEvent:
		m.code(c)
	case *ObsDumpRequest:
		m.code(c)
	case *ObsDumpResponse:
		m.code(c)
	default:
		return false
	}
	return true
}
