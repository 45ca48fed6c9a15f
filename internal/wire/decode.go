package wire

import (
	"encoding/json"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the read-side twin of appendEnvelope: a reflection-free
// parser for the flat envelope object every peer in this protocol emits.
// encoding/json's generic decoder costs a scanner state machine, reflect
// walks and several allocations per frame — the dominant CPU and allocation
// line of the serving path. The fast path below parses the canonical shape
// directly; anything it does not recognise (unknown keys, exotic inputs,
// malformed JSON) falls back to encoding/json for the authoritative result,
// so observable behaviour — including which frames are rejected — is
// unchanged.

// decodeEnvelope fills env from one frame body.
func decodeEnvelope(body []byte, env *Envelope) error {
	if fastDecodeEnvelope(body, env) {
		return nil
	}
	*env = Envelope{}
	return json.Unmarshal(body, env)
}

// fastDecodeEnvelope attempts the no-reflection parse. It reports false —
// with env in an undefined state — whenever the input strays from the
// canonical envelope form; the caller then re-parses with encoding/json.
func fastDecodeEnvelope(body []byte, env *Envelope) bool {
	var f envelopeFields
	if !f.parse(body) {
		return false
	}
	*env = Envelope{
		ID:    f.id,
		Type:  string(f.typ),
		ReqID: string(f.reqID),
		Span:  string(f.span),
		Error: string(f.errMsg),
	}
	if f.payload != nil {
		// Copy: the frame body may live in a pooled buffer.
		env.Payload = append(make([]byte, 0, len(f.payload)), f.payload...)
	}
	return true
}

// envelopeFields is one frame envelope parsed with nothing copied: every
// byte-slice field is a sub-slice of the frame body (or, for a string that
// carried escapes, a fresh build-out), so it is valid only while the body
// is. A duplicate key keeps its last value, as encoding/json does.
type envelopeFields struct {
	id                       uint64
	typ, reqID, span, errMsg []byte
	payload                  []byte // raw extent of the payload value; nil when absent
}

// parse fills f from one frame body. It reports false — with f in an
// undefined state — for anything but the canonical envelope form, and has
// validated the whole body, payload structure included, when it reports
// true.
func (f *envelopeFields) parse(body []byte) bool {
	*f = envelopeFields{}
	c := cursor{b: body}
	ok := c.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "id":
			f.id, ok = c.uint()
		case "type":
			f.typ, ok = c.strBytes()
		case "reqId":
			f.reqID, ok = c.strBytes()
		case "span":
			f.span, ok = c.strBytes()
		case "error":
			f.errMsg, ok = c.strBytes()
		case "payload":
			f.payload, ok = c.value()
		}
		return ok
	})
	return ok && c.end()
}

// decodeRequest is the serving loop's decode: env is filled from body in
// place. Payload aliases body, so env is good only until the buffer behind
// body is reused; Type is one of the constants in inline or writeOps when it
// names one of those ops, which leaves ReqID and Span as the only allocations
// of a canonical frame.
func decodeRequest(body []byte, env *Envelope, inline []string) error {
	var f envelopeFields
	if !f.parse(body) {
		*env = Envelope{}
		return json.Unmarshal(body, env)
	}
	*env = Envelope{
		ID:      f.id,
		Type:    intern(f.typ, inline, writeOps),
		ReqID:   string(f.reqID),
		Span:    string(f.span),
		Error:   string(f.errMsg),
		Payload: f.payload,
	}
	return nil
}

// writeOps are the ops of the write path. Each may wait on the journal or
// the Monitor, so no call site lists it as inline; a decode hands their names
// back as these constants all the same.
var writeOps = []string{TypeSetAttr, TypeGLUpdate, TypeCreate, TypeCreateWithAttrs, TypeRename, TypeBatch}

// intern returns the member of sets that b spells, or failing that a new
// string.
func intern(b []byte, sets ...[]string) string {
	for _, set := range sets {
		for _, s := range set {
			if string(b) == s {
				return s
			}
		}
	}
	return string(b)
}

// decodeResponse is the calling side's decode of the response body to its
// call of msgType: the envelope is parsed in place and the payload decoded
// from the body straight into out (which may be nil), so nothing the caller
// does not keep is allocated — no Envelope, no copy of the payload, none of
// the echoed type, reqId and span. It returns the frame's ID and what
// ReadFrame, the RemoteError check and Envelope.Decode would have returned
// for the same body: an error matching ErrBadFrame for a body that is not an
// envelope, a *RemoteError for a failure the peer reported, a payload decode
// error, or nil.
func decodeResponse(body []byte, msgType string, out interface{}) (uint64, error) {
	var f envelopeFields
	if !f.parse(body) {
		// Not the canonical form: encoding/json has the authoritative answer.
		var env Envelope
		if err := json.Unmarshal(body, &env); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		f = envelopeFields{id: env.ID, typ: []byte(env.Type), errMsg: []byte(env.Error), payload: env.Payload}
	}
	if len(f.errMsg) > 0 {
		return f.id, &RemoteError{MsgType: msgType, Msg: string(f.errMsg)}
	}
	if out == nil || len(f.payload) == 0 || fastUnmarshalPayload(f.payload, out) {
		return f.id, nil
	}
	CodecFallbacks.Decode.Add(1)
	if err := json.Unmarshal(f.payload, out); err != nil {
		return f.id, fmt.Errorf("wire: decode %s payload: %w", f.typ, err)
	}
	return f.id, nil
}

// frameID is the demultiplexer's read of a response body: only its ID, off
// the front of the body when it opens the way appendEnvelope writes one, by
// parsing the whole envelope otherwise. Either way the body goes to the
// waiting call undecoded, and decodeResponse is the one decode it gets. The
// error matches ErrBadFrame: the body is not an envelope.
func frameID(body []byte) (uint64, error) {
	if id, ok := peekFrameID(body); ok {
		return id, nil
	}
	var f envelopeFields
	if f.parse(body) {
		return f.id, nil
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return env.ID, nil
}

// peekFrameID reads the frame ID off the front of a body written the way
// appendEnvelope writes one, `{"id":N,`, without parsing the rest. It
// reports false for any other opening.
func peekFrameID(body []byte) (uint64, bool) {
	const open = `{"id":`
	if len(body) < len(open) || string(body[:len(open)]) != open {
		return 0, false
	}
	c := cursor{b: body, i: len(open)}
	id, ok := c.uint()
	return id, ok && c.i < len(body) && (body[c.i] == ',' || body[c.i] == '}')
}

// cursor is a zero-allocation scanner over one frame body.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

func (c *cursor) eat(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// end reports whether only trailing whitespace remains.
func (c *cursor) end() bool {
	c.ws()
	return c.i == len(c.b)
}

// uint parses a non-negative JSON integer — the only number form the
// protocol writes for frame IDs. Anything else defers to the fallback.
func (c *cursor) uint() (uint64, bool) {
	start := c.i
	var n uint64
	for c.i < len(c.b) {
		d := c.b[c.i]
		if d < '0' || d > '9' {
			break
		}
		nn := n*10 + uint64(d-'0')
		if nn < n || n > (1<<64-1)/10 {
			return 0, false
		}
		n = nn
		c.i++
	}
	if c.i == start {
		return 0, false
	}
	if c.b[start] == '0' && c.i-start > 1 {
		return 0, false // "01" is not valid JSON
	}
	return n, true
}

// str parses a JSON string literal into a Go string.
func (c *cursor) str() (string, bool) {
	b, ok := c.strBytes()
	return string(b), ok
}

// strBytes parses a JSON string literal into its decoded bytes. The common
// escape-free literal is returned in place, as a sub-slice of the frame
// body that is valid only while the body is, and costs no allocation: how
// object keys are matched, and how a caller that may not need a string at
// all reads one. A literal with escapes takes the build-out path below the
// fast scan.
func (c *cursor) strBytes() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	start := c.i
	ascii := true
	for c.i < len(c.b) {
		ch := c.b[c.i]
		if ch == '"' {
			if !ascii && !utf8.Valid(c.b[start:c.i]) {
				// encoding/json coerces invalid UTF-8 to U+FFFD; decline so
				// the fallback performs that rewrite with authority.
				return nil, false
			}
			c.i++
			return c.b[start : c.i-1 : c.i-1], true
		}
		if ch == '\\' || ch < 0x20 {
			break
		}
		if ch >= utf8.RuneSelf {
			ascii = false
		}
		c.i++
	}
	if c.i >= len(c.b) || c.b[c.i] < 0x20 {
		return nil, false
	}
	sb := append(make([]byte, 0, len(c.b)-start), c.b[start:c.i]...)
	for c.i < len(c.b) {
		ch := c.b[c.i]
		switch {
		case ch == '"':
			if !utf8.Valid(sb) {
				return nil, false // invalid raw UTF-8: fall back (see above)
			}
			c.i++
			return sb, true
		case ch < 0x20:
			return nil, false
		case ch == '\\':
			c.i++
			if c.i >= len(c.b) {
				return nil, false
			}
			e := c.b[c.i]
			c.i++
			switch e {
			case '"', '\\', '/':
				sb = append(sb, e)
			case 'b':
				sb = append(sb, '\b')
			case 'f':
				sb = append(sb, '\f')
			case 'n':
				sb = append(sb, '\n')
			case 'r':
				sb = append(sb, '\r')
			case 't':
				sb = append(sb, '\t')
			case 'u':
				r, ok := c.hex4()
				if !ok {
					return nil, false
				}
				if utf16.IsSurrogate(rune(r)) {
					// A high/low pair decodes to one rune; anything
					// unpaired becomes U+FFFD, matching encoding/json.
					if c.i+1 < len(c.b) && c.b[c.i] == '\\' && c.b[c.i+1] == 'u' {
						save := c.i
						c.i += 2
						r2, ok := c.hex4()
						if !ok {
							return nil, false
						}
						if dec := utf16.DecodeRune(rune(r), rune(r2)); dec != utf8.RuneError {
							sb = utf8.AppendRune(sb, dec)
							continue
						}
						c.i = save
					}
					sb = utf8.AppendRune(sb, utf8.RuneError)
					continue
				}
				sb = utf8.AppendRune(sb, rune(r))
			default:
				return nil, false
			}
		default:
			sb = append(sb, ch)
			c.i++
		}
	}
	return nil, false
}

// hex4 parses four hex digits of a \u escape.
func (c *cursor) hex4() (uint32, bool) {
	if c.i+4 > len(c.b) {
		return 0, false
	}
	var r uint32
	for k := 0; k < 4; k++ {
		d := c.b[c.i+k]
		switch {
		case d >= '0' && d <= '9':
			r = r<<4 | uint32(d-'0')
		case d >= 'a' && d <= 'f':
			r = r<<4 | uint32(d-'a'+10)
		case d >= 'A' && d <= 'F':
			r = r<<4 | uint32(d-'A'+10)
		default:
			return 0, false
		}
	}
	c.i += 4
	return r, true
}

// value captures the raw extent of one JSON value (the payload), validating
// its structure as it scans so a malformed frame is still rejected at the
// frame layer, exactly as the encoding/json path would.
func (c *cursor) value() ([]byte, bool) {
	start := c.i
	if !c.skipValue(0) {
		return nil, false
	}
	return c.b[start:c.i], true
}

// maxNestingDepth bounds recursion on hostile deeply-nested payloads (the
// encoding/json scanner enforces its own limit of 10000 on the fallback).
const maxNestingDepth = 1000

func (c *cursor) skipValue(depth int) bool {
	if depth > maxNestingDepth {
		return false
	}
	c.ws()
	if c.i >= len(c.b) {
		return false
	}
	switch ch := c.b[c.i]; {
	case ch == '{':
		c.i++
		c.ws()
		if c.eat('}') {
			return true
		}
		for {
			c.ws()
			if !c.rawstr() {
				return false
			}
			c.ws()
			if !c.eat(':') {
				return false
			}
			if !c.skipValue(depth + 1) {
				return false
			}
			c.ws()
			if c.eat(',') {
				continue
			}
			return c.eat('}')
		}
	case ch == '[':
		c.i++
		c.ws()
		if c.eat(']') {
			return true
		}
		for {
			if !c.skipValue(depth + 1) {
				return false
			}
			c.ws()
			if c.eat(',') {
				continue
			}
			return c.eat(']')
		}
	case ch == '"':
		return c.rawstr()
	case ch == 't':
		return c.lit("true")
	case ch == 'f':
		return c.lit("false")
	case ch == 'n':
		return c.lit("null")
	case ch == '-' || (ch >= '0' && ch <= '9'):
		return c.number()
	default:
		return false
	}
}

// rawstr validates a string literal without materialising it.
func (c *cursor) rawstr() bool {
	if !c.eat('"') {
		return false
	}
	for c.i < len(c.b) {
		ch := c.b[c.i]
		switch {
		case ch == '"':
			c.i++
			return true
		case ch < 0x20:
			return false
		case ch == '\\':
			c.i++
			if c.i >= len(c.b) {
				return false
			}
			switch c.b[c.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				c.i++
			case 'u':
				c.i++
				if _, ok := c.hex4(); !ok {
					return false
				}
			default:
				return false
			}
		default:
			c.i++
		}
	}
	return false
}

// number validates the full JSON number grammar, so a frame the fallback
// would reject is rejected here too.
func (c *cursor) number() bool {
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	c.i = i
	return true
}

func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}
