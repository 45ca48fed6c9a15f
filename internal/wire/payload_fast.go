package wire

import (
	"math"
	"sort"
	"strconv"
)

// Fast-path codecs for the payload types that dominate serving-path traffic:
// Lookup and Create requests and their Entry-carrying responses. The generic
// encoding/json round trip for these tiny flat structs is the single largest
// CPU line after syscalls (reflection walks, scanner state machine, interim
// allocations), so the hot types are encoded and decoded by hand with the
// same cursor machinery the envelope fast path uses. Every other payload
// type — and any input these parsers do not recognise — takes the
// encoding/json path, so observable behaviour is unchanged.

// fastMarshalPayload encodes the hot request/response types into a buffer
// of its own. It reports false for types it does not cover; NewEnvelope then
// falls back to json.Marshal.
func fastMarshalPayload(payload interface{}) ([]byte, bool) {
	return appendPayload(make([]byte, 0, 128), payload)
}

// appendPayload appends the encoding of a hot request/response type to b:
// how the calling and the serving side write a payload straight into a
// connection's write buffer. For a type it does not cover it reports false
// with b untouched.
func appendPayload(b []byte, payload interface{}) ([]byte, bool) {
	switch p := payload.(type) {
	case *LookupRequest:
		return appendPathObject(b, p.Path), true
	case *ReaddirRequest:
		return appendPathObject(b, p.Path), true
	case *CreateRequest:
		b = append(b, `{"path":`...)
		b = appendJSONString(b, p.Path)
		b = append(b, `,"kind":`...)
		b = strconv.AppendInt(b, int64(p.Kind), 10)
		return append(b, '}'), true
	case *LookupResponse:
		return appendLeasedEntry(b, p.Entry, p.Redirect, p.LeaseMS, p.IndexVer), true
	case *CreateResponse:
		return appendLeasedEntry(b, p.Entry, p.Redirect, p.LeaseMS, p.IndexVer), true
	case *RevalidateRequest:
		b = append(b, `{"path":`...)
		b = appendJSONString(b, p.Path)
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, p.Version, 10)
		return append(b, '}'), true
	case *RevalidateResponse:
		return appendRevalidateResponse(b, p), true
	case *ReaddirPlusRequest:
		return appendPathObject(b, p.Path), true
	case *ReaddirPlusResponse:
		return appendReaddirPlusResponse(b, p), true
	case *CreateWithAttrsRequest:
		return appendCreateWithAttrsRequest(b, p), true
	case *CreateWithAttrsResponse:
		return appendLeasedEntry(b, p.Entry, p.Redirect, p.LeaseMS, p.IndexVer), true
	case *BatchRequest:
		return appendBatchRequest(b, p), true
	case *BatchResponse:
		return appendBatchResponse(b, p), true
	}
	return b, false
}

func appendPathObject(b []byte, path string) []byte {
	b = append(b, `{"path":`...)
	b = appendJSONString(b, path)
	return append(b, '}')
}

// appendLeasedEntry encodes the lease-granting response shape
// {entry?, redirect?, leaseMs?, indexVer?} with omitempty behaviour.
func appendLeasedEntry(b []byte, entry *Entry, redirect string, leaseMS, indexVer int64) []byte {
	start := len(b)
	b = append(b, '{')
	if entry != nil {
		b = append(b, `"entry":`...)
		b = appendEntry(b, entry)
	}
	if redirect != "" {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"redirect":`...)
		b = appendJSONString(b, redirect)
	}
	if leaseMS != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"leaseMs":`...)
		b = strconv.AppendInt(b, leaseMS, 10)
	}
	if indexVer != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"indexVer":`...)
		b = strconv.AppendInt(b, indexVer, 10)
	}
	return append(b, '}')
}

// appendRevalidateResponse encodes {match?, entry?, leaseMs?, indexVer?,
// redirect?} in struct tag order with omitempty behaviour.
func appendRevalidateResponse(b []byte, p *RevalidateResponse) []byte {
	start := len(b)
	b = append(b, '{')
	if p.Match {
		b = append(b, `"match":true`...)
	}
	if p.Entry != nil {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"entry":`...)
		b = appendEntry(b, p.Entry)
	}
	if p.LeaseMS != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"leaseMs":`...)
		b = strconv.AppendInt(b, p.LeaseMS, 10)
	}
	if p.IndexVer != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"indexVer":`...)
		b = strconv.AppendInt(b, p.IndexVer, 10)
	}
	if p.Redirect != "" {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"redirect":`...)
		b = appendJSONString(b, p.Redirect)
	}
	return append(b, '}')
}

// appendReaddirPlusResponse encodes {entries?, redirect?, dirVersion?,
// leaseMs?, indexVer?} in struct tag order with omitempty behaviour.
func appendReaddirPlusResponse(b []byte, p *ReaddirPlusResponse) []byte {
	start := len(b)
	b = append(b, '{')
	if len(p.Entries) > 0 {
		b = append(b, `"entries":[`...)
		for i := range p.Entries {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendEntry(b, &p.Entries[i])
		}
		b = append(b, ']')
	}
	if p.Redirect != "" {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"redirect":`...)
		b = appendJSONString(b, p.Redirect)
	}
	if p.DirVersion != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"dirVersion":`...)
		b = strconv.AppendInt(b, p.DirVersion, 10)
	}
	if p.LeaseMS != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"leaseMs":`...)
		b = strconv.AppendInt(b, p.LeaseMS, 10)
	}
	if p.IndexVer != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"indexVer":`...)
		b = strconv.AppendInt(b, p.IndexVer, 10)
	}
	return append(b, '}')
}

// appendCreateWithAttrsRequest encodes {path, kind, size?, mode?}.
func appendCreateWithAttrsRequest(b []byte, p *CreateWithAttrsRequest) []byte {
	b = append(b, `{"path":`...)
	b = appendJSONString(b, p.Path)
	b = append(b, `,"kind":`...)
	b = strconv.AppendInt(b, int64(p.Kind), 10)
	if p.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, p.Size, 10)
	}
	if p.Mode != 0 {
		b = append(b, `,"mode":`...)
		b = strconv.AppendUint(b, uint64(p.Mode), 10)
	}
	return append(b, '}')
}

// appendBatchRequest encodes {ops, hotPaths?}. Ops has no omitempty: a nil
// slice encodes as null, matching encoding/json.
func appendBatchRequest(b []byte, p *BatchRequest) []byte {
	b = append(b, `{"ops":`...)
	if p.Ops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBatchOp(b, &p.Ops[i])
		}
		b = append(b, ']')
	}
	if len(p.HotPaths) > 0 {
		b = append(b, `,"hotPaths":`...)
		b = appendPathCounts(b, p.HotPaths)
	}
	return append(b, '}')
}

// appendPathCounts encodes a path→count map with sorted keys, the same
// deterministic order encoding/json produces for maps.
func appendPathCounts(b []byte, m map[string]int64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		b = strconv.AppendInt(b, m[k], 10)
	}
	return append(b, '}')
}

// appendBatchOp encodes one sub-op {op, path, kind?, size?, mode?, version?}.
func appendBatchOp(b []byte, op *BatchOp) []byte {
	b = append(b, `{"op":`...)
	b = appendJSONString(b, op.Op)
	b = append(b, `,"path":`...)
	b = appendJSONString(b, op.Path)
	if op.Kind != 0 {
		b = append(b, `,"kind":`...)
		b = strconv.AppendInt(b, int64(op.Kind), 10)
	}
	if op.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, op.Size, 10)
	}
	if op.Mode != 0 {
		b = append(b, `,"mode":`...)
		b = strconv.AppendUint(b, uint64(op.Mode), 10)
	}
	if op.Version != 0 {
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, op.Version, 10)
	}
	return append(b, '}')
}

// appendBatchResponse encodes {results}. Like ops, no omitempty: nil
// encodes as null.
func appendBatchResponse(b []byte, p *BatchResponse) []byte {
	b = append(b, `{"results":`...)
	if p.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBatchResult(b, &p.Results[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendBatchResult encodes one sub-result {entry?, match?, redirect?,
// err?, leaseMs?, indexVer?} with omitempty behaviour.
func appendBatchResult(b []byte, res *BatchResult) []byte {
	start := len(b)
	b = append(b, '{')
	if res.Entry != nil {
		b = append(b, `"entry":`...)
		b = appendEntry(b, res.Entry)
	}
	if res.Match {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"match":true`...)
	}
	if res.Redirect != "" {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"redirect":`...)
		b = appendJSONString(b, res.Redirect)
	}
	if res.Err != "" {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"err":`...)
		b = appendJSONString(b, res.Err)
	}
	if res.LeaseMS != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"leaseMs":`...)
		b = strconv.AppendInt(b, res.LeaseMS, 10)
	}
	if res.IndexVer != 0 {
		if len(b) > start+1 {
			b = append(b, ',')
		}
		b = append(b, `"indexVer":`...)
		b = strconv.AppendInt(b, res.IndexVer, 10)
	}
	return append(b, '}')
}

func appendEntry(b []byte, e *Entry) []byte {
	b = append(b, `{"path":`...)
	b = appendJSONString(b, e.Path)
	b = append(b, `,"kind":`...)
	b = strconv.AppendInt(b, int64(e.Kind), 10)
	if e.Size != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, e.Size, 10)
	}
	if e.Mode != 0 {
		b = append(b, `,"mode":`...)
		b = strconv.AppendUint(b, uint64(e.Mode), 10)
	}
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, e.Version, 10)
	return append(b, '}')
}

// fastUnmarshalPayload decodes the hot types. Like the envelope fast path it
// only ever writes values parsed from data, so when it bails out mid-way the
// json.Unmarshal fallback re-parses everything and the merge semantics match
// a pure encoding/json decode.
func fastUnmarshalPayload(data []byte, out interface{}) bool {
	switch o := out.(type) {
	case *LookupResponse:
		return decodeLeasedEntry(data, &o.Entry, &o.Redirect, &o.LeaseMS, &o.IndexVer)
	case *CreateResponse:
		return decodeLeasedEntry(data, &o.Entry, &o.Redirect, &o.LeaseMS, &o.IndexVer)
	case *LookupRequest:
		return decodePathObject(data, &o.Path)
	case *ReaddirRequest:
		return decodePathObject(data, &o.Path)
	case *CreateRequest:
		return decodeCreateRequest(data, o)
	case *RevalidateRequest:
		return decodeRevalidateRequest(data, o)
	case *RevalidateResponse:
		return decodeRevalidateResponse(data, o)
	case *ReaddirPlusRequest:
		return decodePathObject(data, &o.Path)
	case *ReaddirPlusResponse:
		return decodeReaddirPlusResponse(data, o)
	case *CreateWithAttrsRequest:
		return decodeCreateWithAttrsRequest(data, o)
	case *CreateWithAttrsResponse:
		return decodeLeasedEntry(data, &o.Entry, &o.Redirect, &o.LeaseMS, &o.IndexVer)
	case *BatchRequest:
		return decodeBatchRequest(data, o)
	case *BatchResponse:
		return decodeBatchResponse(data, o)
	}
	return false
}

func decodeReaddirPlusResponse(data []byte, resp *ReaddirPlusResponse) bool {
	c := cursor{b: data}
	seenEntries := false
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "entries":
			// A repeated slice key would make encoding/json merge new
			// elements into the old ones field-by-field; decline rather
			// than emulate that.
			if seenEntries {
				return false
			}
			seenEntries = true
			if c.i < len(c.b) && c.b[c.i] == 'n' {
				if !c.lit("null") {
					return false
				}
				resp.Entries = nil
				return true
			}
			// encoding/json decodes [] to a non-nil empty slice; mirror that.
			entries := resp.Entries[:0]
			if entries == nil {
				entries = []Entry{}
			}
			ok := c.list(func() bool {
				var e Entry
				if !c.entry(&e) {
					return false
				}
				entries = append(entries, e)
				return true
			})
			if !ok {
				return false
			}
			resp.Entries = entries
		case "redirect":
			s, ok := c.str()
			if !ok {
				return false
			}
			resp.Redirect = s
		case "dirVersion":
			n, ok := c.int()
			if !ok {
				return false
			}
			resp.DirVersion = n
		case "leaseMs":
			n, ok := c.int()
			if !ok {
				return false
			}
			resp.LeaseMS = n
		case "indexVer":
			n, ok := c.int()
			if !ok {
				return false
			}
			resp.IndexVer = n
		default:
			return false
		}
		return true
	}) && c.end()
}

func decodeCreateWithAttrsRequest(data []byte, req *CreateWithAttrsRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			s, ok := c.str()
			if !ok {
				return false
			}
			req.Path = s
		case "kind":
			n, ok := c.int()
			if !ok {
				return false
			}
			req.Kind = EntryKind(n)
		case "size":
			n, ok := c.int()
			if !ok {
				return false
			}
			req.Size = n
		case "mode":
			n, ok := c.int()
			if !ok || n < 0 || n > math.MaxUint32 {
				return false
			}
			req.Mode = uint32(n)
		default:
			return false
		}
		return true
	}) && c.end()
}

func decodeBatchRequest(data []byte, req *BatchRequest) bool {
	c := cursor{b: data}
	seenOps := false
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "ops":
			if seenOps {
				return false // repeated slice key: decline (see entries)
			}
			seenOps = true
			if c.i < len(c.b) && c.b[c.i] == 'n' {
				if !c.lit("null") {
					return false
				}
				req.Ops = nil
				return true
			}
			ops := req.Ops[:0]
			if ops == nil {
				ops = []BatchOp{}
			}
			ok := c.list(func() bool {
				var op BatchOp
				if !c.batchOp(&op) {
					return false
				}
				ops = append(ops, op)
				return true
			})
			if !ok {
				return false
			}
			req.Ops = ops
		case "hotPaths":
			if c.i < len(c.b) && c.b[c.i] == 'n' {
				if !c.lit("null") {
					return false
				}
				req.HotPaths = nil
				return true
			}
			if req.HotPaths == nil {
				req.HotPaths = make(map[string]int64)
			}
			return c.object(func(key []byte) bool {
				n, ok := c.int()
				if !ok {
					return false
				}
				req.HotPaths[string(key)] = n
				return true
			})
		default:
			return false
		}
		return true
	}) && c.end()
}

func (c *cursor) batchOp(op *BatchOp) bool {
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "op":
			s, ok := c.str()
			if !ok {
				return false
			}
			op.Op = s
		case "path":
			s, ok := c.str()
			if !ok {
				return false
			}
			op.Path = s
		case "kind":
			n, ok := c.int()
			if !ok {
				return false
			}
			op.Kind = EntryKind(n)
		case "size":
			n, ok := c.int()
			if !ok {
				return false
			}
			op.Size = n
		case "mode":
			n, ok := c.int()
			if !ok || n < 0 || n > math.MaxUint32 {
				return false
			}
			op.Mode = uint32(n)
		case "version":
			n, ok := c.int()
			if !ok {
				return false
			}
			op.Version = n
		default:
			return false
		}
		return true
	})
}

func decodeBatchResponse(data []byte, resp *BatchResponse) bool {
	c := cursor{b: data}
	seenResults := false
	return c.object(func(key []byte) bool {
		if string(key) != "results" {
			return false
		}
		if seenResults {
			return false // repeated slice key: decline (see entries)
		}
		seenResults = true
		if c.i < len(c.b) && c.b[c.i] == 'n' {
			if !c.lit("null") {
				return false
			}
			resp.Results = nil
			return true
		}
		results := resp.Results[:0]
		if results == nil {
			results = []BatchResult{}
		}
		ok := c.list(func() bool {
			var res BatchResult
			if !c.batchResult(&res) {
				return false
			}
			results = append(results, res)
			return true
		})
		if !ok {
			return false
		}
		resp.Results = results
		return true
	}) && c.end()
}

func (c *cursor) batchResult(res *BatchResult) bool {
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "entry":
			if c.i < len(c.b) && c.b[c.i] == 'n' {
				if !c.lit("null") {
					return false
				}
				res.Entry = nil
				return true
			}
			if res.Entry == nil {
				res.Entry = new(Entry)
			}
			return c.entry(res.Entry)
		case "match":
			v, ok := c.boolVal()
			if !ok {
				return false
			}
			res.Match = v
		case "redirect":
			s, ok := c.str()
			if !ok {
				return false
			}
			res.Redirect = s
		case "err":
			s, ok := c.str()
			if !ok {
				return false
			}
			res.Err = s
		case "leaseMs":
			n, ok := c.int()
			if !ok {
				return false
			}
			res.LeaseMS = n
		case "indexVer":
			n, ok := c.int()
			if !ok {
				return false
			}
			res.IndexVer = n
		default:
			return false
		}
		return true
	})
}

func decodePathObject(data []byte, path *string) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		if string(key) != "path" {
			return false
		}
		s, ok := c.str()
		if !ok {
			return false
		}
		*path = s
		return true
	}) && c.end()
}

func decodeCreateRequest(data []byte, req *CreateRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			s, ok := c.str()
			if !ok {
				return false
			}
			req.Path = s
		case "kind":
			n, ok := c.int()
			if !ok {
				return false
			}
			req.Kind = EntryKind(n)
		default:
			return false
		}
		return true
	}) && c.end()
}

// decodeLeasedEntry parses the shared {entry?, redirect?, leaseMs?,
// indexVer?} response shape. A future lease-less caller may pass nil for
// the lease fields, in which case those keys bail to the fallback (which
// then reports the unknown-field behaviour of encoding/json — silently
// ignoring them — with authority).
func decodeLeasedEntry(data []byte, entry **Entry, redirect *string, leaseMS, indexVer *int64) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "entry":
			if c.i < len(c.b) && c.b[c.i] == 'n' {
				if !c.lit("null") {
					return false
				}
				*entry = nil // JSON null sets the pointer to nil
				return true
			}
			// encoding/json reuses an existing pointee; mirror that.
			if *entry == nil {
				*entry = new(Entry)
			}
			return c.entry(*entry)
		case "redirect":
			s, ok := c.str()
			if !ok {
				return false
			}
			*redirect = s
		case "leaseMs":
			if leaseMS == nil {
				return false
			}
			n, ok := c.int()
			if !ok {
				return false
			}
			*leaseMS = n
		case "indexVer":
			if indexVer == nil {
				return false
			}
			n, ok := c.int()
			if !ok {
				return false
			}
			*indexVer = n
		default:
			return false
		}
		return true
	}) && c.end()
}

func decodeRevalidateRequest(data []byte, req *RevalidateRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			s, ok := c.str()
			if !ok {
				return false
			}
			req.Path = s
		case "version":
			n, ok := c.int()
			if !ok {
				return false
			}
			req.Version = n
		default:
			return false
		}
		return true
	}) && c.end()
}

func decodeRevalidateResponse(data []byte, resp *RevalidateResponse) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "match":
			v, ok := c.boolVal()
			if !ok {
				return false
			}
			resp.Match = v
		case "entry":
			if c.i < len(c.b) && c.b[c.i] == 'n' {
				if !c.lit("null") {
					return false
				}
				resp.Entry = nil
				return true
			}
			if resp.Entry == nil {
				resp.Entry = new(Entry)
			}
			return c.entry(resp.Entry)
		case "leaseMs":
			n, ok := c.int()
			if !ok {
				return false
			}
			resp.LeaseMS = n
		case "indexVer":
			n, ok := c.int()
			if !ok {
				return false
			}
			resp.IndexVer = n
		case "redirect":
			s, ok := c.str()
			if !ok {
				return false
			}
			resp.Redirect = s
		default:
			return false
		}
		return true
	}) && c.end()
}

// boolVal parses a JSON true/false literal.
func (c *cursor) boolVal() (bool, bool) {
	if c.i < len(c.b) {
		switch c.b[c.i] {
		case 't':
			return true, c.lit("true")
		case 'f':
			return false, c.lit("false")
		}
	}
	return false, false
}

func (c *cursor) entry(e *Entry) bool {
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			s, ok := c.str()
			if !ok {
				return false
			}
			e.Path = s
		case "kind":
			n, ok := c.int()
			if !ok {
				return false
			}
			e.Kind = EntryKind(n)
		case "size":
			n, ok := c.int()
			if !ok {
				return false
			}
			e.Size = n
		case "mode":
			n, ok := c.int()
			if !ok || n < 0 || n > math.MaxUint32 {
				return false
			}
			e.Mode = uint32(n)
		case "version":
			n, ok := c.int()
			if !ok {
				return false
			}
			e.Version = n
		default:
			return false
		}
		return true
	})
}

// object walks one JSON object, invoking field for each key with the cursor
// positioned at the value. The key is matched in place (`switch string(key)`
// does not allocate): it is a sub-slice of the body unless it carried an
// escape, and must not be kept. field returns false to bail to the fallback
// (unknown key, wrong value type). It reads the value through the cursor it
// closes over: a callback handed the cursor as an argument would force every
// cursor onto the heap. After the value, the cursor must sit on
// ',' or '}' — a value field only partially consumed (e.g. the integer part
// of a float) fails that check and falls back, exactly as intended.
func (c *cursor) object(field func(key []byte) bool) bool {
	c.ws()
	if !c.eat('{') {
		return false
	}
	c.ws()
	if c.eat('}') {
		return true
	}
	for {
		c.ws()
		key, ok := c.strBytes()
		if !ok {
			return false
		}
		c.ws()
		if !c.eat(':') {
			return false
		}
		c.ws()
		if !field(key) {
			return false
		}
		c.ws()
		if c.eat(',') {
			continue
		}
		return c.eat('}')
	}
}

// list walks one JSON array, invoking elem with the cursor positioned at each
// element. elem must consume exactly one value.
func (c *cursor) list(elem func() bool) bool {
	c.ws()
	if !c.eat('[') {
		return false
	}
	c.ws()
	if c.eat(']') {
		return true
	}
	for {
		c.ws()
		if !elem() {
			return false
		}
		c.ws()
		if c.eat(',') {
			continue
		}
		return c.eat(']')
	}
}

// int parses a signed JSON integer. A number with a fraction or exponent
// stops at the '.'/'e', which the caller's object walk then rejects — the
// fallback produces the authoritative error for those.
func (c *cursor) int() (int64, bool) {
	neg := c.i < len(c.b) && c.b[c.i] == '-'
	if neg {
		c.i++
	}
	n, ok := c.uint()
	if !ok {
		return 0, false
	}
	if neg {
		if n > math.MaxInt64+1 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}
