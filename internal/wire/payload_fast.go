package wire

import (
	"math"
	"sort"
	"strconv"
)

// Hand codecs for every message on the data path: each op a client sends to
// an MDS, its response, and the hop it triggers (a global-layer setattr or
// create forwarded to the Monitor as gl_update). The generic encoding/json
// round trip for these small flat structs costs reflection walks, a scanner
// state machine, interim allocations and, on a goroutine started for one op,
// stack growth, so they are encoded and decoded by hand with the same cursor
// machinery the envelope fast path uses. Control traffic (join, heartbeat,
// stats, transfers, obs dumps) — and any input these parsers do not recognise
// — takes the encoding/json path, so observable behaviour is unchanged.
// CodecFallbacks counts how often that happens.

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
	case *EntryResponse:
		return appendEntryResponse(b, p), true
	case *SetAttrRequest:
		b = append(b, `{"path":`...)
		b = appendJSONString(b, p.Path)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, p.Size, 10)
		b = append(b, `,"mode":`...)
		b = strconv.AppendUint(b, uint64(p.Mode), 10)
		return append(b, '}'), true
	case *GLUpdateRequest:
		b = append(b, `{"serverId":`...)
		b = strconv.AppendInt(b, int64(p.ServerID), 10)
		b = append(b, `,"op":`...)
		b = appendJSONString(b, p.Op)
		b = append(b, `,"entry":`...)
		b = AppendEntry(b, &p.Entry)
		return append(b, '}'), true
	case *GLUpdateResponse:
		b = append(b, `{"entry":`...)
		b = AppendEntry(b, &p.Entry)
		b = append(b, `,"glVersion":`...)
		b = strconv.AppendInt(b, p.GLVersion, 10)
		return append(b, '}'), true
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
	case *BatchRequest:
		return appendBatchRequest(b, p), true
	case *BatchResponse:
		return appendBatchResponse(b, p), true
	}
	return b, false
}

// sep appends the comma that goes before every field of the object opened
// at b[start] but its first.
func sep(b []byte, start int) []byte {
	if len(b) > start+1 {
		b = append(b, ',')
	}
	return b
}

func appendPathObject(b []byte, path string) []byte {
	b = append(b, `{"path":`...)
	b = appendJSONString(b, path)
	return append(b, '}')
}

// appendEntryResponse encodes {entry?, redirect?, leaseMs?, indexVer?} with
// omitempty behaviour.
func appendEntryResponse(b []byte, p *EntryResponse) []byte {
	start := len(b)
	b = append(b, '{')
	if p.Entry != nil {
		b = append(b, `"entry":`...)
		b = AppendEntry(b, p.Entry)
	}
	if p.Redirect != "" {
		b = append(sep(b, start), `"redirect":`...)
		b = appendJSONString(b, p.Redirect)
	}
	if p.LeaseMS != 0 {
		b = append(sep(b, start), `"leaseMs":`...)
		b = strconv.AppendInt(b, p.LeaseMS, 10)
	}
	if p.IndexVer != 0 {
		b = append(sep(b, start), `"indexVer":`...)
		b = strconv.AppendInt(b, p.IndexVer, 10)
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
		b = append(sep(b, start), `"entry":`...)
		b = AppendEntry(b, p.Entry)
	}
	if p.LeaseMS != 0 {
		b = append(sep(b, start), `"leaseMs":`...)
		b = strconv.AppendInt(b, p.LeaseMS, 10)
	}
	if p.IndexVer != 0 {
		b = append(sep(b, start), `"indexVer":`...)
		b = strconv.AppendInt(b, p.IndexVer, 10)
	}
	if p.Redirect != "" {
		b = append(sep(b, start), `"redirect":`...)
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
			b = AppendEntry(b, &p.Entries[i])
		}
		b = append(b, ']')
	}
	if p.Redirect != "" {
		b = append(sep(b, start), `"redirect":`...)
		b = appendJSONString(b, p.Redirect)
	}
	if p.DirVersion != 0 {
		b = append(sep(b, start), `"dirVersion":`...)
		b = strconv.AppendInt(b, p.DirVersion, 10)
	}
	if p.LeaseMS != 0 {
		b = append(sep(b, start), `"leaseMs":`...)
		b = strconv.AppendInt(b, p.LeaseMS, 10)
	}
	if p.IndexVer != 0 {
		b = append(sep(b, start), `"indexVer":`...)
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
		b = AppendEntry(b, res.Entry)
	}
	if res.Match {
		b = append(sep(b, start), `"match":true`...)
	}
	if res.Redirect != "" {
		b = append(sep(b, start), `"redirect":`...)
		b = appendJSONString(b, res.Redirect)
	}
	if res.Err != "" {
		b = append(sep(b, start), `"err":`...)
		b = appendJSONString(b, res.Err)
	}
	if res.LeaseMS != 0 {
		b = append(sep(b, start), `"leaseMs":`...)
		b = strconv.AppendInt(b, res.LeaseMS, 10)
	}
	if res.IndexVer != 0 {
		b = append(sep(b, start), `"indexVer":`...)
		b = strconv.AppendInt(b, res.IndexVer, 10)
	}
	return append(b, '}')
}

// AppendEntry appends e's JSON encoding to b: the one entry encoder, which
// the MDS's journal records share with the wire.
func AppendEntry(b []byte, e *Entry) []byte {
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
	case *EntryResponse:
		return decodeEntryResponse(data, o)
	case *SetAttrRequest:
		return decodeSetAttrRequest(data, o)
	case *GLUpdateRequest:
		return decodeGLUpdateRequest(data, o)
	case *GLUpdateResponse:
		return decodeGLUpdateResponse(data, o)
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
			return c.strTo(&resp.Redirect)
		case "dirVersion":
			return c.intTo(&resp.DirVersion)
		case "leaseMs":
			return c.intTo(&resp.LeaseMS)
		case "indexVer":
			return c.intTo(&resp.IndexVer)
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
			return c.strTo(&req.Path)
		case "kind":
			return c.kindTo(&req.Kind)
		case "size":
			return c.intTo(&req.Size)
		case "mode":
			return c.uint32To(&req.Mode)
		}
		return false
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
			return c.strTo(&op.Op)
		case "path":
			return c.strTo(&op.Path)
		case "kind":
			return c.kindTo(&op.Kind)
		case "size":
			return c.intTo(&op.Size)
		case "mode":
			return c.uint32To(&op.Mode)
		case "version":
			return c.intTo(&op.Version)
		}
		return false
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
			return c.entryPtr(&res.Entry)
		case "match":
			return c.boolTo(&res.Match)
		case "redirect":
			return c.strTo(&res.Redirect)
		case "err":
			return c.strTo(&res.Err)
		case "leaseMs":
			return c.intTo(&res.LeaseMS)
		case "indexVer":
			return c.intTo(&res.IndexVer)
		}
		return false
	})
}

func decodePathObject(data []byte, path *string) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		return string(key) == "path" && c.strTo(path)
	}) && c.end()
}

func decodeCreateRequest(data []byte, req *CreateRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			return c.strTo(&req.Path)
		case "kind":
			return c.kindTo(&req.Kind)
		}
		return false
	}) && c.end()
}

func decodeEntryResponse(data []byte, resp *EntryResponse) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "entry":
			return c.entryPtr(&resp.Entry)
		case "redirect":
			return c.strTo(&resp.Redirect)
		case "leaseMs":
			return c.intTo(&resp.LeaseMS)
		case "indexVer":
			return c.intTo(&resp.IndexVer)
		}
		return false
	}) && c.end()
}

func decodeSetAttrRequest(data []byte, req *SetAttrRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			return c.strTo(&req.Path)
		case "size":
			return c.intTo(&req.Size)
		case "mode":
			return c.uint32To(&req.Mode)
		}
		return false
	}) && c.end()
}

// decodeGLUpdateRequest fills the request in place: Entry is a value, so a
// repeated "entry" key merges into it field by field as encoding/json's does,
// and a null there (a no-op to encoding/json) declines.
func decodeGLUpdateRequest(data []byte, req *GLUpdateRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "serverId":
			n, ok := c.int()
			if !ok || int64(int(n)) != n {
				return false
			}
			req.ServerID = int(n)
		case "op":
			op, ok := c.strBytes()
			if !ok {
				return false
			}
			// The forwarded op goes by its wire type: a constant, not a copy.
			req.Op = intern(op, writeOps)
		case "entry":
			return c.entry(&req.Entry)
		default:
			return false
		}
		return true
	}) && c.end()
}

func decodeGLUpdateResponse(data []byte, resp *GLUpdateResponse) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "entry":
			return c.entry(&resp.Entry)
		case "glVersion":
			return c.intTo(&resp.GLVersion)
		}
		return false
	}) && c.end()
}

func decodeRevalidateRequest(data []byte, req *RevalidateRequest) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "path":
			return c.strTo(&req.Path)
		case "version":
			return c.intTo(&req.Version)
		}
		return false
	}) && c.end()
}

func decodeRevalidateResponse(data []byte, resp *RevalidateResponse) bool {
	c := cursor{b: data}
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "match":
			return c.boolTo(&resp.Match)
		case "entry":
			return c.entryPtr(&resp.Entry)
		case "leaseMs":
			return c.intTo(&resp.LeaseMS)
		case "indexVer":
			return c.intTo(&resp.IndexVer)
		case "redirect":
			return c.strTo(&resp.Redirect)
		}
		return false
	}) && c.end()
}

// The xxTo methods parse one value into *dst. They leave *dst alone when the
// parse fails: a decode that bails out half-way must have written nothing
// the encoding/json fallback would not also write.

func (c *cursor) strTo(dst *string) bool {
	s, ok := c.str()
	if ok {
		*dst = s
	}
	return ok
}

func (c *cursor) intTo(dst *int64) bool {
	n, ok := c.int()
	if ok {
		*dst = n
	}
	return ok
}

func (c *cursor) kindTo(dst *EntryKind) bool {
	n, ok := c.int()
	if ok {
		*dst = EntryKind(n)
	}
	return ok
}

// uint32To parses a JSON integer that fits a uint32 (a mode).
func (c *cursor) uint32To(dst *uint32) bool {
	n, ok := c.int()
	if !ok || n < 0 || n > math.MaxUint32 {
		return false
	}
	*dst = uint32(n)
	return true
}

func (c *cursor) boolTo(dst *bool) bool {
	v, ok := c.boolVal()
	if ok {
		*dst = v
	}
	return ok
}

// entryPtr parses an entry or null into *dst. Like encoding/json, null sets
// the pointer to nil and an object reuses an existing pointee.
func (c *cursor) entryPtr(dst **Entry) bool {
	if c.i < len(c.b) && c.b[c.i] == 'n' {
		if !c.lit("null") {
			return false
		}
		*dst = nil
		return true
	}
	if *dst == nil {
		*dst = new(Entry)
	}
	return c.entry(*dst)
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
			return c.strTo(&e.Path)
		case "kind":
			return c.kindTo(&e.Kind)
		case "size":
			return c.intTo(&e.Size)
		case "mode":
			return c.uint32To(&e.Mode)
		case "version":
			return c.intTo(&e.Version)
		}
		return false
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
