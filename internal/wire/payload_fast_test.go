package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fastCodecRegistry returns one zero instance of every payload type both
// fast-path switches register. The codeccheck analyzer proves the switches
// stay in sync with the structs; this list is asserted against the switches
// at test time (a type listed here but declined by either direction fails).
func fastCodecRegistry() []interface{} {
	return []interface{}{
		&LookupRequest{},
		&ReaddirRequest{},
		&CreateRequest{},
		&EntryResponse{},
		&SetAttrRequest{},
		&GLUpdateRequest{},
		&GLUpdateResponse{},
		&RevalidateRequest{},
		&RevalidateResponse{},
		&ReaddirPlusRequest{},
		&ReaddirPlusResponse{},
		&CreateWithAttrsRequest{},
		&BatchRequest{},
		&BatchResponse{},
	}
}

// trickyStrings is the value pool for string fields: escaping corner cases,
// empties, separators and multi-byte runes.
var trickyStrings = []string{
	"",
	"/a/b/c",
	`quotes " and \ slashes`,
	"<html>&amp;", // encoding/json HTML-escapes these; fast path must agree semantically
	"newline\nand\ttab\rand\x00control\x1f",
	"unicode é 漢字   ",
	strings.Repeat("deep/", 60),
}

// randomFill populates v with adversarial values: boundary integers, the
// tricky string pool, nil and populated pointers.
func randomFill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(trickyStrings[rng.Intn(len(trickyStrings))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		picks := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, rng.Int63() - rng.Int63()}
		n := picks[rng.Intn(len(picks))]
		if v.OverflowInt(n) {
			n = int64(int8(n))
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		picks := []uint64{0, 0o644, math.MaxUint32, uint64(rng.Uint32())}
		n := picks[rng.Intn(len(picks))]
		if v.OverflowUint(n) {
			n = uint64(uint8(n))
		}
		v.SetUint(n)
	case reflect.Ptr:
		if rng.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		randomFill(rng, v.Elem())
	case reflect.Slice:
		// nil or 1..3 elements — never empty-non-nil, which omitempty
		// encoders legitimately cannot round-trip.
		if rng.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		n := 1 + rng.Intn(3)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			randomFill(rng, s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		if rng.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		n := 1 + rng.Intn(3)
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			val := reflect.New(v.Type().Elem()).Elem()
			randomFill(rng, k)
			randomFill(rng, val)
			m.SetMapIndex(k, val) // tricky-string keys may collide; fine
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				randomFill(rng, f)
			}
		}
	}
}

// TestFastCodecAgainstEncodingJSON is the differential harness for every
// registered fast codec: the zero value plus randomized instances of each
// type are (1) encoded by hand and by json.Marshal and compared semantically
// (via decode — the bytes legitimately differ, encoding/json HTML-escapes),
// and (2) round-tripped through the fast decoder, which must accept its own
// encoder's output byte-for-byte and reproduce the value.
func TestFastCodecAgainstEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, proto := range fastCodecRegistry() {
		typ := reflect.TypeOf(proto).Elem()
		t.Run(typ.Name(), func(t *testing.T) {
			for i := 0; i < 300; i++ {
				p := reflect.New(typ)
				if i > 0 { // i==0 keeps the zero value as an explicit case
					randomFill(rng, p.Elem())
				}
				checkFastCodec(t, typ, p.Interface())
				if t.Failed() {
					return
				}
			}
		})
	}
}

func checkFastCodec(t *testing.T, typ reflect.Type, p interface{}) {
	t.Helper()
	fast, ok := fastMarshalPayload(p)
	if !ok {
		t.Fatalf("%s is registered but fastMarshalPayload declined %+v", typ.Name(), p)
	}
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got := reflect.New(typ).Interface()
	ref := reflect.New(typ).Interface()
	if err := json.Unmarshal(fast, got); err != nil {
		t.Fatalf("fast output %q is not valid JSON: %v", fast, err)
	}
	if err := json.Unmarshal(want, ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("marshal %+v: fast %q decodes to %+v, json %q decodes to %+v", p, fast, got, want, ref)
	}
	back := reflect.New(typ).Interface()
	if !fastUnmarshalPayload(fast, back) {
		t.Fatalf("%s fast decoder declined its own encoder's output %q", typ.Name(), fast)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("round trip %+v through %q came back as %+v", p, fast, back)
	}
	// The fast decoder over encoding/json's bytes may decline (HTML escapes
	// take the fallback) but must agree when it accepts.
	viaJSON := reflect.New(typ).Interface()
	if fastUnmarshalPayload(want, viaJSON) && !reflect.DeepEqual(viaJSON, ref) {
		t.Fatalf("fast decode of json output %q: fast %+v, json %+v", want, viaJSON, ref)
	}
}

// checkFastUnmarshal runs one input through the fast decoder and through
// encoding/json into fresh values of the same type and compares outcomes.
// When the fast path declines (returns false) the production code falls back
// to encoding/json, so declining is always correct — only a successful fast
// decode that disagrees with encoding/json is a bug.
func checkFastUnmarshal(t *testing.T, data string, mk func() interface{}) {
	t.Helper()
	fastOut := mk()
	if !fastUnmarshalPayload([]byte(data), fastOut) {
		return
	}
	refOut := mk()
	if err := json.Unmarshal([]byte(data), refOut); err != nil {
		t.Errorf("fast decoder accepted %q but encoding/json rejects it: %v", data, err)
		return
	}
	if !reflect.DeepEqual(fastOut, refOut) {
		t.Errorf("decode %q: fast %+v, json %+v", data, fastOut, refOut)
	}
}

func TestFastUnmarshalPayloadEdgeCases(t *testing.T) {
	mks := map[string]func() interface{}{
		"lookupReq":      func() interface{} { return &LookupRequest{} },
		"readdirReq":     func() interface{} { return &ReaddirRequest{} },
		"createReq":      func() interface{} { return &CreateRequest{} },
		"lookupResp":     func() interface{} { return &LookupResponse{} },
		"setattrReq":     func() interface{} { return &SetAttrRequest{} },
		"setattrResp":    func() interface{} { return &SetAttrResponse{} },
		"renameResp":     func() interface{} { return &RenameResponse{} },
		"glUpdateReq":    func() interface{} { return &GLUpdateRequest{} },
		"glUpdateResp":   func() interface{} { return &GLUpdateResponse{} },
		"revalidateReq":  func() interface{} { return &RevalidateRequest{} },
		"revalidateResp": func() interface{} { return &RevalidateResponse{} },
		"readdirPlusReq": func() interface{} { return &ReaddirPlusRequest{} },
		"readdirPlusRes": func() interface{} { return &ReaddirPlusResponse{} },
		"createAttrsReq": func() interface{} { return &CreateWithAttrsRequest{} },
		"batchReq":       func() interface{} { return &BatchRequest{} },
		"batchResp":      func() interface{} { return &BatchResponse{} },
	}
	cases := []string{
		`{}`,
		`{"path":"/a"}`,
		`{"path":"/a","kind":2}`,
		`{"path":"esc\"apedA"}`,
		`{"kind":1,"path":"/later"}`,
		`{"entry":{"path":"/a","kind":1,"version":2}}`,
		`{"entry":{"path":"/f","kind":2,"size":10,"mode":420,"version":1},"redirect":"addr"}`,
		`{"entry":null}`,
		`{"entry":null,"redirect":"r"}`,
		`{"redirect":""}`,
		`{"entry":{"path":"/a","kind":1,"size":-5,"version":-1}}`,
		`{"entry":{"version":9223372036854775807,"path":"","kind":0}}`,
		`{"entry":{"size":-9223372036854775808,"kind":1,"version":0}}`,
		`{"entry":{"path":"/a","kind":1,"version":2},"leaseMs":2000,"indexVer":3}`,
		`{"leaseMs":-7,"indexVer":-1}`,
		`{"indexVer":5,"leaseMs":1,"redirect":"r"}`,
		`{"leaseMs":1.5}`, // float into int: decline → fallback errors
		`{"path":"/v","version":41}`,
		`{"version":-12,"path":"/v"}`,
		`{"match":true,"leaseMs":2000,"indexVer":9}`,
		`{"match":false,"entry":{"path":"/a","kind":2,"version":3}}`,
		`{"match":"yes"}`, // wrong type: decline
		`{"match":tru}`,   // bad literal: decline
		`{"match":true,"entry":null,"redirect":"r"}`,
		`  { "path" : "/sp" }  `,
		`{"path":"/a","path":"/b"}`, // duplicate key: last wins
		`null`,                      // decline → fallback no-op
		`{"unknown":1}`,             // decline → fallback ignores
		`{"kind":1.5}`,              // float into int: decline → fallback errors
		`{"kind":1e3}`,
		`{"entry":{"mode":-1}}`,         // negative into uint32: decline
		`{"entry":{"mode":4294967296}}`, // overflow uint32: decline
		`{"entry":"nope"}`,              // wrong type: decline
		`{"path":5}`,                    // wrong type: decline
		`{"path":"/a",}`,                // trailing comma: decline
		`{"path":"/a"} x`,               // trailing garbage: decline
		`{"path"`,                       // truncated
		``,
		// The write path: setattr requests (no omitempty: zeros travel) and
		// the gl_update pair, whose Entry is a value, not a pointer.
		`{"path":"/a","size":0,"mode":0}`,
		`{"path":"/a","size":7,"mode":420}`,
		`{"path":"/a","size":-1,"mode":4294967295}`,
		`{"path":"/a","mode":4294967296}`, // mode > MaxUint32: decline
		`{"path":"/a","mode":-1}`,
		`{"path":"esc\"aped\u002fpath\n","size":1,"mode":1}`,
		`{"path":"/a","size":1,"mode":1,"uid":0}`, // unknown key: decline → fallback ignores
		`{"mode":1,"size":2,"path":"/later"}`,
		`{"serverId":1,"op":"setattr","entry":{"path":"/a","kind":1,"size":7,"mode":420,"version":0}}`,
		`{"serverId":0,"op":"create","entry":{"path":"esc\"aped","kind":2,"version":0}}`,
		`{"serverId":-3,"op":"chmod","entry":{"path":"","kind":0,"version":0}}`,
		`{"serverId":1,"op":"set\u0061ttr","entry":{}}`,
		`{"serverId":1.5}`,
		`{"serverId":9223372036854775808}`,
		`{"op":5}`,
		`{"entry":{"path":"/a","kind":1,"version":2},"glVersion":9}`,
		`{"glVersion":-1,"entry":{"path":"/a","kind":1,"mode":4294967296,"version":2}}`,
		`{"glVersion":1e3}`,
		`{"entry":{"path":"/a","size":3,"version":2},"entry":{"kind":1,"version":5}}`, // duplicate entry key: merges field by field
		`{"entry":{"path":"/a","version":2},"entry":null}`,                            // then null: nil pointer, or a no-op on a value
		`{"entry":null,"entry":{"path":"/b","kind":2,"version":1}}`,
		`{"entry":{"path":"/a","version":2},"entry":"nope"}`,
		// List-path shapes for the compound-op payloads.
		`{"entries":[]}`,
		`{"entries":null}`,
		`{"entries":[{"path":"/a","kind":1,"version":2}]}`,
		`{"entries":[{"path":"/a","kind":1,"version":2},{"path":"/b","kind":2,"size":4,"mode":420,"version":1}]}`,
		`{"entries":[{"path":"/a","kind":1,"version":2}],"dirVersion":7,"leaseMs":2000,"indexVer":3}`,
		`{"entries":[{"path":"/a"},{"path":"/b"}],"entries":[{"path":"/c"}]}`, // repeated slice key: decline
		`{"entries":[{"path":"/a","kind":1,"version":2},]}`,                   // trailing comma in array: decline
		`{"entries":[null]}`,        // null element: decline
		`{"entries":[{"path":"/a"}`, // truncated array
		`{"entries":{}}`,            // wrong type: decline
		`{"dirVersion":9,"redirect":"addr"}`,
		`{"ops":[]}`,
		`{"ops":null}`,
		`{"ops":[{"op":"lookup","path":"/a"}]}`,
		`{"ops":[{"op":"create","path":"/a","kind":2,"size":1,"mode":420},{"op":"revalidate","path":"/b","version":3}]}`,
		`{"ops":[{"op":"setattr","path":"/a","size":-1,"version":-2}],"hotPaths":{"/a":3,"/b":9}}`,
		`{"ops":[],"hotPaths":{}}`,
		`{"ops":[],"hotPaths":null}`,
		`{"ops":[],"hotPaths":{"dup":1,"dup":2}}`,           // duplicate map key: last wins
		`{"hotPaths":{"k":1.5}}`,                            // float into int64: decline
		`{"hotPaths":{"k":"v"}}`,                            // wrong value type: decline
		`{"ops":[{"op":"lookup"}],"ops":[{"op":"create"}]}`, // repeated slice key: decline
		`{"ops":[{"unknown":1}]}`,                           // unknown sub-op key: decline
		`{"ops":[{"mode":4294967296}]}`,                     // overflow uint32: decline
		`{"results":[]}`,
		`{"results":null}`,
		`{"results":[{}]}`,
		`{"results":[{"entry":{"path":"/a","kind":1,"version":2},"leaseMs":2000,"indexVer":3}]}`,
		`{"results":[{"match":true},{"redirect":"addr"},{"err":"boom"}]}`,
		`{"results":[{"entry":null,"match":false}]}`,
		`{"results":[{"match":1}]}`,                   // wrong type: decline
		`{"results":[{}],"results":[{"match":true}]}`, // repeated slice key: decline
		`{"results":[{"err":"x"},]}`,                  // trailing comma in array: decline
		`  { "ops" : [ { "op" : "lookup" } ] }  `,     // whitespace everywhere
		`{"ops":[ {"op":"lookup","path":"/a"} , {"op":"lookup","path":"/b"} ]}`,
	}
	for name, mk := range mks {
		for _, data := range cases {
			t.Run(name, func(t *testing.T) { checkFastUnmarshal(t, data, mk) })
		}
	}
}
