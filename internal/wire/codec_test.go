package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// codecTypes holds one value of every struct a payload can carry: each has a
// code method and a case in code.
var codecTypes = []interface{}{
	&Entry{}, &LookupRequest{}, &EntryResponse{}, &RevalidateRequest{},
	&RevalidateResponse{}, &CreateRequest{}, &SetAttrRequest{},
	&ReaddirRequest{}, &ReaddirResponse{}, &ReaddirPlusRequest{},
	&ReaddirPlusResponse{}, &CreateWithAttrsRequest{}, &BatchOp{},
	&BatchRequest{}, &BatchResult{}, &BatchResponse{}, &RenameRequest{},
	&LatencySummary{}, &StatsResponse{}, &MonitorStatsResponse{},
	&MemberInfo{}, &JoinRequest{}, &JoinResponse{}, &HeartbeatRequest{},
	&TransferCommand{}, &HeartbeatResponse{}, &GLUpdateRequest{},
	&GLUpdateResponse{}, &ClusterInfoResponse{}, &InstallRequest{},
	&UninstallRequest{}, &TransferDoneRequest{}, &TransferFailedRequest{},
	&ObsEvent{}, &ObsDumpRequest{}, &ObsDumpResponse{}, &LockResponse{},
	&MetricsSnapshot{}, &IOSnapshot{}, &Subtree{}, &Image{},
	&MonitorImage{}, &CreateRecord{}, &SetAttrRecord{},
	&InstallRecord{}, &RemoveRecord{}, &GLUpdateRecord{}, &OwnerRecord{},
	&LLPathsRecord{}, &LayerRecord{},
}

func typeName(p interface{}) string { return reflect.TypeOf(p).Elem().Name() }

// filler sets every exported field to a value no other field got, and never
// to a zero value: pointers are set, slices and maps hold one to three
// elements. Integers reach the ends of their range, strings every length
// prefix size, quotes, NULs and invalid UTF-8.
type filler struct {
	rng *rand.Rand
	n   int64
}

var fillStrings = []string{
	"/a/b/c", `quotes " and \ slashes`, "nul\x00and\xffinvalid utf-8",
	"unicode é 漢字", strings.Repeat("deep/", 60),
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	n := f.n
	switch v.Kind() {
	case reflect.String:
		v.SetString(fillStrings[f.rng.Intn(len(fillStrings))] + strconv.FormatInt(n, 10))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{n, -n, n << 40, math.MaxInt64 - n, math.MinInt64 + n}[f.rng.Intn(5)])
	case reflect.Uint32:
		v.SetUint([]uint64{uint64(n), math.MaxUint32 - uint64(n), uint64(n) << 20}[f.rng.Intn(3)])
	case reflect.Uint64:
		v.SetUint([]uint64{uint64(n), math.MaxUint64 - uint64(n), uint64(n) << 50}[f.rng.Intn(3)])
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		k := 1 + f.rng.Intn(3)
		s := reflect.MakeSlice(v.Type(), k, k)
		for i := 0; i < k; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		k := 1 + f.rng.Intn(3)
		m := reflect.MakeMapWithSize(v.Type(), k)
		for i := 0; i < k; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(key)
			f.fill(val)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.Struct:
		if t, ok := v.Addr().Interface().(*Subtree); ok {
			f.subtree(t)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		panic("filler: no case for " + v.Type().String())
	}
}

// subtreeNames are names AddChild takes: none empty, none with a '/'.
var subtreeNames = []string{"n", `quotes " and \ backslash`, "nul\x00and\xffinvalid utf-8", "unicode é 漢字", strings.Repeat("long", 60)}

// subtree fills t as a decoder accepts it: an absolute path, one to five
// nodes, the root first, each other node after a parent picked among those
// before it, names AddChild takes and every kind a node can have.
func (f *filler) subtree(t *Subtree) {
	f.n++
	t.Path = "/s" + strconv.FormatInt(f.n, 10)
	t.Nodes = make([]SubtreeNode, 1+f.rng.Intn(5))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.Kind = EntryKind(f.rng.Intn(3))
		if i > 0 {
			n.Parent = int32(f.rng.Intn(i))
			n.Name = subtreeNames[f.rng.Intn(len(subtreeNames))] + strconv.Itoa(i)
		}
		f.fill(reflect.ValueOf(&n.Size).Elem())
		f.fill(reflect.ValueOf(&n.Mode).Elem())
		f.fill(reflect.ValueOf(&n.Version).Elem())
	}
}

// filled returns a fresh value of p's type, filled.
func (f *filler) filled(p interface{}) interface{} {
	v := reflect.New(reflect.TypeOf(p).Elem())
	f.fill(v.Elem())
	return v.Interface()
}

func encode(t testing.TB, p interface{}) []byte {
	t.Helper()
	raw, err := AppendPayload(nil, TypeOK, p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMessageCodecs: every struct messages.go declares has a codec, and for
// the zero value and seeded fills of each, decoding the encoding gives back
// the value, and encoding that gives back the bytes.
func TestMessageCodecs(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, p := range codecTypes {
		registered[typeName(p)] = true
	}
	var declared int
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && !ts.Assign.IsValid() {
			if _, ok := ts.Type.(*ast.StructType); ok {
				declared++
				if !registered[ts.Name.Name] {
					t.Errorf("%s is declared in messages.go but not in codecTypes: give it a code method, a case in code and an entry here", ts.Name.Name)
				}
			}
		}
		return true
	})
	if declared < 30 {
		t.Fatalf("found %d structs in messages.go", declared)
	}

	f := &filler{rng: rand.New(rand.NewSource(34))}
	for _, proto := range codecTypes {
		t.Run(typeName(proto), func(t *testing.T) {
			for i := 0; i < 40; i++ {
				p := reflect.New(reflect.TypeOf(proto).Elem()).Interface()
				if i > 0 {
					p = f.filled(proto)
				}
				raw := encode(t, p)
				back := reflect.New(reflect.TypeOf(proto).Elem()).Interface()
				if err := DecodePayload(raw, back); err != nil {
					t.Fatalf("decode of %+v: %v", p, err)
				}
				if !reflect.DeepEqual(back, p) {
					t.Fatalf("round trip of %+v came back as %+v", p, back)
				}
				if again := encode(t, back); !bytes.Equal(again, raw) {
					t.Fatalf("re-encoding %+v gave %x, first %x", back, again, raw)
				}
			}
		})
	}
}

// legacyEdgeNames are the per-type subtest names TestFastUnmarshalPayloadEdgeCases
// has always used for the data-path messages; every other message runs
// under its type name.
var legacyEdgeNames = map[string]interface{}{
	"lookupReq":      &LookupRequest{},
	"readdirReq":     &ReaddirRequest{},
	"createReq":      &CreateRequest{},
	"lookupResp":     &LookupResponse{},
	"setattrReq":     &SetAttrRequest{},
	"setattrResp":    &SetAttrResponse{},
	"renameResp":     &RenameResponse{},
	"glUpdateReq":    &GLUpdateRequest{},
	"glUpdateResp":   &GLUpdateResponse{},
	"revalidateReq":  &RevalidateRequest{},
	"revalidateResp": &RevalidateResponse{},
	"readdirPlusReq": &ReaddirPlusRequest{},
	"readdirPlusRes": &ReaddirPlusResponse{},
	"createAttrsReq": &CreateWithAttrsRequest{},
	"batchReq":       &BatchRequest{},
	"batchResp":      &BatchResponse{},
}

// malformed returns inputs built from encodings of seeded fills of proto, at
// least min of them and from at least fills encodings, so that no type is
// tried on the one shape a single fill happens to draw. A decoder must refuse
// every input: each encoding
// cut short at every offset and given a trailing byte, and each length and
// count in it made to claim more bytes than the frame holds, each varint made
// to run past 64 bits, each flag set to 2 and to 0x80. The unmutated
// encoding each input came from is returned beside it.
func malformed(f *filler, proto interface{}, min, fills int) (inputs, from [][]byte) {
	add := func(in, raw []byte) {
		inputs = append(inputs, in)
		from = append(from, raw)
	}
	splice := func(raw []byte, at, n int, with ...byte) []byte {
		return append(append(append([]byte(nil), raw[:at]...), with...), raw[at+n:]...)
	}
	for n := 0; n < fills || len(inputs) < min; n++ {
		var marks []mark
		c := codec{marks: &marks}
		code(&c, f.filled(proto))
		raw := c.b
		for cut := 0; cut < len(raw); cut++ {
			add(raw[:cut:cut], raw)
		}
		add(append(raw[:len(raw):len(raw)], 0), raw)
		for _, m := range marks {
			if m.kind == markFlag {
				add(splice(raw, m.at, 1, 2), raw)
				add(splice(raw, m.at, 1, 0x80), raw)
				continue
			}
			_, n := uvarint(raw[m.at:])
			add(splice(raw, m.at, n, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), raw)
			if m.kind != markInt {
				add(splice(raw, m.at, n, binary.AppendUvarint(nil, uint64(len(raw))+1)...), raw)
			}
		}
	}
	return inputs, from
}

// allocated returns the bytes one call of fn allocates.
func allocated(fn func()) uint64 {
	const runs = 4
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestFastUnmarshalPayloadEdgeCases feeds every message's decoder the inputs
// malformed builds. Each must fail cleanly — an error, no panic — and
// allocate no more than decoding the encoding it was cut or changed from,
// plus its own copy: no length or count a peer sends buys it memory the
// frame does not hold.
func TestFastUnmarshalPayloadEdgeCases(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	types := map[string]interface{}{}
	covered := map[string]bool{}
	for name, proto := range legacyEdgeNames {
		types[name] = proto
		covered[typeName(proto)] = true
	}
	for _, proto := range codecTypes {
		if !covered[typeName(proto)] {
			types[typeName(proto)] = proto
		}
	}
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		proto := types[name]
		typ := reflect.TypeOf(proto).Elem()
		// Each type draws from its own stream, seeded by its name, so adding
		// or reshaping one message leaves every other message's inputs as
		// they were.
		h := fnv.New64a()
		h.Write([]byte(name))
		f := &filler{rng: rand.New(rand.NewSource(7 ^ int64(h.Sum64())))}
		inputs, from := malformed(f, proto, 100, 3)
		for i, in := range inputs {
			t.Run(name, func(t *testing.T) {
				decode := func(b []byte) error { return DecodePayload(b, reflect.New(typ).Interface()) }
				if err := decode(in); err == nil {
					t.Fatalf("%s decoded %x, cut or changed from %x", typ.Name(), in, from[i])
				}
				if raceEnabled {
					return // allocation counts are not meaningful under -race
				}
				valid := allocated(func() { _ = decode(from[i]) })
				if got := allocated(func() { _ = decode(in) }); got > valid+uint64(len(in))+64 {
					t.Fatalf("%s decode of %d malformed bytes allocated %d bytes; the valid %d-byte encoding takes %d",
						typ.Name(), len(in), got, len(from[i]), valid)
				}
			})
		}
	}
}

// TestMapKeysMustAscend: a map's pairs travel in ascending key order, so a
// map has one encoding; pairs out of order or a key twice are malformed.
func TestMapKeysMustAscend(t *testing.T) {
	enc := func(code func(c *codec)) []byte {
		var c codec
		code(&c)
		return c.b
	}
	count := func(k string, v int64) func(c *codec) { return func(c *codec) { c.str(&k); c.i64(&v) } }
	index := func(k, v string) func(c *codec) { return func(c *codec) { c.str(&k); c.str(&v) } }
	latency := func(k string, v LatencySummary) func(c *codec) { return func(c *codec) { c.str(&k); v.code(c) } }
	for _, tc := range []struct {
		out           interface{}
		before, after []byte // the fields around the map
		a, b          func(c *codec)
	}{
		{&BatchRequest{}, []byte{0}, nil, count("/a", 1), count("/b", 2)},
		{&ClusterInfoResponse{}, []byte{0}, []byte{0}, index("/a", "x"), index("/b", "y")},
		{&ObsDumpResponse{}, []byte{0, 0, 0, 0}, nil, latency("lookup", LatencySummary{Count: 1}), latency("stats", LatencySummary{Count: 2})},
	} {
		body := func(first, second func(c *codec)) []byte {
			b := append(append([]byte(nil), tc.before...), 2)
			b = append(append(b, enc(first)...), enc(second)...)
			return append(b, tc.after...)
		}
		if err := DecodePayload(body(tc.a, tc.b), tc.out); err != nil {
			t.Errorf("%T with ascending keys: %v", tc.out, err)
		}
		for _, bad := range [][]byte{body(tc.b, tc.a), body(tc.a, tc.a)} {
			if err := DecodePayload(bad, reflect.New(reflect.TypeOf(tc.out).Elem()).Interface()); !errors.Is(err, errMalformed) {
				t.Errorf("%T with keys out of order or repeated (%x): err = %v", tc.out, bad, err)
			}
		}
	}
}
