package wire

import "strconv"

func fastMarshalPayload(payload interface{}) ([]byte, bool) {
	switch p := payload.(type) {
	case *GetRequest:
		return appendPath(p.Path), true
	case *PutRequest:
		// Drift: the struct also declares "version", never emitted here.
		return appendPath(p.Path), true
	case *GetResponse:
		b := append([]byte(nil), `{"entry":`...)
		b = appendEntry(b, p.Entry)
		b = append(b, `,"redirect":`...)
		b = append(b, p.Redirect...)
		return append(b, '}'), true
	case *StatRequest:
		b := appendPath(p.Path)
		// Drift: "extra" is not a field of StatRequest.
		b = append(b[:len(b)-1], `,"extra":1}`...)
		return b, true
	case *ChmodRequest:
		// Drift behind an alias: TouchRequest also declares "mode".
		return appendPath(p.Path), true
	}
	return nil, false
}

func appendPath(path string) []byte {
	b := append([]byte(nil), `{"path":`...)
	b = append(b, path...)
	return append(b, '}')
}

func appendEntry(b []byte, e *Entry) []byte {
	b = append(b, `{"path":`...)
	b = append(b, e.Path...)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, e.Version, 10)
	return append(b, '}')
}

func fastUnmarshalPayload(data []byte, out interface{}) bool {
	switch o := out.(type) {
	case *GetRequest:
		return decodePath(data, &o.Path)
	case *PutRequest:
		return decodePut(data, o)
	case *GetResponse:
		return decodeGetResponse(data, o)
	case *ChmodRequest:
		return decodePath(data, &o.Path)
	}
	return false
}

// decodePath and decodePut match the key in place, as the live codecs do:
// string(key) in a comparison or a switch tag is still a read of key.
func decodePath(key []byte, path *string) bool {
	if string(key) != "path" {
		return false
	}
	*path = string(key)
	return true
}

func decodePut(key []byte, req *PutRequest) bool {
	switch string(key) {
	case "path":
		req.Path = string(key)
	case "version":
		req.Version = 1
	default:
		return false
	}
	return true
}

// decodeGetResponse accepts every key of the closure but lists the struct's
// own keys out of declared order: order drift.
func decodeGetResponse(data []byte, resp *GetResponse) bool {
	key := string(data)
	switch key {
	case "redirect":
		resp.Redirect = key
	case "entry":
		resp.Entry = new(Entry)
	case "path":
		resp.Entry.Path = key
	case "version":
		resp.Entry.Version = 1
	default:
		return false
	}
	return true
}
