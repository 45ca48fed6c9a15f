// Package wire is a miniature message schema for the codeccheck goldens:
// each struct seeds one class of codec drift in payload_fast.go.
package wire

// Entry is the nested message body both responses embed.
type Entry struct {
	Path    string `json:"path"`
	Version int64  `json:"version"`
}

// GetRequest's codec is closed and in order: clean.
type GetRequest struct {
	Path string `json:"path"`
}

// PutRequest's encoder forgets the version field: missing-key drift.
type PutRequest struct {
	Path    string `json:"path"`
	Version int64  `json:"version"`
}

// GetResponse's decoder accepts its keys out of declared order.
type GetResponse struct {
	Entry    *Entry `json:"entry,omitempty"`
	Redirect string `json:"redirect,omitempty"`
}

// StatRequest has an encoder but no decoder (asymmetry), and the encoder
// emits a key the struct never declared (extra-key drift).
type StatRequest struct {
	Path string `json:"path"`
}

// TouchRequest's codec forgets the mode field, and both switches name it
// through its alias: the drift is found under the name the codec uses.
type TouchRequest struct {
	Path string `json:"path"`
	Mode int64  `json:"mode"`
}

// ChmodRequest is TouchRequest as the codec switches know it.
type ChmodRequest = TouchRequest

// SlowRequest has no fast codec at all: exempt, rides encoding/json.
type SlowRequest struct {
	Path string `json:"path"`
}
