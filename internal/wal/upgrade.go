package wal

import (
	"encoding/json"
	"fmt"
	"os"
)

// upgradeJSON brings a JSON-era log at path to the current format, once, at
// open. It applies each record past horizon, decoded by m.Legacy or into its
// record by field names, writes the image of the state they reach, and
// removes the log: open then creates one that numbers on past the image's
// horizon, the last record. It returns the records applied and the new
// horizon. A log of any other format, or none, it leaves to open.
//
// A crash before the removal is durable leaves the new image beside the
// JSON log: the next open upgrades it again, applying nothing.
func upgradeJSON[R Entry](path, image string, m Machine[R], horizon int64) (int, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, horizon, nil
	}
	defer func() { _ = f.Close() }()
	var first [1]byte
	if n, _ := f.Read(first[:]); n == 0 || first[0] != 0 {
		return 0, horizon, nil
	}
	applied, last := 0, horizon
	err = replayFrom(f, 0, decodeJSON, func(rec Record, _ int64) error {
		last = max(last, rec.Seq)
		if rec.Seq <= horizon {
			return nil
		}
		var r R
		var err error
		if dec := m.Legacy[rec.Type]; dec != nil {
			r, err = dec(rec.Data)
		} else if kind := m.Kinds[rec.Type]; kind != nil {
			r = kind()
			err = json.Unmarshal(rec.Data, r)
		}
		if err != nil {
			return fmt.Errorf("wal: %s record %d of %s: %w", rec.Type, rec.Seq, path, err)
		}
		if any(r) != nil {
			m.Apply(r)
			applied++
		}
		return nil
	})
	if err != nil {
		return 0, horizon, err
	}
	m.Lock.Lock()
	img := m.Image()
	m.Lock.Unlock()
	if err := writeImage(image, img(last)); err != nil {
		return 0, horizon, err
	}
	return applied, last, os.Remove(path)
}

// decodeJSON reads the body of a JSON-era record, {"seq":N,"type":"T","data":…}.
func decodeJSON(body []byte) (Record, bool) {
	var rec struct {
		Seq  int64           `json:"seq"`
		Type string          `json:"type"`
		Data json.RawMessage `json:"data"`
	}
	if json.Unmarshal(body, &rec) != nil {
		return Record{}, false
	}
	return Record{Seq: rec.Seq, Type: rec.Type, Data: rec.Data}, true
}
