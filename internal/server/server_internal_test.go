package server

import (
	"net"
	"strings"
	"testing"

	"d2tree/internal/obs"
	"d2tree/internal/wire"
)

func newBareServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Addr: "127.0.0.1:0", MonitorAddr: "unused"})
	return s
}

func TestCollectSubtreeLocked(t *testing.T) {
	s := newBareServer(t)
	for _, p := range []string{"/x", "/x/y", "/x/y/z", "/xx", "/x2/file"} {
		s.store.put(wire.Entry{Path: p, Kind: wire.EntryDir, Version: 1}, false)
	}
	got := s.collectSubtreeLocked("/x")
	want := []string{"/x", "/x/y", "/x/y/z"}
	if len(got) != len(want) {
		t.Fatalf("collected %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Path != want[i] {
			t.Errorf("entry %d = %q, want %q", i, e.Path, want[i])
		}
	}
}

func TestHandleLookupLocalStore(t *testing.T) {
	s := newBareServer(t)
	s.store.put(wire.Entry{Path: "/g", Kind: wire.EntryDir, Version: 3}, false)
	resp, err := s.handleLookup(&wire.LookupRequest{Path: "/g"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Entry == nil || resp.Entry.Version != 3 {
		t.Errorf("resp = %+v", resp)
	}
	// Returned entry is a copy: mutating it must not touch the store.
	resp.Entry.Version = 99
	if e, _ := s.store.get("/g"); e.Version != 3 {
		t.Error("lookup leaked interior pointer")
	}
}

func TestHandleLookupRedirect(t *testing.T) {
	s := newBareServer(t)
	s.index.Set("/far", "other:1")
	resp, err := s.handleLookup(&wire.LookupRequest{Path: "/far/away"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Redirect != "other:1" {
		t.Errorf("redirect = %q", resp.Redirect)
	}
	if s.redirects.Load() != 1 {
		t.Errorf("redirects counter = %d", s.redirects.Load())
	}
}

func TestHandleLookupNotFound(t *testing.T) {
	s := newBareServer(t)
	if _, err := s.handleLookup(&wire.LookupRequest{Path: "/nope"}); err == nil {
		t.Error("missing GL path did not error")
	}
}

func TestHandleCreateValidation(t *testing.T) {
	s := newBareServer(t)
	for _, bad := range []string{"", "relative", "/"} {
		if _, err := s.handleCreate(&wire.Envelope{}, &wire.CreateRequest{Path: bad, Kind: wire.EntryFile}); err == nil {
			t.Errorf("create(%q) accepted", bad)
		}
	}
	s.store.put(wire.Entry{Path: "/dup", Kind: wire.EntryFile}, false)
	if _, err := s.handleCreate(&wire.Envelope{}, &wire.CreateRequest{Path: "/dup", Kind: wire.EntryFile}); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestHandleInstallAddsSubtree(t *testing.T) {
	s := newBareServer(t)
	req := &wire.InstallRequest{
		RootPath: "/moved",
		Entries: []wire.Entry{
			{Path: "/moved", Kind: wire.EntryDir, Version: 1},
			{Path: "/moved/f", Kind: wire.EntryFile, Version: 2},
		},
	}
	if _, err := s.handleInstall(&wire.Envelope{}, req); err != nil {
		t.Fatal(err)
	}
	if !s.subtrees["/moved"] {
		t.Error("subtree not registered")
	}
	if e, gl := s.store.get("/moved/f"); e == nil || e.Version != 2 || gl {
		t.Error("entries not installed")
	}
}

func TestHandleReaddirListsDirectChildrenOnly(t *testing.T) {
	s := newBareServer(t)
	for _, p := range []string{"/d", "/d/a", "/d/b", "/d/b/deep"} {
		kind := wire.EntryDir
		s.store.put(wire.Entry{Path: p, Kind: kind, Version: 1}, false)
	}
	resp, err := s.handleReaddir(&wire.ReaddirRequest{Path: "/d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Names) != 2 || resp.Names[0] != "a" || resp.Names[1] != "b" {
		t.Errorf("names = %v", resp.Names)
	}
	// Readdir of a file fails.
	s.store.put(wire.Entry{Path: "/f", Kind: wire.EntryFile, Version: 1}, false)
	if _, err := s.handleReaddir(&wire.ReaddirRequest{Path: "/f"}); err == nil {
		t.Error("readdir of file accepted")
	}
}

func TestHandleUnknownType(t *testing.T) {
	s := newBareServer(t)
	env := &wire.Envelope{ID: 1, Type: "bogus"}
	if _, err := s.handle(env); err == nil {
		t.Error("unknown message type accepted")
	}
}

func TestApplyHeartbeatRefreshesGL(t *testing.T) {
	s := newBareServer(t)
	s.store.put(wire.Entry{Path: "/old", Kind: wire.EntryDir, Version: 1}, true)
	s.store.put(wire.Entry{Path: "/mine", Kind: wire.EntryDir, Version: 1}, false)
	s.applyHeartbeat(&wire.HeartbeatResponse{
		GLVersion: 5,
		GlobalLayer: []wire.Entry{
			{Path: "/new", Kind: wire.EntryDir, Version: 5},
		},
		IndexVer: 2,
		Index:    map[string]string{"/mine": "me"},
	})
	if e, _ := s.store.get("/old"); e != nil {
		t.Error("stale GL entry survived refresh")
	}
	if e, gl := s.store.get("/new"); e == nil || !gl {
		t.Error("new GL entry not installed")
	}
	if e, gl := s.store.get("/mine"); e == nil || gl {
		t.Error("local-layer entry dropped by GL refresh")
	}
	if mine, _ := s.index.Get("/mine"); s.glVersion != 5 || s.indexVer != 2 || mine != "me" {
		t.Error("versions/index not applied")
	}
}

// TestTransferDropsWhatRacedTheShipment: a create that lands under a subtree
// root after executeTransfer collected the subtree, while the shipment is in
// flight, was never shipped. The source must still stop serving it once it
// has given the root away, and must say that it dropped something.
func TestTransferDropsWhatRacedTheShipment(t *testing.T) {
	s := newBareServer(t)
	if _, err := s.handleInstall(&wire.Envelope{}, &wire.InstallRequest{RootPath: "/moved", Entries: []wire.Entry{
		{Path: "/moved", Kind: wire.EntryDir, Version: 1},
		{Path: "/moved/f", Kind: wire.EntryFile, Version: 2},
	}}); err != nil {
		t.Fatal(err)
	}

	// The destination acks the install only after a client's create and a
	// setattr have landed on the source, inside the transfer window.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	served := make(chan struct{})
	go func() {
		defer close(served)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = nc.Close() }()
		wire.Serve(nc, func(env *wire.Envelope) (interface{}, error) {
			if _, err := s.handleCreate(env, &wire.CreateRequest{Path: "/moved/late", Kind: wire.EntryFile}); err != nil {
				return nil, err
			}
			if _, err := s.handleSetAttr(env, &wire.SetAttrRequest{Path: "/moved/f", Size: 10}); err != nil {
				return nil, err
			}
			return &wire.LockResponse{Granted: true}, nil
		})
	}()

	s.executeTransfer(wire.TransferCommand{RootPath: "/moved", DestAddr: ln.Addr().String(), ReqID: "m-7"})
	<-served

	if s.transferOK.Load() != 1 {
		t.Fatalf("transfer did not complete: ok=%d fail=%d", s.transferOK.Load(), s.transferFail.Load())
	}
	for _, path := range []string{"/moved", "/moved/f", "/moved/late"} {
		resp, err := s.handleLookup(&wire.LookupRequest{Path: path})
		if err != nil {
			t.Fatalf("lookup %s: %v", path, err)
		}
		if resp.Entry != nil || resp.Redirect != ln.Addr().String() {
			t.Errorf("lookup %s after the transfer = %+v, want a redirect to the new owner", path, resp)
		}
	}
	var raced []obs.Event
	for _, ev := range s.rec.Snapshot() {
		if ev.Op == "transfer_raced" {
			raced = append(raced, ev)
		}
	}
	if len(raced) != 1 || raced[0].Kind != obs.KindMigration || raced[0].ReqID != "m-7" || !strings.HasPrefix(raced[0].Detail, "2 ") {
		t.Errorf("transfer_raced events = %+v, want one for m-7 counting 2 mutations", raced)
	}
}
