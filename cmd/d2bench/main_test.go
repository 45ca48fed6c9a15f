package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyArgs(extra ...string) []string {
	base := []string{"-nodes", "1200", "-events", "6000", "-rounds", "1", "-seed", "3"}
	return append(base, extra...)
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-exp", "table1"), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DTR", "LMBE", "RA", "34349109"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-exp", "fig8"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GL Proportion") {
		t.Errorf("unexpected output: %s", buf.String())
	}
}

func TestRunFig6CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-exp", "fig6", "-format", "csv"), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "figure,panel,series,x,y" {
		t.Errorf("csv header = %q", lines[0])
	}
	// 3 panels × 5 schemes × 6 M values + header.
	if len(lines) != 1+3*5*6 {
		t.Errorf("csv rows = %d, want %d", len(lines), 1+3*5*6)
	}
}

func TestRunFig9JSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-exp", "fig9", "-format", "json"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"id\": \"Fig9\"") {
		t.Errorf("json output missing figure id: %s", buf.String()[:100])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-exp", "fig99"), &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(tinyArgs("-exp", "fig6", "-format", "xml"), &buf); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run(tinyArgs("-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
