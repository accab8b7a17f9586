package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec drives the spec boundary the serve API exposes to remote
// clients: Parse and Expand must never panic on any input, and whenever
// Expand succeeds it must produce exactly SweepSize(spec) cells — the
// server enforces its cell bound from SweepSize before expanding, so the
// two must agree. The corpus is seeded from every committed example spec
// (the golden sweeps among them). Run it longer with
//
//	go test ./internal/scenario -run '^$' -fuzz FuzzParseSpec -fuzztime 1m
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs to seed from (err %v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(validSweepSpec))
	f.Add([]byte(`{"version": 2, "name": "x", "domain": "sched", "sweep": {"policy": []}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "workload": {"class": "syn"}, "sweep": {"load": [0.5, 0.5]}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		cells, err := Expand(spec)
		if err != nil {
			return
		}
		if got, want := len(cells), SweepSize(spec); got != want {
			t.Fatalf("Expand produced %d cells, SweepSize says %d, for spec %s", got, want, raw)
		}
	})
}
