package server

import (
	"context"
	"encoding/json"
	"testing"

	"zbp/internal/rcache"
)

// headlineCells is the sweep-short grid, {zEC12, z13, z14, z15} ×
// {lspr-small, micro, loops, callret}, plus one SMT2 cell.
func headlineCells() []rcache.CellSpec {
	var cells []rcache.CellSpec
	for _, cfg := range []string{"zEC12", "z13", "z14", "z15"} {
		for _, wl := range []string{"lspr-small", "micro", "loops", "callret"} {
			cells = append(cells, rcache.CellSpec{Config: cfg, Workload: wl, Seed: 7, Instructions: 10_000})
		}
	}
	return append(cells, rcache.CellSpec{Config: "z15", Workload: "loops", Workload2: "micro", Seed: 7, Instructions: 10_000})
}

// canonicalPayloads computes the canonical stats of every cell through
// the service's own compute path.
func canonicalPayloads(tb testing.TB, cells []rcache.CellSpec) [][]byte {
	tb.Helper()
	s, err := New(Config{Workers: 1, AuditEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	out := make([][]byte, len(cells))
	for i, cell := range cells {
		if out[i], err = s.computeCellStats(context.Background(), cell); err != nil {
			tb.Fatalf("%v: %v", cell, err)
		}
	}
	return out
}

// TestHeadlineMatchesSummarize pins the narrow decode to the full one
// on real payloads of every generation and workload a sweep-short grid
// holds, and on an SMT2 cell.
func TestHeadlineMatchesSummarize(t *testing.T) {
	cells := headlineCells()
	for i, stats := range canonicalPayloads(t, cells) {
		got, err := Headline(cells[i], stats)
		if err != nil {
			t.Fatalf("%v: %v", cells[i], err)
		}
		_, want, err := Summarize(cells[i], stats)
		if err != nil {
			t.Fatalf("%v: %v", cells[i], err)
		}
		if got != want {
			t.Errorf("%v: Headline %+v, Summarize %+v", cells[i], got, want)
		}
		if got.Instructions < int64(cells[i].Instructions) || got.Cycles == 0 {
			t.Errorf("%v: implausible summary %+v", cells[i], got)
		}
	}
}

// FuzzHeadline requires that Headline never panics, returns
// Summarize's summary whenever Summarize succeeds, and fails with
// Summarize's error whenever the input is not valid JSON. Besides the
// real payloads, the seeds hold the inputs where a struct decode would
// part from the map decode: case-folded and escaped keys, duplicates,
// null values and null objects.
func FuzzHeadline(f *testing.F) {
	for _, stats := range canonicalPayloads(f, headlineCells()) {
		f.Add(stats)
	}
	for _, seed := range []string{
		`{"counters":{"SIM.CYCLES":5},"gauges":{"Sim.Ipc":1}}`,
		`{"counters":{"sim.cycles":5},"gauges":{"sim.ipc":0.5}}`,
		`{"counters":{"sim.cycles":5,"sim.cycles":6},"gauges":{"sim.ipc":1,"sim.ipc":null}}`,
		`{"counters":{"sim.cycles":5},"counters":{"x":1},"Gauges":{"sim.mpki":2}}`,
		`{"counters":{"sim.cycles":5},"counters":null,"gauges":{"sim.accuracy":0.9},"gauges":null}`,
		`{"counters":{"sim.cycles":1.5}}`,
		`{"counters":{"sim.cycles":"5"}}`,
		`{"gauges":{"sim.branches":1e400}}`,
		`{"gauges":{"sim.instructions":[1,{"a":"}"}],"sim.instructions":3}}`,
		`{"counters":7}`,
		`null`,
		`[]`,
		`{"counters":{"sim.cycles":5}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	cell := rcache.CellSpec{Config: "z15", Workload: "loops", Seed: 7, Instructions: 10_000}
	f.Fuzz(func(t *testing.T, stats []byte) {
		got, err := Headline(cell, stats)
		_, want, werr := Summarize(cell, stats)
		if werr == nil && (err != nil || got != want) {
			t.Fatalf("%q: Headline %+v, %v; Summarize %+v", stats, got, err, want)
		}
		if !json.Valid(stats) && (err == nil || werr == nil || err.Error() != werr.Error()) {
			t.Fatalf("%q is not JSON: Headline error %v, Summarize error %v", stats, err, werr)
		}
	})
}
