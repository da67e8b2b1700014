package sim_test

import (
	"context"
	"testing"

	"zbp/internal/core"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// statsOf runs one simulation to completion and returns its canonical
// stats JSON.
func statsOf(t *testing.T, s *sim.Sim) []byte {
	t.Helper()
	res, err := s.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestEventSinkToggle sweeps a small config x workload grid with and
// without an attached EventSink and requires byte-identical stats JSON
// from both. Attaching observability must never change what is
// observed.
func TestEventSinkToggle(t *testing.T) {
	const n = 8000
	for _, cfgName := range []string{"z15", "zEC12"} {
		gen, err := core.ByName(cfgName)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.ForGeneration(gen)
		for _, wl := range []string{"patterned", "callret"} {
			t.Run(cfgName+"/"+wl, func(t *testing.T) {
				p, err := workload.MakePacked(wl, 42, n)
				if err != nil {
					t.Fatal(err)
				}
				mk := func() *sim.Sim {
					cur := p.Cursor()
					return sim.New(cfg, []trace.Source{&cur})
				}

				plainJS := statsOf(t, mk())

				sunk := mk()
				ring := sim.NewRingSink(64)
				sunk.SetEventSink(ring)
				if string(plainJS) != string(statsOf(t, sunk)) {
					t.Error("attaching an EventSink changed the stats JSON")
				}
				if ring.Total() == 0 {
					t.Error("attached sink observed no events")
				}
			})
		}
	}
}

// TestRunCtxTruncatesAtMaxCycles checks the loop honors the maxCycles
// budget exactly and marks the result truncated.
func TestRunCtxTruncatesAtMaxCycles(t *testing.T) {
	p, err := workload.MakePacked("patterned", 42, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Cursor()
	res, err := sim.New(sim.Z15(), []trace.Source{&cur}).RunCtx(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("maxCycles-bounded run not marked Truncated")
	}
	if res.Cycles > 100 {
		t.Errorf("run went %d cycles past a 100-cycle budget", res.Cycles)
	}
}
