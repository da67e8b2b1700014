package sim

import (
	"context"
	"testing"

	"zbp/internal/core"
	"zbp/internal/frontend"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// reuseTrace materializes a short packed trace for the reuse tests.
func reuseTrace(t *testing.T, name string, seed uint64) *trace.Packed {
	t.Helper()
	p, err := workload.MakePacked(name, seed, 4000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func statsJSON(t *testing.T, res Result) string {
	t.Helper()
	js, err := res.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestPooledResultNotAliased: a Result handed out by a reused machine
// must not change when that machine runs another cell. Result.Threads
// is the field at risk: it is the one slice a Result carries.
func TestPooledResultNotAliased(t *testing.T) {
	a, b := reuseTrace(t, "callret", 1), reuseTrace(t, "loops", 2)
	smt2 := func(p, q *trace.Packed) []trace.Source {
		cp, cq := p.Cursor(), q.Cursor()
		return []trace.Source{&cp, &cq}
	}
	z15, zec12 := Z15(), ForGeneration(core.ZEC12())

	// An explicitly reused machine, so the reuse is certain.
	m := New(z15, smt2(a, b))
	first, err := m.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := statsJSON(t, first)
	threads := append([]frontend.Stats(nil), first.Threads...)
	m.Reset(zec12, smt2(b, a))
	if _, err := m.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := statsJSON(t, first); got != want {
		t.Error("a Result changed after its machine was reset and ran another cell")
	}
	for i := range threads {
		if threads[i] != first.Threads[i] {
			t.Errorf("Result.Threads[%d] changed after machine reuse", i)
		}
	}

	// The pooled path: one result must survive any number of later
	// pooled runs and match a fresh machine byte for byte.
	pooled, err := RunPooled(context.Background(), z15, smt2(a, b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := statsJSON(t, pooled); got != want {
		t.Error("pooled run differs from a fresh machine")
	}
	for i := 0; i < 4; i++ {
		if _, err := RunPooled(context.Background(), zec12, smt2(b, a), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := statsJSON(t, pooled); got != want {
		t.Error("a pooled Result changed after later pooled runs")
	}
}

// TestResetAllocs: once a machine has held z15, resetting it to z15 or
// to any smaller generation re-slices every table it owns: the reset
// allocates nothing at all, tables included.
func TestResetAllocs(t *testing.T) {
	p := reuseTrace(t, "lspr-small", 3)
	cur := p.Cursor()
	srcs := []trace.Source{&cur}
	z15 := Z15()
	m := New(z15, srcs)
	for _, gen := range core.Generations() {
		cfg := ForGeneration(gen)
		// Alternate through z15 so every optional structure (BTBP,
		// long PHT, perceptron, CPRED) toggles on each iteration.
		allocs := testing.AllocsPerRun(20, func() {
			m.Reset(z15, srcs)
			m.Reset(cfg, srcs)
		})
		if allocs != 0 {
			t.Errorf("z15 -> %s reset allocates %v times, want 0", gen.Name, allocs)
		}
	}
}

// TestRunPooledPanicPropagates: a panic inside the pooled run reaches
// the caller (the runner turns it into a job error), and later pooled
// runs still match a fresh machine.
func TestRunPooledPanicPropagates(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunPooled with no sources did not panic")
			}
		}()
		_, _ = RunPooled(context.Background(), Z15(), nil, 0)
	}()
	p := reuseTrace(t, "indirect", 4)
	cur := p.Cursor()
	want, err := New(Z15(), []trace.Source{&cur}).RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cur = p.Cursor()
	got, err := RunPooled(context.Background(), Z15(), []trace.Source{&cur}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, got) != statsJSON(t, want) {
		t.Error("pooled run after a panicked one differs from a fresh machine")
	}
}

// resetScribbled is Reset followed by garbage in every BTB slot the
// reset left stale (core.ScribbleStale): the payload columns of the
// BTB1 and BTB2 and every invalid BTBP slot.
func (s *Sim) resetScribbled(cfg Config, srcs []trace.Source, seed uint64) {
	s.Reset(cfg, srcs)
	s.core.ScribbleStale(seed)
}

// TestScribbledReuseMatchesFresh: a reset clears only the BTBs' valid
// columns, so every read of a payload column must sit behind a valid
// check. A reused machine whose stale BTB slots are overwritten with
// garbage right after each reset must still run every generation x
// sweep-short workload cell byte-identically to sim.New.
func TestScribbledReuseMatchesFresh(t *testing.T) {
	workloads := []string{"lspr-small", "micro", "loops", "callret"}
	packs := make([]*trace.Packed, len(workloads))
	for i, name := range workloads {
		p, err := workload.MakePacked(name, uint64(i+1), 5000)
		if err != nil {
			t.Fatal(err)
		}
		packs[i] = p
	}
	src := func(p *trace.Packed) []trace.Source {
		cur := p.Cursor()
		return []trace.Source{&cur}
	}
	m := New(Z15(), src(packs[0]))
	if _, err := m.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	seed := uint64(0x5c1b)
	for _, gen := range core.Generations() {
		cfg := ForGeneration(gen)
		for i, p := range packs {
			want, err := New(cfg, src(p)).RunCtx(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			seed++
			m.resetScribbled(cfg, src(p), seed)
			got, err := m.RunCtx(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if statsJSON(t, got) != statsJSON(t, want) {
				t.Errorf("%s/%s: scribbled reused machine differs from a fresh one", gen.Name, workloads[i])
			}
		}
	}
}
