package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"zbp/internal/core"
	"zbp/internal/server"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// simReply decodes a /v1/simulate reply with its stats left as raw
// bytes, so they can be compared byte for byte.
type simReply struct {
	server.SimulateResponse
	Stats json.RawMessage `json:"stats"`
}

// simExpect is what every reply for one simulate cell must carry.
type simExpect struct {
	head  server.SimulateResponse // Stats nil
	stats []byte                  // compacted stats JSON
}

// expectations holds, per cell, the reply the first set-up pass got.
// Every later reply must equal it, and after the window it is checked
// against an in-process run of the same cell.
type expectations struct {
	p    *plan
	mu   sync.Mutex // guards learning; checks only read after set-up
	sims []*simExpect
	rows []*server.SweepCell
}

func newExpectations(p *plan) *expectations {
	e := &expectations{p: p}
	if p.kind == simulateKind {
		e.sims = make([]*simExpect, p.numCells())
	} else {
		e.rows = make([]*server.SweepCell, p.numCells())
	}
	return e
}

// learn records a set-up reply. A cell seen before must match what was
// recorded; a new cell must at least name itself correctly.
func (e *expectations) learn(req request, body []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.p.kind == simulateKind {
		got, err := decodeSim(body)
		if err != nil {
			return err
		}
		i := req.cells[0]
		if want := e.sims[i]; want != nil {
			return compareSim(want, got)
		}
		c := e.p.cellAt(int(i))
		h := got.head
		if h.Config != c.Config || h.Workload != c.Workload || h.Seed != c.Seed || h.Truncated || len(got.stats) == 0 {
			return fmt.Errorf("reply for %s names %s/%s/%d (truncated=%v)", c, h.Config, h.Workload, h.Seed, h.Truncated)
		}
		e.sims[i] = got
		return nil
	}
	rows, err := decodeSweep(req, body)
	if err != nil {
		return err
	}
	for k, i := range req.cells {
		row := rows[k]
		if want := e.rows[i]; want != nil {
			if *want != row {
				return fmt.Errorf("row %d: %+v, set-up had %+v", k, row, *want)
			}
			continue
		}
		c := e.p.cellAt(int(i))
		if row.Config != c.Config || row.Workload != c.Workload || row.Seed != c.Seed || row.Truncated {
			return fmt.Errorf("row %d for %s: %+v", k, c, row)
		}
		e.rows[i] = &row
	}
	return nil
}

// check reports whether body is exactly the reply set-up recorded for
// the request's cells.
func (e *expectations) check(req request, body []byte) error {
	if e.p.kind == simulateKind {
		got, err := decodeSim(body)
		if err != nil {
			return err
		}
		want := e.sims[req.cells[0]]
		if want == nil {
			return fmt.Errorf("cell %s was not seen in set-up", e.p.cellAt(int(req.cells[0])))
		}
		return compareSim(want, got)
	}
	rows, err := decodeSweep(req, body)
	if err != nil {
		return err
	}
	for k, i := range req.cells {
		want := e.rows[i]
		if want == nil || *want != rows[k] {
			return fmt.Errorf("row %d (%s) differs from set-up", k, e.p.cellAt(int(i)))
		}
	}
	return nil
}

func decodeSim(body []byte) (*simExpect, error) {
	var r simReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("simulate reply: %w", err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, r.Stats); err != nil {
		return nil, fmt.Errorf("simulate reply stats: %w", err)
	}
	r.SimulateResponse.Stats = nil
	return &simExpect{head: r.SimulateResponse, stats: buf.Bytes()}, nil
}

func compareSim(want, got *simExpect) error {
	if want.head != got.head {
		return fmt.Errorf("headline %+v, want %+v", got.head, want.head)
	}
	if !bytes.Equal(want.stats, got.stats) {
		return errors.New("stats snapshot differs byte for byte")
	}
	return nil
}

// decodeSweep decodes a sweep reply and checks its shape: one row per
// requested cell and no cell errors.
func decodeSweep(req request, body []byte) ([]server.SweepCell, error) {
	var r server.SweepResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("sweep reply: %w", err)
	}
	if len(r.Cells) != len(req.cells) {
		return nil, fmt.Errorf("sweep reply has %d rows, want %d", len(r.Cells), len(req.cells))
	}
	if r.Errors != 0 {
		return nil, fmt.Errorf("sweep reply reports %d cell errors", r.Errors)
	}
	for k, row := range r.Cells {
		if row.Error != "" {
			return nil, fmt.Errorf("row %d: %s", k, row.Error)
		}
	}
	return r.Cells, nil
}

// refCell is one cell run in process with sim.New and RunCtx, without
// the server.
type refCell struct {
	pk           *trace.Packed // the cell's trace
	res          sim.Result
	stats        []byte // canonical stats JSON
	newNs, runNs int64
}

// reference is the in-process run of every distinct cell.
type reference struct {
	cells  []refCell
	traces []*trace.Packed // distinct traces, in materialization order
	matNs  []int64         // workload.MakePacked time per distinct trace
}

// referencePass runs every distinct cell once, sequentially, recording
// spans for each layer call when tr is on.
func referencePass(ctx context.Context, p *plan, tr *tracer) (*reference, error) {
	ref := &reference{cells: make([]refCell, p.numCells())}
	type tkey struct {
		wl   string
		seed uint64
	}
	packed := make(map[tkey]*trace.Packed)
	for i := range ref.cells {
		c := p.cellAt(i)
		cellSpan := tr.begin("cell", -1)
		k := tkey{c.Workload, c.Seed}
		pk := packed[k]
		if pk == nil {
			sp := tr.begin("workload.MakePacked", cellSpan)
			t := time.Now()
			var err error
			pk, err = workload.MakePacked(c.Workload, c.Seed, p.instr)
			if err != nil {
				return nil, err
			}
			ref.matNs = append(ref.matNs, time.Since(t).Nanoseconds())
			tr.end(sp)
			packed[k] = pk
			ref.traces = append(ref.traces, pk)
		}
		rc, err := runCell(ctx, c, pk, cellSpan, tr)
		if err != nil {
			return nil, err
		}
		tr.end(cellSpan)
		ref.cells[i] = rc
	}
	return ref, nil
}

// runCell builds and runs one cell's machine as the server does,
// timing sim.New and RunCtx apart.
func runCell(ctx context.Context, c cell, pk *trace.Packed, parent int32, tr *tracer) (refCell, error) {
	gen, err := core.ByName(c.Config)
	if err != nil {
		return refCell{}, err
	}
	cur := pk.Cursor()
	sp := tr.begin("sim.New", parent)
	t0 := time.Now()
	m := sim.New(sim.ForGeneration(gen), []trace.Source{&cur})
	t1 := time.Now()
	tr.end(sp)
	sp = tr.begin("sim.RunCtx", parent)
	res, err := m.RunCtx(ctx, 0)
	t2 := time.Now()
	tr.end(sp)
	if err != nil {
		return refCell{}, fmt.Errorf("reference run of %s: %w", c, err)
	}
	stats, err := res.StatsJSON()
	if err != nil {
		return refCell{}, err
	}
	return refCell{pk: pk, res: res, stats: stats,
		newNs: t1.Sub(t0).Nanoseconds(), runNs: t2.Sub(t1).Nanoseconds()}, nil
}

// verify compares each cell's set-up reply with its reference run:
// simulate replies byte for byte (stats) and field by field
// (headline), sweep rows field by field against server.Summarize of
// the reference stats. It returns which cells differ.
func (e *expectations) verify(ref *reference) (bad []bool, err error) {
	bad = make([]bool, len(ref.cells))
	for i, rc := range ref.cells {
		c := e.p.cellAt(i)
		if e.p.kind == simulateKind {
			want, err := referenceSim(c, rc)
			if err != nil {
				return nil, err
			}
			got := e.sims[i]
			bad[i] = got == nil || compareSim(want, got) != nil
			continue
		}
		want, err := referenceRow(e.p, i, rc.stats)
		if err != nil {
			return nil, err
		}
		got := e.rows[i]
		bad[i] = got == nil || *got != want
	}
	return bad, nil
}

func referenceSim(c cell, rc refCell) (*simExpect, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, rc.stats); err != nil {
		return nil, err
	}
	r := rc.res
	return &simExpect{head: server.SimulateResponse{
		Config: c.Config, Workload: c.Workload, Seed: c.Seed,
		Instructions: r.Instructions(), Branches: r.Branches(), Cycles: r.Cycles,
		MPKI: r.MPKI(), IPC: r.IPC(), Accuracy: r.Accuracy(),
	}, stats: buf.Bytes()}, nil
}

func referenceRow(p *plan, i int, stats []byte) (server.SweepCell, error) {
	c := p.cellAt(i)
	_, sum, err := server.Summarize(p.spec(i), stats)
	if err != nil {
		return server.SweepCell{}, err
	}
	return server.SweepCell{
		Config: c.Config, Workload: c.Workload, Seed: c.Seed,
		Instructions: sum.Instructions, Cycles: sum.Cycles,
		MPKI: sum.MPKI, IPC: sum.IPC, Accuracy: sum.Accuracy,
	}, nil
}

// statsSHA256 digests the reference stats of every distinct cell in
// sorted cell order, so two commits can be compared for model
// identity.
func statsSHA256(p *plan, ref *reference) string {
	idx := make([]int, len(ref.cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.cellAt(idx[a]).String() < p.cellAt(idx[b]).String() })
	h := sha256.New()
	for _, i := range idx {
		fmt.Fprintf(h, "%s/%d\n", p.cellAt(i), p.instr)
		h.Write(ref.cells[i].stats)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// failedSamples marks every window request whose reply failed its
// check or carries a cell whose set-up reply differs from the
// reference. If the window must not simulate and a backend did, every
// request fails: the window did not measure what it claims to.
func failedSamples(w window, bad []bool, simulatedWhenForbidden bool) int64 {
	var n int64
	for i := range w.samples {
		s := &w.samples[i]
		if s.err == nil && simulatedWhenForbidden {
			s.err = errors.New("a backend simulated during the window")
		}
		for _, ci := range s.cells {
			if s.err == nil && bad[ci] {
				s.err = fmt.Errorf("cell %d differs from its reference run", ci)
			}
		}
		if s.err != nil {
			n++
		}
	}
	return n
}
