package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"zbp/internal/rcache"
)

// requestKinds are the bodies FuzzRequest plans, by the fuzzer's kind
// byte.
var requestKinds = []string{"simulate", "sweep", "job", "diff", "cell"}

// planBody runs the front's decode → normalize → plan step on one body
// of the given kind, exactly as the handlers do before a request costs
// anything. It returns the status the step answered (200 when it
// accepted the body) and the normalized request.
func planBody(f *Front, kind string, body []byte) (int, any) {
	var (
		req       any
		normalize func() error
	)
	switch kind {
	case "simulate":
		var q SimulateRequest
		req, normalize = &q, func() error { _, err := f.normalizeSimulate(&q); return err }
	case "sweep":
		var q SweepRequest
		req, normalize = &q, func() error { _, err := f.normalizeSweep(&q); return err }
	case "diff":
		var q DiffRequest
		req, normalize = &q, func() error { _, _, err := f.normalizeDiff(&q); return err }
	case "cell":
		var q CellRequest
		req, normalize = &q, func() error { _, err := f.normalizeSimulate(&q.SimulateRequest); return err }
	default:
		var q JobRequest
		req, normalize = &q, func() error { _, err := f.planJob(&q); return err }
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if !f.Decode(w, r, req) {
		return w.Code, nil
	}
	if err := normalize(); err != nil {
		f.Fail(w, http.StatusBadRequest, err)
		return w.Code, nil
	}
	return http.StatusOK, req
}

// fleetRules is an executor with the coordinator's request rules — it
// passes path-backed names through to the backends — and nothing to
// run: every execution method panics, which is how FuzzRequest proves
// it stops before any simulation.
type fleetRules struct{}

func (fleetRules) ResolvePath(name string) (string, error) { return name, nil }
func (fleetRules) Admit(int) (int, error)                  { return 0, nil }
func (fleetRules) RetryAfter() int                         { return 1 }
func (fleetRules) RunSecondsEWMA() float64                 { return 0 }
func (fleetRules) Schedule(context.Context, func(context.Context)) error {
	panic("planning scheduled a job")
}
func (fleetRules) Compute() CellFunc { panic("planning asked for a cell compute") }
func (fleetRules) Simulate(context.Context, SimulateRequest, uint64) (SimulateResponse, error) {
	panic("planning ran a simulation")
}
func (fleetRules) Sweep(context.Context, SweepRequest) (SweepResponse, error) {
	panic("planning ran a sweep")
}
func (fleetRules) Diff(context.Context, DiffRequest, uint64, func(int, int, DiffCell)) (DiffResponse, error) {
	panic("planning ran a diff")
}
func (fleetRules) Audit(context.Context, rcache.CellSpec, []byte) ([]string, error) {
	panic("planning audited a cell")
}

// FuzzRequest throws arbitrary simulate, sweep, job, diff and /v1/cell
// bodies at the shared decode → normalize → plan step, once over the
// local executor (a real Server confined to a trace dir) and once over
// the coordinator's rules (path-backed names pass through, grids up to
// 16384 cells; the coordinator serves no /v1/cell, so there the cell
// kind checks only the shared simulate rules). It requires that the
// step never panics, that a body it refuses is answered 400 or 413 —
// never a 5xx — and that a normalized request normalizes to the same
// bytes again. No simulation runs.
func FuzzRequest(f *testing.F) {
	for _, seed := range []struct {
		kind uint8
		body string
	}{
		{0, `{"workload":"loops","instructions":5000}`},
		{0, `{"config":"z13","workload":"lspr","workload2":"micro","seed":7,"full_stats":true}`},
		{0, `{"workload":"file:t.zbpt"}`},
		{0, `{"workload":"spec:../escape.json"}`},
		{0, `{"workload":"loops","instructions":-1}`},
		{1, `{"configs":["z14","z15"],"workloads":["lspr","micro"],"seeds":[1,2]}`},
		{1, `{"workloads":[]}`},
		{1, `{"workloads":["loops"],"bogus":1}`},
		{2, `{"sweep":{"workloads":["loops"]},"no_cache":true,"timeout_ms":10}`},
		{2, `{"kind":"diff","simulate":{"workload":"loops"}}`},
		{2, `{"simulate":{"workload":"loops"},"sweep":{"workloads":["loops"]}}`},
		{3, `{"workloads":["loops"],"checks":["run-vs-runctx"],"perturb":true}`},
		{3, `{"configs":["z99"],"workloads":["loops"]}`},
		{3, `not json`},
		{4, `{"workload":"loops","instructions":5000,"no_cache":true}`},
		{4, `{"config":"zEC12","workload":"callret","seed":0,"timeout_ms":1}`},
		{4, `{"workload":"loops","no_cache":"yes"}`},
		{4, `{"workload":"loops","cached":true}`},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}

	local, err := New(Config{Workers: 1, TraceDir: f.TempDir(), AuditEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(local.Close)
	fleet, err := NewFront(Role{
		Noun: "coordinator", CachePrefix: "zbpd.coord_cache_", FailStatus: http.StatusBadGateway,
		MaxBodyBytes: 1 << 20, MaxInstructions: 20_000_000, DefaultInstructions: 1_000_000,
		MaxSweepCells: 16384, AuditEvery: -1,
	}, fleetRules{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(fleet.Close)

	f.Fuzz(func(t *testing.T, kindByte uint8, body []byte) {
		kind := requestKinds[int(kindByte)%len(requestKinds)]
		for _, front := range []*Front{local.Front, fleet} {
			code, req := planBody(front, kind, body)
			if req == nil {
				if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
					t.Fatalf("%s body %q refused with %d, want 400 or 413", kind, body, code)
				}
				continue
			}
			once, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			code, again := planBody(front, kind, once)
			if again == nil {
				t.Fatalf("%s: normalized body %s refused with %d", kind, once, code)
			}
			twice, err := json.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%s: normalizing is not idempotent:\n once  %s\n twice %s", kind, once, twice)
			}
		}
	})
}
