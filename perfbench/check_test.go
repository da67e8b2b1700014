package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"testing"

	"zbp/internal/server"
)

// tiny shrinks a plan so a test runs it in well under a second.
func tiny(p *plan) {
	p.instr = 2000
	if len(p.seedPool) > 4 {
		p.seedPool = p.seedPool[:4]
	}
	if p.perReq > 2 {
		p.perReq = 2
	}
}

// serve starts the plan's stack and returns the reply to req.
func serve(t *testing.T, p *plan, req request) []byte {
	t.Helper()
	st, err := startStack(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	c := newClient()
	t.Cleanup(func() { closeClients([]*client{c}) })
	body, err := c.do(http.MethodPost, st.front+req.path, req.body)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), body...)
}

func referenceOf(t *testing.T, p *plan) *reference {
	t.Helper()
	ref, err := referencePass(context.Background(), p, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestCheckCatchesChangedMetric: a simulate reply with one stats
// metric changed fails the in-window check against set-up, and a
// set-up reply with one metric changed fails the reference check.
func TestCheckCatchesChangedMetric(t *testing.T) {
	p, err := newPlan("simulate-long", 1)
	if err != nil {
		t.Fatal(err)
	}
	tiny(p)
	req := p.simulateRequest(0)
	body := serve(t, p, req)

	re := regexp.MustCompile(`"btb1\.searches": (\d+)`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("reply has no btb1.searches: %.300s", body)
	}
	n, _ := strconv.Atoi(string(m[1]))
	changed := re.ReplaceAll(body, []byte(`"btb1.searches": `+strconv.Itoa(n+1)))

	exp := newExpectations(p)
	if err := exp.learn(req, body); err != nil {
		t.Fatalf("genuine reply rejected at set-up: %v", err)
	}
	if err := exp.check(req, body); err != nil {
		t.Fatalf("genuine reply rejected in the window: %v", err)
	}
	if err := exp.check(req, changed); err == nil {
		t.Fatal("reply with a changed metric passed the window check")
	}

	ref := referenceOf(t, p)
	bad, err := exp.verify(ref)
	if err != nil {
		t.Fatal(err)
	}
	if bad[0] {
		t.Fatal("genuine reply differs from its reference run")
	}
	poisoned := newExpectations(p)
	if err := poisoned.learn(req, changed); err != nil {
		t.Fatal(err)
	}
	if bad, _ := poisoned.verify(ref); !bad[0] {
		t.Fatal("set-up reply with a changed metric passed the reference check")
	}
	w := window{samples: []sample{{cells: req.cells}}}
	if failedSamples(w, bad, false) != 0 {
		t.Fatal("a request over a good cell counted as failed")
	}
	if bad, _ := poisoned.verify(ref); failedSamples(w, bad, false) != 1 {
		t.Fatal("a request over a bad cell did not count as failed")
	}
}

// TestCheckCatchesMissingRow: a sweep reply with a row missing fails.
func TestCheckCatchesMissingRow(t *testing.T) {
	p, err := newPlan("sweep-short", 1)
	if err != nil {
		t.Fatal(err)
	}
	tiny(p)
	req := p.sweepRequest([]int{0, 1})
	body := serve(t, p, req)

	var resp server.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Cells = resp.Cells[:len(resp.Cells)-1]
	short, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}

	exp := newExpectations(p)
	if err := exp.learn(req, body); err != nil {
		t.Fatalf("genuine reply rejected at set-up: %v", err)
	}
	if err := exp.check(req, body); err != nil {
		t.Fatalf("genuine reply rejected in the window: %v", err)
	}
	if err := exp.check(req, short); err == nil {
		t.Fatal("sweep reply with a row missing passed the window check")
	}
	if err := newExpectations(p).learn(req, short); err == nil {
		t.Fatal("sweep reply with a row missing passed the set-up check")
	}
	if bad, err := exp.verify(referenceOf(t, p)); err != nil {
		t.Fatal(err)
	} else {
		for i, c := range req.cells {
			if bad[c] {
				t.Fatalf("row %d differs from its reference run", i)
			}
		}
	}
}

// TestWarmRepeatWindowMustNotSimulate: when a backend simulates in the
// warm-repeat window — here because its cache holds one entry — every
// request of the window counts as failed.
func TestWarmRepeatWindowMustNotSimulate(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		wantFailed bool
	}{
		{"warm backends", 0, false},
		{"one-entry backend caches", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, prov, err := run(context.Background(), options{
				workload: "warm-repeat", seed: 3, seconds: 0.3,
				mutate: func(p *plan) {
					tiny(p)
					p.coordCacheBytes = 1 // send nearly every cell to a backend
					p.backendCacheBytes = tc.cacheBytes
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 {
				t.Fatal("no request in the window")
			}
			if tc.wantFailed {
				if prov.SimRuns == 0 {
					t.Fatal("the backends did not simulate; the test proves nothing")
				}
				if res.Failed != res.Attempted || res.Correct {
					t.Fatalf("failed %d of %d, correct=%v; want all failed", res.Failed, res.Attempted, res.Correct)
				}
				return
			}
			if res.Failed != 0 || !res.Correct || prov.SimRuns != 0 {
				t.Fatalf("failed %d of %d, correct=%v, sim runs %v: %v", res.Failed, res.Attempted, res.Correct, prov.SimRuns, prov.Failures)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON: the program runs every workload
// BENCHMARK.json lists, an untraced run reports exactly the end-to-end
// metrics it lists and a traced run exactly the per-layer ones, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newPlan(w.Name, 1); err != nil {
			t.Fatalf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for _, traced := range []bool{false, true} {
		want := doc.EndToEnd
		if traced {
			want = doc.PerLayer
		}
		res, _, err := run(context.Background(), options{workload: "sweep-short", seed: 2, seconds: 0.3, trace: traced, mutate: tiny})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("traced=%v: run not correct", traced)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
		}
		for _, w := range want {
			got, ok := res.Metrics[w.Name]
			if !ok {
				t.Errorf("traced=%v: metric %s missing", traced, w.Name)
			} else if got.Unit != w.Unit {
				t.Errorf("traced=%v: %s unit %q, BENCHMARK.json says %q", traced, w.Name, got.Unit, w.Unit)
			}
		}
	}
}
