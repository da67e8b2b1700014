// Command perfbench is the repository benchmark. It runs one workload
// from a single process against real loopback HTTP listeners — a zbpd
// built with server.New, or a coordinator built with cluster.New in
// front of zbpd backends — under a closed loop of one client per CPU,
// checks every reply, and prints its metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload simulate-long --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced
// run of the same workload. The line before it records how the numbers
// were made. README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// setupReps is how many times a run sets the service up; setup_s is
// the median.
const setupReps = 3

// pairRequests is how many requests a traced run sends alone, each
// next to a direct run of its cells.
const pairRequests = 8

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spanDir  string // where a traced run writes its spans; "" skips
	// mutate, when set, adjusts the plan before the run (tests only).
	mutate func(*plan)
}

// result is the last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// provenance records how the numbers were made.
type provenance struct {
	Workload        string            `json:"workload"`
	Seed            uint64            `json:"seed"`
	Traced          bool              `json:"traced"`
	GoVersion       string            `json:"go_version"`
	NumCPU          int               `json:"nproc"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	Clients         int               `json:"clients"`
	Load            string            `json:"load"`
	CellInstr       int               `json:"cell_instructions"`
	CellsPerRequest int               `json:"cells_per_request"`
	DistinctCells   int               `json:"distinct_cells"`
	CellSeeds       []uint64          `json:"cell_seeds"`
	CoordCacheBytes int64             `json:"coord_cache_bytes,omitempty"`
	Config          map[string]string `json:"config"`
	SetupS          []float64         `json:"setup_s"`
	WindowS         float64           `json:"window_s"`
	Requests        int               `json:"requests"`
	SimRuns         float64           `json:"window_sim_runs"`
	StatsSHA256     string            `json:"stats_sha256"`
	BadCells        int               `json:"bad_cells"`
	Failures        []string          `json:"failures,omitempty"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: picks the cell seeds and the request order")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	o.spanDir = filepath.Join(".bench_build", "spans")
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, prov, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	pj, err := json.Marshal(map[string]any{"perfbench": prov})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", pj, rj)
}

func run(ctx context.Context, o options) (*result, *provenance, error) {
	p, err := newPlan(o.workload, o.seed)
	if err != nil {
		return nil, nil, err
	}
	if o.mutate != nil {
		o.mutate(p)
	}
	tr := &tracer{on: o.trace}
	nc := runtime.NumCPU()
	prov := &provenance{
		Workload: p.name, Seed: o.seed, Traced: o.trace,
		GoVersion: runtime.Version(), NumCPU: nc, GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: nc,
		Load:      "closed loop: one keep-alive connection per client; next request after the previous reply is read and checked",
		CellInstr: p.instr, CellsPerRequest: len(p.configs) * len(p.workloads) * p.perReq, DistinctCells: p.numCells(),
		CellSeeds: p.seedPool, CoordCacheBytes: p.coordCacheBytes, Config: p.configRecord(),
	}
	if p.kind == simulateKind {
		prov.CellsPerRequest = 1
	}

	// Set-up: listeners, trace materialization and one warm-up pass
	// over the distinct cells, several times; the last stack stays up.
	exp := newExpectations(p)
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		if st, err = startStack(p); err != nil {
			return nil, nil, err
		}
		clients := newClients(nc)
		err = warmUp(st.front, clients, p.warmupRequests(), exp.learn)
		closeClients(clients)
		if err != nil {
			return nil, nil, err
		}
		prov.SetupS = append(prov.SetupS, time.Since(start).Seconds())
	}

	// The timed window.
	scraper := newClient()
	before, err := st.scrape(scraper.hc)
	if err != nil {
		return nil, nil, err
	}
	clients := newClients(nc)
	streams := make([]*requestStream, nc)
	for i := range streams {
		streams[i] = p.stream(o.seed, i)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	traceFrom := dur // an untraced run records no spans
	if o.trace {
		// The first half runs untraced, so the run can report what
		// tracing costs.
		traceFrom = dur / 2
	}
	win := runWindow(st.front, clients, streams, exp.check, dur, traceFrom, tr)
	closeClients(clients)
	if len(win.samples) == 0 {
		return nil, nil, errors.New("the window completed no request")
	}
	after, err := st.scrape(scraper.hc)
	if err != nil {
		return nil, nil, err
	}
	rssMB, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	// Check every reply against an in-process run of its cells.
	ref, err := referencePass(ctx, p, tr)
	if err != nil {
		return nil, nil, err
	}
	var healthz []float64
	var pairs []pair
	if o.trace {
		if healthz, err = probeHealthz(st.front); err != nil {
			return nil, nil, err
		}
		probe := p.stream(o.seed, 0)
		reqs := make([]request, pairRequests)
		for i := range reqs {
			reqs[i] = probe.next()
		}
		if pairs, err = probeRequests(ctx, st.front, p, ref, reqs, windowSimFrac(win, after.sub(before)) > 0, exp.check, tr); err != nil {
			return nil, nil, err
		}
	}
	closeClients([]*client{scraper})
	st.close()
	st = nil

	bad, err := exp.verify(ref)
	if err != nil {
		return nil, nil, err
	}
	delta := after.sub(before)
	simulatedWhenForbidden := p.kind == coordKind && delta.simRuns != 0
	failed := failedSamples(win, bad, simulatedWhenForbidden)
	for _, b := range bad {
		if b {
			prov.BadCells++
		}
	}
	for _, s := range win.samples {
		if s.err != nil && len(prov.Failures) < 5 {
			prov.Failures = append(prov.Failures, s.err.Error())
		}
	}
	prov.WindowS = win.elapsed.Seconds()
	prov.Requests = len(win.samples)
	prov.SimRuns = delta.simRuns
	prov.StatsSHA256 = statsSHA256(p, ref)
	res := &result{
		Correct:   failed == 0 && prov.BadCells == 0 && delta.rejected == 0,
		Attempted: int64(len(win.samples)),
		Failed:    failed,
	}

	if !o.trace {
		res.Metrics = endToEnd(prov, win, rssMB)
		return res, prov, nil
	}
	res.Metrics, err = layerMetrics(ctx, layerInput{p: p, tr: tr, win: win, delta: delta, ref: ref, healthzUs: healthz, pairs: pairs})
	if err != nil {
		return nil, nil, err
	}
	if o.spanDir != "" {
		if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("%s-seed%d.jsonl", p.name, o.seed)
		if err := tr.write(filepath.Join(o.spanDir, name)); err != nil {
			return nil, nil, err
		}
	}
	return res, prov, nil
}

// endToEnd computes the metrics a user of the service sees.
func endToEnd(prov *provenance, win window, rssMB float64) metricSet {
	m := metricSet{}
	m.set("setup_s", "s", median(append([]float64(nil), prov.SetupS...)))
	var cells, ok float64
	for _, s := range win.samples {
		if s.err == nil {
			cells += float64(len(s.cells))
			ok++
		}
	}
	m.set("cells_per_s", "cells/s", cells/win.elapsed.Seconds())
	lat := latenciesMs(win.samples, func(sample) bool { return true })
	m.set("lat_p50_ms", "ms", percentile(lat, 0.5))
	m.set("lat_p90_ms", "ms", percentile(lat, 0.9))
	m.set("rss_peak_mb", "MiB", rssMB)
	m.set("success_frac", "ratio", ok/float64(len(win.samples)))
	return m
}

// peakRSSMiB reads the process's resident-memory high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
