package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"zbp/internal/cluster"
	"zbp/internal/core"
	"zbp/internal/rcache"
	"zbp/internal/runner"
	"zbp/internal/server"
	"zbp/internal/sim"
	"zbp/internal/trace"
)

// span is one timed call: a request, or a call into a layer's public
// function made from the benchmark's own code.
type span struct {
	ID     int32
	Parent int32 // -1 for a root span
	Name   string
	Start  time.Time
	End    time.Time
	Cells  int // cells a request span carries
}

// tracer keeps spans in memory until the run ends. A nil or off tracer
// records nothing.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) int32 {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) begin(name string, parent int32) int32 {
	return t.add(span{Name: name, Parent: parent, Start: time.Now()})
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it its
// child spans cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		self := s.End.Sub(s.Start)
		// Children of one parent run sequentially here, but merge
		// overlaps anyway so self time never goes negative.
		var covEnd time.Time
		for _, k := range kids[int32(i)] {
			c := spans[k]
			from := c.Start
			if from.Before(covEnd) {
				from = covEnd
			}
			if c.End.After(from) {
				self -= c.End.Sub(from)
				covEnd = c.End
			}
		}
		out[i] = self
	}
	return out
}

// write stores the spans as JSON lines, times in ns from the first
// span.
func (t *tracer) write(path string) error {
	if t == nil || !t.on || len(t.spans) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t0 := t.spans[0].Start
	for i := range t.spans {
		if t.spans[i].Start.Before(t0) {
			t0 = t.spans[i].Start
		}
	}
	enc := json.NewEncoder(w)
	for i, self := range selfTimes(t.spans) {
		s := t.spans[i]
		if err := enc.Encode(struct {
			ID      int32  `json:"id"`
			Parent  int32  `json:"parent"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			SelfNs  int64  `json:"self_ns"`
			Cells   int    `json:"cells,omitempty"`
		}{s.ID, s.Parent, s.Name, s.Start.Sub(t0).Nanoseconds(), s.End.Sub(t0).Nanoseconds(), self.Nanoseconds(), s.Cells}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spec is the cache and routing identity of a cell.
func (p *plan) spec(i int) rcache.CellSpec {
	c := p.cellAt(i)
	return rcache.CellSpec{Config: c.Config, Workload: c.Workload, Seed: c.Seed, Instructions: p.instr}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// generations are the machine presets sim.New is measured for.
var generations = []string{"zEC12", "z13", "z14", "z15"}

// layerInput is what the per-layer metrics are computed from.
type layerInput struct {
	p     *plan
	tr    *tracer
	win   window
	delta counters // over the window
	ref   *reference
	// healthzUs and pairs were measured before the stack was stopped.
	healthzUs []float64
	pairs     []pair
}

// windowSimFrac is the share of the window's cells the servers
// simulated rather than served from a cache.
func windowSimFrac(w window, delta counters) float64 {
	var cells float64
	for _, s := range w.samples {
		cells += float64(len(s.cells))
	}
	return min(ratio(delta.simRuns, cells), 1)
}

// pair is one request sent alone to the idle service, next to a direct
// run of the same cells.
type pair struct {
	httpNs, cellNs, runNs float64
}

// probeRequests sends requests one at a time to the idle service and,
// when the service simulates them, runs the same cells directly in
// process, alternating which goes first so both see the same host.
// Every reply is checked.
func probeRequests(ctx context.Context, front string, p *plan, ref *reference, reqs []request,
	simulates bool, check func(request, []byte) error, tr *tracer) ([]pair, error) {
	c := newClient()
	defer closeClients([]*client{c})
	var out []pair
	for k, req := range reqs {
		var pr pair
		send := func() error {
			sp := tr.begin("http.request", -1)
			t := time.Now()
			body, err := c.do(http.MethodPost, front+req.path, req.body)
			pr.httpNs = float64(time.Since(t).Nanoseconds())
			tr.end(sp)
			if err != nil {
				return err
			}
			return check(req, body)
		}
		direct := func() error {
			if !simulates {
				return nil
			}
			sp := tr.begin("direct", -1)
			defer tr.end(sp)
			for _, ci := range req.cells {
				rc, err := runCell(ctx, p.cellAt(int(ci)), ref.cells[ci].pk, sp, tr)
				if err != nil {
					return err
				}
				pr.cellNs += float64(rc.newNs + rc.runNs)
				pr.runNs += float64(rc.runNs)
			}
			return nil
		}
		first, second := send, direct
		if k%2 == 1 {
			first, second = direct, send
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// layerMetrics computes every per-layer metric. It runs the layer
// probes that need no service, so the stack must be stopped.
func layerMetrics(ctx context.Context, in layerInput) (metricSet, error) {
	m := metricSet{}
	p, ref, tr := in.p, in.ref, in.tr

	// trace: drain every distinct trace through the concrete cursor.
	var instrs int64
	for _, pk := range ref.traces {
		instrs += int64(pk.Len())
	}
	var replay []float64
	for rep := 0; rep < 5; rep++ {
		sp := tr.begin("trace.Cursor.Next", -1)
		t := time.Now()
		var sum uint64
		for _, pk := range ref.traces {
			cur := pk.Cursor()
			for {
				r, ok := cur.Next()
				if !ok {
					break
				}
				sum += uint64(r.Addr)
			}
		}
		d := time.Since(t)
		tr.end(sp)
		if sum == 0 {
			return nil, fmt.Errorf("replay checksum is zero")
		}
		replay = append(replay, float64(d.Nanoseconds())/float64(instrs))
	}
	m.set("trace.replay_ns_per_instr", "ns", median(replay))

	// workload: materialization and footprint of the distinct traces.
	var matNs, traceBytes int64
	for i, pk := range ref.traces {
		matNs += ref.matNs[i]
		traceBytes += int64(pk.SizeBytes())
	}
	m.set("workload.materialize_ms", "ms", float64(matNs)/1e6/float64(len(ref.traces)))
	m.set("workload.trace_mb", "MiB", float64(traceBytes)/(1<<20))

	// sim.New per generation.
	if err := probeSimNew(m, ref.traces[0], tr); err != nil {
		return nil, err
	}

	// The cycle loop and the model, over the reference pass.
	var newNs, runNs, cycles, instr, mispred float64
	var btbHits, btbSearches, icHits, icAccesses float64
	for _, rc := range ref.cells {
		newNs += float64(rc.newNs)
		runNs += float64(rc.runNs)
		var snap struct {
			Counters map[string]float64 `json:"counters"`
			Gauges   map[string]float64 `json:"gauges"`
		}
		if err := json.Unmarshal(rc.stats, &snap); err != nil {
			return nil, err
		}
		cycles += snap.Counters["sim.cycles"]
		instr += snap.Gauges["sim.instructions"]
		mispred += snap.Gauges["sim.mispredicts"]
		btbHits += snap.Counters["btb1.search_hits"]
		btbSearches += snap.Counters["btb1.searches"]
		icHits += snap.Counters["icache.l1_hits"]
		icAccesses += snap.Counters["icache.accesses"]
	}
	n := float64(len(ref.cells))
	m.set("sim.run_ns_per_instr", "ns", ratio(runNs, instr))
	m.set("sim.run_ns_per_cycle", "ns", ratio(runNs, cycles))
	m.set("sim.new_share", "ratio", ratio(newNs, newNs+runNs))
	if err := probeRunAllocs(ctx, m, in); err != nil {
		return nil, err
	}
	m.set("model.cycles", "cycles", cycles)
	m.set("model.ipc", "instr/cycle", ratio(instr, cycles))
	m.set("model.mpki", "1/kinstr", ratio(mispred*1000, instr))
	m.set("model.btb1_search_hit_ratio", "ratio", ratio(btbHits, btbSearches))
	m.set("model.btb1_searches", "count", btbSearches)
	m.set("model.icache_l1_hit_ratio", "ratio", ratio(icHits, icAccesses))
	m.set("model.icache_accesses", "count", icAccesses)

	// Requests: how much of each is the simulation the server ran,
	// from requests sent alone next to direct runs of their cells. A
	// window in which the servers simulated nothing gets no sim time.
	simFrac := windowSimFrac(in.win, in.delta)
	var selfMs []float64
	var runAttributed, latTotal float64
	for _, pr := range in.pairs {
		selfMs = append(selfMs, (pr.httpNs-simFrac*pr.cellNs)/1e6)
		runAttributed += simFrac * pr.runNs
		latTotal += pr.httpNs
	}
	m.set("sim.run_share_of_request", "ratio", ratio(runAttributed, latTotal))
	m.set("server.request_self_ms", "ms", median(selfMs))

	reqs := float64(len(in.win.samples))
	m.set("server.sim_runs_per_req", "count", ratio(in.delta.simRuns, reqs))
	m.set("server.rejected", "count", in.delta.rejected)
	m.set("server.healthz_rtt_us", "us", median(in.healthzUs))
	m.set("cluster.dispatched_per_req", "count", ratio(float64(in.delta.dispatched), reqs))
	coordLookups := in.delta.coordHits + in.delta.coordMisses
	m.set("rcache.coord_hit_ratio", "ratio", ratio(in.delta.coordHits, coordLookups))
	m.set("rcache.coord_lookups", "count", coordLookups)
	backendLookups := in.delta.backendHits + in.delta.backendMisses
	m.set("rcache.backend_hit_ratio", "ratio", ratio(in.delta.backendHits, backendLookups))
	m.set("rcache.backend_lookups", "count", backendLookups)

	var summ []float64
	for rep := 0; rep < 3; rep++ {
		sp := tr.begin("server.Summarize", -1)
		t := time.Now()
		for i, rc := range ref.cells {
			if _, _, err := server.Summarize(p.spec(i), rc.stats); err != nil {
				return nil, err
			}
		}
		tr.end(sp)
		summ = append(summ, float64(time.Since(t).Nanoseconds())/1e3/n)
	}
	m.set("server.summarize_us", "us", median(summ))

	probeCache(m, in)
	if err := probePool(ctx, m, in); err != nil {
		return nil, err
	}
	if err := probeDispatch(ctx, m, ref.cells[0].stats, tr); err != nil {
		return nil, err
	}

	traced := latenciesMs(in.win.samples, func(s sample) bool { return s.traced })
	untraced := latenciesMs(in.win.samples, func(s sample) bool { return !s.traced })
	m.set("trace.requests", "count", float64(len(traced)))
	tp50 := median(traced)
	m.set("trace.traced_lat_p50_ms", "ms", tp50)
	m.set("trace.overhead_ms", "ms", tp50-median(untraced))
	return m, nil
}

// probeSimNew times machine construction per generation and counts
// its allocations.
func probeSimNew(m metricSet, pk *trace.Packed, tr *tracer) error {
	const warm, reps = 2, 16
	var ms runtime.MemStats
	for _, name := range generations {
		gen, err := core.ByName(name)
		if err != nil {
			return err
		}
		cfg := sim.ForGeneration(gen)
		build := func() *sim.Sim {
			cur := pk.Cursor()
			return sim.New(cfg, []trace.Source{&cur})
		}
		for i := 0; i < warm; i++ {
			build()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		times := make([]float64, reps)
		for i := range times {
			sp := tr.begin("sim.New."+name, -1)
			t := time.Now()
			build()
			times[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			tr.end(sp)
		}
		runtime.ReadMemStats(&ms)
		m.set("sim.new_us."+name, "us", median(times))
		m.set("sim.new_allocs."+name, "count", float64(ms.Mallocs-mallocs)/reps)
		m.set("sim.new_kb."+name, "KiB", float64(ms.TotalAlloc-bytes)/1024/reps)
	}
	return nil
}

// probeCache feeds the window's stream of cell keys through
// rcache.NewKey, cluster.RouteKey and a cache with the coordinator's
// byte bound.
func probeCache(m metricSet, in layerInput) {
	const maxKeys = 20000
	var specs []rcache.CellSpec
	var stats [][]byte
	for _, s := range in.win.samples {
		for _, ci := range s.cells {
			if len(specs) == maxKeys {
				break
			}
			specs = append(specs, in.p.spec(int(ci)))
			stats = append(stats, in.ref.cells[ci].stats)
		}
	}
	keys := make([]rcache.Key, len(specs))
	sp := in.tr.begin("rcache.NewKey", -1)
	t := time.Now()
	for i, s := range specs {
		keys[i] = rcache.NewKey(s)
	}
	m.set("rcache.key_ns", "ns", float64(time.Since(t).Nanoseconds())/float64(len(specs)))
	in.tr.end(sp)

	sp = in.tr.begin("cluster.RouteKey", -1)
	t = time.Now()
	for _, s := range specs {
		routeSink ^= cluster.RouteKey(s).Hash64()
	}
	m.set("cluster.route_ns", "ns", float64(time.Since(t).Nanoseconds())/float64(len(specs)))
	in.tr.end(sp)

	c, _ := rcache.New(rcache.Config{MaxMemBytes: warmCoordCacheBytes}) // memory-only: cannot fail
	var hitNs, putNs, hits, puts int64
	sp = in.tr.begin("rcache.Cache", -1)
	for i, k := range keys {
		t := time.Now()
		_, ok := c.Get(k)
		d := time.Since(t).Nanoseconds()
		if ok {
			hitNs += d
			hits++
			continue
		}
		t = time.Now()
		c.Put(k, stats[i])
		putNs += time.Since(t).Nanoseconds()
		puts++
	}
	in.tr.end(sp)
	m.set("rcache.get_hit_ns", "ns", ratio(float64(hitNs), float64(hits)))
	m.set("rcache.put_ns", "ns", ratio(float64(putNs), float64(puts)))
}

// routeSink keeps the timed RouteKey calls live.
var routeSink uint64

// probePool runs the cells of the window's first request through
// runner.Pool as the sweep handler does, and reports the pool's time
// beyond a plain loop of sim.New plus RunCtx over the same jobs.
func probePool(ctx context.Context, m metricSet, in layerInput) error {
	if len(in.win.samples) == 0 {
		return nil
	}
	cells := in.win.samples[0].cells
	jobs := make([]runner.Job, len(cells))
	for k, ci := range cells {
		c := in.p.cellAt(int(ci))
		gen, err := core.ByName(c.Config)
		if err != nil {
			return err
		}
		pk := in.ref.cells[ci].pk
		jobs[k] = runner.Job{
			Name:   c.String(),
			Config: sim.ForGeneration(gen),
			Source: func() ([]trace.Source, error) {
				cur := pk.Cursor()
				return []trace.Source{&cur}, nil
			},
			Instructions: in.p.instr,
		}
	}
	// direct runs the same jobs in a plain loop; the two alternate
	// which goes first so neither always inherits the other's heap.
	direct := func() (time.Duration, error) {
		t := time.Now()
		for _, j := range jobs {
			srcs, _ := j.Source()
			if _, err := sim.New(j.Config, srcs).RunCtx(ctx, 0); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	pool := func() (time.Duration, error) {
		sp := in.tr.begin("runner.Pool.Run", -1)
		t := time.Now()
		results := (&runner.Pool{Parallelism: 1}).Run(ctx, jobs)
		d := time.Since(t)
		in.tr.end(sp)
		for _, r := range results {
			if r.Err != nil {
				return 0, r.Err
			}
		}
		return d, nil
	}
	var self []float64
	for rep := 0; rep < 6; rep++ {
		first, second := direct, pool
		if rep%2 == 1 {
			first, second = pool, direct
		}
		a, err := first()
		if err != nil {
			return err
		}
		b, err := second()
		if err != nil {
			return err
		}
		if rep%2 == 1 {
			a, b = b, a
		}
		self = append(self, float64(b-a)/1e6)
	}
	m.set("runner.pool_self_ms", "ms", median(self))
	return nil
}

// probeRunAllocs counts the allocations of RunCtx on up to eight
// cells spread over the workload's grid.
func probeRunAllocs(ctx context.Context, m metricSet, in layerInput) error {
	n := in.p.numCells()
	step := (n + 7) / 8
	var ms runtime.MemStats
	var allocs, cells float64
	for i := 0; i < n; i += step {
		c := in.p.cellAt(i)
		gen, err := core.ByName(c.Config)
		if err != nil {
			return err
		}
		cur := in.ref.cells[i].pk.Cursor()
		s := sim.New(sim.ForGeneration(gen), []trace.Source{&cur})
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := s.RunCtx(ctx, 0); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		allocs += float64(ms.Mallocs - before)
		cells++
	}
	m.set("sim.run_allocs", "count", allocs/cells)
	return nil
}

// probeDispatch times Coordinator.RunSweep with no_cache over two mock
// backends that answer every cell at once with the same stats, so
// only the coordinator's own per-cell cost remains.
func probeDispatch(ctx context.Context, m metricSet, stats []byte, tr *tracer) error {
	resp, err := json.Marshal(server.CellResponse{Stats: stats})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.Health{Status: "ok", Workers: 2, QueueCapacity: 16})
	})
	mux.HandleFunc("POST /v1/cell", func(w http.ResponseWriter, r *http.Request) {
		var req server.CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(resp)
	})
	var urls []string
	var lns []*listener
	defer func() {
		for _, l := range lns {
			l.stop()
		}
	}()
	for i := 0; i < 2; i++ {
		l, err := listen(mux)
		if err != nil {
			return err
		}
		lns = append(lns, l)
		urls = append(urls, l.url)
	}
	coord, err := cluster.New(cluster.Config{Backends: urls, AdmitCellsPerSec: -1, AuditEvery: -1})
	if err != nil {
		return err
	}
	defer coord.Close()
	grid := server.SweepRequest{
		Configs:      []string{"z15", "z14"},
		Workloads:    []string{"loops", "micro", "callret", "patterned"},
		Seeds:        []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Instructions: 10_000,
	}
	cells := len(grid.Configs) * len(grid.Workloads) * len(grid.Seeds)
	var per []float64
	for rep := 0; rep < 12; rep++ {
		sp := tr.begin("cluster.RunSweep", -1)
		t := time.Now()
		r, err := coord.RunSweep(ctx, grid, true, nil)
		d := time.Since(t)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("dispatch probe: %w", err)
		}
		if r.Errors != 0 || len(r.Cells) != cells {
			return fmt.Errorf("dispatch probe: %d errors in %d rows", r.Errors, len(r.Cells))
		}
		if rep >= 2 { // the first sweeps open the connections
			per = append(per, float64(d.Nanoseconds())/1e3/float64(cells))
		}
	}
	m.set("cluster.dispatch_us_per_cell", "us", median(per))
	return nil
}

// probeHealthz measures GET /healthz round trips on one keep-alive
// connection.
func probeHealthz(front string) ([]float64, error) {
	c := newClient()
	defer closeClients([]*client{c})
	var out []float64
	for i := 0; i < 210; i++ {
		t := time.Now()
		if _, err := c.do(http.MethodGet, front+"/healthz", nil); err != nil {
			return nil, err
		}
		if i >= 10 {
			out = append(out, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return out, nil
}
