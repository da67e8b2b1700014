// Command zbench measures the repository's headline performance
// numbers — packed-replay ns/instr, the Source-interface dispatch tax,
// streaming generation cost, full-simulation ns/instr per machine
// generation, the reset of a warm machine and one short pooled cell
// per generation, the row decode and the warm /v1/cell reply, and
// coordinator sweep throughput over 1/2/4 backends — and writes them
// as one schema-versioned JSON document.
//
// The intended workflow is a trajectory: each performance PR runs
// `make bench-json` and commits the resulting BENCH_<pr>.json next to
// the previous ones, so the repo history carries a machine-readable
// record of how the hot path moved. The schema is versioned so later
// tooling can consume old files; fields are only ever added.
//
// Usage:
//
//	zbench                   # print the document to stdout
//	zbench -out BENCH_6.json # write to a file
//	zbench -scale 200000     # instructions per measured operation
//	zbench -only replay      # measure a name-prefix subset
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"zbp/internal/cluster"
	"zbp/internal/core"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/server"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// schema identifies the document layout. Bump only for breaking
// changes; additive fields keep the same version.
const schema = "zbench/1"

// benchDoc is the emitted document.
type benchDoc struct {
	Schema      string       `json:"schema"`
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	Scale       int          `json:"scale"`
	Entries     []benchEntry `json:"entries"`
}

// benchEntry is one measured benchmark.
type benchEntry struct {
	// Name identifies the measurement ("replay/packed", "sim/z15", ...).
	Name string `json:"name"`
	// Instructions is the per-operation instruction count (the -scale).
	Instructions int `json:"instructions"`
	// Iterations is how many operations testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// WallNsPerOp is wall time per operation (one full pass).
	WallNsPerOp int64 `json:"wall_ns_per_op"`
	// NsPerInstr is the headline: wall time per instruction.
	NsPerInstr  float64 `json:"ns_per_instr"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// CellsPerOp is the sweep grid size for cluster entries (additive
	// field; zero for the single-cell benchmarks).
	CellsPerOp int `json:"cells_per_op,omitempty"`
	// Note carries measurement caveats a reader needs to interpret the
	// number honestly (e.g. host CPU count capping real scaling).
	Note string `json:"note,omitempty"`
}

func main() {
	var (
		out   = flag.String("out", "", "output path (default: stdout)")
		scale = flag.Int("scale", 200_000, "instructions per measured operation")
		seed  = flag.Uint64("seed", 42, "workload seed")
		wl    = flag.String("workload", "lspr", "workload for the replay benchmarks")
		only  = flag.String("only", "", "measure only entries whose name has this prefix")
	)
	flag.Parse()

	entries, err := measure(*scale, *seed, *wl, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	doc := benchDoc{
		Schema:      schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Scale:       *scale,
		Entries:     entries,
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "zbench: wrote %d entries to %s\n", len(entries), *out)
}

// measure runs every selected benchmark through testing.Benchmark and
// renders the results as entries. Progress goes to stderr because the
// document may be going to stdout.
func measure(scale int, seed uint64, wl, only string) ([]benchEntry, error) {
	p, err := workload.MakePacked(wl, seed, scale)
	if err != nil {
		return nil, err
	}

	cell, err := workload.MakePacked(wl, seed, cellInstr)
	if err != nil {
		return nil, err
	}

	// instr is the per-operation instruction count; zero for entries
	// that retire none (a reset), which then report no ns/instr.
	type bench struct {
		name  string
		instr int
		note  string
		fn    func(b *testing.B)
	}
	benches := []bench{
		{"replay/packed", scale, "", func(b *testing.B) { replayPacked(b, p, scale) }},
		{"replay/packed-iface", scale, "", func(b *testing.B) { replayIface(b, p, scale) }},
		{"replay/streaming", scale, "", func(b *testing.B) { replayStreaming(b, wl, seed, scale) }},
	}
	for _, gen := range core.Generations() {
		cfg := sim.ForGeneration(gen)
		benches = append(benches, bench{"sim/" + gen.Name, scale, "", func(b *testing.B) { simPacked(b, cfg, p, scale) }})
	}
	for _, gen := range core.Generations() {
		cfg := sim.ForGeneration(gen)
		benches = append(benches, bench{"reset/" + gen.Name, 0,
			"(*Sim).Reset to this generation of a warm machine that has run a z15 cell; ns, B and allocs per reset",
			func(b *testing.B) { resetWarm(b, cfg, cell) }})
	}
	for _, gen := range core.Generations() {
		cfg := sim.ForGeneration(gen)
		benches = append(benches, bench{"cell/" + gen.Name, cellInstr,
			fmt.Sprintf("one %d-instruction sim.RunPooled cell, machine reset included (a sweep-short cell)", cellInstr),
			func(b *testing.B) { cellPooled(b, cfg, cell) }})
	}

	row := rowCell(seed)
	stats, err := rowStats(row)
	if err != nil {
		return nil, err
	}
	benches = append(benches,
		bench{"row/narrow", 0,
			"server.Headline of one canonical z15/loops 10k-instruction payload: the decode behind every sweep row",
			func(b *testing.B) { rowDecode(b, row, stats, server.Headline) }},
		bench{"row/summarize", 0,
			"server.Summarize (the full snapshot decode, the reference) of the same payload",
			func(b *testing.B) { rowDecode(b, row, stats, summarize) }},
		bench{"cell/reply", 0,
			"one warm POST /v1/cell of that cell through the zbpd handler into an httptest recorder: request decode, cache hit, 200 reply",
			func(b *testing.B) { cellReply(b, row) }},
	)

	var entries []benchEntry
	for _, bm := range benches {
		if only != "" && !strings.HasPrefix(bm.name, only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "zbench: %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("%s: benchmark did not run", bm.name)
		}
		e := benchEntry{
			Name:         bm.name,
			Instructions: bm.instr,
			Iterations:   r.N,
			WallNsPerOp:  r.NsPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			Note:         bm.note,
		}
		if bm.instr > 0 {
			e.NsPerInstr = float64(r.NsPerOp()) / float64(bm.instr)
		}
		entries = append(entries, e)
	}
	cl, err := clusterEntries(scale, seed, only)
	if err != nil {
		return nil, err
	}
	return append(entries, cl...), nil
}

// --- coordinator scaling ---------------------------------------------

// clusterEntries measures coordinator sweep throughput against 1, 2,
// and 4 backends, twice:
//
//   - cluster/sweep-N: real in-process zbpd backends, cache-cold
//     (no_cache) sweeps. The work is compute-bound, so wall-clock
//     scaling is capped by the host's physical CPU count — on a 1-CPU
//     box all three land near 1x, and the entry's note says so.
//   - cluster/fabric-N: mock backends with a fixed service time per
//     cell. Backend compute is out of the picture, so this isolates
//     the dispatch fabric — routing, slots, HTTP round-trips — which
//     must scale with backend count regardless of host CPUs.
func clusterEntries(scale int, seed uint64, only string) ([]benchEntry, error) {
	var entries []benchEntry
	if only != "" && !strings.HasPrefix("cluster/", only) && !strings.HasPrefix(only, "cluster") {
		return nil, nil
	}

	realGrid := server.SweepRequest{
		Configs:      []string{"z15"},
		Workloads:    []string{"loops", "micro"},
		Seeds:        []uint64{seed, seed + 1, seed + 2, seed + 3},
		Instructions: scale,
	}
	realCells := len(realGrid.Configs) * len(realGrid.Workloads) * len(realGrid.Seeds)

	// 150 ms keeps the per-cell coordinator CPU cost (a few ms of
	// JSON+HTTP, all serialized on a small host) a rounding error next
	// to the simulated backend service time, so the scaling curve
	// reflects the dispatch fabric rather than the host's core count.
	const fabricService = 150 * time.Millisecond
	const fabricInstr = 1000
	fabricSeeds := make([]uint64, 48)
	for i := range fabricSeeds {
		fabricSeeds[i] = seed + uint64(i)
	}
	fabricGrid := server.SweepRequest{
		Configs:      []string{"z15"},
		Workloads:    []string{"loops"},
		Seeds:        fabricSeeds,
		Instructions: fabricInstr,
	}
	canned, err := fabricStats()
	if err != nil {
		return nil, fmt.Errorf("fabric stats: %w", err)
	}

	for _, n := range []int{1, 2, 4} {
		name := fmt.Sprintf("cluster/sweep-%d", n)
		if only == "" || strings.HasPrefix(name, only) {
			e, err := measureSweep(name, n, realGrid, realCells, true, realBackends)
			if err != nil {
				return nil, err
			}
			e.Note = fmt.Sprintf("cache-cold sweep over %d real in-process backend(s); compute-bound, scaling capped by host CPUs (%d here)", n, runtime.NumCPU())
			entries = append(entries, e)
		}
	}
	for _, n := range []int{1, 2, 4} {
		name := fmt.Sprintf("cluster/fabric-%d", n)
		if only == "" || strings.HasPrefix(name, only) {
			// no_cache keeps every iteration on the dispatch path: the
			// coordinator's own result cache would otherwise serve every
			// op after the first and the entry would measure cache reads.
			e, err := measureSweep(name, n, fabricGrid, len(fabricSeeds), true, func(n int) ([]string, func(), error) {
				return mockBackends(n, fabricService, canned)
			})
			if err != nil {
				return nil, err
			}
			e.Note = fmt.Sprintf("dispatch-fabric scaling over %d mock backend(s) with a fixed %s per-cell service time; isolates coordinator overhead from backend compute", n, fabricService)
			entries = append(entries, e)
		}
	}
	name := "cluster/coord-cache"
	if only == "" || strings.HasPrefix(name, only) {
		e, err := measureCoordCache(name, fabricGrid, len(fabricSeeds), canned)
		if err != nil {
			return nil, err
		}
		e.Note = "warm repeat sweep served entirely from the coordinator result cache; zero backend dispatches per op (verified against backend counters)"
		entries = append(entries, e)
	}
	return entries, nil
}

// measureCoordCache runs the grid once cold to fill the coordinator's
// result cache, then benchmarks repeat sweeps, which must be served
// without a single backend dispatch.
func measureCoordCache(name string, grid server.SweepRequest, cells int, stats json.RawMessage) (benchEntry, error) {
	urls, stop, err := mockBackends(2, 20*time.Millisecond, stats)
	if err != nil {
		return benchEntry{}, err
	}
	defer stop()
	coord, err := cluster.New(cluster.Config{
		Backends:         urls,
		Router:           "rendezvous",
		AdmitCellsPerSec: -1,
		HedgeDelay:       -1,
		AuditEvery:       -1, // audits re-dispatch for real and would count as backend traffic
	})
	if err != nil {
		return benchEntry{}, err
	}
	defer coord.Close()

	fmt.Fprintf(os.Stderr, "zbench: %s...\n", name)
	cold, err := coord.RunSweep(context.Background(), grid, false, nil)
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: cold pass: %w", name, err)
	}
	if cold.Errors != 0 {
		return benchEntry{}, fmt.Errorf("%s: cold pass: %d of %d cells errored", name, cold.Errors, cells)
	}
	dispatched := func() int64 {
		var n int64
		for _, b := range coord.Backends() {
			n += b.Dispatched
		}
		return n
	}
	baseline := dispatched()

	var failure error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cached := 0
			resp, err := coord.RunSweep(context.Background(), grid, false, func(ev server.CellEvent) {
				if ev.Cached {
					cached++
				}
			})
			if err != nil {
				failure = err
				b.FailNow()
			}
			if resp.Errors != 0 || cached != cells {
				failure = fmt.Errorf("warm sweep not fully cache-served: %d errors, %d/%d cached",
					resp.Errors, cached, cells)
				b.FailNow()
			}
		}
	})
	if failure != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", name, failure)
	}
	if r.N == 0 {
		return benchEntry{}, fmt.Errorf("%s: benchmark did not run", name)
	}
	if d := dispatched() - baseline; d != 0 {
		return benchEntry{}, fmt.Errorf("%s: %d backend dispatches during warm passes, want 0", name, d)
	}
	instr := cells * grid.Instructions
	return benchEntry{
		Name:         name,
		Instructions: instr,
		Iterations:   r.N,
		WallNsPerOp:  r.NsPerOp(),
		NsPerInstr:   float64(r.NsPerOp()) / float64(instr),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		CellsPerOp:   cells,
	}, nil
}

// measureSweep boots a fleet, runs the grid as one coordinator sweep
// per benchmark operation, and tears the fleet down.
func measureSweep(name string, n int, grid server.SweepRequest, cells int, noCache bool, boot func(int) ([]string, func(), error)) (benchEntry, error) {
	urls, stop, err := boot(n)
	if err != nil {
		return benchEntry{}, err
	}
	defer stop()
	coord, err := cluster.New(cluster.Config{
		Backends:         urls,
		Router:           "round-robin", // even spread: cache affinity buys nothing cache-cold
		AdmitCellsPerSec: -1,            // admission off: the bench is the load generator
		HedgeDelay:       -1,            // hedging off: duplicates would blur per-backend cost
	})
	if err != nil {
		return benchEntry{}, err
	}
	defer coord.Close()

	fmt.Fprintf(os.Stderr, "zbench: %s...\n", name)
	var failure error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := coord.RunSweep(context.Background(), grid, noCache, nil)
			if err != nil {
				failure = err
				b.FailNow()
			}
			if resp.Errors != 0 {
				failure = fmt.Errorf("%d of %d cells errored", resp.Errors, cells)
				b.FailNow()
			}
		}
	})
	if failure != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", name, failure)
	}
	if r.N == 0 {
		return benchEntry{}, fmt.Errorf("%s: benchmark did not run", name)
	}
	instr := cells * grid.Instructions
	return benchEntry{
		Name:         name,
		Instructions: instr,
		Iterations:   r.N,
		WallNsPerOp:  r.NsPerOp(),
		NsPerInstr:   float64(r.NsPerOp()) / float64(instr),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		CellsPerOp:   cells,
	}, nil
}

// realBackends boots n full zbpd single-box servers on loopback.
func realBackends(n int) ([]string, func(), error) {
	urls := make([]string, 0, n)
	var closers []func()
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{Workers: 2, QueueDepth: 256, AuditEvery: -1})
		if err != nil {
			for _, c := range closers {
				c()
			}
			return nil, nil, err
		}
		ts := httptest.NewServer(s.Handler())
		urls = append(urls, ts.URL)
		closers = append(closers, func() { ts.Close(); s.Close() })
	}
	return urls, func() {
		for _, c := range closers {
			c()
		}
	}, nil
}

// mockBackends boots n fake backends that accept any cell, sleep the
// fixed service time, and return the canned stats blob.
func mockBackends(n int, service time.Duration, stats json.RawMessage) ([]string, func(), error) {
	resp, err := json.Marshal(server.CellResponse{Stats: stats})
	if err != nil {
		return nil, nil, err
	}
	urls := make([]string, 0, n)
	var closers []func()
	for i := 0; i < n; i++ {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(server.Health{Status: "ok", Workers: 4, QueueCapacity: 64})
		})
		mux.HandleFunc("POST /v1/cell", func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			time.Sleep(service)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(resp)
		})
		ts := httptest.NewServer(mux)
		urls = append(urls, ts.URL)
		closers = append(closers, ts.Close)
	}
	return urls, func() {
		for _, c := range closers {
			c()
		}
	}, nil
}

// fabricStats builds the minimal stats document the coordinator's
// Headline consumes. The fabric benchmark measures dispatch, not
// payload parsing, so the blob carries exactly the summarized metrics.
func fabricStats() (json.RawMessage, error) {
	return json.Marshal(metrics.Snapshot{
		SchemaVersion: metrics.SchemaVersion,
		Counters:      map[string]int64{"sim.cycles": 1200},
		Gauges: map[string]float64{
			"sim.instructions": 1000,
			"sim.branches":     200,
			"sim.mpki":         4.2,
			"sim.ipc":          0.9,
			"sim.accuracy":     0.97,
		},
	})
}

// replayPacked drains the packed cursor through the concrete
// *trace.Cursor.Next — the monomorphized path the cycle loop's
// front end takes. The loop body mirrors BenchmarkPackedReplay/packed:
// the checksum keeps the record loads live.
func replayPacked(b *testing.B, p *trace.Packed, n int) {
	b.ReportAllocs()
	cur := p.Cursor()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		cur.Reset()
		for j := 0; j < n; j++ {
			r, ok := cur.Next()
			if !ok {
				b.Fatalf("cursor ended after %d of %d records", j, n)
			}
			sum += uint64(r.Addr) + uint64(r.Len())
		}
	}
	if sum == 0 {
		b.Fatal("replay checksum is zero")
	}
}

// replayIface drains the same cursor through the trace.Source
// interface, keeping the dispatch tax visible in the trajectory. The
// drain lives behind a noinline boundary so the compiler cannot
// devirtualize the call back into the concrete cursor path.
func replayIface(b *testing.B, p *trace.Packed, n int) {
	b.ReportAllocs()
	cur := p.Cursor()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		cur.Reset()
		s, ok := drainSource(&cur, n)
		if !ok {
			b.Fatalf("source ended before %d records", n)
		}
		sum += s
	}
	if sum == 0 {
		b.Fatal("replay checksum is zero")
	}
}

//go:noinline
func drainSource(src trace.Source, n int) (uint64, bool) {
	var sum uint64
	for j := 0; j < n; j++ {
		r, ok := src.Next()
		if !ok {
			return sum, false
		}
		sum += uint64(r.Addr) + uint64(r.Len())
	}
	return sum, true
}

// replayStreaming regenerates the workload per operation — the cost a
// sweep pays per design point without materialize-once.
func replayStreaming(b *testing.B, wl string, seed uint64, n int) {
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		src, err := workload.Make(wl, seed)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			r, ok := src.Next()
			if !ok {
				b.Fatalf("source ended after %d of %d records", j, n)
			}
			sum += uint64(r.Addr) + uint64(r.Len())
		}
	}
	if sum == 0 {
		b.Fatal("replay checksum is zero")
	}
}

// rowCell is the cell of the row/* and cell/reply entries, a
// warm-repeat benchmark cell.
func rowCell(seed uint64) rcache.CellSpec {
	return rcache.CellSpec{Config: "z15", Workload: "loops", Seed: seed, Instructions: 10_000}
}

// rowStats computes the canonical stats payload of one cell.
func rowStats(c rcache.CellSpec) ([]byte, error) {
	p, err := workload.MakePacked(c.Workload, c.Seed, c.Instructions)
	if err != nil {
		return nil, err
	}
	cur := p.Cursor()
	res, err := sim.RunPooled(context.Background(), sim.Z15(), []trace.Source{&cur}, 0)
	if err != nil {
		return nil, err
	}
	return res.StatsJSON()
}

func summarize(c rcache.CellSpec, stats []byte) (server.CellSummary, error) {
	_, sum, err := server.Summarize(c, stats)
	return sum, err
}

// rowDecode times one decode of a payload into its row's numbers.
func rowDecode(b *testing.B, c rcache.CellSpec, stats []byte, decode func(rcache.CellSpec, []byte) (server.CellSummary, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := decode(c, stats)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Instructions != int64(c.Instructions) {
			b.Fatalf("decoded %d instructions, want %d", sum.Instructions, c.Instructions)
		}
	}
}

// cellReply serves one /v1/cell request per operation from a warm
// result cache, in process: the handler's whole path without a socket.
func cellReply(b *testing.B, c rcache.CellSpec) {
	s, err := server.New(server.Config{Workers: 1, AuditEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	seed := c.Seed
	body, err := json.Marshal(server.CellRequest{SimulateRequest: server.SimulateRequest{
		Config: c.Config, Workload: c.Workload, Seed: &seed, Instructions: c.Instructions,
	}})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cell", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	serve() // fills the cache
	hits := s.Cache().Hits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if got := s.Cache().Hits() - hits; got != int64(b.N) {
		b.Fatalf("%d cache hits in %d replies", got, b.N)
	}
}

// cellInstr is the per-cell instruction count of the cell/<gen>
// entries, the size of a sweep-short benchmark cell.
const cellInstr = 5_000

// resetWarm times (*Sim).Reset of a machine that has already run a
// z15 cell, the largest generation, so every table has its storage
// and holds stale contents: the cost a pooled cell pays before its
// first cycle.
func resetWarm(b *testing.B, cfg sim.Config, p *trace.Packed) {
	cur := p.Cursor()
	m := sim.New(sim.Z15(), []trace.Source{&cur})
	if _, err := m.RunCtx(context.Background(), 0); err != nil {
		b.Fatal(err)
	}
	srcs := []trace.Source{&cur}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(cfg, srcs)
	}
}

// cellPooled runs one short cell per operation through sim.RunPooled,
// the path a sweep cell takes: a machine from the pool, reset, run.
func cellPooled(b *testing.B, cfg sim.Config, p *trace.Packed) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := p.Cursor()
		res, err := sim.RunPooled(context.Background(), cfg, []trace.Source{&cur}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Instructions() != int64(p.Len()) {
			b.Fatalf("retired %d of %d instructions", res.Instructions(), p.Len())
		}
	}
}

// simPacked runs one full hook-free simulation per operation over a
// fresh cursor on the shared packed buffer.
func simPacked(b *testing.B, cfg sim.Config, p *trace.Packed, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := p.Cursor()
		res := sim.RunWorkload(cfg, &cur, n)
		if res.Instructions() < int64(n)-1000 {
			b.Fatalf("retired %d of %d instructions", res.Instructions(), n)
		}
	}
}
