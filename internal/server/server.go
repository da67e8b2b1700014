// Package server implements zbpd, the always-on simulation service:
// an HTTP/JSON front end over the repository's trace-driven predictor
// model. It turns the batch pipeline — materialize-once workload
// cache, bounded runner pool, cancellable sim.RunCtx — into a
// long-running process with per-request deadlines, queue backpressure
// (HTTP 429), Prometheus metrics and graceful drain on shutdown.
//
// Endpoints:
//
//	POST   /v1/simulate          one run: config preset + workload + seed + budget
//	POST   /v1/sweep             a small parameter grid, one result row per cell
//	POST   /v1/cell              one cell through the result cache (coordinator protocol)
//	POST   /v1/jobs              submit an async simulate/sweep/diff job
//	GET    /v1/jobs/{id}         job status, per-cell progress, result when done
//	GET    /v1/jobs/{id}/events  JSONL progress stream (live + replayed history)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /healthz              liveness + queue occupancy
//	GET    /metrics              live registry in Prometheus text format
//
// Async jobs route their cells through a content-addressed result
// cache (internal/rcache): the simulator is deterministic, so a
// repeated (config, workload, seed, budget) cell is served from the
// cache in microseconds with zero simulated cycles. A background
// auditor recomputes a sampled fraction of cache hits through
// internal/equiv and reports divergence — poisoned, stale, or
// corrupted entries — as zbpd_cache_audit_failures_total.
//
// The request surface itself is the service front (front.go), shared
// with the cluster coordinator. Server is the front's local executor:
// the bounded queue, the workload cache and sim.RunPooled.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"zbp/internal/core"
	"zbp/internal/equiv"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

var (
	errQueueFull    = errors.New("server: job queue full")
	errShuttingDown = errors.New("server: shutting down")
)

// Config sizes the service. The zero value is usable: every field has
// a production-lean default applied by New.
type Config struct {
	// Workers is the number of simulations executing concurrently
	// (queue consumers). Default: GOMAXPROCS.
	Workers int
	// QueueDepth is how many accepted requests may wait beyond the
	// ones running before submissions are answered 429. Default: 16.
	QueueDepth int
	// MaxBodyBytes bounds request bodies. Default: 1 MiB.
	MaxBodyBytes int64
	// MaxInstructions bounds the per-thread instruction budget of one
	// request; it is also the materialized-trace size cap. Default:
	// 20M.
	MaxInstructions int
	// DefaultInstructions is used when a request omits the budget.
	// Default: 1M.
	DefaultInstructions int
	// MaxSweepCells bounds config x workload x seed grid sizes.
	// Default: 64.
	MaxSweepCells int
	// DefaultTimeout bounds a request's simulation time when the
	// request does not set timeout_ms. Default: 60s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts. It is also the
	// default (and the clamp) for async job deadlines: jobs exist to
	// outlive the HTTP timeout, so they get the ceiling, not the
	// per-request default. Default: 5m.
	MaxTimeout time.Duration

	// MaxJobs bounds the async job table (queued + running + finished
	// awaiting TTL eviction); a full table answers submissions 429.
	// Default: 64.
	MaxJobs int
	// JobTTL is how long a finished job stays pollable before the
	// table evicts it (GET then answers 404). Default: 15m.
	JobTTL time.Duration

	// CacheMemBytes bounds the in-memory layer of the result cache.
	// Default: 256 MiB.
	CacheMemBytes int64
	// CacheDir, when set, persists cache entries on disk (atomic
	// write-then-rename; entries survive restarts).
	CacheDir string
	// CacheDiskBytes bounds the on-disk layer. Default: 1 GiB.
	CacheDiskBytes int64
	// AuditEvery samples every Nth cache hit for background
	// recomputation through internal/equiv (the cache-poisoning
	// detector). 0 means the default of 16; negative disables
	// auditing. Default: 16.
	AuditEvery int

	// TraceDir, when set, allows file-backed workload names (file:<path>
	// and spec:<path>) in requests: paths resolve relative to this
	// directory and every referenced file — including files a spec
	// document points at — must stay inside it. Empty (the default)
	// rejects path-backed names entirely: a network request must never
	// make the server read arbitrary local files.
	TraceDir string

	// now supplies the clock for the job table; tests swap in a fake
	// to drive TTL eviction deterministically.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInstructions <= 0 {
		c.MaxInstructions = 20_000_000
	}
	if c.DefaultInstructions <= 0 {
		c.DefaultInstructions = 1_000_000
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.CacheMemBytes <= 0 {
		c.CacheMemBytes = 256 << 20
	}
	if c.CacheDiskBytes <= 0 {
		c.CacheDiskBytes = 1 << 30
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 16
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is zbpd: the shared front over the local executor — the
// bounded queue and the shared workload cache.
type Server struct {
	*Front
	cfg Config
	mz  *workload.Materializer
	q   *queue

	// Executor-side counters, exported via /metrics next to the
	// front's.
	instructions    atomic.Int64
	inflight        atomic.Int64
	diffDivergences atomic.Int64
	// fastCoreRuns counts every simulation the service ran to
	// completion (simulate runs, sweep cells, cache misses). It keeps
	// its historical series name, zbpd_fast_core_runs_total, from when
	// a second cycle loop existed; a resubmission served from the cache
	// leaves it unchanged.
	fastCoreRuns atomic.Int64

	// runNanosEWMA tracks a smoothed per-task queue-slot duration (ns),
	// feeding the Retry-After estimate on 429 responses.
	runNanosEWMA atomic.Int64
}

// New builds a server and starts its worker pool plus the cache-audit
// loop. Callers must Close it (after draining the HTTP layer) to stop
// the workers. The only construction failure is an unusable cache
// directory.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg: cfg.withDefaults(),
		mz:  workload.NewMaterializer(),
	}
	var err error
	if s.cfg.TraceDir != "" {
		// Absolutize once so the containment check in resolveTracePath is
		// a plain prefix comparison regardless of the server's cwd.
		s.cfg.TraceDir, err = filepath.Abs(s.cfg.TraceDir)
		if err != nil {
			return nil, fmt.Errorf("server: trace dir: %w", err)
		}
	}
	c := s.cfg
	s.Front, err = NewFront(Role{
		Service: "zbpd", Noun: "server", CachePrefix: "zbpd.cache_",
		FailStatus:          http.StatusInternalServerError,
		MaxBodyBytes:        c.MaxBodyBytes,
		MaxInstructions:     c.MaxInstructions,
		DefaultInstructions: c.DefaultInstructions,
		MaxSweepCells:       c.MaxSweepCells,
		DefaultTimeout:      c.DefaultTimeout,
		MaxTimeout:          c.MaxTimeout,
		MaxJobs:             c.MaxJobs,
		JobTTL:              c.JobTTL,
		Cache:               rcache.Config{MaxMemBytes: c.CacheMemBytes, Dir: c.CacheDir, MaxDiskBytes: c.CacheDiskBytes},
		AuditEvery:          c.AuditEvery,
		Now:                 c.now,
	}, s)
	if err != nil {
		return nil, err
	}
	s.q = newQueue(c.Workers, c.QueueDepth)
	s.registerMetrics()
	s.HandleFunc("POST /v1/cell", s.handleCell)
	s.HandleFunc("POST /v1/diff", s.handleDiff)
	s.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Close stops accepting queue submissions and waits for every
// accepted simulation — sync requests and async jobs — to finish.
// Call it after http.Server.Shutdown has drained the handlers.
func (s *Server) Close() {
	s.Front.Close()
	s.q.close()
}

// registerMetrics adds the local executor's series to the front's.
func (s *Server) registerMetrics() {
	reg := s.Registry()
	gauge := func(name string, v func() int64) {
		reg.Gauge(name, func() float64 { return float64(v()) })
	}
	gauge("zbpd.instructions_total", s.instructions.Load)
	gauge("zbpd.inflight", s.inflight.Load)
	gauge("zbpd.sweep_cell_errors_total", s.CellErrors.Load)
	gauge("zbpd.diff_divergences_total", s.diffDivergences.Load)
	gauge("zbpd.fast_core_runs_total", s.fastCoreRuns.Load)
	reg.Gauge("zbpd.run_seconds_ewma", s.RunSecondsEWMA)
	gauge("zbpd.queue_depth", func() int64 { return int64(s.q.depth()) })
	gauge("zbpd.queue_capacity", func() int64 { return int64(s.cfg.QueueDepth) })
	gauge("zbpd.workers", func() int64 { return int64(s.cfg.Workers) })
	gauge("zbpd.mat_traces", func() int64 { return int64(s.mz.Count()) })
	gauge("zbpd.mat_bytes", func() int64 { return int64(s.mz.FootprintBytes()) })
	gauge("zbpd.cache_puts_total", s.cache.Puts)
	gauge("zbpd.cache_evictions_total", s.cache.Evictions)
	gauge("zbpd.cache_coalesced_total", s.cache.Coalesced)
	gauge("zbpd.cache_disk_hits_total", s.cache.DiskHits)
	gauge("zbpd.cache_disk_errors_total", s.cache.DiskErrors)
	gauge("zbpd.cache_bytes", s.cache.MemBytes)
}

// --- request/response schemas -----------------------------------------

// SimulateRequest is the POST /v1/simulate body.
type SimulateRequest struct {
	// Config names a machine preset: zEC12, z13, z14, z15. Default
	// z15.
	Config string `json:"config,omitempty"`
	// Workload names a synthetic workload (see zbp.Workloads).
	Workload string `json:"workload"`
	// Workload2, when set, runs on the second hardware thread (SMT2)
	// with seed+1.
	Workload2 string `json:"workload2,omitempty"`
	// Seed defaults to 42, the repository's convention.
	Seed *uint64 `json:"seed,omitempty"`
	// Instructions is the per-thread budget; defaults to the server's
	// DefaultInstructions and is capped at MaxInstructions.
	Instructions int `json:"instructions,omitempty"`
	// TimeoutMs bounds simulation wall time for this request (clamped
	// to the server's MaxTimeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// FullStats includes the schema-versioned stats snapshot (the
	// `zsim -stats-json` payload) in the response.
	FullStats bool `json:"full_stats,omitempty"`
}

// SimulateResponse is the POST /v1/simulate reply.
type SimulateResponse struct {
	Config       string            `json:"config"`
	Workload     string            `json:"workload"`
	Workload2    string            `json:"workload2,omitempty"`
	Seed         uint64            `json:"seed"`
	Instructions int64             `json:"instructions"`
	Branches     int64             `json:"branches"`
	Cycles       int64             `json:"cycles"`
	MPKI         float64           `json:"mpki"`
	IPC          float64           `json:"ipc"`
	Accuracy     float64           `json:"accuracy"`
	Truncated    bool              `json:"truncated"`
	Stats        *metrics.Snapshot `json:"stats,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: the cartesian product of
// Configs x Workloads x Seeds, each cell one bounded simulation.
type SweepRequest struct {
	Configs      []string `json:"configs,omitempty"` // default ["z15"]
	Workloads    []string `json:"workloads"`         // required
	Seeds        []uint64 `json:"seeds,omitempty"`   // default [42]
	Instructions int      `json:"instructions,omitempty"`
	TimeoutMs    int      `json:"timeout_ms,omitempty"`
}

// SweepCell is one grid point's outcome.
type SweepCell struct {
	Config       string  `json:"config"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	MPKI         float64 `json:"mpki"`
	IPC          float64 `json:"ipc"`
	Accuracy     float64 `json:"accuracy"`
	Truncated    bool    `json:"truncated"`
	Error        string  `json:"error,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply, cells in grid order
// (configs outermost, seeds innermost).
type SweepResponse struct {
	Cells []SweepCell `json:"cells"`
	// Errors counts cells whose Error field is set, so clients can spot
	// partial failure without scanning the grid.
	Errors int `json:"errors"`
}

// --- compute ----------------------------------------------------------

// Simulate runs one sync simulation in a queue slot on a pooled
// machine. Unlike a simulate job it bypasses the result cache.
func (s *Server) Simulate(ctx context.Context, req SimulateRequest, seed uint64) (SimulateResponse, error) {
	spec := rcache.CellSpec{
		Config: req.Config, Workload: req.Workload, Workload2: req.Workload2,
		Seed: seed, Instructions: req.Instructions,
	}
	var (
		res    sim.Result
		runErr error
	)
	if err := s.enqueue(ctx, func(ctx context.Context) {
		res, runErr = s.runCellSim(ctx, spec)
	}); err != nil {
		return SimulateResponse{}, err
	}
	if runErr == nil && ctx.Err() != nil {
		// The task was skipped while queued: the deadline or the client
		// beat the workers to it.
		runErr = ctx.Err()
	}
	if runErr != nil {
		return SimulateResponse{}, runErr
	}
	s.instructions.Add(res.Instructions())
	s.fastCoreRuns.Add(1)
	resp := SimulateResponse{
		Config:       req.Config,
		Workload:     req.Workload,
		Workload2:    req.Workload2,
		Seed:         seed,
		Instructions: res.Instructions(),
		Branches:     res.Branches(),
		Cycles:       res.Cycles,
		MPKI:         res.MPKI(),
		IPC:          res.IPC(),
		Accuracy:     res.Accuracy(),
		Truncated:    res.Truncated,
	}
	if req.FullStats {
		snap := res.StatsSnapshot()
		resp.Stats = &snap
	}
	return resp, nil
}

// runCellSim materializes the cell's workload(s) through the shared
// trace cache and runs one cancellable simulation on a pooled machine.
// This is the single compute path under the sync handlers, the async
// jobs, and the result cache's misses. By convention Workload2 runs at
// Seed+1.
func (s *Server) runCellSim(ctx context.Context, spec rcache.CellSpec) (sim.Result, error) {
	gen, err := core.ByName(spec.Config)
	if err != nil {
		return sim.Result{}, err
	}
	p, err := s.mz.Get(spec.Workload, spec.Seed, spec.Instructions)
	if err != nil {
		return sim.Result{}, err
	}
	cur := p.Cursor()
	srcs := []trace.Source{&cur}
	if spec.Workload2 != "" {
		p2, err := s.mz.Get(spec.Workload2, spec.Seed+1, spec.Instructions)
		if err != nil {
			return sim.Result{}, err
		}
		cur2 := p2.Cursor()
		srcs = append(srcs, &cur2)
	}
	return sim.RunPooled(ctx, sim.ForGeneration(gen), srcs, 0)
}

// computeCellStats runs one cell's simulation and renders the
// canonical stats JSON — the bytes the result cache stores and the
// equiv auditor re-derives. Truncated results are an error: a partial
// run is neither cacheable nor a valid sweep row.
func (s *Server) computeCellStats(ctx context.Context, cell rcache.CellSpec) ([]byte, error) {
	res, err := s.runCellSim(ctx, cell)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, errors.New("truncated result is not cacheable")
	}
	s.instructions.Add(res.Instructions())
	s.fastCoreRuns.Add(1)
	return res.StatsJSON()
}

// Sweep runs a sync sweep grid in one queue slot through the runner
// pool, bypassing the result cache.
func (s *Server) Sweep(ctx context.Context, req SweepRequest) (SweepResponse, error) {
	type cellKey struct {
		config   string
		workload string
		seed     uint64
	}
	cells := len(req.Configs) * len(req.Workloads) * len(req.Seeds)
	keys := make([]cellKey, 0, cells)
	jobs := make([]runner.Job, 0, cells)
	for _, name := range req.Configs {
		gen, _ := core.ByName(name) // validated by the front
		cfg := sim.ForGeneration(gen)
		for _, wl := range req.Workloads {
			for _, seed := range req.Seeds {
				keys = append(keys, cellKey{name, wl, seed})
				jobs = append(jobs, runner.Job{
					Name:   fmt.Sprintf("%s/%s/%d", name, wl, seed),
					Config: cfg,
					// Lazy source: materialization happens inside the
					// worker under the request context's queue slot,
					// shared through the singleflight cache.
					Source: func() ([]trace.Source, error) {
						p, err := s.mz.Get(wl, seed, req.Instructions)
						if err != nil {
							return nil, err
						}
						c := p.Cursor()
						return []trace.Source{&c}, nil
					},
					Instructions: req.Instructions,
				})
			}
		}
	}

	var results []runner.Result
	if err := s.enqueue(ctx, func(ctx context.Context) {
		// The sweep occupies exactly one queue slot; Parallelism 1
		// keeps total simulation concurrency equal to the worker
		// count no matter how many cells the grid has.
		pool := runner.Pool{Parallelism: 1}
		results = pool.Run(ctx, jobs)
	}); err != nil {
		return SweepResponse{}, err
	}
	if results == nil {
		// Skipped while queued.
		return SweepResponse{}, ctx.Err()
	}
	resp := SweepResponse{Cells: make([]SweepCell, len(results))}
	for i, r := range results {
		cell := SweepCell{
			Config:       keys[i].config,
			Workload:     keys[i].workload,
			Seed:         keys[i].seed,
			Instructions: r.Res.Instructions(),
			Cycles:       r.Res.Cycles,
			MPKI:         r.Res.MPKI(),
			IPC:          r.Res.IPC(),
			Accuracy:     r.Res.Accuracy(),
			Truncated:    r.Res.Truncated,
		}
		if r.Err != nil {
			cell.Error = r.Err.Error()
			resp.Errors++
			s.CellErrors.Add(1)
		} else {
			s.fastCoreRuns.Add(1)
		}
		s.instructions.Add(cell.Instructions)
		resp.Cells[i] = cell
	}
	return resp, nil
}

// Health is the GET /healthz body: liveness plus the load signals a
// cluster coordinator's least-loaded router needs, as cheap JSON — no
// Prometheus text parsing on the polling path. /metrics stays the
// complete (and unchanged) surface; this is the hot subset.
type Health struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Inflight      int64  `json:"inflight"`
	// RunSecondsEWMA is the smoothed per-queue-slot task duration; a
	// coordinator multiplies it by queue occupancy to estimate wait.
	RunSecondsEWMA float64 `json:"run_seconds_ewma"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Health{
		Status:         "ok",
		Workers:        s.cfg.Workers,
		QueueDepth:     s.q.depth(),
		QueueCapacity:  s.cfg.QueueDepth,
		Inflight:       s.inflight.Load(),
		RunSecondsEWMA: s.RunSecondsEWMA(),
	})
}

// --- the local executor -----------------------------------------------

// enqueue pushes run through the bounded queue and tracks the inflight
// gauge around it. Executed task durations feed the EWMA behind the
// Retry-After estimate.
func (s *Server) enqueue(ctx context.Context, run func(ctx context.Context)) error {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	return s.q.submitWait(ctx, func(ctx context.Context) {
		start := time.Now()
		run(ctx)
		s.observeRun(time.Since(start))
	})
}

// observeRun folds one task duration into the smoothed estimate
// (alpha = 1/8). A CAS loop keeps concurrent workers from losing
// updates; the estimate only steers Retry-After, so contention is
// cheap and precision irrelevant.
func (s *Server) observeRun(d time.Duration) {
	for {
		old := s.runNanosEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if s.runNanosEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a queue slot will open: the queued
// work plus the incoming task, spread over the workers, at the smoothed
// per-task duration (1s until the first task completes). Clamped to
// [1, 60] so clients neither hammer a busy server nor give up on a
// briefly-full queue.
func (s *Server) retryAfterSeconds() int {
	avg := time.Duration(s.runNanosEWMA.Load())
	if avg <= 0 {
		avg = time.Second
	}
	est := time.Duration(s.q.depth()+1) * avg / time.Duration(s.cfg.Workers)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Admit admits everything: the bounded queue is the single box's
// backpressure.
func (s *Server) Admit(int) (int, error) { return 0, nil }

// RetryAfter is the queued-work estimate.
func (s *Server) RetryAfter() int { return s.retryAfterSeconds() }

// RunSecondsEWMA is the smoothed per-queue-slot task duration.
func (s *Server) RunSecondsEWMA() float64 {
	return time.Duration(s.runNanosEWMA.Load()).Seconds()
}

// Schedule runs a job's body in a queue slot. The job table is the
// admission control for async work, so a momentarily full queue is
// waited out with a short backoff rather than surfaced as 429 — the
// client already holds a job ID.
func (s *Server) Schedule(ctx context.Context, run func(ctx context.Context)) error {
	for {
		err := s.enqueue(ctx, run)
		if !errors.Is(err, errQueueFull) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// Compute computes a cache miss directly: a job already holds its queue
// slot.
func (s *Server) Compute() CellFunc {
	return func(ctx context.Context, cell rcache.CellSpec, _ bool) (CellOutcome, error) {
		b, err := s.computeCellStats(ctx, cell)
		return CellOutcome{Stats: b}, err
	}
}

// Audit recomputes a sampled hit from scratch on a fresh machine
// through equiv.Audit — a deliberately separate path from the one that
// filled the cache.
func (s *Server) Audit(ctx context.Context, cell rcache.CellSpec, stats []byte) ([]string, error) {
	ac := equiv.AuditCell{
		Config: cell.Config, Workload: cell.Workload, Workload2: cell.Workload2,
		Seed: cell.Seed, Instructions: cell.Instructions,
	}
	findings, err := equiv.Audit(ctx, ac, stats)
	if err != nil {
		return nil, fmt.Errorf("cell %s: %w", ac.Name(), err)
	}
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.Cell + ": " + f.Detail
	}
	return out, nil
}

// ResolvePath confines one path-backed workload name to the TraceDir
// allowlist and returns it with the path absolutized, so the cache,
// materializer, and audit all see one canonical name. Spec documents
// are additionally opened so every trace file they reference is
// confined too — the spec itself being inside the directory does not
// make its pointers trustworthy.
func (s *Server) ResolvePath(name string) (string, error) {
	if s.cfg.TraceDir == "" {
		return "", errors.New("file-backed workloads are disabled (start the server with a trace dir)")
	}
	prefix := workload.FilePrefix
	if strings.HasPrefix(name, workload.SpecPrefix) {
		prefix = workload.SpecPrefix
	}
	abs, err := s.resolveTracePath(name[len(prefix):])
	if err != nil {
		return "", err
	}
	if prefix == workload.SpecPrefix {
		files, err := workload.SpecFiles(abs)
		if err != nil {
			return "", err
		}
		for _, f := range files {
			if _, err := s.resolveTracePath(f); err != nil {
				return "", err
			}
		}
	}
	return prefix + abs, nil
}

// resolveTracePath resolves ref against the trace dir (unless already
// absolute) and rejects any result outside it, including `..` escapes
// and absolute paths elsewhere.
func (s *Server) resolveTracePath(ref string) (string, error) {
	abs := ref
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(s.cfg.TraceDir, abs)
	}
	abs = filepath.Clean(abs)
	if abs != s.cfg.TraceDir && !strings.HasPrefix(abs, s.cfg.TraceDir+string(filepath.Separator)) {
		return "", fmt.Errorf("trace path %q escapes the allowlisted trace directory", ref)
	}
	return abs, nil
}
