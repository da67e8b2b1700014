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
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zbp/internal/core"
	"zbp/internal/jobs"
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

// Server is the zbpd service state: the bounded queue, the shared
// workload cache, the async job table with its result cache, and the
// live metrics registry.
type Server struct {
	cfg   Config
	mz    *workload.Materializer
	q     *queue
	mux   *http.ServeMux
	reg   *metrics.Registry
	jobs  *jobs.Store
	cache *rcache.Cache

	// baseCtx parents every async job context; Drain/Close cancel it,
	// which cooperatively stops running jobs and the audit loop.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// asyncWG tracks job-runner goroutines and the audit loop so
	// Close can wait for them before draining the queue.
	asyncWG sync.WaitGroup

	// Live service counters, exported via /metrics. Atomics because
	// handlers bump them concurrently with registry snapshots.
	requests        atomic.Int64
	completed       atomic.Int64
	rejected        atomic.Int64
	canceled        atomic.Int64
	failed          atomic.Int64
	instructions    atomic.Int64
	inflight        atomic.Int64
	sweepCellErrors atomic.Int64
	diffDivergences atomic.Int64
	// fastCoreRuns counts simulations that executed on the specialized
	// no-sink replay loop (sim.Result.FastCore). The service never
	// attaches an EventSink, so in a healthy deployment this tracks
	// completed simulate runs plus sweep cells; a drop to zero means a
	// code change knocked the hot path off the fast core.
	fastCoreRuns atomic.Int64

	// runNanosEWMA tracks a smoothed per-task queue-slot duration (ns),
	// feeding the Retry-After estimate on 429 responses.
	runNanosEWMA atomic.Int64

	// Async job counters (terminal-state transitions live in the jobs
	// store; these are the submission-side tallies).
	jobsSubmitted atomic.Int64

	// Cache-audit pipeline state; see audit.go.
	auditHits     atomic.Int64
	audits        atomic.Int64
	auditFailures atomic.Int64
	auditErrors   atomic.Int64
	auditDropped  atomic.Int64
	auditCh       chan auditTask
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
	s.cache, err = rcache.New(rcache.Config{
		MaxMemBytes:  s.cfg.CacheMemBytes,
		Dir:          s.cfg.CacheDir,
		MaxDiskBytes: s.cfg.CacheDiskBytes,
	})
	if err != nil {
		return nil, err
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.jobs = jobs.NewStore(jobs.Options{
		MaxJobs: s.cfg.MaxJobs,
		TTL:     s.cfg.JobTTL,
		Now:     s.cfg.now,
	})
	s.q = newQueue(s.cfg.Workers, s.cfg.QueueDepth)
	s.reg = s.buildRegistry()
	if s.cfg.AuditEvery > 0 {
		s.auditCh = make(chan auditTask, 8)
		s.asyncWG.Add(1)
		go s.auditLoop()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/cell", s.handleCell)
	s.mux.HandleFunc("POST /v1/diff", s.handleDiff)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins shutdown of the async layer: new job submissions are
// refused (503) and running jobs cancel cooperatively, which also
// ends their event streams. Call it before http.Server.Shutdown so
// long-lived streams do not hold the listener open for the whole
// grace budget.
func (s *Server) Drain() { s.baseCancel() }

// Close stops accepting queue submissions and waits for every
// accepted simulation — sync requests and async jobs — to finish.
// Call it after http.Server.Shutdown has drained the handlers.
func (s *Server) Close() {
	s.baseCancel()
	s.asyncWG.Wait()
	s.q.close()
}

// buildRegistry wires the service gauges. Everything is a snapshot-time
// gauge over an atomic, so scrapes are race-free against live traffic.
func (s *Server) buildRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Label("service", "zbpd")
	gauge := func(name string, v *atomic.Int64) {
		reg.Gauge(name, func() float64 { return float64(v.Load()) })
	}
	gauge("zbpd.requests_total", &s.requests)
	gauge("zbpd.completed_total", &s.completed)
	gauge("zbpd.rejected_total", &s.rejected)
	gauge("zbpd.canceled_total", &s.canceled)
	gauge("zbpd.failed_total", &s.failed)
	gauge("zbpd.instructions_total", &s.instructions)
	gauge("zbpd.inflight", &s.inflight)
	gauge("zbpd.sweep_cell_errors_total", &s.sweepCellErrors)
	gauge("zbpd.diff_divergences_total", &s.diffDivergences)
	gauge("zbpd.fast_core_runs_total", &s.fastCoreRuns)
	reg.Gauge("zbpd.run_seconds_ewma", func() float64 {
		return time.Duration(s.runNanosEWMA.Load()).Seconds()
	})
	reg.Gauge("zbpd.queue_depth", func() float64 { return float64(s.q.depth()) })
	reg.Gauge("zbpd.queue_capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	reg.Gauge("zbpd.workers", func() float64 { return float64(s.cfg.Workers) })
	reg.Gauge("zbpd.mat_traces", func() float64 { return float64(s.mz.Count()) })
	reg.Gauge("zbpd.mat_bytes", func() float64 { return float64(s.mz.FootprintBytes()) })

	// Async job table.
	gauge("zbpd.jobs_submitted_total", &s.jobsSubmitted)
	fn := func(name string, f func() float64) { reg.Gauge(name, f) }
	fn("zbpd.jobs_active", func() float64 { return float64(s.jobs.Active()) })
	fn("zbpd.jobs_table", func() float64 { return float64(s.jobs.Len()) })
	fn("zbpd.jobs_done_total", func() float64 { return float64(s.jobs.DoneCount()) })
	fn("zbpd.jobs_failed_total", func() float64 { return float64(s.jobs.FailedCount()) })
	fn("zbpd.jobs_canceled_total", func() float64 { return float64(s.jobs.CanceledCount()) })
	fn("zbpd.jobs_evicted_total", func() float64 { return float64(s.jobs.Evicted()) })

	// Content-addressed result cache + its equiv-backed auditor.
	fn("zbpd.cache_hits_total", func() float64 { return float64(s.cache.Hits()) })
	fn("zbpd.cache_misses_total", func() float64 { return float64(s.cache.Misses()) })
	fn("zbpd.cache_puts_total", func() float64 { return float64(s.cache.Puts()) })
	fn("zbpd.cache_evictions_total", func() float64 { return float64(s.cache.Evictions()) })
	fn("zbpd.cache_coalesced_total", func() float64 { return float64(s.cache.Coalesced()) })
	fn("zbpd.cache_disk_hits_total", func() float64 { return float64(s.cache.DiskHits()) })
	fn("zbpd.cache_disk_errors_total", func() float64 { return float64(s.cache.DiskErrors()) })
	fn("zbpd.cache_entries", func() float64 { return float64(s.cache.Len()) })
	fn("zbpd.cache_bytes", func() float64 { return float64(s.cache.MemBytes()) })
	gauge("zbpd.cache_audits_total", &s.audits)
	gauge("zbpd.cache_audit_failures_total", &s.auditFailures)
	gauge("zbpd.cache_audit_errors_total", &s.auditErrors)
	gauge("zbpd.cache_audit_dropped_total", &s.auditDropped)
	return reg
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

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---------------------------------------------------------

// normalizeSimulate applies request defaults in place and validates
// against the server's limits, returning the resolved seed. Shared by
// the synchronous handler and async job submission, so both paths
// accept exactly the same requests.
func (s *Server) normalizeSimulate(req *SimulateRequest) (uint64, error) {
	if req.Config == "" {
		req.Config = "z15"
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Instructions == 0 {
		req.Instructions = s.cfg.DefaultInstructions
	}
	if _, err := core.ByName(req.Config); err != nil {
		return 0, err
	}
	if err := s.resolveWorkloads(&req.Workload, &req.Workload2); err != nil {
		return 0, err
	}
	if req.Instructions < 0 || req.Instructions > s.cfg.MaxInstructions {
		return 0, fmt.Errorf("instructions %d out of range [1, %d]", req.Instructions, s.cfg.MaxInstructions)
	}
	return seed, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	seed, err := s.normalizeSimulate(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	spec := rcache.CellSpec{
		Config: req.Config, Workload: req.Workload, Workload2: req.Workload2,
		Seed: seed, Instructions: req.Instructions,
	}
	var (
		res    sim.Result
		runErr error
	)
	submitErr := s.enqueue(ctx, func(ctx context.Context) {
		res, runErr = s.runCellSim(ctx, spec)
	})
	if s.replyQueueError(w, submitErr) {
		return
	}
	if runErr == nil && ctx.Err() != nil {
		// The task was skipped while queued: the deadline or the client
		// beat the workers to it.
		runErr = ctx.Err()
	}
	if runErr != nil {
		s.replyRunError(w, runErr)
		return
	}
	s.completed.Add(1)
	s.instructions.Add(res.Instructions())
	if res.FastCore {
		s.fastCoreRuns.Add(1)
	}
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
	writeJSON(w, http.StatusOK, resp)
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

// normalizeSweep applies sweep defaults in place and validates,
// returning the grid size. Shared by the sync handler and async job
// submission.
func (s *Server) normalizeSweep(req *SweepRequest) (int, error) {
	if len(req.Configs) == 0 {
		req.Configs = []string{"z15"}
	}
	if len(req.Seeds) == 0 {
		req.Seeds = []uint64{42}
	}
	if req.Instructions == 0 {
		req.Instructions = s.cfg.DefaultInstructions
	}
	if req.Instructions < 0 || req.Instructions > s.cfg.MaxInstructions {
		return 0, fmt.Errorf("instructions %d out of range [1, %d]", req.Instructions, s.cfg.MaxInstructions)
	}
	cells := len(req.Configs) * len(req.Workloads) * len(req.Seeds)
	if cells == 0 {
		return 0, errors.New("empty sweep grid: need workloads")
	}
	if cells > s.cfg.MaxSweepCells {
		return 0, fmt.Errorf("sweep grid has %d cells, limit %d", cells, s.cfg.MaxSweepCells)
	}
	if err := s.resolveWorkloads(sliceRefs(req.Workloads)...); err != nil {
		return 0, err
	}
	for _, name := range req.Configs {
		if _, err := core.ByName(name); err != nil {
			return 0, err
		}
	}
	return cells, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	cells, err := s.normalizeSweep(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	cfgs := make([]sim.Config, len(req.Configs))
	for i, name := range req.Configs {
		gen, _ := core.ByName(name) // validated above
		cfgs[i] = sim.ForGeneration(gen)
	}

	type cellKey struct {
		config   string
		workload string
		seed     uint64
	}
	keys := make([]cellKey, 0, cells)
	jobs := make([]runner.Job, 0, cells)
	for ci, cfg := range cfgs {
		for _, wl := range req.Workloads {
			for _, seed := range req.Seeds {
				wl, seed := wl, seed
				keys = append(keys, cellKey{req.Configs[ci], wl, seed})
				jobs = append(jobs, runner.Job{
					Name:   fmt.Sprintf("%s/%s/%d", req.Configs[ci], wl, seed),
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

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	var results []runner.Result
	submitErr := s.enqueue(ctx, func(ctx context.Context) {
		// The sweep occupies exactly one queue slot; Parallelism 1
		// keeps total simulation concurrency equal to the worker
		// count no matter how many cells the grid has.
		pool := runner.Pool{Parallelism: 1}
		results = pool.Run(ctx, jobs)
	})
	if s.replyQueueError(w, submitErr) {
		return
	}
	if results == nil {
		// Skipped while queued.
		s.replyRunError(w, ctx.Err())
		return
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
			s.sweepCellErrors.Add(1)
		} else if r.Res.FastCore {
			s.fastCoreRuns.Add(1)
		}
		resp.Cells[i] = cell
	}
	s.completed.Add(1)
	for _, c := range resp.Cells {
		s.instructions.Add(c.Instructions)
	}
	writeJSON(w, http.StatusOK, resp)
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
	writeJSON(w, http.StatusOK, Health{
		Status:         "ok",
		Workers:        s.cfg.Workers,
		QueueDepth:     s.q.depth(),
		QueueCapacity:  s.cfg.QueueDepth,
		Inflight:       s.inflight.Load(),
		RunSecondsEWMA: time.Duration(s.runNanosEWMA.Load()).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.Snapshot().WritePrometheus(w); err != nil {
		// Headers are gone; nothing more to do than drop the
		// connection.
		return
	}
}

// --- plumbing ---------------------------------------------------------

// requestContext derives the simulation context: the request's own
// context (canceled on client disconnect and server shutdown) bounded
// by the effective timeout.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), timeout)
}

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

// decode parses a size-limited JSON body, answering 400/413 itself.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, err)
		} else {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return false
	}
	return true
}

// replyQueueError answers queue overflow/shutdown submissions; it
// reports whether it wrote a response.
func (s *Server) replyQueueError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, errQueueFull):
		s.rejected.Add(1)
		// Derived from the queued-work estimate, not a constant: a full
		// queue of minute-long sweeps and a full queue of millisecond
		// simulations deserve very different retry advice.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "job queue full, retry later"})
		return true
	default:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return true
	}
}

// replyRunError maps simulation errors onto status codes.
func (s *Server) replyRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "simulation deadline exceeded"})
	case errors.Is(err, context.Canceled):
		// Client disconnect or server shutdown; the response is mostly
		// for the log.
		s.canceled.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request canceled"})
	default:
		s.failed.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.failed.Add(1)
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// resolveWorkloads validates workload names before a request consumes
// a queue slot, rewriting them in place: generator names must be in the
// registry, and path-backed names (file:/spec:) are gated on the
// TraceDir allowlist and rewritten to their confined absolute form so
// the cache, materializer, and audit all see one canonical name. Empty
// names in the tail (unset workload2) are ignored, but the first name
// is required.
func (s *Server) resolveWorkloads(names ...*string) error {
	if len(names) == 0 || *names[0] == "" {
		return errors.New("missing workload")
	}
	reg := workload.Registry()
	for _, np := range names {
		name := *np
		switch {
		case name == "":
		case workload.PathBacked(name):
			resolved, err := s.resolveTraceName(name)
			if err != nil {
				return err
			}
			*np = resolved
		default:
			if _, ok := reg[name]; !ok {
				return fmt.Errorf("unknown workload %q (have %v)", name, workload.Names())
			}
		}
	}
	return nil
}

// sliceRefs adapts a name slice for resolveWorkloads so rewrites land
// back in the request.
func sliceRefs(names []string) []*string {
	refs := make([]*string, len(names))
	for i := range names {
		refs[i] = &names[i]
	}
	return refs
}

// resolveTraceName confines one path-backed workload name to the
// TraceDir allowlist and returns it with the path absolutized. Spec
// documents are additionally opened so every trace file they reference
// is confined too — the spec itself being inside the directory does
// not make its pointers trustworthy.
func (s *Server) resolveTraceName(name string) (string, error) {
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
