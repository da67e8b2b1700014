package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zbp/internal/core"
	"zbp/internal/equiv"
	"zbp/internal/jobs"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
	"zbp/internal/workload"
)

// The service front is the HTTP request surface zbpd and the cluster
// coordinator share, one body of code for both roles: body decoding
// and size limits, request normalization, the error-to-status mapping,
// admission, the async job table and its runner, the result cache
// with its sampled audit lane, and the /metrics series both roles
// export. What a role does differently — where a cell's compute runs,
// how load turns into Retry-After, which names may reach the disk —
// sits behind the Executor it hands to NewFront.

// Executor is what a role does differently behind the front. The
// single box (Server) executes on its bounded queue and sim.RunPooled;
// the coordinator (cluster.Coordinator) executes on a fleet.
type Executor interface {
	// ResolvePath vets one path-backed (file:/spec:) workload name and
	// returns the canonical form requests carry from then on.
	ResolvePath(name string) (string, error)
	// Admit charges admission for a request of cells grid cells. On
	// refusal it returns the Retry-After hint and the reason for the 429.
	Admit(cells int) (retryAfter int, err error)
	// RetryAfter estimates, in seconds, when capacity frees up.
	RetryAfter() int
	// RunSecondsEWMA is the smoothed per-task duration published in
	// cell progress events.
	RunSecondsEWMA() float64
	// Schedule runs a job's body: at once, or once capacity allows.
	Schedule(ctx context.Context, run func(ctx context.Context)) error
	// Compute returns the compute behind the result cache for one
	// request; every cell of a sweep goes through the same one.
	Compute() CellFunc
	// Simulate and Sweep serve the synchronous endpoints.
	Simulate(ctx context.Context, req SimulateRequest, seed uint64) (SimulateResponse, error)
	Sweep(ctx context.Context, req SweepRequest) (SweepResponse, error)
	// Diff runs a diff job's grid, reporting each cell as it finishes.
	Diff(ctx context.Context, req DiffRequest, seed uint64, onCell func(i, total int, c DiffCell)) (DiffResponse, error)
	// Audit recomputes one sampled cache hit and describes every way
	// the served stats diverge from the recompute.
	Audit(ctx context.Context, cell rcache.CellSpec, stats []byte) ([]string, error)
}

// CellFunc computes one cell's canonical stats JSON. noCache asks for
// a recompute all the way down.
type CellFunc func(ctx context.Context, cell rcache.CellSpec, noCache bool) (CellOutcome, error)

// CellOutcome is one resolved cell.
type CellOutcome struct {
	Stats   []byte
	Cached  bool   // no simulation ran for this request
	Backend string // the backend that answered, behind a fleet
	Hedged  bool   // the hedged duplicate answered, not the primary
}

// Role is what the front needs to know about the process serving it:
// the fixed facts that differ between a single box and a coordinator,
// and the request limits from the role's Config (defaults applied).
type Role struct {
	Service     string // the "service" label on every series
	Noun        string // "server" or "coordinator", as in "server shutting down"
	CachePrefix string // series prefix of the result cache and its audit
	FailStatus  int    // status of a failed run: 500 local, 502 behind a fleet
	// FanOut resolves a sweep job's cells concurrently (a fleet) rather
	// than in grid order inside the job's one queue slot (a single box).
	FanOut bool

	MaxBodyBytes        int64
	MaxInstructions     int
	DefaultInstructions int
	MaxSweepCells       int
	DefaultTimeout      time.Duration
	MaxTimeout          time.Duration
	MaxJobs             int
	JobTTL              time.Duration
	Cache               rcache.Config
	AuditEvery          int // every Nth cache hit is audited; <= 0 disables
	Now                 func() time.Time
}

// Counters are the front's live tallies, exported via /metrics.
// Atomics, because handlers bump them concurrently with registry
// snapshots. Completed, Failed and Canceled count synchronous request
// outcomes; job outcomes are the job table's own tallies.
type Counters struct {
	Requests, Completed, Rejected, Failed, Canceled atomic.Int64
	JobsSubmitted                                   atomic.Int64
	// Cells resolved through the result-cache path, how many of them
	// ran no simulation, and how many failed.
	CellsDone, CellsCached, CellErrors atomic.Int64
	// The cache-audit lane (see audit.go).
	AuditHits, Audits, AuditFailures, AuditErrors, AuditDropped atomic.Int64
}

// Front serves the shared request surface over one Executor.
type Front struct {
	Counters
	role  Role
	exec  Executor
	mux   *http.ServeMux
	reg   *metrics.Registry
	jobs  *jobs.Store
	cache *rcache.Cache

	// baseCtx parents every async job context; Drain/Close cancel it,
	// which cooperatively stops running jobs and the audit loop.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// asyncWG tracks job-runner goroutines and the audit loop.
	asyncWG sync.WaitGroup
	auditCh chan auditTask
}

// NewFront builds the shared surface over exec and starts the audit
// loop. The only construction failure is an unusable cache directory.
func NewFront(role Role, exec Executor) (*Front, error) {
	cache, err := rcache.New(role.Cache)
	if err != nil {
		return nil, err
	}
	f := &Front{role: role, exec: exec, cache: cache, mux: http.NewServeMux()}
	f.baseCtx, f.baseCancel = context.WithCancel(context.Background())
	f.jobs = jobs.NewStore(jobs.Options{MaxJobs: role.MaxJobs, TTL: role.JobTTL, Now: role.Now})
	f.reg = f.buildRegistry()
	if role.AuditEvery > 0 {
		f.auditCh = make(chan auditTask, 8)
		f.asyncWG.Add(1)
		go f.auditLoop()
	}
	f.mux.HandleFunc("POST /v1/simulate", f.handleSimulate)
	f.mux.HandleFunc("POST /v1/sweep", f.handleSweep)
	f.mux.HandleFunc("POST /v1/jobs", f.handleJobCreate)
	f.mux.HandleFunc("GET /v1/jobs/{id}", f.handleJobGet)
	f.mux.HandleFunc("GET /v1/jobs/{id}/events", f.handleJobEvents)
	f.mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleJobDelete)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	return f, nil
}

// Handler returns the HTTP handler tree.
func (f *Front) Handler() http.Handler { return f.mux }

// HandleFunc adds a role-specific route.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Registry is the live registry behind /metrics; roles add their own
// series to it.
func (f *Front) Registry() *metrics.Registry { return f.reg }

// Cache is the front's content-addressed result cache.
func (f *Front) Cache() *rcache.Cache { return f.cache }

// Context is canceled when the front starts draining.
func (f *Front) Context() context.Context { return f.baseCtx }

// Drain begins shutdown of the async layer: new job submissions are
// refused (503) and running jobs cancel cooperatively, which also
// ends their event streams. Call it before http.Server.Shutdown so
// long-lived streams do not hold the listener open for the whole
// grace budget.
func (f *Front) Drain() { f.baseCancel() }

// Close cancels the async layer and waits for job runners and the
// audit loop to exit.
func (f *Front) Close() {
	f.baseCancel()
	f.asyncWG.Wait()
}

// buildRegistry wires the series both roles export. Everything is a
// snapshot-time gauge over an atomic, so scrapes are race-free against
// live traffic.
func (f *Front) buildRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Label("service", f.role.Service)
	gauge := func(name string, v func() int64) {
		reg.Gauge(name, func() float64 { return float64(v()) })
	}
	gauge("zbpd.requests_total", f.Requests.Load)
	gauge("zbpd.completed_total", f.Completed.Load)
	gauge("zbpd.rejected_total", f.Rejected.Load)
	gauge("zbpd.canceled_total", f.Canceled.Load)
	gauge("zbpd.failed_total", f.Failed.Load)
	gauge("zbpd.jobs_submitted_total", f.JobsSubmitted.Load)
	gauge("zbpd.jobs_active", func() int64 { return int64(f.jobs.Active()) })
	gauge("zbpd.jobs_table", func() int64 { return int64(f.jobs.Len()) })
	gauge("zbpd.jobs_done_total", f.jobs.DoneCount)
	gauge("zbpd.jobs_failed_total", f.jobs.FailedCount)
	gauge("zbpd.jobs_canceled_total", f.jobs.CanceledCount)
	gauge("zbpd.jobs_evicted_total", f.jobs.Evicted)

	p := f.role.CachePrefix
	gauge(p+"hits_total", f.cache.Hits)
	gauge(p+"misses_total", f.cache.Misses)
	gauge(p+"entries", func() int64 { return int64(f.cache.Len()) })
	gauge(p+"audits_total", f.Audits.Load)
	gauge(p+"audit_failures_total", f.AuditFailures.Load)
	gauge(p+"audit_errors_total", f.AuditErrors.Load)
	gauge(p+"audit_dropped_total", f.AuditDropped.Load)
	return reg
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// On a write error the headers are gone; nothing more to do than
	// drop the connection.
	_ = f.reg.Snapshot().WritePrometheus(w)
}

// --- synchronous endpoints --------------------------------------------

func (f *Front) handleSimulate(w http.ResponseWriter, r *http.Request) {
	f.Requests.Add(1)
	var req SimulateRequest
	if !f.Decode(w, r, &req) {
		return
	}
	seed, err := f.normalizeSimulate(&req)
	if err != nil {
		f.Fail(w, http.StatusBadRequest, err)
		return
	}
	if !f.admit(w, 1) {
		return
	}
	ctx, cancel := f.requestContext(r, req.TimeoutMs)
	defer cancel()
	resp, err := f.exec.Simulate(ctx, req, seed)
	f.reply(w, resp, err)
}

func (f *Front) handleSweep(w http.ResponseWriter, r *http.Request) {
	f.Requests.Add(1)
	var req SweepRequest
	if !f.Decode(w, r, &req) {
		return
	}
	cells, err := f.normalizeSweep(&req)
	if err != nil {
		f.Fail(w, http.StatusBadRequest, err)
		return
	}
	if !f.admit(w, cells) {
		return
	}
	ctx, cancel := f.requestContext(r, req.TimeoutMs)
	defer cancel()
	resp, err := f.exec.Sweep(ctx, req)
	f.reply(w, resp, err)
}

// reply answers a synchronous request with its result or its error.
func (f *Front) reply(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		f.replyError(w, err)
		return
	}
	f.Completed.Add(1)
	WriteJSON(w, http.StatusOK, resp)
}

// --- plumbing ---------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON renders v indented by two spaces, the one response format
// of both roles, so their sync replies are byte-compatible.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers code with a JSON error body.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorResponse{Error: msg})
}

// Fail answers a request the service refuses and counts it failed.
func (f *Front) Fail(w http.ResponseWriter, code int, err error) {
	f.Failed.Add(1)
	WriteError(w, code, err.Error())
}

// Decode parses a size-limited JSON body that may carry no unknown
// field, answering 400/413 itself.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, f.role.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			f.Fail(w, http.StatusRequestEntityTooLarge, err)
		} else {
			f.Fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return false
	}
	return true
}

// ShuttingDown answers 503 for work refused during drain.
func (f *Front) ShuttingDown(w http.ResponseWriter) {
	WriteError(w, http.StatusServiceUnavailable, f.role.Noun+" shutting down")
}

// requestContext derives a synchronous request's context: the
// request's own (canceled on client disconnect and server shutdown)
// bounded by its timeout_ms, or DefaultTimeout when it sets none, and
// either way by MaxTimeout.
func (f *Front) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := f.role.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), min(timeout, f.role.MaxTimeout))
}

// reject answers 429 with a Retry-After hint.
func (f *Front) reject(w http.ResponseWriter, retryAfter int, msg string) {
	f.Rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	WriteError(w, http.StatusTooManyRequests, msg)
}

// admit charges the executor's admission for cells; on refusal it has
// answered 429.
func (f *Front) admit(w http.ResponseWriter, cells int) bool {
	retryAfter, err := f.exec.Admit(cells)
	if err != nil {
		f.reject(w, retryAfter, err.Error())
		return false
	}
	return true
}

// replyError maps a failed run onto a status. The deadline and the
// cancellation are the client's; anything else is the executor's
// failure (Role.FailStatus).
func (f *Front) replyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		// Derived from the queued-work estimate, not a constant: a full
		// queue of minute-long sweeps and a full queue of millisecond
		// simulations deserve very different retry advice.
		f.reject(w, f.exec.RetryAfter(), "job queue full, retry later")
	case errors.Is(err, errShuttingDown):
		f.ShuttingDown(w)
	case errors.Is(err, context.DeadlineExceeded):
		f.Canceled.Add(1)
		WriteError(w, http.StatusGatewayTimeout, "simulation deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Client disconnect or server shutdown; the response is mostly
		// for the log.
		f.Canceled.Add(1)
		WriteError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		f.Fail(w, f.role.FailStatus, err)
	}
}

// --- request normalization --------------------------------------------

// The normalizers apply request defaults in place and validate against
// the role's limits before a request costs anything. The sync
// endpoints, job submission and /v1/cell share them, so every path
// accepts exactly the same requests.

func (f *Front) checkInstructions(n *int) error {
	if *n == 0 {
		*n = f.role.DefaultInstructions
	}
	if *n < 0 || *n > f.role.MaxInstructions {
		return fmt.Errorf("instructions %d out of range [1, %d]", *n, f.role.MaxInstructions)
	}
	return nil
}

func checkConfigs(names ...string) error {
	for _, name := range names {
		if _, err := core.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

// normalizeSimulate returns the resolved seed.
func (f *Front) normalizeSimulate(req *SimulateRequest) (uint64, error) {
	if req.Config == "" {
		req.Config = "z15"
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Instructions == 0 {
		req.Instructions = f.role.DefaultInstructions
	}
	if err := checkConfigs(req.Config); err != nil {
		return 0, err
	}
	if err := f.resolveWorkloads(&req.Workload, &req.Workload2); err != nil {
		return 0, err
	}
	return seed, f.checkInstructions(&req.Instructions)
}

// normalizeSweep returns the grid size.
func (f *Front) normalizeSweep(req *SweepRequest) (int, error) {
	if len(req.Configs) == 0 {
		req.Configs = []string{"z15"}
	}
	if len(req.Seeds) == 0 {
		req.Seeds = []uint64{42}
	}
	if err := f.checkInstructions(&req.Instructions); err != nil {
		return 0, err
	}
	cells := len(req.Configs) * len(req.Workloads) * len(req.Seeds)
	if err := f.checkGrid("sweep", cells); err != nil {
		return 0, err
	}
	if err := f.resolveWorkloads(sliceRefs(req.Workloads)...); err != nil {
		return 0, err
	}
	return cells, checkConfigs(req.Configs...)
}

// normalizeDiff returns the resolved seed and the grid size.
func (f *Front) normalizeDiff(req *DiffRequest) (uint64, int, error) {
	if len(req.Configs) == 0 {
		req.Configs = []string{"z15"}
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if err := f.checkInstructions(&req.Instructions); err != nil {
		return 0, 0, err
	}
	cells := len(req.Configs) * len(req.Workloads)
	if err := f.checkGrid("diff", cells); err != nil {
		return 0, 0, err
	}
	if err := checkConfigs(req.Configs...); err != nil {
		return 0, 0, err
	}
	if err := f.resolveWorkloads(sliceRefs(req.Workloads)...); err != nil {
		return 0, 0, err
	}
	for _, n := range req.Checks {
		if !slices.Contains(equiv.CheckNames(), n) {
			return 0, 0, fmt.Errorf("unknown check %q (have %v)", n, equiv.CheckNames())
		}
	}
	return seed, cells, nil
}

func (f *Front) checkGrid(kind string, cells int) error {
	if cells == 0 {
		return fmt.Errorf("empty %s grid: need workloads", kind)
	}
	if cells > f.role.MaxSweepCells {
		return fmt.Errorf("%s grid has %d cells, limit %d", kind, cells, f.role.MaxSweepCells)
	}
	return nil
}

// resolveWorkloads validates workload names, rewriting them in place:
// generator names must be in the registry, and path-backed names
// (file:/spec:) go through the executor's ResolvePath. Empty names in
// the tail (unset workload2) are ignored, but the first name is
// required.
func (f *Front) resolveWorkloads(names ...*string) error {
	if len(names) == 0 || *names[0] == "" {
		return errors.New("missing workload")
	}
	reg := workload.Registry()
	for _, np := range names {
		name := *np
		switch {
		case name == "":
		case workload.PathBacked(name):
			resolved, err := f.exec.ResolvePath(name)
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
