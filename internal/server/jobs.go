package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"zbp/internal/jobs"
	"zbp/internal/metrics"
	"zbp/internal/rcache"
)

// Async job API. A job is a simulate/sweep/diff request that runs
// outside the submitting HTTP request: submission validates and
// answers immediately with a job ID, a runner goroutine hands the job
// to the executor's Schedule (a single box waits for one bounded-queue
// slot, the same backpressure sync requests obey), and clients poll
// GET /v1/jobs/{id} or follow the JSONL event stream.
//
// Simulate and sweep cells route through the content-addressed result
// cache: the cell spec is hashed (rcache.NewKey) and previously
// computed cells are served without executing a single simulated
// cycle. Diff jobs never cache — the harness's whole point is to
// recompute.

// JobRequest is the POST /v1/jobs body: a kind plus exactly one
// matching payload. Kind may be omitted when exactly one payload is
// set.
type JobRequest struct {
	Kind     string           `json:"kind,omitempty"` // "simulate", "sweep", "diff"
	Simulate *SimulateRequest `json:"simulate,omitempty"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Diff     *DiffRequest     `json:"diff,omitempty"`
	// TimeoutMs bounds the job's execution wall time (clamped to the
	// server's MaxTimeout, which is also the default). The payloads'
	// own timeout_ms fields are ignored for jobs: the job deadline is
	// the only one.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// NoCache forces recomputation and skips the result cache on both
	// read and write — the escape hatch for benchmarking and for
	// distrust.
	NoCache bool `json:"no_cache,omitempty"`
}

// jobSpec is the validated, default-filled execution plan attached to
// a job at submission.
type jobSpec struct {
	kind     string
	simulate SimulateRequest
	sweep    SweepRequest
	diff     DiffRequest
	seed     uint64 // resolved seed for simulate/diff kinds
	cells    int
	noCache  bool
}

// CellEvent is the JSONL progress line published after every finished
// simulate/sweep cell.
type CellEvent struct {
	Type      string `json:"type"` // "cell"
	Index     int    `json:"index"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Config    string `json:"config"`
	Workload  string `json:"workload"`
	Workload2 string `json:"workload2,omitempty"`
	Seed      uint64 `json:"seed"`
	// Cached marks a cell served from a result cache (zero simulated
	// cycles).
	Cached bool `json:"cached"`
	// Backend and Hedged attribute a fleet cell: which backend
	// answered, and whether the hedged duplicate won.
	Backend      string  `json:"backend,omitempty"`
	Hedged       bool    `json:"hedged,omitempty"`
	Instructions int64   `json:"instructions,omitempty"`
	Cycles       int64   `json:"cycles,omitempty"`
	MPKI         float64 `json:"mpki"`
	IPC          float64 `json:"ipc"`
	Accuracy     float64 `json:"accuracy"`
	Error        string  `json:"error,omitempty"`
	// RunSecondsEWMA is the smoothed per-task duration at publish time
	// (the fleet mean behind a coordinator), so a streaming client can
	// project the remaining wall time of the sweep.
	RunSecondsEWMA float64 `json:"run_seconds_ewma"`
}

// diffCellEvent is the JSONL progress line for diff-job cells.
type diffCellEvent struct {
	Type     string `json:"type"` // "diff_cell"
	Index    int    `json:"index"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Checks   int    `json:"checks"`
	OK       bool   `json:"ok"`
	Findings int    `json:"findings"`
	Error    string `json:"error,omitempty"`
}

// --- handlers ---------------------------------------------------------

func (f *Front) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	f.Requests.Add(1)
	if f.baseCtx.Err() != nil {
		f.ShuttingDown(w)
		return
	}
	var req JobRequest
	if !f.Decode(w, r, &req) {
		return
	}
	spec, err := f.planJob(&req)
	if err != nil {
		f.Fail(w, http.StatusBadRequest, err)
		return
	}
	if !f.admit(w, spec.cells) {
		return
	}
	j, err := f.jobs.Create(spec.kind, spec.cells)
	if err != nil {
		f.reject(w, f.exec.RetryAfter(), "job table full, retry later")
		return
	}
	f.JobsSubmitted.Add(1)

	// Jobs exist to outlive the HTTP timeout, so they get the ceiling,
	// not the per-request default.
	timeout := f.role.MaxTimeout
	if req.TimeoutMs > 0 {
		timeout = min(time.Duration(req.TimeoutMs)*time.Millisecond, f.role.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(f.baseCtx, timeout)
	j.SetCancel(cancel)
	f.asyncWG.Add(1)
	go f.runJob(ctx, cancel, j, spec)

	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	WriteJSON(w, http.StatusCreated, j.Snapshot())
}

// planJob validates the request into an executable spec, reusing the
// same normalization the sync endpoints apply.
func (f *Front) planJob(req *JobRequest) (jobSpec, error) {
	set := 0
	for _, p := range []bool{req.Simulate != nil, req.Sweep != nil, req.Diff != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return jobSpec{}, fmt.Errorf("need exactly one of simulate/sweep/diff payloads, have %d", set)
	}
	spec := jobSpec{noCache: req.NoCache, cells: 1}
	var err error
	switch {
	case req.Simulate != nil:
		spec.kind = "simulate"
		spec.seed, err = f.normalizeSimulate(req.Simulate)
		spec.simulate = *req.Simulate
	case req.Sweep != nil:
		spec.kind = "sweep"
		spec.cells, err = f.normalizeSweep(req.Sweep)
		spec.sweep = *req.Sweep
	default:
		spec.kind = "diff"
		spec.seed, spec.cells, err = f.normalizeDiff(req.Diff)
		spec.diff = *req.Diff
	}
	if req.Kind != "" && req.Kind != spec.kind {
		return jobSpec{}, fmt.Errorf("kind %q does not match the %s payload", req.Kind, spec.kind)
	}
	return spec, err
}

// job finds the job a request names, answering 404 itself.
func (f *Front) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	f.Requests.Add(1)
	j, ok := f.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job (unknown ID or evicted after TTL)")
	}
	return j, ok
}

func (f *Front) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := f.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (f *Front) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := f.job(w, r)
	if !ok {
		return
	}
	// Cancel fires the job's context cancel with no locks held; the
	// runner observes it cooperatively (sim.RunCtx polls) and the
	// job transitions to canceled asynchronously.
	j.Cancel(f.role.Now(), "canceled by client")
	WriteJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobEvents streams the job's event history and then live
// events as JSONL until the job reaches a terminal state or the
// client disconnects.
//
// Locking contract (the deadlock-regression suite pins this): the
// handler never writes to the connection while holding any job or
// store lock. It pulls batches with EventsSince (a short critical
// section that copies slice headers), writes them lock-free, and
// parks on a capacity-1 notification channel that publishers signal
// without blocking. A reader that stalls mid-write therefore stalls
// only itself — publishers, cancellation, and the job table never
// wait on it.
func (f *Front) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := f.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ch := j.Subscribe()
	defer j.Unsubscribe(ch)
	cursor := 0
	for {
		lines, terminal := j.EventsSince(cursor)
		cursor += len(lines)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// Finish appends the done event before flipping the state
			// (one critical section), so a terminal read has already
			// handed us the last line.
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// --- execution --------------------------------------------------------

// runJob drives one job through the executor's Schedule, then closes
// it out if the body never got to.
func (f *Front) runJob(ctx context.Context, cancel context.CancelFunc, j *jobs.Job, spec jobSpec) {
	defer f.asyncWG.Done()
	defer cancel()
	err := f.exec.Schedule(ctx, func(ctx context.Context) { f.executeJob(ctx, j, spec) })
	if err == nil {
		// Ran, or was skipped because ctx died while queued; in the
		// skip case executeJob never got to finish the job.
		err = ctx.Err()
	}
	f.finishJob(j, err)
}

// finishJob closes out a job that did not finish itself (skipped
// while queued, canceled, refused by a closing queue). A no-op when
// executeJob already reached a terminal state.
func (f *Front) finishJob(j *jobs.Job, err error) {
	now := f.role.Now()
	switch {
	case err == nil:
		j.Finish(now, jobs.Failed, "job runner exited without a result", nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.Finish(now, jobs.Canceled, err.Error(), nil)
	case errors.Is(err, errShuttingDown):
		j.Finish(now, jobs.Canceled, f.role.Noun+" shutting down", nil)
	default:
		j.Finish(now, jobs.Failed, err.Error(), nil)
	}
}

// executeJob runs the job's body once the executor schedules it.
func (f *Front) executeJob(ctx context.Context, j *jobs.Job, spec jobSpec) {
	if !j.Start(f.role.Now()) {
		return
	}
	var (
		result any
		err    error
	)
	switch spec.kind {
	case "simulate":
		var ev CellEvent
		result, ev, err = f.SimulateCell(ctx, spec.simulate, spec.seed, spec.noCache)
		if err == nil {
			j.CellDone(ev.Cached)
			ev.RunSecondsEWMA = f.exec.RunSecondsEWMA()
			j.Publish(ev)
		}
	case "sweep":
		result, err = f.SweepCells(ctx, spec.sweep, spec.noCache, f.exec.Compute(), func(ev CellEvent) {
			if ev.Error == "" {
				j.CellDone(ev.Cached)
			}
			j.Publish(ev)
		})
	case "diff":
		result, err = f.exec.Diff(ctx, spec.diff, spec.seed, func(i, total int, dc DiffCell) {
			j.CellDone(false)
			j.Publish(diffCellEvent{
				Type: "diff_cell", Index: i, Done: i + 1, Total: total,
				Config: dc.Config, Workload: dc.Workload, Seed: dc.Seed,
				Checks: dc.Checks, OK: dc.OK, Findings: len(dc.Findings), Error: dc.Error,
			})
		})
	}
	if err != nil {
		f.finishJob(j, err)
		return
	}
	// Compact marshal: the job result bytes are the same from either
	// role.
	b, err := json.Marshal(result)
	if err != nil {
		f.finishJob(j, err)
		return
	}
	j.Finish(f.role.Now(), jobs.Done, "", b)
}

// --- cells through the result cache -----------------------------------

// resolveCell returns one cell's canonical stats, serving from the
// content-addressed cache when possible and computing through compute
// on a miss. Per-key singleflight means concurrent requests for the
// same uncomputed cell compute once and share the bytes. A hit (memory,
// disk, or coalesced onto a concurrent compute) is Cached with no
// backend attribution, and sampled hits go to the audit lane. noCache
// skips the cache on both read and write.
func (f *Front) resolveCell(ctx context.Context, cell rcache.CellSpec, noCache bool, compute CellFunc) (CellOutcome, error) {
	if noCache {
		return compute(ctx, cell, true)
	}
	key := rcache.NewKey(cell)
	var out CellOutcome
	v, hit, err := f.cache.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		var err error
		out, err = compute(ctx, cell, false)
		return out.Stats, err
	})
	if err != nil {
		return CellOutcome{}, err
	}
	if hit {
		f.maybeAudit(key, cell, v)
		return CellOutcome{Stats: v, Cached: true}, nil
	}
	return out, nil
}

// SimulateCell resolves one simulate request through the result cache
// and shapes it as the simulate response plus its progress event. A
// simulate job runs it on either role; a coordinator's sync
// /v1/simulate does too.
func (f *Front) SimulateCell(ctx context.Context, req SimulateRequest, seed uint64, noCache bool) (SimulateResponse, CellEvent, error) {
	cell := rcache.CellSpec{
		Config: req.Config, Workload: req.Workload, Workload2: req.Workload2,
		Seed: seed, Instructions: req.Instructions,
	}
	out, err := f.resolveCell(ctx, cell, noCache, f.exec.Compute())
	if err != nil {
		return SimulateResponse{}, CellEvent{}, err
	}
	sum, err := Headline(cell, out.Stats)
	var snap *metrics.Snapshot
	if err == nil && req.FullStats {
		snap, _, err = Summarize(cell, out.Stats)
	}
	if err != nil {
		return SimulateResponse{}, CellEvent{}, err
	}
	f.countCell(out)
	resp := SimulateResponse{
		Config:       req.Config,
		Workload:     req.Workload,
		Workload2:    req.Workload2,
		Seed:         seed,
		Instructions: sum.Instructions,
		Branches:     sum.Branches,
		Cycles:       sum.Cycles,
		MPKI:         sum.MPKI,
		IPC:          sum.IPC,
		Accuracy:     sum.Accuracy,
	}
	resp.Stats = snap
	return resp, cellEvent(0, 1, cell, out, sum), nil
}

func (f *Front) countCell(out CellOutcome) {
	f.CellsDone.Add(1)
	if out.Cached {
		f.CellsCached.Add(1)
	}
}

// cellEvent builds the progress line of the cell at grid index i.
func cellEvent(i, total int, cell rcache.CellSpec, out CellOutcome, sum CellSummary) CellEvent {
	return CellEvent{
		Type: "cell", Index: i, Done: i + 1, Total: total,
		Config: cell.Config, Workload: cell.Workload, Workload2: cell.Workload2,
		Seed: cell.Seed, Cached: out.Cached, Backend: out.Backend, Hedged: out.Hedged,
		Instructions: sum.Instructions, Cycles: sum.Cycles,
		MPKI: sum.MPKI, IPC: sum.IPC, Accuracy: sum.Accuracy,
	}
}

// SweepCells resolves every cell of a normalized sweep grid through
// the result cache and compute, and assembles the rows in grid order
// (configs outermost, seeds innermost). A single box (Role.FanOut
// false) resolves the cells one after another inside the job's one
// queue slot; a fleet resolves them all at once, bounded by its
// per-backend slots. onEvent (optional) fires once per finished cell,
// in completion order, with Done monotonically increasing.
//
// Rows derive from canonical stats through Headline and are placed by
// grid position, not completion order, so a fleet sweep marshals
// byte-identically to a single-box one.
func (f *Front) SweepCells(ctx context.Context, req SweepRequest, noCache bool, compute CellFunc, onEvent func(CellEvent)) (SweepResponse, error) {
	total := len(req.Configs) * len(req.Workloads) * len(req.Seeds)
	rows := make([]SweepCell, total)
	var done int
	var evMu sync.Mutex // serializes onEvent so Done never regresses
	resolve := func(i int, cell rcache.CellSpec) {
		var ev CellEvent
		rows[i], ev = f.sweepCell(ctx, i, total, cell, noCache, compute)
		if onEvent != nil && ctx.Err() == nil {
			evMu.Lock()
			done++
			ev.Done = done
			ev.RunSecondsEWMA = f.exec.RunSecondsEWMA()
			onEvent(ev)
			evMu.Unlock()
		}
	}
	var wg sync.WaitGroup
	i := 0
	for _, cfgName := range req.Configs {
		for _, wl := range req.Workloads {
			for _, seed := range req.Seeds {
				cell := rcache.CellSpec{Config: cfgName, Workload: wl, Seed: seed, Instructions: req.Instructions}
				switch {
				case f.role.FanOut:
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						resolve(i, cell)
					}(i)
				case ctx.Err() == nil:
					resolve(i, cell)
				}
				i++
			}
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return SweepResponse{}, err
	}
	resp := SweepResponse{Cells: rows}
	for i := range rows {
		if rows[i].Error != "" {
			resp.Errors++
		}
	}
	return resp, nil
}

// sweepCell resolves the cell at grid index i into its row and its
// progress event.
func (f *Front) sweepCell(ctx context.Context, i, total int, cell rcache.CellSpec, noCache bool, compute CellFunc) (SweepCell, CellEvent) {
	row := SweepCell{Config: cell.Config, Workload: cell.Workload, Seed: cell.Seed}
	out, err := f.resolveCell(ctx, cell, noCache, compute)
	var sum CellSummary
	if err == nil {
		sum, err = Headline(cell, out.Stats)
	}
	if err != nil {
		row.Error = err.Error()
		if ctx.Err() == nil {
			f.CellErrors.Add(1)
		}
		return row, CellEvent{Type: "cell", Index: i, Total: total,
			Config: cell.Config, Workload: cell.Workload, Seed: cell.Seed, Error: row.Error}
	}
	row.Instructions, row.Cycles = sum.Instructions, sum.Cycles
	row.MPKI, row.IPC, row.Accuracy = sum.MPKI, sum.IPC, sum.Accuracy
	f.countCell(out)
	return row, cellEvent(i, total, cell, out, sum)
}

// CellSummary is the headline numbers reconstructed from a canonical
// stats payload — the cache stores only the canonical stats JSON (the
// byte-exact form the equiv auditor re-derives), so API rows are a
// pure function of it. Sharing it between the roles is what makes a
// fleet sweep byte-identical to a single-box one.
type CellSummary struct {
	Instructions int64
	Branches     int64
	Cycles       int64
	MPKI         float64
	IPC          float64
	Accuracy     float64
}

// Summarize decodes a canonical stats payload into its snapshot and
// headline numbers. It is the full decode: the service runs it only
// for a full_stats simulate reply and takes rows from Headline, which
// it is the reference for.
func Summarize(cell rcache.CellSpec, stats []byte) (*metrics.Snapshot, CellSummary, error) {
	var snap metrics.Snapshot
	if err := json.Unmarshal(stats, &snap); err != nil {
		return nil, CellSummary{}, fmt.Errorf("cell %v: undecodable stats payload: %w", cell, err)
	}
	return &snap, CellSummary{
		Instructions: int64(snap.Gauges["sim.instructions"]),
		Branches:     int64(snap.Gauges["sim.branches"]),
		Cycles:       snap.Counters["sim.cycles"],
		MPKI:         snap.Gauges["sim.mpki"],
		IPC:          snap.Gauges["sim.ipc"],
		Accuracy:     snap.Gauges["sim.accuracy"],
	}, nil
}
