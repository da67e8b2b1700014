package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"zbp/internal/rcache"
	"zbp/internal/server"
)

// The fleet executor: what the coordinator does differently behind
// the shared service front (server.Front). Everything else about the
// request surface — decoding, normalization, the job table, the
// result cache and its audit lane — is the front's.

var errAdmission = errors.New("fleet admission limit reached, retry later")

// ResolvePath passes path-backed workloads (file:/spec:) through: each
// backend enforces its own -trace-dir allowlist, and the router keys
// by content digest when the coordinator can read the file, by name
// otherwise (stable either way).
func (c *Coordinator) ResolvePath(name string) (string, error) { return name, nil }

// Admit charges the token bucket one token per cell. On refusal the
// Retry-After hint is the larger of the bucket's refill horizon and
// the fleet's estimated time-to-capacity, clamped to [1s, 60s] — an
// honest hint, not a fixed number.
func (c *Coordinator) Admit(cells int) (int, error) {
	if c.bucket == nil {
		return 0, nil
	}
	ok, wait := c.bucket.take(float64(cells))
	if ok {
		return 0, nil
	}
	return clampSeconds(max(wait.Seconds(), c.fleetWaitSeconds())), errAdmission
}

// RetryAfter is the fleet's estimated time-to-capacity.
func (c *Coordinator) RetryAfter() int { return clampSeconds(c.fleetWaitSeconds()) }

func clampSeconds(s float64) int {
	return min(max(int(math.Ceil(s)), 1), 60)
}

// Schedule runs a job at once: its cells queue on the backends, not
// here.
func (c *Coordinator) Schedule(ctx context.Context, run func(ctx context.Context)) error {
	run(ctx)
	return nil
}

// Compute pins the membership once for the request: every cell routes
// against this snapshot, so concurrent joins/leaves cannot shuffle
// cells between backends mid-grid. (A member deregistered mid-sweep is
// still skipped instantly — candidates() drops departed members from
// every snapshot.)
func (c *Coordinator) Compute() server.CellFunc {
	members := c.fleet.snapshot()
	return func(ctx context.Context, cell rcache.CellSpec, noCache bool) (server.CellOutcome, error) {
		return c.dispatchCell(ctx, members, cell, noCache)
	}
}

// Simulate resolves one cell through the coordinator's result cache
// and the fleet.
func (c *Coordinator) Simulate(ctx context.Context, req server.SimulateRequest, seed uint64) (server.SimulateResponse, error) {
	resp, _, err := c.SimulateCell(ctx, req, seed, false)
	return resp, err
}

// Sweep fans a sync sweep across the fleet.
func (c *Coordinator) Sweep(ctx context.Context, req server.SweepRequest) (server.SweepResponse, error) {
	return c.RunSweep(ctx, req, false, nil)
}

// RunSweep fans one normalized sweep grid across the fleet, all cells
// in flight at once (bounded by per-backend slots), through the
// coordinator's result cache. onEvent (optional) fires once per
// finished cell, in completion order, with Done monotonically
// increasing. The response marshals byte-identically to a single-box
// sweep of the same grid (see server.Front.SweepCells).
func (c *Coordinator) RunSweep(ctx context.Context, req server.SweepRequest, noCache bool, onEvent func(server.CellEvent)) (server.SweepResponse, error) {
	return c.SweepCells(ctx, req, noCache, c.Compute(), onEvent)
}

// Audit re-resolves one sampled coordinator cache hit through the
// fleet — no_cache all the way down, so the backend simulates rather
// than answering from its own cache — and byte-compares the canonical
// stats. Determinism down to identical bytes is what makes the
// comparison exact.
func (c *Coordinator) Audit(ctx context.Context, cell rcache.CellSpec, stats []byte) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.CellTimeout)
	defer cancel()
	out, err := c.dispatchCell(ctx, c.fleet.snapshot(), cell, true)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out.Stats, stats) {
		return []string{fmt.Sprintf("cached stats diverge from a fleet recompute (cfg=%s wl=%s seed=%d n=%d)",
			cell.Config, cell.Workload, cell.Seed, cell.Instructions)}, nil
	}
	return nil, nil
}

// Diff forwards a diff job's grid to one backend as a sync request —
// the differential harness recomputes on purpose, so there is nothing
// to shard or cache — retrying on the next backend if the chosen one
// fails.
func (c *Coordinator) Diff(ctx context.Context, req server.DiffRequest, _ uint64, onCell func(i, total int, dc server.DiffCell)) (server.DiffResponse, error) {
	// The job's ctx is the real deadline; give the backend's own sync
	// clamp as much room as it allows.
	req.TimeoutMs = int(c.cfg.MaxTimeout / time.Millisecond)
	body, err := json.Marshal(req)
	if err != nil {
		return server.DiffResponse{}, err
	}
	cands := c.candidates(c.fleet.snapshot())
	if len(cands) == 0 {
		return server.DiffResponse{}, errors.New("no backends available")
	}
	start := int(c.rr.Add(1) - 1)
	var lastErr error
	for k := range cands {
		if ctx.Err() != nil {
			return server.DiffResponse{}, ctx.Err()
		}
		b := cands[(start+k)%len(cands)]
		resp, permanent, ferr := c.forwardDiff(ctx, b, body)
		if ferr != nil {
			lastErr = ferr
			if permanent {
				return server.DiffResponse{}, ferr
			}
			continue
		}
		for i, dc := range resp.Cells {
			onCell(i, len(resp.Cells), dc)
		}
		return *resp, nil
	}
	if ctx.Err() != nil {
		return server.DiffResponse{}, ctx.Err()
	}
	return server.DiffResponse{}, fmt.Errorf("diff failed on every backend: %w", lastErr)
}

func (c *Coordinator) forwardDiff(ctx context.Context, b *backend, body []byte) (*server.DiffResponse, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/diff", bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		if ctx.Err() == nil {
			c.noteBackendFailure(b)
		}
		return nil, false, fmt.Errorf("backend %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		c.noteBackendSuccess(b)
		var dr server.DiffResponse
		if derr := json.NewDecoder(io.LimitReader(resp.Body, maxCellResponseBytes)).Decode(&dr); derr != nil {
			return nil, false, fmt.Errorf("backend %s: undecodable diff response: %w", b.name, derr)
		}
		return &dr, false, nil
	case resp.StatusCode == http.StatusBadRequest:
		return nil, true, fmt.Errorf("backend %s rejected diff: %s", b.name, readError(resp.Body))
	default:
		c.noteBackendFailure(b)
		return nil, false, fmt.Errorf("backend %s: %s: %s", b.name, resp.Status, readError(resp.Body))
	}
}

// --- introspection ----------------------------------------------------

// HealthResponse is the coordinator's GET /healthz body: its own role
// plus one row per backend with the last scraped load snapshot.
// Version is the membership generation (bumps on every join/leave).
type HealthResponse struct {
	Status   string          `json:"status"`
	Role     string          `json:"role"`
	Router   string          `json:"router"`
	Version  int64           `json:"version"`
	Backends []BackendStatus `json:"backends"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status: "ok", Role: "coordinator", Router: c.router.name(),
		Version: c.fleet.generation(),
	}
	for _, b := range c.fleet.snapshot() {
		resp.Backends = append(resp.Backends, b.status())
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
