package server

import (
	"context"
	"net/http"

	"zbp/internal/equiv"
)

// DiffRequest is the POST /v1/diff body: run the differential
// equivalence harness (internal/equiv) over a Configs x Workloads grid
// and report every divergence. A deployment smoke test for the
// simulator itself — the service-side twin of cmd/zdiff.
type DiffRequest struct {
	Configs      []string `json:"configs,omitempty"` // default ["z15"]
	Workloads    []string `json:"workloads"`         // required
	Seed         *uint64  `json:"seed,omitempty"`    // default 42
	Instructions int      `json:"instructions,omitempty"`
	TimeoutMs    int      `json:"timeout_ms,omitempty"`
	// Checks selects a subset of equiv.CheckNames(); empty runs all.
	Checks []string `json:"checks,omitempty"`
	// Perturb deliberately corrupts predictor state so operators can
	// verify end to end that the harness detects real divergence; a
	// perturbed run reporting zero divergences means the check layer is
	// broken.
	Perturb bool `json:"perturb,omitempty"`
}

// DiffFinding is one reported divergence.
type DiffFinding struct {
	Check  string `json:"check"`
	Metric string `json:"metric,omitempty"`
	Detail string `json:"detail"`
}

// DiffCell is one grid point's verdict.
type DiffCell struct {
	Config   string        `json:"config"`
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Checks   int           `json:"checks"`
	OK       bool          `json:"ok"`
	Findings []DiffFinding `json:"findings,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// DiffResponse is the POST /v1/diff reply, cells in grid order.
type DiffResponse struct {
	Cells       []DiffCell `json:"cells"`
	Divergences int        `json:"divergences"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	s.Requests.Add(1)
	var req DiffRequest
	if !s.Decode(w, r, &req) {
		return
	}
	seed, _, err := s.normalizeDiff(&req)
	if err != nil {
		s.Fail(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	grid := equiv.Grid(req.Configs, req.Workloads, seed, req.Instructions)
	opts := equiv.Options{Checks: req.Checks, Perturb: req.Perturb}
	var results []equiv.CellResult
	err = s.enqueue(ctx, func(ctx context.Context) {
		// Like sweeps, the whole grid occupies one queue slot;
		// parallelism 1 keeps simulation concurrency at the worker
		// count.
		results = equiv.CheckGrid(ctx, grid, opts, 1)
	})
	if err == nil && results == nil {
		// Skipped while queued.
		err = ctx.Err()
	}
	resp := DiffResponse{Cells: make([]DiffCell, len(results))}
	for i, cr := range results {
		resp.Cells[i] = s.diffCell(&resp, cr)
	}
	s.reply(w, resp, err)
}

// Diff runs a diff job's grid one cell at a time inside the job's
// queue slot, stopping at the first sign of cancellation.
func (s *Server) Diff(ctx context.Context, req DiffRequest, seed uint64, onCell func(i, total int, c DiffCell)) (DiffResponse, error) {
	grid := equiv.Grid(req.Configs, req.Workloads, seed, req.Instructions)
	opts := equiv.Options{Checks: req.Checks, Perturb: req.Perturb}
	resp := DiffResponse{Cells: make([]DiffCell, 0, len(grid))}
	for i, cell := range grid {
		if err := ctx.Err(); err != nil {
			return DiffResponse{}, err
		}
		cr := equiv.CheckCell(ctx, cell, opts)
		if err := ctx.Err(); err != nil {
			return DiffResponse{}, err
		}
		dc := s.diffCell(&resp, cr)
		resp.Cells = append(resp.Cells, dc)
		onCell(i, len(grid), dc)
	}
	return resp, nil
}

// diffCell converts one harness cell result to the API shape and
// counts a divergence against resp and the service.
func (s *Server) diffCell(resp *DiffResponse, cr equiv.CellResult) DiffCell {
	cell := DiffCell{
		Config:   cr.Cell.Config,
		Workload: cr.Cell.Workload,
		Seed:     cr.Cell.Seed,
		Checks:   len(cr.Checks),
		OK:       cr.OK(),
	}
	if cr.Err != nil {
		cell.Error = cr.Err.Error()
	}
	for _, f := range cr.Findings() {
		cell.Findings = append(cell.Findings, DiffFinding{
			Check: f.Check, Metric: f.Metric, Detail: f.Detail,
		})
	}
	if !cell.OK {
		resp.Divergences++
		s.diffDivergences.Add(1)
	}
	return cell
}
