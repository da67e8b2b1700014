package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"zbp/internal/rcache"
)

// POST /v1/cell: the cluster coordinator's backend protocol. One
// deterministic cell in, its canonical stats JSON out, routed through
// the content-addressed result cache. The contract that makes fleet
// scheduling simple lives here:
//
//   - A cache hit (memory, disk, or coalesced onto an identical
//     in-flight compute) is served without consuming a queue slot, so
//     warm cells cost microseconds no matter how saturated the box is
//     — the property rendezvous routing exists to exploit.
//   - A miss takes one bounded-queue slot exactly like a sync
//     simulate; a full queue answers 429 with the same derived
//     Retry-After, which the coordinator treats as a reroute signal.
//   - The response is the canonical stats payload (the bytes the
//     equiv auditor re-derives), so any replica — or a hedged
//     duplicate — returns byte-identical content and the coordinator
//     needs no reconciliation logic.
//   - The 200 reply is framed by hand around the stored bytes, which
//     go out verbatim: no compaction or indent pass, so a warm cell
//     costs a cache lookup and a copy. The coordinator decodes the
//     CellResponse envelope under its byte bound, and that decode is
//     the check on bytes from outside its process: a disk entry that
//     is not one JSON value fails it and the cell is rerouted. (An
//     entry crafted to close the envelope early is no new hole: whoever
//     can write one can write wrong but valid stats, which only the
//     audit catches.) The coordinator caches the stats it decoded, so
//     its entries are the canonical bytes less their trailing newline
//     (~4.1 KB for a 10k-instruction z15 cell), and its byte-bounded
//     cache counts entries of that size.
//   - The coordinator's rows come from Headline, a narrow decode of
//     the same bytes that reads six numbers.

// CellRequest is the POST /v1/cell body: a simulate request plus the
// cache-bypass knob jobs already expose.
type CellRequest struct {
	SimulateRequest
	// NoCache forces recomputation and skips the result cache on both
	// read and write.
	NoCache bool `json:"no_cache,omitempty"`
}

// CellResponse is the POST /v1/cell reply. The handler writes it with
// writeCellReply; clients decode it as this struct.
type CellResponse struct {
	// Cached reports that no simulation ran for this request.
	Cached bool `json:"cached"`
	// Stats is the canonical schema-versioned stats JSON for the cell.
	Stats json.RawMessage `json:"stats"`
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	s.Requests.Add(1)
	var req CellRequest
	if !s.Decode(w, r, &req) {
		return
	}
	seed, err := s.normalizeSimulate(&req.SimulateRequest)
	if err != nil {
		s.Fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	cell := rcache.CellSpec{
		Config: req.Config, Workload: req.Workload, Workload2: req.Workload2,
		Seed: seed, Instructions: req.Instructions,
	}
	// Misses acquire a queue slot around the compute; hits bypass the
	// queue entirely.
	compute := func(ctx context.Context, cell rcache.CellSpec, _ bool) (CellOutcome, error) {
		var (
			b    []byte
			cerr error
		)
		if submitErr := s.enqueue(ctx, func(ctx context.Context) {
			b, cerr = s.computeCellStats(ctx, cell)
		}); submitErr != nil {
			return CellOutcome{}, submitErr
		}
		if cerr == nil && ctx.Err() != nil {
			// Skipped while queued: the deadline beat the workers to it.
			cerr = ctx.Err()
		}
		return CellOutcome{Stats: b}, cerr
	}
	out, err := s.resolveCell(ctx, cell, req.NoCache, compute)
	if err != nil {
		s.replyError(w, err)
		return
	}
	s.Completed.Add(1)
	writeCellReply(w, out.Cached, out.Stats)
}

// writeCellReply answers 200 with a CellResponse whose stats are the
// given bytes as they are: {"cached":<bool>,"stats":<stats>}.
func writeCellReply(w http.ResponseWriter, cached bool, stats []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, `{"cached":`+strconv.FormatBool(cached)+`,"stats":`)
	_, _ = w.Write(stats)
	_, _ = io.WriteString(w, "}\n")
}
