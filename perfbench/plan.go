package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"zbp/internal/server"
)

// kind is the request shape a workload sends.
type kind int

const (
	// simulateKind sends POST /v1/simulate with full_stats, one cell per
	// request, to a single zbpd.
	simulateKind kind = iota
	// sweepKind sends POST /v1/sweep to a single zbpd.
	sweepKind
	// coordKind sends POST /v1/sweep to a coordinator in front of
	// zbpd backends.
	coordKind
)

// cell is one grid cell: a machine preset, a workload and its seed.
// The instruction budget is the plan's.
type cell struct {
	Config   string
	Workload string
	Seed     uint64
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/%d", c.Config, c.Workload, c.Seed) }

// plan is one benchmark workload: the grid it draws cells from, the
// request shape, and the service configuration it runs against.
type plan struct {
	name      string
	kind      kind
	configs   []string
	workloads []string
	// seedPool holds the cell seeds, drawn from the workload seed.
	seedPool []uint64
	// perReq is how many seeds of the pool one sweep request draws.
	perReq int
	instr  int

	// coordKind only.
	backends int
	// coordCacheBytes bounds the coordinator's result cache.
	coordCacheBytes int64
	// backendCacheBytes bounds each backend's result cache; 0 keeps
	// the server default.
	backendCacheBytes int64
}

// warmCoordCacheBytes holds about half of warm-repeat's 256-cell
// working set: an entry is its ~4.2 KB stats payload plus the 256 B
// the cache charges per entry, so 128 entries take about 0.55 MiB.
const warmCoordCacheBytes = 128 * (4200 + 256)

// workloadNames lists the workloads the program runs. BENCHMARK.json
// lists sweep-short and warm-repeat; simulate-long is run by hand, as
// README.md explains.
var workloadNames = []string{"simulate-long", "sweep-short", "warm-repeat"}

// newPlan builds the named workload. seed picks the cell seeds; the
// servers only ever see the generated requests.
func newPlan(name string, seed uint64) (*plan, error) {
	var p plan
	switch name {
	case "simulate-long":
		// The cycle loop dominates: 500k instructions per cell, no
		// result cache on the sync simulate path.
		p = plan{kind: simulateKind, configs: []string{"z15", "z14"},
			workloads: []string{"lspr-large", "micro", "loops"}, perReq: 1, instr: 500_000}
		p.seedPool = drawSeeds(seed, 2)
	case "sweep-short":
		// Machine construction dominates: 5k instructions per cell,
		// every cell simulated (the sync sweep has no result cache).
		p = plan{kind: sweepKind, configs: []string{"zEC12", "z13", "z14", "z15"},
			workloads: []string{"lspr-small", "micro", "loops", "callret"}, perReq: 2, instr: 5_000}
		p.seedPool = drawSeeds(seed, 8)
	case "warm-repeat":
		// Nothing is simulated in the window: half the cells hit the
		// coordinator cache, the rest are dispatched and served from a
		// backend cache filled during set-up.
		p = plan{kind: coordKind, configs: []string{"z15", "z14"},
			workloads: []string{"loops", "micro", "callret", "patterned"}, perReq: 8, instr: 10_000,
			backends: 2, coordCacheBytes: warmCoordCacheBytes}
		p.seedPool = drawSeeds(seed, 32)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	p.name = name
	return &p, nil
}

// drawSeeds returns n distinct cell seeds derived from the workload
// seed.
func drawSeeds(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x7a6270))
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := rng.Uint64N(1<<20) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// numCells is the size of the distinct-cell set.
func (p *plan) numCells() int { return len(p.configs) * len(p.workloads) * len(p.seedPool) }

// cellAt decodes a cell index: configs outermost, seeds innermost,
// the order sweep rows come back in.
func (p *plan) cellAt(i int) cell {
	ns, nw := len(p.seedPool), len(p.workloads)
	return cell{
		Config:   p.configs[i/(ns*nw)],
		Workload: p.workloads[(i/ns)%nw],
		Seed:     p.seedPool[i%ns],
	}
}

func (p *plan) cellIndex(ci, wi, si int) int32 {
	return int32((ci*len(p.workloads)+wi)*len(p.seedPool) + si)
}

// request is one HTTP request with the cells its reply carries, in
// reply order.
type request struct {
	path  string
	body  []byte
	cells []int32
}

// simulateRequest builds the request for one cell.
func (p *plan) simulateRequest(i int32) request {
	c := p.cellAt(int(i))
	seed := c.Seed
	body, _ := json.Marshal(server.SimulateRequest{
		Config: c.Config, Workload: c.Workload, Seed: &seed,
		Instructions: p.instr, FullStats: true,
	})
	return request{path: "/v1/simulate", body: body, cells: []int32{i}}
}

// sweepRequest builds the full config x workload grid over the given
// seed-pool indices.
func (p *plan) sweepRequest(seedIdx []int) request {
	seeds := make([]uint64, len(seedIdx))
	for k, si := range seedIdx {
		seeds[k] = p.seedPool[si]
	}
	body, _ := json.Marshal(server.SweepRequest{
		Configs: p.configs, Workloads: p.workloads, Seeds: seeds, Instructions: p.instr,
	})
	cells := make([]int32, 0, len(p.configs)*len(p.workloads)*len(seedIdx))
	for ci := range p.configs {
		for wi := range p.workloads {
			for _, si := range seedIdx {
				cells = append(cells, p.cellIndex(ci, wi, si))
			}
		}
	}
	return request{path: "/v1/sweep", body: body, cells: cells}
}

// warmupRequests covers every distinct cell exactly once.
func (p *plan) warmupRequests() []request {
	var out []request
	if p.kind == simulateKind {
		for i := 0; i < p.numCells(); i++ {
			out = append(out, p.simulateRequest(int32(i)))
		}
		return out
	}
	for lo := 0; lo < len(p.seedPool); lo += p.perReq {
		idx := make([]int, 0, p.perReq)
		for si := lo; si < lo+p.perReq && si < len(p.seedPool); si++ {
			idx = append(idx, si)
		}
		out = append(out, p.sweepRequest(idx))
	}
	return out
}

// requestStream is one client's deterministic request sequence.
type requestStream struct {
	p    *plan
	rng  *rand.Rand
	perm []int // simulateKind: the current pass over the cells
}

func (p *plan) stream(seed uint64, client int) *requestStream {
	return &requestStream{p: p, rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
}

// atPassEnd reports whether the stream has finished a pass over the
// cells. Sweep requests each draw afresh, so every request ends one.
func (s *requestStream) atPassEnd() bool { return len(s.perm) == 0 }

// next returns the client's next request. Simulate clients cycle
// through the cells, one shuffled pass after another; sweep clients
// draw perReq distinct seeds from the pool.
func (s *requestStream) next() request {
	if s.p.kind == simulateKind {
		if len(s.perm) == 0 {
			s.perm = s.rng.Perm(s.p.numCells())
		}
		i := s.perm[0]
		s.perm = s.perm[1:]
		return s.p.simulateRequest(int32(i))
	}
	return s.p.sweepRequest(s.rng.Perm(len(s.p.seedPool))[:s.p.perReq])
}
