package cluster

// Elastic fleet membership. The coordinator's backend set is a
// mutable, versioned registry rather than a boot-time constant:
// backends join and leave a running coordinator through the
// /v1/backends admin surface (GET list, POST register, DELETE
// deregister) or through a -backends-file the probe loop re-reads
// whenever it changes.
//
// The consistency story leans on the same property everything else in
// this package does — rendezvous routing over the result-cache key:
//
//   - Membership is snapshotted once per sweep (RunSweep/RunSimulate
//     pin the member list before fanning out). In-flight cells finish
//     against their snapshot; membership changes only steer cells
//     dispatched after them.
//   - A removed backend is first marked departed, which removes it
//     from every routing decision immediately (including sweeps still
//     running on a snapshot that contains it). Highest-random-weight
//     ordering means only the departed backend's cells migrate — to
//     their second choice — while every other cell stays put.
//   - Removal then drains the backend's in-flight dispatch slots:
//     attempts already on the wire finish (their results are valid —
//     determinism again) before the member is forgotten.
//   - A newly registered backend starts healthy ("innocent until
//     probed") and begins receiving its rendezvous share on the next
//     sweep. Nothing rebalances: the hash already owns placement.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"zbp/internal/server"
)

// memberSet is the fleet registry: the live member list plus a version
// that bumps on every add/forget, so operators (and tests) can tell
// two healthz snapshots apart.
type memberSet struct {
	mu      sync.RWMutex
	members []*backend
	version int64
}

// snapshot returns a copy of the current member list. Sweeps call this
// once and route against the copy for their whole lifetime.
func (f *memberSet) snapshot() []*backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*backend(nil), f.members...)
}

func (f *memberSet) generation() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

func (f *memberSet) size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.members)
}

// get finds a member by its clean base URL.
func (f *memberSet) get(cleanURL string) (*backend, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, b := range f.members {
		if b.url == cleanURL {
			return b, true
		}
	}
	return nil, false
}

// add registers a new member. Duplicate URLs are rejected — including
// a member that is still draining out, so a remove/re-add race cannot
// alias two *backend values onto one box.
func (f *memberSet) add(b *backend) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.members {
		if m.url == b.url {
			if m.departed.Load() {
				return fmt.Errorf("cluster: backend %s is still draining; retry once it is gone", b.url)
			}
			return fmt.Errorf("cluster: backend %s already registered", b.url)
		}
	}
	f.members = append(f.members, b)
	f.version++
	return nil
}

// forget removes a member by identity. Idempotent: forgetting a
// backend twice is a no-op.
func (f *memberSet) forget(b *backend) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, m := range f.members {
		if m == b {
			f.members = append(f.members[:i], f.members[i+1:]...)
			f.version++
			return
		}
	}
}

// registerBackend validates and admits one new fleet member.
func (c *Coordinator) registerBackend(raw string) (*backend, error) {
	b, err := newBackend(raw, c.cfg.InflightPerBackend)
	if err != nil {
		return nil, err
	}
	if err := c.fleet.add(b); err != nil {
		return nil, err
	}
	c.backendAdded.Add(1)
	log.Printf("cluster: backend %s registered (%d members)", b.name, c.fleet.size())
	return b, nil
}

// removeBackend retires one member: mark departed (instantly invisible
// to routing, even inside running sweeps), drain its in-flight
// dispatch slots bounded by ctx, then forget it. Returns whether the
// drain completed before the bound.
func (c *Coordinator) removeBackend(ctx context.Context, b *backend) bool {
	b.departed.Store(true)
	drained := c.awaitDrain(ctx, b)
	c.fleet.forget(b)
	c.backendRemoved.Add(1)
	log.Printf("cluster: backend %s deregistered (drained=%v, %d members left)",
		b.name, drained, c.fleet.size())
	return drained
}

// awaitDrain waits for b's in-flight dispatches to finish. Departed
// backends get no new dispatches, so this terminates as soon as the
// attempts already on the wire come back (or ctx gives up first).
func (c *Coordinator) awaitDrain(ctx context.Context, b *backend) bool {
	if b.inflight.Load() == 0 {
		return true
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return b.inflight.Load() == 0
		case <-c.Context().Done():
			return b.inflight.Load() == 0
		case <-t.C:
			if b.inflight.Load() == 0 {
				return true
			}
		}
	}
}

// --- /v1/backends admin surface ---------------------------------------

// BackendsResponse is the GET /v1/backends body.
type BackendsResponse struct {
	// Version bumps on every membership change.
	Version  int64           `json:"version"`
	Backends []BackendStatus `json:"backends"`
}

// backendChangeRequest is the POST (and optionally DELETE) body.
type backendChangeRequest struct {
	URL string `json:"url"`
}

// BackendChangeResponse answers a register or deregister.
type BackendChangeResponse struct {
	Backend BackendStatus `json:"backend"`
	// Drained reports (on deregister) that every in-flight dispatch to
	// the backend finished before it was forgotten.
	Drained bool  `json:"drained,omitempty"`
	Version int64 `json:"version"`
}

func (c *Coordinator) handleBackendsList(w http.ResponseWriter, r *http.Request) {
	c.Requests.Add(1)
	resp := BackendsResponse{Version: c.fleet.generation()}
	for _, b := range c.fleet.snapshot() {
		resp.Backends = append(resp.Backends, b.status())
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleBackendAdd(w http.ResponseWriter, r *http.Request) {
	c.Requests.Add(1)
	if c.Context().Err() != nil {
		c.ShuttingDown(w)
		return
	}
	var req backendChangeRequest
	if !c.Decode(w, r, &req) {
		return
	}
	if req.URL == "" {
		c.Fail(w, http.StatusBadRequest, errors.New("missing backend url"))
		return
	}
	b, err := c.registerBackend(req.URL)
	if err != nil {
		status := http.StatusBadRequest
		if c.urlInFleet(req.URL) || strings.Contains(err.Error(), "draining") {
			status = http.StatusConflict
		}
		c.Fail(w, status, err)
		return
	}
	server.WriteJSON(w, http.StatusCreated, BackendChangeResponse{
		Backend: b.status(), Version: c.fleet.generation(),
	})
}

func (c *Coordinator) urlInFleet(raw string) bool {
	_, clean, err := backendName(raw)
	if err != nil {
		return false
	}
	_, ok := c.fleet.get(clean)
	return ok
}

func (c *Coordinator) handleBackendRemove(w http.ResponseWriter, r *http.Request) {
	c.Requests.Add(1)
	raw := r.URL.Query().Get("url")
	if raw == "" {
		var req backendChangeRequest
		if !c.Decode(w, r, &req) {
			return
		}
		raw = req.URL
	}
	if raw == "" {
		c.Fail(w, http.StatusBadRequest, errors.New("missing backend url (query ?url= or JSON body)"))
		return
	}
	_, clean, err := backendName(raw)
	if err != nil {
		c.Fail(w, http.StatusBadRequest, err)
		return
	}
	b, ok := c.fleet.get(clean)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no such backend %s", clean))
		return
	}
	// Bound the drain by the client's patience and one cell attempt:
	// nothing in flight can outlive CellTimeout.
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.CellTimeout)
	defer cancel()
	drained := c.removeBackend(ctx, b)
	server.WriteJSON(w, http.StatusOK, BackendChangeResponse{
		Backend: b.status(), Drained: drained, Version: c.fleet.generation(),
	})
}

// --- -backends-file reload --------------------------------------------

// maybeReloadBackendsFile re-reads the membership file when its mtime
// or size moved, and reconciles the fleet to it. Runs on the probe
// loop's goroutine (and once at construction), so no extra watcher
// machinery: membership changes land within one probe interval.
func (c *Coordinator) maybeReloadBackendsFile() {
	path := c.cfg.BackendsFile
	if path == "" {
		return
	}
	fi, err := os.Stat(path)
	if err != nil {
		if !c.bfWarned {
			c.bfWarned = true
			log.Printf("cluster: backends file %s unreadable (membership unchanged): %v", path, err)
		}
		return
	}
	if fi.ModTime().Equal(c.bfMod) && fi.Size() == c.bfSize {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Printf("cluster: backends file %s unreadable (membership unchanged): %v", path, err)
		return
	}
	c.bfMod, c.bfSize, c.bfWarned = fi.ModTime(), fi.Size(), false
	c.reconcile(parseBackendsFile(string(data)))
}

// parseBackendsFile extracts backend URLs: one per line, blank lines
// and #-comments ignored.
func parseBackendsFile(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// reconcile drives membership toward urls: members absent from the
// list drain out (in the background — the probe loop must not stall
// behind a slow cell), URLs absent from the fleet join. The file is
// declarative: when -backends-file is set, it wins over earlier admin
// edits on its next change.
func (c *Coordinator) reconcile(urls []string) {
	want := make(map[string]string, len(urls))
	for _, raw := range urls {
		_, clean, err := backendName(raw)
		if err != nil {
			log.Printf("cluster: backends file: skipping %q: %v", raw, err)
			continue
		}
		want[clean] = raw
	}
	for _, b := range c.fleet.snapshot() {
		if b.departed.Load() {
			continue
		}
		if _, ok := want[b.url]; ok {
			delete(want, b.url)
			continue
		}
		c.wg.Add(1)
		go func(b *backend) {
			defer c.wg.Done()
			ctx, cancel := context.WithTimeout(c.Context(), c.cfg.CellTimeout)
			defer cancel()
			c.removeBackend(ctx, b)
		}(b)
	}
	for _, raw := range want {
		if _, err := c.registerBackend(raw); err != nil {
			log.Printf("cluster: backends file: %v", err)
		}
	}
}

// Backends reports the current membership as status rows (the
// programmatic form of GET /v1/backends, used by zbench and tests).
func (c *Coordinator) Backends() []BackendStatus {
	members := c.fleet.snapshot()
	out := make([]BackendStatus, len(members))
	for i, b := range members {
		out[i] = b.status()
	}
	return out
}
