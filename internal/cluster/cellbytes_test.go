package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"zbp/internal/rcache"
	"zbp/internal/server"
)

// canonicalEntry is a backend's cache entry as the coordinator keeps
// it: the same bytes less the trailing newline, which the
// json.RawMessage in server.CellResponse never keeps.
func canonicalEntry(b []byte) []byte { return bytes.TrimSuffix(b, []byte("\n")) }

// TestCoordinatorCachesCanonicalBytes requires the coordinator's cache
// entries to be its backends' canonical stats byte for byte: /v1/cell
// passes the stored bytes through, and the coordinator stores what it
// decoded.
func TestCoordinatorCachesCanonicalBytes(t *testing.T) {
	f := newFleet(t, 2, func(c *Config) {
		c.HedgeDelay = -1
		c.AuditEvery = -1
	})
	grid := testGrid()
	runSweepJob(t, f.url, grid)
	for _, cfg := range grid.Configs {
		for _, wl := range grid.Workloads {
			for _, seed := range grid.Seeds {
				spec := rcache.CellSpec{Config: cfg, Workload: wl, Seed: seed, Instructions: grid.Instructions}
				got, ok := f.coord.Cache().Get(RouteKey(spec))
				if !ok {
					t.Fatalf("%v missing from the coordinator cache", spec)
				}
				held := 0
				for i, s := range f.servers {
					want, ok := s.Cache().Get(rcache.NewKey(spec))
					if !ok {
						continue
					}
					held++
					if !bytes.Equal(got, canonicalEntry(want)) {
						t.Errorf("%v: coordinator entry (%d B) is not backend %d's canonical entry (%d B)",
							spec, len(got), i, len(want))
					}
				}
				if held == 0 {
					t.Errorf("%v: no backend holds the cell", spec)
				}
			}
		}
	}
}

// TestUndecodableBackendEntryRerouted gives the cell's first-choice
// backend a disk cache entry that is not JSON. The backend serves it
// verbatim inside its /v1/cell reply; the coordinator must refuse that
// reply, reroute the cell, return the correct row, and never cache the
// garbage.
func TestUndecodableBackendEntryRerouted(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	f := newFleetOn(t, dirs, func(c *Config) {
		c.HedgeDelay = -1
		c.AuditEvery = -1
	})
	spec := rcache.CellSpec{Config: "z15", Workload: "loops", Seed: 3, Instructions: 20_000}
	first := f.coord.order(f.coord.fleet.snapshot(), spec)[0]
	poisoned := -1
	for i, b := range f.backends {
		if b.URL == first.url {
			poisoned = i
		}
	}
	if poisoned < 0 {
		t.Fatalf("first choice %s is not a fleet backend", first.url)
	}
	// Plant the entry on disk through a second cache over the same
	// directory, so the backend meets it on its first lookup.
	planter, err := rcache.New(rcache.Config{Dir: dirs[poisoned]})
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("not json {\n")
	planter.Put(rcache.NewKey(spec), garbage)

	sweep := server.SweepRequest{
		Configs: []string{spec.Config}, Workloads: []string{spec.Workload},
		Seeds: []uint64{spec.Seed}, Instructions: spec.Instructions,
	}
	resp, body := postJSON(t, f.url+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	ref, err := server.New(server.Config{Workers: 1, AuditEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Sweep(t.Context(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	var got server.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Errors != 0 || len(got.Cells) != 1 || got.Cells[0] != want.Cells[0] {
		t.Errorf("row %+v, want %+v", got.Cells, want.Cells)
	}

	if f.servers[poisoned].Cache().DiskHits() == 0 {
		t.Error("the first-choice backend never served its disk entry")
	}
	if f.coord.retries.Load() == 0 {
		t.Error("the undecodable reply was not rerouted")
	}
	entry, ok := f.coord.Cache().Get(RouteKey(spec))
	if !ok {
		t.Fatal("the rerouted cell is not in the coordinator cache")
	}
	if bytes.Contains(entry, []byte("not json")) || !json.Valid(entry) {
		t.Errorf("coordinator cached %q", entry)
	}
	if honest, ok := f.servers[1-poisoned].Cache().Get(rcache.NewKey(spec)); !ok || !bytes.Equal(entry, canonicalEntry(honest)) {
		t.Error("coordinator entry is not the rerouted backend's canonical entry")
	}
}
