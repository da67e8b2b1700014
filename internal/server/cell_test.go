package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"zbp/internal/metrics"
	"zbp/internal/rcache"
)

func TestCellEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := CellRequest{SimulateRequest: SimulateRequest{
		Workload: "loops", Instructions: 20_000,
	}}

	resp, body := postJSON(t, ts.URL+"/v1/cell", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first CellResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(first.Stats, &snap); err != nil {
		t.Fatalf("stats payload is not a snapshot: %v", err)
	}
	if snap.SchemaVersion != metrics.SchemaVersion {
		t.Errorf("schema %d, want %d", snap.SchemaVersion, metrics.SchemaVersion)
	}
	if got := int64(snap.Gauges["sim.instructions"]); got != 20_000 {
		t.Errorf("retired %d instructions, want 20000", got)
	}

	// Second identical request: a cache hit with the same bytes.
	resp, body = postJSON(t, ts.URL+"/v1/cell", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	var second CellResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	if string(second.Stats) != string(first.Stats) {
		t.Error("cached stats differ from computed stats")
	}
	if s.cache.Hits() == 0 {
		t.Error("cache hit counter did not move")
	}

	// The response carries the cache's canonical entry byte for byte,
	// less the trailing newline a json.RawMessage never keeps.
	key := rcache.NewKey(rcache.CellSpec{
		Config: "z15", Workload: "loops", Seed: 42, Instructions: 20_000,
	})
	v, ok := s.cache.Get(key)
	if !ok {
		t.Fatal("canonical key missing from the cache")
	}
	if !bytes.Equal(first.Stats, bytes.TrimSuffix(v, []byte("\n"))) {
		t.Error("cell response bytes are not the cache's canonical entry")
	}
}

func TestCellValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/cell", CellRequest{SimulateRequest: SimulateRequest{
		Workload: "no-such-workload",
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Workers != 3 {
		t.Errorf("workers %d, want 3", h.Workers)
	}
	if h.QueueCapacity != 7 {
		t.Errorf("queue capacity %d, want 7", h.QueueCapacity)
	}
	if h.QueueDepth < 0 || h.Inflight < 0 || h.RunSecondsEWMA < 0 {
		t.Errorf("negative load fields: %+v", h)
	}
}
