package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMaterializerSingleflight: any number of concurrent Gets for the
// same key run the generation exactly once and all observe the same
// buffer. The hook counts actual materializations, not cache hits.
func TestMaterializerSingleflight(t *testing.T) {
	var made atomic.Int64
	materializeHook = func(string, uint64, int) { made.Add(1) }
	defer func() { materializeHook = nil }()

	mz := NewMaterializer()
	const callers = 16
	ptrs := make([]uintptr, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := mz.Get("lspr", 42, 300_000)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = uintptr(p.SizeBytes()) // same buffer => same size; pointer identity below
		}(i)
	}
	wg.Wait()
	if n := made.Load(); n != 1 {
		t.Fatalf("%d materializations for one key, want exactly 1", n)
	}
	if mz.Count() != 1 {
		t.Fatalf("Count() = %d, want 1", mz.Count())
	}
	// A second wave after completion must still not re-materialize.
	a, err := mz.Get("lspr", 42, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mz.Get("lspr", 42, 300_000)
	if a != b {
		t.Error("repeat Gets returned different buffers")
	}
	if n := made.Load(); n != 1 {
		t.Fatalf("%d materializations after repeat Gets, want 1", n)
	}
}

// TestMaterializerErrorNotCached: a failed materialization (unknown
// workload) reports its error to every caller and is not counted as a
// cached trace.
func TestMaterializerErrorPath(t *testing.T) {
	mz := NewMaterializer()
	if _, err := mz.Get("no-such-workload", 1, 1000); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := mz.Get("no-such-workload", 1, 1000); err == nil {
		t.Fatal("unknown workload accepted on second call")
	}
	if mz.Count() != 0 {
		t.Errorf("Count() = %d after failed materialization, want 0", mz.Count())
	}
	if mz.FootprintBytes() != 0 {
		t.Errorf("FootprintBytes() = %d after failed materialization, want 0", mz.FootprintBytes())
	}
}

// TestMaterializerDistinctKeyNotBlocked proves, without timing, that
// Get does not hold the cache lock across generation: while key A's
// materialization is stalled inside the generator hook, a Get for key
// B must still complete. Under the old cache-wide lock this deadlocks
// (B waits on mu held across A's generation) and the test times out.
func TestMaterializerDistinctKeyNotBlocked(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	materializeHook = func(name string, seed uint64, n int) {
		if seed == 99 {
			close(entered)
			<-release
		}
	}
	defer func() { materializeHook = nil }()

	mz := NewMaterializer()
	slowDone := make(chan error, 1)
	go func() {
		_, err := mz.Get("lspr", 99, 100_000)
		slowDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("slow materialization never started")
	}

	// Key A is mid-materialization; key B must not be stuck behind it.
	fastDone := make(chan error, 1)
	go func() {
		_, err := mz.Get("micro", 1, 100_000)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("distinct-key Get serialized behind an in-flight materialization")
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if mz.Count() != 2 {
		t.Errorf("Count() = %d, want 2", mz.Count())
	}
}

// TestMaterializerDistinctKeysOverlap is the regression test for the
// cache-wide-lock bug: requests for different keys must materialize in
// parallel, not serialize behind one another. The proof is
// deterministic, not a wall-clock ratio: the generation hook is a
// barrier that every one of the keys distinct-key materializations
// must reach before any of them may proceed, so the test passes only
// if all keys are inside generation at the same time. Under a
// cache-wide lock the first generator would wait at the barrier
// holding the lock, the others could never arrive, and the barrier
// times out.
func TestMaterializerDistinctKeysOverlap(t *testing.T) {
	const (
		keys = 4
		n    = 1_000_000
	)
	var (
		mu      sync.Mutex
		arrived int
	)
	all := make(chan struct{})
	timedOut := make(chan struct{})
	materializeHook = func(string, uint64, int) {
		mu.Lock()
		arrived++
		if arrived == keys {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-timedOut:
		}
	}
	defer func() { materializeHook = nil }()

	mz := NewMaterializer()
	var wg sync.WaitGroup
	for seed := uint64(0); seed < keys; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := mz.Get("lspr", seed, n); err != nil {
				t.Error(err)
			}
		}(seed)
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		got := arrived
		mu.Unlock()
		close(timedOut)
		wg.Wait()
		t.Fatalf("only %d of %d distinct-key materializations were in generation at once: distinct keys serialized", got, keys)
	}
	wg.Wait()
	if mz.Count() != keys {
		t.Fatalf("Count() = %d, want %d", mz.Count(), keys)
	}
}
