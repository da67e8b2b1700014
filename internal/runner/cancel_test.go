package runner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"zbp/internal/runner"
	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// TestPoolCanceledBeforeStart: a context canceled before Run is called
// marks every job with ctx.Err() without simulating anything.
func TestPoolCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []runner.Job{
		{Name: "a", Config: sim.Z15(), Source: runner.Workload("lspr", 1), Instructions: 1_000_000},
		{Name: "b", Config: sim.Z15(), Source: runner.Workload("lspr", 2), Instructions: 1_000_000},
		{Name: "c", Config: sim.Z15(), Source: runner.Workload("lspr", 3), Instructions: 1_000_000},
	}
	start := time.Now()
	results := (&runner.Pool{Parallelism: 2}).Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-canceled batch took %v", elapsed)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Name != jobs[i].Name {
			t.Errorf("result %d name = %q, want %q", i, r.Name, jobs[i].Name)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %q err = %v, want context.Canceled", r.Name, r.Err)
		}
		// The deterministic form of "returned promptly": no job
		// simulated a single cycle.
		if r.Res.Cycles != 0 {
			t.Errorf("job %q simulated %d cycles under a pre-canceled context", r.Name, r.Res.Cycles)
		}
	}
}

// TestPoolCancelMidBatch: at every parallelism 1..8, canceling a batch
// of multi-second jobs mid-flight returns promptly, keeps job order,
// and marks unfinished jobs with the context error.
func TestPoolCancelMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cancellation timing test")
	}
	// One shared packed trace keeps the batch cheap to set up; each job
	// still replays its own cursor.
	p, err := workload.MakePacked("lspr", 42, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 12
	for par := 1; par <= 8; par++ {
		t.Run(string(rune('0'+par)), func(t *testing.T) {
			jobs := make([]runner.Job, nJobs)
			for i := range jobs {
				jobs[i] = runner.Job{
					Name:         "replay",
					Config:       sim.Z15(),
					Source:       runner.Packed(p),
					Instructions: 2_000_000,
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			results := (&runner.Pool{Parallelism: par}).Run(ctx, jobs)
			elapsed := time.Since(start)
			// The full batch is nJobs x ~0.5s of simulation; a canceled
			// run must come back orders of magnitude sooner. Keep the
			// bound loose for -race CI machines.
			if elapsed > 10*time.Second {
				t.Fatalf("canceled batch took %v", elapsed)
			}
			if len(results) != nJobs {
				t.Fatalf("got %d results, want %d", len(results), nJobs)
			}
			canceled := 0
			for _, r := range results {
				if r.Err == nil {
					continue
				}
				if !errors.Is(r.Err, context.DeadlineExceeded) {
					t.Errorf("unexpected error: %v", r.Err)
				}
				// Independent of timing: a canceled job either never
				// started or stopped early with a truncated prefix.
				if r.Res.Cycles != 0 && (!r.Res.Truncated || r.Res.Instructions() >= 2_000_000) {
					t.Errorf("canceled job ran %d cycles, %d instructions, truncated=%v",
						r.Res.Cycles, r.Res.Instructions(), r.Res.Truncated)
				}
				canceled++
			}
			if canceled == 0 {
				t.Error("no job observed the cancellation")
			}
		})
	}
}

// cancelAfter hands out records from src and cancels once it has
// handed out n of them, so a test cancels at a known point of the run
// rather than after a wall-clock sleep.
type cancelAfter struct {
	src    trace.Source
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (trace.Rec, bool) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.src.Next()
}

// TestPoolCancelPartialResults: an in-flight job stopped by
// cancellation surfaces the truncated partial result next to its
// error. The cancel fires from inside the run, after 100k records, so
// the job has certainly started and retired instructions.
func TestPoolCancelPartialResults(t *testing.T) {
	p, err := workload.MakePacked("lspr", 42, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []runner.Job{{
		Name:   "long",
		Config: sim.Z15(),
		Source: func() ([]trace.Source, error) {
			cur := p.Cursor()
			return []trace.Source{&cancelAfter{src: &cur, n: 100_000, cancel: cancel}}, nil
		},
		Instructions: 2_000_000,
	}}
	res := (&runner.Pool{Parallelism: 1}).Run(ctx, jobs)[0]
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if !res.Res.Truncated {
		t.Error("canceled in-flight job's partial result not marked Truncated")
	}
	if n := res.Res.Instructions(); n == 0 || n >= 2_000_000 {
		t.Errorf("job canceled after 100k records retired %d instructions", n)
	}
}
