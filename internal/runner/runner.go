// Package runner is the shared fan-out engine for simulation
// campaigns. Every result in this repository — the E1..E12
// reproductions, the §VII tuning studies, the grid tests — is built
// from dozens to hundreds of *independent* trace-driven simulations
// (generation × workload × seed × design point). A Pool runs such a
// batch across a bounded set of workers with deterministic,
// order-preserving aggregation: because every job builds its own
// sources and starts from reset predictor state, parallel and serial
// execution produce byte-identical results (enforced by
// TestPoolDeterminism). Jobs run on machines reused through
// sim.RunPooled, so a campaign allocates its predictor tables about
// once per worker, not once per job.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"zbp/internal/sim"
	"zbp/internal/trace"
	"zbp/internal/workload"
)

// SourceSpec builds the per-thread trace sources for one job. It is a
// factory, not a source: it is invoked inside the worker so each job
// gets fresh, independent stream state no matter which worker runs it
// or in what order.
type SourceSpec func() ([]trace.Source, error)

// Workload returns a SourceSpec for a single-threaded run of the named
// generated workload.
func Workload(name string, seed uint64) SourceSpec {
	return func() ([]trace.Source, error) {
		src, err := workload.Make(name, seed)
		if err != nil {
			return nil, err
		}
		return []trace.Source{src}, nil
	}
}

// Packed returns a SourceSpec replaying a shared, pre-materialized
// trace. Each job gets its own value-type cursor over the same
// immutable buffer, so any number of workers replay concurrently
// without locks, per-record decode, or regeneration — the
// materialize-once, replay-many path sweep campaigns use.
func Packed(p *trace.Packed) SourceSpec {
	return func() ([]trace.Source, error) {
		c := p.Cursor()
		return []trace.Source{&c}, nil
	}
}

// PackedSMT2 returns a SourceSpec running two shared packed traces,
// one per hardware thread.
func PackedSMT2(a, b *trace.Packed) SourceSpec {
	return func() ([]trace.Source, error) {
		ca, cb := a.Cursor(), b.Cursor()
		return []trace.Source{&ca, &cb}, nil
	}
}

// SMT2 returns a SourceSpec running two named workloads, one per
// hardware thread.
func SMT2(nameA string, seedA uint64, nameB string, seedB uint64) SourceSpec {
	return func() ([]trace.Source, error) {
		a, err := workload.Make(nameA, seedA)
		if err != nil {
			return nil, err
		}
		b, err := workload.Make(nameB, seedB)
		if err != nil {
			return nil, err
		}
		return []trace.Source{a, b}, nil
	}
}

// Job is one independent simulation: a configuration, the source
// factory, and a per-thread instruction budget.
type Job struct {
	// Name labels the job in errors and reports.
	Name string
	// Config is the full simulation setup (copied by value; jobs never
	// share mutable state).
	Config sim.Config
	// Source builds the per-thread traces inside the worker.
	Source SourceSpec
	// Instructions bounds each thread's trace (0 = unbounded; the
	// sources must then terminate on their own).
	Instructions int
}

// Result pairs one job with its outcome. Err is non-nil if the source
// factory failed, the simulation errored (live-lock, cancellation) or
// panicked. For a canceled job Res holds the partial result of the
// work done before the cancellation (Truncated set); for other errors
// it is the zero value.
type Result struct {
	Name string
	Res  sim.Result
	Err  error
}

// Pool is a bounded worker-pool simulation runner. The zero value is
// ready to use and runs on all cores.
type Pool struct {
	// Parallelism bounds concurrent simulations; <=0 means GOMAXPROCS.
	Parallelism int
}

// workers returns the effective worker count for n jobs.
func (p *Pool) workers(n int) int {
	w := p.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job and returns results in job order. Results are
// identical regardless of Parallelism: each worker writes only its
// job's slot and each job builds its own sources and starts from reset
// machine state. A panic inside
// a job (bad workload, model bug) is captured into that job's Err; the
// pool always drains all jobs.
//
// ctx cancels the batch: jobs not yet started get Err = ctx.Err()
// without running, and jobs already in flight stop cooperatively via
// sim.RunCtx, recording a partial result alongside the error. Run
// always returns a slice of len(jobs) and never leaks workers.
func (p *Pool) Run(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := p.workers(len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(ctx, jobs[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// The batch is canceled: every job from i on was never
			// handed to a worker, so no one else writes those slots.
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Name: jobs[j].Name, Err: fmt.Errorf("runner: job %q: %w", jobs[j].Name, ctx.Err())}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes a single job, converting panics into errors so one
// bad design point cannot take down a whole campaign. The simulation
// itself runs on a pooled machine through the error-returning RunCtx
// path; the recover is a backstop for panics in source factories and
// model construction (a machine that panicked is not reused).
func runOne(ctx context.Context, job Job) (res Result) {
	res.Name = job.Name
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: job %q panicked: %v", job.Name, r)
		}
	}()
	if job.Source == nil {
		res.Err = fmt.Errorf("runner: job %q has no source", job.Name)
		return res
	}
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Name, err)
		return res
	}
	srcs, err := job.Source()
	if err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Name, err)
		return res
	}
	if job.Instructions > 0 {
		for i, src := range srcs {
			// Packed cursors bound themselves: no Limit wrapper, so the
			// hot loop keeps a single interface hop per record.
			if c, ok := src.(*trace.Cursor); ok {
				c.Limit(job.Instructions)
			} else {
				srcs[i] = trace.Limit(src, job.Instructions)
			}
		}
	}
	res.Res, err = sim.RunPooled(ctx, job.Config, srcs, 0)
	if err != nil {
		res.Err = fmt.Errorf("runner: job %q: %w", job.Name, err)
	}
	return res
}

// Run executes jobs on a default all-cores pool.
func Run(ctx context.Context, jobs []Job) []Result {
	return (&Pool{}).Run(ctx, jobs)
}

// Results unwraps a batch, panicking on the first error. Experiment
// and study drivers use it where a failed simulation indicates a
// programming error (unknown workload, model bug) rather than a
// recoverable condition.
func Results(rs []Result) []sim.Result {
	out := make([]sim.Result, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Res
	}
	return out
}
