package server

import (
	"context"
	"sync"
	"sync/atomic"
)

// task is one queued unit of simulation work. run executes with the
// submitting request's context; done is closed by the worker after run
// returns (or after the task is skipped because its context died while
// it was still queued).
type task struct {
	ctx  context.Context
	run  func(ctx context.Context)
	done chan struct{}
}

// queue is a bounded worker pool: a fixed number of workers drain a
// channel. Submit never blocks on a full queue — it reports the
// overflow so the HTTP layer can answer 429 — and close drains
// everything already accepted before the workers exit, which is
// exactly the graceful-shutdown contract: accepted work completes,
// new work is refused.
//
// Admission counts tasks, not channel slots: a task is accepted while
// fewer than workers+depth are accepted and unfinished. Counting
// channel slots instead would also refuse a task whenever a worker had
// not yet picked up the one before it — a full-looking queue with an
// idle worker, which depends on scheduling, not on load.
type queue struct {
	tasks   chan *task // capacity limit, so an admitted send never blocks
	limit   int64      // workers + depth
	pending atomic.Int64
	wg      sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// newQueue starts workers goroutines draining a queue of capacity
// depth (waiting tasks beyond the ones being executed).
func newQueue(workers, depth int) *queue {
	q := &queue{tasks: make(chan *task, workers+depth), limit: int64(workers + depth)}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *queue) worker() {
	defer q.wg.Done()
	for t := range q.tasks {
		// A task whose request died while queued is skipped, not run:
		// the client is gone, and materializing its workload would only
		// steal time from live requests.
		if t.ctx.Err() == nil {
			t.run(t.ctx)
		}
		q.pending.Add(-1)
		close(t.done)
	}
}

// submitWait enqueues run and blocks until a worker has finished (or
// skipped) it. The three outcomes:
//
//   - ok: the task ran (or was skipped because ctx died; the caller
//     distinguishes via ctx.Err()).
//   - errQueueFull: the queue was at capacity — the backpressure
//     signal behind HTTP 429.
//   - errShuttingDown: close() has begun; new work is refused.
func (q *queue) submitWait(ctx context.Context, run func(ctx context.Context)) error {
	t := &task{ctx: ctx, run: run, done: make(chan struct{})}
	// The read lock makes the closed-check-and-send atomic against
	// close(): once close() holds the write lock, no sender can be
	// mid-send, so closing the channel is safe.
	q.mu.RLock()
	if q.closed {
		q.mu.RUnlock()
		return errShuttingDown
	}
	if q.pending.Add(1) > q.limit {
		q.pending.Add(-1)
		q.mu.RUnlock()
		return errQueueFull
	}
	q.tasks <- t
	q.mu.RUnlock()
	<-t.done
	return nil
}

// depth returns the number of tasks waiting (not yet picked up).
func (q *queue) depth() int { return len(q.tasks) }

// close stops accepting new tasks, lets the workers drain everything
// already queued, and returns once the last in-flight task finished.
// Call it only after the HTTP listener has stopped handing out new
// requests (http.Server.Shutdown), so no handler is left to see
// errShuttingDown unnecessarily.
func (q *queue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.tasks)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
