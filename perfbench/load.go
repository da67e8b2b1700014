package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// requestTimeout bounds one request; a reply later than this is a
// failure.
const requestTimeout = 60 * time.Second

// client is one closed-loop load client on its own keep-alive
// connection.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request and reads the whole reply. The returned body is
// valid until the next call.
func (c *client) do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), nil
}

// warmUp sends every set-up request once, spread over the clients, and
// checks each reply with learn. It returns the first error.
func warmUp(front string, clients []*client, reqs []request, learn func(request, []byte) error) error {
	errs := make([]error, len(clients))
	each(clients, func(ci int, c *client) {
		for i := ci; i < len(reqs); i += len(clients) {
			body, err := c.do(http.MethodPost, front+reqs[i].path, reqs[i].body)
			if err == nil {
				err = learn(reqs[i], body)
			}
			if err != nil {
				errs[ci] = fmt.Errorf("set-up request %d: %w", i, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample is one request of the timed window. Times are relative to the
// window start.
type sample struct {
	start, end time.Duration
	cells      []int32
	err        error
	traced     bool
}

func (s sample) latency() time.Duration { return s.end - s.start }

// window is the outcome of one timed window.
type window struct {
	samples []sample      // every request, ordered by start time
	elapsed time.Duration // window start to the end of the last reply
}

// runWindow drives the closed loop: each client sends its next request
// only after it has read and checked the previous reply, until dur has
// passed and its stream has finished a pass, so every cell of a
// simulate workload is sampled equally often. Requests started at or
// after traceFrom are recorded as spans.
func runWindow(front string, clients []*client, streams []*requestStream, check func(request, []byte) error,
	dur, traceFrom time.Duration, tr *tracer) window {
	per := make([][]sample, len(clients))
	t0 := time.Now()
	each(clients, func(ci int, c *client) {
		for {
			start := time.Since(t0)
			if start >= dur && streams[ci].atPassEnd() {
				return
			}
			req := streams[ci].next()
			body, err := c.do(http.MethodPost, front+req.path, req.body)
			if err == nil {
				err = check(req, body)
			}
			s := sample{start: start, end: time.Since(t0), cells: req.cells, err: err, traced: start >= traceFrom}
			if s.traced {
				tr.add(span{Name: "http.request", Start: t0.Add(s.start), End: t0.Add(s.end), Parent: -1, Cells: len(req.cells)})
			}
			per[ci] = append(per[ci], s)
		}
	})
	var w window
	for _, ss := range per {
		w.samples = append(w.samples, ss...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].start < w.samples[j].start })
	for _, s := range w.samples {
		if s.end > w.elapsed {
			w.elapsed = s.end
		}
	}
	return w
}

// percentile returns the nearest-rank q-quantile of xs (sorted in
// place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// latenciesMs returns the latencies of the selected samples in ms.
func latenciesMs(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep(s) {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// each runs fn on every element concurrently and waits for all.
func each[T any](xs []T, fn func(int, T)) {
	var wg sync.WaitGroup
	for i, x := range xs {
		wg.Add(1)
		go func(i int, x T) {
			defer wg.Done()
			fn(i, x)
		}(i, x)
	}
	wg.Wait()
}
