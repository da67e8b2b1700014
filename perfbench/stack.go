package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"zbp/internal/cluster"
	"zbp/internal/server"
)

// listener is one loopback HTTP server run by the benchmark.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed after shutdown
	}()
	return l, nil
}

// stop shuts the listener down and waits for its serve loop to exit.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		_ = l.hs.Close()
	}
	<-l.done
}

// stack is the service a workload runs against: one zbpd, or a
// coordinator in front of zbpd backends, each on its own loopback
// listener in this process.
type stack struct {
	front    string           // base URL the clients send to
	servers  []*server.Server // the zbpd, or the backends
	serverLn []*listener      // listeners of servers, same order
	coord    *cluster.Coordinator
	coordLn  *listener
}

// serverConfig is the zbpd configuration for a plan. Every field the
// benchmark sets is listed with its reason in configRecord.
func (p *plan) serverConfig() server.Config {
	if p.kind != coordKind {
		return server.Config{}
	}
	return server.Config{CacheMemBytes: p.backendCacheBytes, AuditEvery: -1}
}

// coordConfig is the coordinator configuration for a plan.
func (p *plan) coordConfig(backends []string) cluster.Config {
	return cluster.Config{
		Backends:         backends,
		CacheMemBytes:    p.coordCacheBytes,
		AdmitCellsPerSec: -1,
		AuditEvery:       -1,
		HedgeDelay:       -1,
	}
}

// configRecord states each config field the benchmark sets, and why.
func (p *plan) configRecord() map[string]string {
	if p.kind != coordKind {
		return map[string]string{"server": "server.Config{}: every field at its default (workers = GOMAXPROCS)"}
	}
	rec := map[string]string{
		"server.AuditEvery":        "-1: the audit re-simulates every 16th cache hit, which would make this a simulator workload",
		"cluster.AdmitCellsPerSec": "-1: admission would measure the token-bucket rate, not the program",
		"cluster.AuditEvery":       "-1: the audit re-dispatches sampled hits; the benchmark checks every reply instead",
		"cluster.CacheMemBytes":    fmt.Sprintf("%d: about half the %d-cell working set, so about half the cells hit", p.coordCacheBytes, p.numCells()),
		"cluster.Backends":         fmt.Sprintf("%d loopback zbpd backends", p.backends),
		"other fields":             "defaults (server workers = GOMAXPROCS)",
	}
	if p.backendCacheBytes != 0 {
		rec["server.CacheMemBytes"] = strconv.FormatInt(p.backendCacheBytes, 10)
	}
	return rec
}

// startStack starts the plan's servers; on error it stops whatever it
// started.
func startStack(p *plan) (*stack, error) {
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	n := 1
	if p.kind == coordKind {
		n = p.backends
	}
	var urls []string
	for i := 0; i < n; i++ {
		s, err := server.New(p.serverConfig())
		if err != nil {
			return fail(err)
		}
		st.servers = append(st.servers, s)
		l, err := listen(s.Handler())
		if err != nil {
			return fail(err)
		}
		st.serverLn = append(st.serverLn, l)
		urls = append(urls, l.url)
	}
	st.front = urls[0]
	if p.kind != coordKind {
		return st, nil
	}
	coord, err := cluster.New(p.coordConfig(urls))
	if err != nil {
		return fail(err)
	}
	st.coord = coord
	if st.coordLn, err = listen(coord.Handler()); err != nil {
		return fail(err)
	}
	st.front = st.coordLn.url
	return st, nil
}

// close stops the coordinator first, then the backends, and waits for
// every listener and worker to exit.
func (st *stack) close() {
	if st.coordLn != nil {
		st.coordLn.stop()
	}
	if st.coord != nil {
		st.coord.Close()
	}
	for _, l := range st.serverLn {
		l.stop()
	}
	for _, s := range st.servers {
		s.Close()
	}
	*st = stack{}
}

// counters is one scrape of the service's /metrics counters.
type counters struct {
	simRuns       float64 // Σ zbpd_fast_core_runs_total over the zbpd processes
	rejected      float64 // Σ zbpd_rejected_total over every process
	backendHits   float64 // Σ zbpd_cache_hits_total over the zbpd processes
	backendMisses float64
	coordHits     float64 // zbpd_coord_cache_hits_total
	coordMisses   float64
	dispatched    int64 // Σ Backends()[i].Dispatched
}

func (st *stack) scrape(c *http.Client) (counters, error) {
	var out counters
	for _, l := range st.serverLn {
		m, err := scrapeMetrics(c, l.url)
		if err != nil {
			return out, err
		}
		out.simRuns += m["zbpd_fast_core_runs_total"]
		out.rejected += m["zbpd_rejected_total"]
		out.backendHits += m["zbpd_cache_hits_total"]
		out.backendMisses += m["zbpd_cache_misses_total"]
	}
	if st.coord != nil {
		m, err := scrapeMetrics(c, st.coordLn.url)
		if err != nil {
			return out, err
		}
		out.rejected += m["zbpd_rejected_total"]
		out.coordHits = m["zbpd_coord_cache_hits_total"]
		out.coordMisses = m["zbpd_coord_cache_misses_total"]
		for _, b := range st.coord.Backends() {
			out.dispatched += b.Dispatched
		}
	}
	return out, nil
}

func (a counters) sub(b counters) counters {
	return counters{
		simRuns: a.simRuns - b.simRuns, rejected: a.rejected - b.rejected,
		backendHits: a.backendHits - b.backendHits, backendMisses: a.backendMisses - b.backendMisses,
		coordHits: a.coordHits - b.coordHits, coordMisses: a.coordMisses - b.coordMisses,
		dispatched: a.dispatched - b.dispatched,
	}
}

// scrapeMetrics reads a Prometheus text page into name -> value,
// dropping labels (each zbpd series carries one label set).
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", base, line, err)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, errors.New("scrape " + base + ": empty page")
	}
	return out, sc.Err()
}
