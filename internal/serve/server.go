package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// Runner executes one normalized query. The default runs the simulator;
// tests substitute their own to exercise the service machinery (panic
// isolation, coalescing) without paying for simulations.
type Runner func(Query) (*Report, error)

// Config shapes a Server.
type Config struct {
	// Workers sizes the query worker pool (0 = GOMAXPROCS).
	Workers int
	// Timeout bounds each query's simulation in wall-clock time
	// (0 = none). A timed-out query fails; its key is not cached, so a
	// retry re-runs it.
	Timeout time.Duration
	// StorePath persists the memoization cache as JSONL; re-starting the
	// server with the same path warm-starts from every completed answer.
	// Empty = memory-only.
	StorePath string
	// Runner overrides the query executor (nil = run the simulator).
	Runner Runner
	// Fingerprint overrides the build fingerprint that versions cached
	// Reports (empty = Fingerprint(), the running executable's hash).
	// Tests inject distinct values to simulate a rebuilt server.
	Fingerprint string
}

// Server answers what-if queries over a worker pool with a content-hash
// memoization cache. Safe for concurrent use; a panicking or timed-out
// query fails alone without disturbing other in-flight queries.
type Server struct {
	pool    *campaign.WorkerPool
	cache   *campaign.RecordStore[Report]
	runner  Runner
	timeout time.Duration
	// schema is stamped into every cached Report and gates warm-start
	// loads: only records from the same layout + build are served.
	schema string

	mu sync.Mutex
	// inflight coalesces concurrent identical queries onto one run.
	inflight  map[string]*flight
	hits      int
	misses    int
	coalesced int
	failures  int
	// latMs records per-answer service latency for /metrics summaries.
	latMs []float64
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	rep  *Report
	err  error
}

// NewServer builds a Server. The caller owns Close.
func NewServer(cfg Config) (*Server, error) {
	fp := cfg.Fingerprint
	if fp == "" {
		fp = Fingerprint()
	}
	schema := reportSchema(fp)
	cache, err := campaign.OpenRecordStore(cfg.StorePath,
		func(r Report) string { return r.Key },
		// Warm-start gate: records from a different record layout or a
		// different build are left on disk but never served; their keys
		// re-compute and re-append under the current schema.
		func(r Report) bool { return r.Schema == schema })
	if err != nil {
		return nil, err
	}
	runner := cfg.Runner
	if runner == nil {
		runner = runQuery
	}
	return &Server{
		pool:     campaign.NewWorkerPool(cfg.Workers),
		cache:    cache,
		runner:   runner,
		timeout:  cfg.Timeout,
		schema:   schema,
		inflight: make(map[string]*flight),
	}, nil
}

// Schema reports the record schema this server stamps and accepts.
func (s *Server) Schema() string { return s.schema }

// Close drains the pool and closes the cache.
func (s *Server) Close() error {
	s.pool.Close()
	return s.cache.Close()
}

// CacheLen reports how many answers the memoization cache holds.
func (s *Server) CacheLen() int { return s.cache.Len() }

// Warnings surfaces cache-store load warnings (torn tail, corruption).
func (s *Server) Warnings() []string { return s.cache.Warnings() }

// Disposition says how a query was resolved.
type Disposition string

// Answer dispositions.
const (
	// DispMiss: the query ran a fresh simulation.
	DispMiss Disposition = "miss"
	// DispHit: the answer came from the memoization cache.
	DispHit Disposition = "hit"
	// DispCoalesced: the query joined an identical in-flight run.
	DispCoalesced Disposition = "coalesced"
)

// Answer resolves one query: from cache, by joining an identical
// in-flight run, or by running it on the pool. Every path records
// service latency for /metrics.
func (s *Server) Answer(q Query) (rep *Report, disp Disposition, err error) {
	begin := time.Now()
	defer func() {
		ms := float64(time.Since(begin)) / float64(time.Millisecond)
		s.mu.Lock()
		s.latMs = append(s.latMs, ms)
		if err != nil {
			s.failures++
		}
		s.mu.Unlock()
	}()

	nq, err := q.normalized()
	if err != nil {
		return nil, DispMiss, err
	}
	key := nq.hash()
	// Only a miss pays for validation, which builds the fabric: a failed
	// query is never stored, and validity depends on the key alone.
	if _, known := s.cache.Completed(key); !known {
		if err := nq.validate(); err != nil {
			return nil, DispMiss, err
		}
	}

	s.mu.Lock()
	if r, ok := s.cache.Completed(key); ok {
		s.hits++
		s.mu.Unlock()
		return &r, DispHit, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		<-f.done
		return f.rep, DispCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.misses++
	s.mu.Unlock()

	a := <-s.pool.Submit(func() (campaign.Metrics, any, error) {
		r, err := s.runner(nq)
		return nil, r, err
	}, s.timeout, 0)

	if a.Err != nil {
		f.err = fmt.Errorf("query %s: %w", nq.describe(), a.Err)
	} else {
		r := a.Payload.(*Report)
		r.Key = key
		r.Schema = s.schema
		f.rep = r
		if aerr := s.cache.Append(*r); aerr != nil {
			// The answer is still good; only persistence failed.
			f.err = fmt.Errorf("query %s: caching answer: %w", nq.describe(), aerr)
			f.rep = nil
		}
	}
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return f.rep, DispMiss, f.err
}

// Metrics is the /metrics document: cache accounting, service-latency
// summary (nearest-rank quantiles, matching the paper's CDF convention)
// and pool occupancy.
type Metrics struct {
	Queries      int             `json:"queries"`
	Hits         int             `json:"hits"`
	Misses       int             `json:"misses"`
	Coalesced    int             `json:"coalesced"`
	Failures     int             `json:"failures"`
	CacheHitRate float64         `json:"cacheHitRate"`
	CacheEntries int             `json:"cacheEntries"`
	LatencyMs    metrics.Summary `json:"latencyMs"`
	PoolWorkers  int             `json:"poolWorkers"`
	PoolBusy     int             `json:"poolBusy"`
	PoolQueued   int             `json:"poolQueued"`
}

// Metrics snapshots the service counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Queries:   s.hits + s.misses + s.coalesced,
		Hits:      s.hits,
		Misses:    s.misses,
		Coalesced: s.coalesced,
		Failures:  s.failures,
		LatencyMs: metrics.Summarize(s.latMs),
	}
	s.mu.Unlock()
	if m.Queries > 0 {
		m.CacheHitRate = float64(m.Hits) / float64(m.Queries)
	}
	m.CacheEntries = s.cache.Len()
	m.PoolWorkers = s.pool.Workers()
	m.PoolBusy = s.pool.Busy()
	m.PoolQueued = s.pool.QueueDepth()
	return m
}

// Response is the /query and /stream envelope around a Report.
type Response struct {
	// Cached is true for a memoization hit; Coalesced for a query that
	// joined an identical in-flight run. Both mean no fresh simulation.
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced,omitempty"`
	Report    *Report `json:"report,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Handler returns the service's HTTP mux:
//
//	POST /query   one Query JSON document → one Response
//	POST /stream  JSONL of Queries → JSONL of Responses, answered
//	              concurrently, emitted in input order as each completes
//	GET  /metrics service counters
//	GET  /healthz liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a Query JSON document", http.StatusMethodNotAllowed)
		return
	}
	var q Query
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: "decoding query: " + err.Error()})
		return
	}
	resp, code := s.respond(q)
	writeJSON(w, code, resp)
}

// handleStream answers a JSONL stream of queries. Answers run concurrently
// on the pool but are written in input order, each flushed as it lands, so
// a slow early query delays later answers' emission but not their
// computation.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST JSONL Queries", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	results := make(chan chan Response, 64)
	go func() {
		defer close(results)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var q Query
			ch := make(chan Response, 1)
			results <- ch
			if err := json.Unmarshal(line, &q); err != nil {
				ch <- Response{Error: "decoding query: " + err.Error()}
				continue
			}
			go func() {
				resp, _ := s.respond(q)
				ch <- resp
			}()
		}
		if err := sc.Err(); err != nil {
			ch := make(chan Response, 1)
			ch <- Response{Error: "reading stream: " + err.Error()}
			results <- ch
		}
	}()
	enc := json.NewEncoder(w)
	for ch := range results {
		enc.Encode(<-ch)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// respond answers one query as a Response with an HTTP status.
func (s *Server) respond(q Query) (Response, int) {
	rep, disp, err := s.Answer(q)
	if err != nil {
		return Response{Error: err.Error()}, http.StatusUnprocessableEntity
	}
	return Response{Cached: disp == DispHit, Coalesced: disp == DispCoalesced, Report: rep}, http.StatusOK
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
