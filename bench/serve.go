package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/serve"
)

const (
	servePorts = 8
	// A run brings a server up serveSetups times, answering
	// serveSetupQueries new queries each time; servePrimed is how many
	// answers the store then holds when the measured server opens it — the
	// set the traced run's warm phase repeats.
	serveSetups       = 5
	serveSetupQueries = 8
	servePrimed       = serveSetups * serveSetupQueries
	// serveBatch is the serial pass: this many queries, one client, each
	// sent when the previous one is answered.
	serveBatch = 20
	// serveWarmQueries is the length of the traced run's warm phase.
	serveWarmQueries = 2000
	// serveBuild stands in for the build fingerprint, a deployment setting:
	// hashing the executable is not part of opening a server.
	serveBuild = "perfbench"
)

// queryGen draws the distinct what-if queries of one run: link-down on a
// seeded permutation of each scheme's fabric links, alternating between the
// two schemes, every query with its own simulation seed.
type queryGen struct {
	links [2][][2]string
	base  int64
}

var serveSchemes = [2]exp.Scheme{exp.SchemeF2Tree, exp.SchemeFatTree}

func newQueryGen(seed int64) (*queryGen, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &queryGen{base: 1 + rng.Int63n(1<<40)}
	for i, s := range serveSchemes {
		tp, err := exp.BuildTopology(s, servePorts)
		if err != nil {
			return nil, err
		}
		links := fabricLinks(tp)
		for _, j := range rng.Perm(len(links)) {
			g.links[i] = append(g.links[i], [2]string{tp.Node(links[j].A).Name, tp.Node(links[j].B).Name})
		}
	}
	return g, nil
}

// query returns the i-th query; no two indices give the same query.
func (g *queryGen) query(i int) serve.Query {
	s := i % 2
	l := g.links[s][(i/2)%len(g.links[s])]
	return serve.Query{
		Kind: serve.KindWhatIf, Scheme: string(serveSchemes[s]), Ports: servePorts,
		Link: &serve.Link{A: l[0], B: l[1]}, Seed: g.base + int64(i),
	}
}

// server is one serve.Server and its HTTP handler. The benchmark calls the
// handler in process: a loopback socket would put two thread wake-ups into
// every request, and on a shared two-processor sandbox those wake-ups, not
// the service, decide a cache hit's latency (measured: ×5 between runs).
type server struct {
	srv     *serve.Server
	handler http.Handler
}

func openServer(store string, workers int) (*server, error) {
	srv, err := serve.NewServer(serve.Config{Workers: workers, StorePath: store, Fingerprint: serveBuild})
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, handler: srv.Handler()}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("healthz answered %d", rec.Code)
	}
	return s, nil
}

func (s *server) close() error { return s.srv.Close() }

// post sends one query through the handler and decodes the answer.
func (s *server) post(sc scope, q serve.Query) (serve.Response, time.Duration, error) {
	var out serve.Response
	begin := now()
	tr, run := sc.tr, sc.run
	id := tr.begin(sc.parent, run, "serve.request")
	body, err := json.Marshal(q)
	if err != nil {
		return out, 0, err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	hid := tr.begin(id, run, "serve.handler")
	s.handler.ServeHTTP(rec, req)
	tr.end(hid)
	err = json.NewDecoder(rec.Body).Decode(&out)
	tr.end(id)
	return out, since(begin), err
}

// checkAnswer judges one answer: it must come from the cache exactly when
// it is due to, the report must be there, a link failure must never
// black-hole traffic for longer than plain reconvergence takes, and an answer
// seen before must carry the same trace hash.
func checkAnswer(q serve.Query, r serve.Response, err error, wantCached bool, primed map[string]string) string {
	label := fmt.Sprintf("%s %s—%s seed %d", q.Scheme, q.Link.A, q.Link.B, q.Seed)
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", label, err)
	case r.Error != "" || r.Report == nil:
		return fmt.Sprintf("%s: server error %q", label, r.Error)
	case r.Cached != wantCached || r.Coalesced:
		return fmt.Sprintf("%s: cached=%v coalesced=%v, want cached=%v", label, r.Cached, r.Coalesced, wantCached)
	case len(r.Report.Violations) > 0:
		return fmt.Sprintf("%s: %s", label, r.Report.Violations[0])
	case r.Report.BlackholeMs > 300:
		return fmt.Sprintf("%s: blackhole of %d ms", label, r.Report.BlackholeMs)
	}
	want, seen := primed[r.Report.Key]
	switch {
	case seen && want != r.Report.TraceHash:
		return fmt.Sprintf("%s: trace hash %s differs from the first answer's %s", label, r.Report.TraceHash, want)
	case wantCached && !seen:
		return fmt.Sprintf("%s: answer %s was never primed", label, r.Report.Key)
	}
	return ""
}

// bringUp is one set-up of a serving process, from nothing to a warm-started
// server: answer serveSetupQueries new queries into the store, close, reopen
// on the store. The repetitions share one store, so that between them they
// also prime the answers the measured server starts from.
func bringUp(sc scope, store string, workers int, queries []serve.Query, primed map[string]string) error {
	s, err := openServer(store, workers)
	if err != nil {
		return err
	}
	for _, q := range queries {
		rep, _, err := s.srv.Answer(q)
		if err != nil {
			s.close()
			return fmt.Errorf("priming %s—%s: %w", q.Link.A, q.Link.B, err)
		}
		primed[rep.Key] = rep.TraceHash
		// Collect between simulations, so that the process's peak memory is
		// one simulation's and not however many the collector fell behind.
		runtime.GC()
	}
	if err := s.close(); err != nil {
		return err
	}
	return sc.span("serve.warmstart", func(scope) error {
		s, err := openServer(store, workers)
		if err != nil {
			return err
		}
		if got := s.srv.CacheLen(); got != len(primed) {
			s.close()
			return fmt.Errorf("warm start loaded %d of %d answers", got, len(primed))
		}
		return s.close()
	})
}

// runServe drives serve.Server through its HTTP handler with distinct
// queries, so that every one misses the cache: it simulates on the worker
// pool and appends to the store. The traced run adds a phase of repeats, for
// the cache-hit path's per-layer numbers.
func runServe(env *runEnv) (*runResult, error) {
	res := newRunResult()
	var tr *tracer
	if env.traced {
		tr = newTracer()
	}
	clients := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < clients {
		clients = n
	}
	gen, err := newQueryGen(env.seed)
	if err != nil {
		return nil, err
	}

	store := filepath.Join(env.scratch, "store.jsonl")
	primed := make(map[string]string) // answer key → trace hash
	var setup sample
	for i := 0; i < serveSetups; i++ {
		queries := make([]serve.Query, serveSetupQueries)
		for j := range queries {
			queries[j] = gen.query(i*serveSetupQueries + j)
		}
		runtime.GC()
		begin := now()
		if err := bringUp(scope{tr: tr, parent: noSpan, run: i}, store, clients, queries, primed); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup = append(setup, seconds(since(begin)))
	}
	s, err := openServer(store, clients)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// ask sends one query and judges the answer; it is safe for concurrent
	// use. fresh hands out queries no server of this run has seen.
	var mu sync.Mutex
	next := servePrimed
	fresh := func() serve.Query {
		mu.Lock()
		defer mu.Unlock()
		next++
		return gen.query(next - 1)
	}
	ask := func(sc scope, on *server, q serve.Query, wantCached bool) float64 {
		r, took, err := on.post(sc, q)
		why := checkAnswer(q, r, err, wantCached, primed)
		mu.Lock()
		res.attempted++
		if why != "" {
			res.fail(why)
		}
		mu.Unlock()
		return millis(took)
	}

	// Serial phase, 60 % of the budget: one client, closed loop, in batches.
	// A traced run traces every other batch: the traced batches give the
	// per-layer numbers, the others what tracing costs.
	serialBudget := env.budget * 60 / 100
	var every, batches, opMs, plain sample
	meter := startMemMeter()
	begin := now()
	for k := 0; fits(begin, serialBudget, every); k++ {
		btr := tr
		if env.traced && k%2 == 0 {
			btr = nil
		}
		runtime.GC()
		id := btr.begin(noSpan, k, "pass")
		passBegin := now()
		ms := make(sample, serveBatch)
		for i := range ms {
			ms[i] = ask(scope{tr: btr, parent: id, run: k}, s, fresh(), false)
		}
		took := seconds(since(passBegin))
		btr.end(id)
		every = append(every, took)
		if env.traced && btr == nil {
			plain = append(plain, took)
			continue
		}
		batches, opMs = append(batches, took), append(opMs, ms...)
	}
	allocMB, cycles := meter.since()
	if len(batches) == 0 {
		return nil, fmt.Errorf("the budget of %v fits no traced batch", env.budget)
	}
	serial := float64(len(opMs)) / batches.sum()

	// Concurrent phase, the rest: one closed-loop client per processor.
	id := tr.begin(noSpan, -1, "phase.concurrent")
	sc := scope{tr: tr, parent: id, run: -1}
	concurrent := closedLoop(clients, env.budget-serialBudget, func() { ask(sc, s, fresh(), false) })
	tr.end(id)

	if !env.traced {
		res.endToEnd(batches, opMs, setup, concurrent, allocMB)
		return res, nil
	}

	m := res.metrics
	m["serve.parallel_eff"] = concurrent / (float64(clients) * serial)
	m["serve.cold_ms_p90"] = opMs.percentile(90)
	res.timings["serve.cold_ms_p90"] = opMs
	m["go.alloc_mb"] = allocMB / float64(len(every))
	m["go.gc_cycles"] = cycles / float64(len(every))
	m["go.gc_cpu_frac"] = gcCPUFraction()
	m["go.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["trace.overhead_pct"] = (batches.median()/plain.median() - 1) * 100

	// Determinism across servers: a server that has never seen the primed
	// questions must answer them with the same trace hashes.
	cold, err := openServer(filepath.Join(env.scratch, "empty.jsonl"), clients)
	if err != nil {
		return nil, err
	}
	for i := 0; i < serveSetupQueries; i++ {
		ask(scope{}, cold, gen.query(i), false)
	}
	if err := cold.close(); err != nil {
		return nil, err
	}

	// Warm phase: repeats, in seeded order, of the primed queries. Every one
	// is a cache hit: JSON, validation and the server's lock are what is left.
	order := rand.New(rand.NewSource(env.seed))
	id = tr.begin(noSpan, -1, "phase.warm")
	warmMs := make(sample, serveWarmQueries)
	for i := range warmMs {
		warmMs[i] = ask(scope{tr: tr, parent: id, run: -1}, s, gen.query(order.Intn(servePrimed)), true)
	}
	tr.end(id)
	m["serve.warm_ms_p50"] = warmMs.median()
	m["serve.warm_ms_p99"] = warmMs.percentile(99)
	res.timings["serve.warm_ms_p50"] = warmMs
	sm := s.srv.Metrics()
	m["serve.hits"] = float64(sm.Hits)
	m["serve.misses"] = float64(sm.Misses)
	m["serve.coalesced"] = float64(sm.Coalesced)
	m["serve.hit_ratio"] = sm.CacheHitRate

	root := tr.begin(noSpan, -1, "kernels")
	k := &kernelEnv{sc: scope{tr: tr, parent: root, run: -1}, res: res, seed: env.seed}
	k.serveKernel(s, gen.query(0))
	k.campaignKernel(env.scratch, clients)
	k.labKernel(labSpec{scheme: exp.SchemeF2Tree, ports: servePorts})
	tr.end(root)
	if k.err != nil {
		return nil, fmt.Errorf("kernel: %w", k.err)
	}
	res.spans = tr.spans
	spanMetrics(res)
	// What HTTP and JSON add to a hit: the warm requests' time less Answer's.
	m["serve.http_overhead_us"] = m["serve.warm_ms_p50"]*1000 - m["serve.answer_hit_us"]
	m["go.peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// closedLoop runs op in a closed loop on each of clients goroutines for d and
// returns the operations completed per second.
func closedLoop(clients int, d time.Duration, op func()) float64 {
	var done atomic.Int64
	var wg sync.WaitGroup
	begin := now()
	deadline := begin.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now().Before(deadline) {
				op()
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / seconds(since(begin))
}

// serveKernel times Server.Answer on an answer already cached: the service
// without HTTP in front of it.
func (k *kernelEnv) serveKernel(s *server, cached serve.Query) {
	k.kernel("serve", func(scope) error {
		var hits sample
		for i := 0; i < 2000; i++ {
			begin := now()
			_, disp, err := s.srv.Answer(cached)
			if err != nil {
				return err
			}
			if disp != serve.DispHit {
				return fmt.Errorf("primed query answered as %s", disp)
			}
			hits = append(hits, micros(since(begin)))
		}
		k.set("serve.answer_hit_us", hits.median())
		return nil
	})
}

// campaignKernel times the pieces serve borrows from campaign: the JSONL
// record store's append (with its sync) and load, and a worker-pool round
// trip with an empty job.
func (k *kernelEnv) campaignKernel(dir string, workers int) {
	k.kernel("campaign", func(scope) error {
		const records = 200
		path := filepath.Join(dir, "kernel.jsonl")
		key := func(r serve.Report) string { return r.Key }
		keep := func(serve.Report) bool { return true }
		st, err := campaign.OpenRecordStore(path, key, keep)
		if err != nil {
			return err
		}
		rec := serve.Report{Kind: serve.KindWhatIf, TraceHash: "0123456789abcdef", Flows: make([]serve.FlowReport, 2)}
		var appends sample
		for i := 0; i < records; i++ {
			rec.Key = strconv.Itoa(i)
			begin := now()
			if err := st.Append(rec); err != nil {
				return err
			}
			appends = append(appends, micros(since(begin)))
		}
		if err := st.Close(); err != nil {
			return err
		}
		begin := now()
		st, err = campaign.OpenRecordStore(path, key, keep)
		if err != nil {
			return err
		}
		load := since(begin)
		if st.Len() != records {
			return fmt.Errorf("store reloaded %d of %d records", st.Len(), records)
		}
		if err := st.Close(); err != nil {
			return err
		}
		pool := campaign.NewWorkerPool(workers)
		defer pool.Close()
		var submits sample
		for i := 0; i < 2000; i++ {
			begin := now()
			a := <-pool.Submit(func() (campaign.Metrics, any, error) { return nil, nil, nil }, 0, 0)
			if a.Err != nil {
				return a.Err
			}
			submits = append(submits, micros(since(begin)))
		}
		k.set("campaign.store_append_us", appends.median())
		k.set("campaign.store_load_ms", millis(load))
		k.set("campaign.pool_submit_us", submits.median())
		return nil
	})
}
