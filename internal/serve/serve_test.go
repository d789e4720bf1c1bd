package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// stubRunner returns a canned report and counts invocations.
type stubRunner struct {
	mu    sync.Mutex
	calls int
	block chan struct{} // when set, runs wait here
}

func (r *stubRunner) run(q Query) (*Report, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	if r.block != nil {
		<-r.block
	}
	return &Report{Kind: q.Kind, BlackholeMs: 123, TraceHash: "stub"}, nil
}

func (r *stubRunner) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func whatIfQuery(seed int64) Query {
	return Query{
		Kind:   KindWhatIf,
		Scheme: "f2tree",
		Ports:  6,
		Link:   &Link{A: "tor-p0-0", B: "agg-p0-0"},
		Seed:   seed,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAnswerMemoizesRepeatedQuery(t *testing.T) {
	r := &stubRunner{}
	s := newTestServer(t, Config{Workers: 2, Runner: r.run})

	rep1, disp1, err := s.Answer(whatIfQuery(1))
	if err != nil || disp1 != DispMiss {
		t.Fatalf("first answer: rep=%v disp=%v err=%v", rep1, disp1, err)
	}
	// Spelling the same question with explicit defaults must hit the same
	// cache entry: the key is the canonical form.
	q2 := whatIfQuery(1)
	q2.FailAtMs = 300 // the default, now explicit
	rep2, disp2, err := s.Answer(q2)
	if err != nil || disp2 != DispHit {
		t.Fatalf("repeat answer: disp=%v err=%v", disp2, err)
	}
	if rep2.BlackholeMs != rep1.BlackholeMs || rep2.Key != rep1.Key {
		t.Fatalf("cached report diverged: %+v vs %+v", rep2, rep1)
	}
	if r.count() != 1 {
		t.Fatalf("runner ran %d times, want 1", r.count())
	}
	m := s.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.CacheHitRate != 0.5 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss", m)
	}
}

// TestCanonicalSpellingsShareOneEntry: two spellings of one question are one
// cache key, hence one simulation and (the key being the canonical query the
// scenario is built from) one traceHash. The canonical spelling is the one
// that omits control and upper-cases the condition; its keys are pinned to
// the values stores written before canonicalisation hold.
func TestCanonicalSpellingsShareOneEntry(t *testing.T) {
	withControl := whatIfQuery(1)
	withControl.Control = "ospf"
	recovery := func(cond string) Query {
		return Query{Kind: KindRecovery, Scheme: "f2tree", Ports: 8, Condition: cond}
	}
	cases := []struct {
		name         string
		canon, other Query
		key          string
	}{
		{"control ospf", whatIfQuery(1), withControl, "c92888e21e0da407"},
		{"condition case", recovery("C1"), recovery("c1"), "b422b429e4f461fa"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &stubRunner{}
			s := newTestServer(t, Config{Workers: 2, Runner: r.run})
			rep1, disp1, err := s.Answer(c.canon)
			if err != nil || disp1 != DispMiss {
				t.Fatalf("first answer: disp=%v err=%v", disp1, err)
			}
			if rep1.Key != c.key {
				t.Fatalf("canonical key = %s, want %s", rep1.Key, c.key)
			}
			rep2, disp2, err := s.Answer(c.other)
			if err != nil || disp2 != DispHit {
				t.Fatalf("second spelling: disp=%v err=%v, want a cache hit", disp2, err)
			}
			if rep2.Key != rep1.Key {
				t.Fatalf("keys differ: %s vs %s", rep1.Key, rep2.Key)
			}
			if r.count() != 1 {
				t.Fatalf("runner ran %d times, want 1", r.count())
			}
		})
	}
}

func TestAnswerCoalescesConcurrentIdenticalQueries(t *testing.T) {
	r := &stubRunner{block: make(chan struct{})}
	s := newTestServer(t, Config{Workers: 4, Runner: r.run})

	const n = 4
	var wg sync.WaitGroup
	reps := make([]*Report, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], _, errs[i] = s.Answer(whatIfQuery(1))
		}(i)
	}
	// Release the run only once it is in flight and the other callers
	// have joined it (Answer counts a join before it waits): a caller that
	// arrives after the release would be a cache hit, not a coalesce.
	deadline := time.Now().Add(5 * time.Second)
	for r.count() == 0 || s.Metrics().Coalesced != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("run in flight: %v, joined: %d of %d", r.count() != 0, s.Metrics().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(r.block)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || reps[i] == nil || reps[i].BlackholeMs != 123 {
			t.Fatalf("answer %d: rep=%+v err=%v", i, reps[i], errs[i])
		}
	}
	if r.count() != 1 {
		t.Fatalf("runner ran %d times for %d identical queries, want 1", r.count(), n)
	}
	m := s.Metrics()
	if m.Misses != 1 || m.Coalesced != n-1 {
		t.Fatalf("metrics = %+v, want 1 miss / %d coalesced", m, n-1)
	}
}

// TestPanicIsolation pins the acceptance criterion: a mid-query panic
// fails that query alone; a query in flight on another worker completes.
func TestPanicIsolation(t *testing.T) {
	good := &stubRunner{block: make(chan struct{})}
	runner := func(q Query) (*Report, error) {
		if q.Seed == 666 {
			panic("simulated oracle bug")
		}
		return good.run(q)
	}
	s := newTestServer(t, Config{Workers: 2, Runner: runner})

	var wg sync.WaitGroup
	var goodRep *Report
	var goodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		goodRep, _, goodErr = s.Answer(whatIfQuery(1))
	}()
	// Ensure the good query is mid-flight before the panic lands.
	deadline := time.Now().Add(5 * time.Second)
	for good.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("good query never started")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err := s.Answer(whatIfQuery(666))
	if err == nil || !strings.Contains(err.Error(), "simulated oracle bug") {
		t.Fatalf("panic not surfaced: err=%v", err)
	}
	close(good.block)
	wg.Wait()
	if goodErr != nil || goodRep == nil || goodRep.BlackholeMs != 123 {
		t.Fatalf("in-flight query disturbed by panic: rep=%+v err=%v", goodRep, goodErr)
	}
	// The failed key must not be cached: a retry re-runs it.
	if _, disp, err := s.Answer(whatIfQuery(666)); disp == DispHit || err == nil {
		t.Fatalf("failed query served from cache: disp=%v err=%v", disp, err)
	}
	if m := s.Metrics(); m.Failures != 2 {
		t.Fatalf("failures = %d, want 2", m.Failures)
	}
}

func TestQueryTimeoutFailsAlone(t *testing.T) {
	r := &stubRunner{block: make(chan struct{})}
	defer close(r.block)
	s := newTestServer(t, Config{Workers: 2, Timeout: 20 * time.Millisecond, Runner: r.run})
	_, _, err := s.Answer(whatIfQuery(1))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: (&stubRunner{}).run})
	cases := []Query{
		{},                           // no scheme
		{Scheme: "f2tree"},           // no ports
		{Scheme: "f2tree", Ports: 6}, // whatif without link
		{Kind: "divine", Scheme: "f2tree", Ports: 6}, // unknown kind
		{Kind: KindRecovery, Scheme: "f2tree", Ports: 6, Condition: "C9"},
		{Kind: KindRecovery, Scheme: "f2tree", Ports: 6, Condition: "C1",
			Link: &Link{A: "x", B: "y"}}, // whatif field on recovery
		{Kind: KindWhatIf, Scheme: "f2tree", Ports: 6,
			Link: &Link{A: "a", B: "b"}, FailAtMs: 100, RestoreAtMs: 50},
	}
	for i, q := range cases {
		if _, _, err := s.Answer(q); err == nil {
			t.Errorf("case %d (%+v): invalid query accepted", i, q)
		}
	}
	// A field Query does not have, here the retired fullSPF option, is
	// refused while decoding on both endpoints.
	const retired = `{"scheme":"f2tree","ports":6,"link":{"a":"tor-p0-0","b":"agg-p0-0"},"fullSPF":true}`
	for _, path := range []string{"/query", "/stream"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(retired+"\n")))
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v in %q", path, err, rec.Body.String())
		}
		if !strings.Contains(resp.Error, `unknown field "fullSPF"`) {
			t.Errorf("%s answered a query with a fullSPF field: %q", path, rec.Body.String())
		}
	}
	if m := s.Metrics(); m.Misses != 0 {
		t.Fatalf("invalid queries reached the pool: %+v", m)
	}
}

func TestStorePersistsAcrossRestart(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "serve.jsonl")
	r1 := &stubRunner{}
	s1, err := NewServer(Config{Workers: 1, StorePath: path, Runner: r1.run})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Answer(whatIfQuery(1)); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	r2 := &stubRunner{}
	s2, err := NewServer(Config{Workers: 1, StorePath: path, Runner: r2.run})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if warn := s2.Warnings(); len(warn) != 0 {
		t.Fatalf("unexpected store warnings: %v", warn)
	}
	rep, disp, err := s2.Answer(whatIfQuery(1))
	if err != nil || disp != DispHit || rep.BlackholeMs != 123 {
		t.Fatalf("warm start miss: rep=%+v disp=%v err=%v", rep, disp, err)
	}
	if r2.count() != 0 {
		t.Fatalf("runner ran %d times after warm start, want 0", r2.count())
	}
}

func TestHTTPQueryAndMetrics(t *testing.T) {
	r := &stubRunner{}
	s := newTestServer(t, Config{Workers: 2, Runner: r.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(q Query) Response {
		t.Helper()
		b, _ := json.Marshal(q)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := post(whatIfQuery(1)); out.Error != "" || out.Cached || out.Report.BlackholeMs != 123 {
		t.Fatalf("first query: %+v", out)
	}
	if out := post(whatIfQuery(1)); out.Error != "" || !out.Cached {
		t.Fatalf("repeat query not cached: %+v", out)
	}
	if out := post(Query{Scheme: "nope", Ports: 6, Link: &Link{A: "a", B: "b"}}); out.Error == "" {
		t.Fatal("invalid query accepted over HTTP")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Hits != 1 || m.Misses != 1 || m.PoolWorkers != 2 || m.LatencyMs.Count < 2 {
		t.Fatalf("metrics = %+v", m)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", health.StatusCode)
	}
}

func TestHTTPStream(t *testing.T) {
	r := &stubRunner{}
	s := newTestServer(t, Config{Workers: 2, Runner: r.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var in bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		b, _ := json.Marshal(whatIfQuery(seed))
		in.Write(b)
		in.WriteByte('\n')
	}
	in.WriteString("{not json}\n")
	b, _ := json.Marshal(whatIfQuery(1)) // repeat of the first: must be cached
	in.Write(b)
	in.WriteByte('\n')

	resp, err := http.Post(ts.URL+"/stream", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var outs []Response
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var o Response
		if err := dec.Decode(&o); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	if len(outs) != 5 {
		t.Fatalf("got %d responses, want 5: %+v", len(outs), outs)
	}
	for _, i := range []int{0, 1, 2, 4} {
		if outs[i].Error != "" || outs[i].Report == nil {
			t.Fatalf("response %d: %+v", i, outs[i])
		}
	}
	if outs[3].Error == "" {
		t.Fatal("malformed line did not error")
	}
	// The two identical queries (lines 1 and 5) run concurrently:
	// whichever is scheduled first does the one fresh run, the other is
	// served from cache or joins it in flight. Exactly one of the pair
	// must be a saved simulation either way.
	saved := 0
	for _, i := range []int{0, 4} {
		if outs[i].Cached || outs[i].Coalesced {
			saved++
		}
		if outs[i].Report.Key != outs[0].Report.Key {
			t.Fatalf("identical queries got different keys: %+v vs %+v", outs[0], outs[i])
		}
	}
	if saved != 1 {
		t.Fatalf("duplicate pair: %d saved runs, want exactly 1 (outs[0]=%+v outs[4]=%+v)",
			saved, outs[0], outs[4])
	}
	if r.count() != 3 {
		t.Fatalf("runner ran %d times, want 3", r.count())
	}
}

// TestWhatIfRunsRealSimulation smoke-tests the default runner end to end:
// a ToR–agg failure on F²Tree must yield a bounded blackhole, a clean
// oracle verdict and a deterministic trace hash on repeat.
func TestWhatIfRunsRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	s := newTestServer(t, Config{Workers: 2})
	q := whatIfQuery(1)
	rep, disp, err := s.Answer(q)
	if err != nil || disp != DispMiss {
		t.Fatalf("whatif: rep=%+v disp=%v err=%v", rep, disp, err)
	}
	if len(rep.Flows) == 0 || rep.TraceHash == "" {
		t.Fatalf("report missing flows or trace hash: %+v", rep)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("oracle violations on a plain link-down: %v", rep.Violations)
	}
	rep2, disp2, err := s.Answer(q)
	if err != nil || disp2 != DispHit || rep2.TraceHash != rep.TraceHash {
		t.Fatalf("repeat: disp=%v hash=%s vs %s err=%v", disp2, rep2.TraceHash, rep.TraceHash, err)
	}
}

// TestRecoveryRunsRealSimulation smoke-tests the recovery kind against
// the paper's C1 condition on F²Tree: fast reroute keeps recovery far
// below OSPF reconvergence.
func TestRecoveryRunsRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	s := newTestServer(t, Config{Workers: 1})
	rep, _, err := s.Answer(Query{
		Kind: KindRecovery, Scheme: "f2tree", Ports: 6, Condition: "C1", Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryMs <= 0 || rep.RecoveryMs > 200 {
		t.Fatalf("C1 recovery %.1f ms outside fast-reroute range", rep.RecoveryMs)
	}
	if rep.PacketsSent == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestDescribe(t *testing.T) {
	nq, err := whatIfQuery(1).normalized()
	if err != nil {
		t.Fatal(err)
	}
	d := nq.describe()
	for _, want := range []string{"whatif", "f2tree/6", "tor-p0-0"} {
		if !strings.Contains(d, want) {
			t.Fatalf("describe() = %q, missing %q", d, want)
		}
	}
	if fmt.Sprint(nq.hash()) == "" || len(nq.hash()) != 16 {
		t.Fatalf("hash = %q", nq.hash())
	}
}

// TestCacheHitAllocBudget pins what a cache hit may cost: the key (the
// canonical query's JSON and its hash), a copy of the stored report and the
// latency sample — no topology. Validation builds the fabric, so it runs on
// a miss only. On this F²Tree(6) query a hit measured 165 allocations while
// every query was validated, and 6 with validation moved to the miss path.
func TestCacheHitAllocBudget(t *testing.T) {
	const budget = 8
	s := newTestServer(t, Config{Workers: 1, Runner: (&stubRunner{}).run})
	q := whatIfQuery(1)
	if _, disp, err := s.Answer(q); err != nil || disp != DispMiss {
		t.Fatalf("first answer: disp=%v err=%v", disp, err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, disp, err := s.Answer(q); err != nil || disp != DispHit {
			t.Fatalf("repeat answer: disp=%v err=%v", disp, err)
		}
	})
	if got > budget {
		t.Fatalf("a cache hit allocates %.0f times, budget %d", got, budget)
	}
}
