package campaign

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Metrics is one run's scalar outputs, keyed by stable metric names
// (encoding/json writes map keys sorted, so records marshal
// deterministically).
type Metrics map[string]float64

// RunFunc executes one spec. The payload is an optional rich result (e.g.
// *exp.RecoveryResult) handed back in-memory to assemblers; only the flat
// Metrics are persisted.
type RunFunc func(Spec) (Metrics, any, error)

// Result is one run's record — the JSONL store's line format.
type Result struct {
	Hash string `json:"hash"`
	Spec Spec   `json:"spec"`
	Seed int64  `json:"seed"`
	// Status is "ok" or "failed".
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Panic carries the captured stack of the last panicking attempt.
	Panic string `json:"panic,omitempty"`
	// WallMS is the wall-clock cost of the recorded attempt. Informational
	// only: it is excluded from aggregation so aggregates stay
	// byte-identical across parallelism levels.
	WallMS  float64 `json:"wall_ms"`
	Metrics Metrics `json:"metrics,omitempty"`
}

// StatusOK/StatusFailed are the Result.Status values.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// OpenStore opens (or creates) the campaign's resumable result cache at
// path: a RecordStore of run Results keyed by spec hash, retaining only ok
// records (a failed record never satisfies a resume — the spec re-runs).
func OpenStore(path string) (*RecordStore[Result], error) {
	return OpenRecordStore(path,
		func(r Result) string { return r.Hash },
		func(r Result) bool { return r.Status == StatusOK })
}

// Options shapes a campaign execution.
type Options struct {
	// Parallelism is the worker count (0 = GOMAXPROCS).
	Parallelism int
	// Timeout is the real-time budget per attempt (0 = none). A timed-out
	// attempt's goroutine cannot be preempted — the simulation runs
	// synchronously — so it is abandoned: its eventual result is discarded
	// and the spec is retried or reported failed.
	Timeout time.Duration
	// Retries is the number of extra attempts after the first (panics and
	// timeouts included). Total attempts = Retries + 1.
	Retries int
	// Store, when set, is consulted before running (completed specs are
	// skipped) and receives every fresh result as it completes.
	Store *RecordStore[Result]
	// Progress, when set, receives a one-line progress report as runs
	// complete (carriage-return rewritten, newline-terminated at the end).
	Progress io.Writer
}

// Outcome is a campaign's collected results.
type Outcome struct {
	// Results holds one record per spec — fresh and store-resumed alike —
	// sorted by spec Key, so the slice is deterministic regardless of
	// completion order.
	Results []Result
	// Payloads maps spec hash → the RunFunc payload, for runs executed in
	// this invocation only (resumed runs have no payload).
	Payloads map[string]any
	// Skipped counts specs satisfied from the store.
	Skipped int
	// Failed counts specs whose final status is failed.
	Failed int
}

// Run expands nothing and decides nothing: it executes exactly the given
// specs on a WorkerPool and returns every result. Per-run failures
// (errors, panics, timeouts) are recorded in the results, not returned;
// the error covers infrastructure problems only (duplicate or invalid
// specs, store I/O).
func Run(specs []Spec, fn RunFunc, o Options) (*Outcome, error) {
	seen := make(map[string]int, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		h := s.Hash()
		if j, dup := seen[h]; dup {
			return nil, fmt.Errorf("specs %d and %d are identical (%s)", j, i, s.Key())
		}
		seen[h] = i
	}

	out := &Outcome{Payloads: make(map[string]any)}
	var todo []Spec
	for _, s := range specs {
		if o.Store != nil {
			if cached, ok := o.Store.Completed(s.Hash()); ok {
				out.Results = append(out.Results, cached)
				out.Skipped++
				continue
			}
		}
		todo = append(todo, s)
	}

	done := out.Skipped
	pool := NewWorkerPool(o.Parallelism)
	defer pool.Close()
	start := time.Now()
	report := func() {
		if o.Progress == nil {
			return
		}
		elapsed := time.Since(start).Round(100 * time.Millisecond)
		fmt.Fprintf(o.Progress, "\rcampaign: %d/%d done (%d skipped, %d failed) j=%d %v ",
			done, len(specs), out.Skipped, out.Failed, pool.Workers(), elapsed)
	}
	report()

	// Submit everything up front (Submit never blocks), then collect each
	// spec's outcome in submission order; collection is single-goroutine,
	// so the bookkeeping below needs no lock.
	type pending struct {
		spec Spec
		ch   <-chan Attempt
	}
	pendings := make([]pending, 0, len(todo))
	for _, s := range todo {
		s := s
		ch := pool.Submit(func() (Metrics, any, error) { return fn(s) }, o.Timeout, o.Retries)
		pendings = append(pendings, pending{spec: s, ch: ch})
	}
	var storeErr error
	for _, p := range pendings {
		a := <-p.ch
		res := resultFrom(p.spec, a)
		if res.Status == StatusFailed {
			out.Failed++
		} else if a.Payload != nil {
			out.Payloads[res.Hash] = a.Payload
		}
		out.Results = append(out.Results, res)
		if o.Store != nil {
			if err := o.Store.Append(res); err != nil && storeErr == nil {
				storeErr = err
			}
		}
		done++
		report()
	}
	if o.Progress != nil {
		fmt.Fprintln(o.Progress)
	}
	if storeErr != nil {
		return nil, fmt.Errorf("campaign: appending to store: %w", storeErr)
	}

	sort.Slice(out.Results, func(i, j int) bool {
		return out.Results[i].Spec.Key() < out.Results[j].Spec.Key()
	})
	return out, nil
}

// resultFrom converts a pool attempt into the spec's stored record.
func resultFrom(spec Spec, a Attempt) Result {
	res := Result{
		Hash: spec.Hash(), Spec: spec, Seed: spec.Seed(), Status: StatusFailed,
		Attempts: a.Attempts, WallMS: a.WallMS,
	}
	if a.Err == nil {
		res.Status = StatusOK
		res.Metrics = a.Metrics
	} else {
		res.Error = a.Err.Error()
		res.Panic = a.Panic
	}
	return res
}
