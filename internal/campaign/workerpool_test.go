package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestWorkerPoolRunsJobsConcurrently(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := NewWorkerPool(4)
	defer p.Close()
	var (
		mu      sync.Mutex
		started int
		release = make(chan struct{})
	)
	chs := make([]<-chan Attempt, 0, 4)
	for i := 0; i < 4; i++ {
		chs = append(chs, p.Submit(func() (Metrics, any, error) {
			mu.Lock()
			started++
			mu.Unlock()
			<-release
			return Metrics{"v": 1}, nil, nil
		}, 0, 0))
	}
	// All four jobs must occupy workers at once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := started
		mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/4 jobs started", n)
		}
		time.Sleep(time.Millisecond)
	}
	if busy := p.Busy(); busy != 4 {
		t.Fatalf("Busy() = %d, want 4", busy)
	}
	close(release)
	for _, ch := range chs {
		if a := <-ch; a.Err != nil || a.Metrics["v"] != 1 {
			t.Fatalf("attempt = %+v", a)
		}
	}
	if busy := p.Busy(); busy != 0 {
		t.Fatalf("Busy() after drain = %d, want 0", busy)
	}
}

// TestWorkerPoolPanicIsolation pins the serving-layer requirement: a
// panicking job is delivered as an error with its stack while jobs running
// concurrently on other workers complete untouched.
func TestWorkerPoolPanicIsolation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := NewWorkerPool(2)
	defer p.Close()
	bad := p.Submit(func() (Metrics, any, error) { panic("query exploded") }, 0, 0)
	good := p.Submit(func() (Metrics, any, error) { return Metrics{"ok": 1}, "payload", nil }, 0, 0)
	a := <-bad
	if a.Err == nil || !strings.Contains(a.Err.Error(), "query exploded") {
		t.Fatalf("panic not surfaced as error: %+v", a)
	}
	if !strings.Contains(a.Panic, "workerpool_test.go") {
		t.Fatalf("panic stack missing origin: %q", a.Panic)
	}
	g := <-good
	if g.Err != nil || g.Payload != "payload" {
		t.Fatalf("concurrent job disturbed by panic: %+v", g)
	}
}

func TestWorkerPoolRetriesThenSucceeds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := NewWorkerPool(1)
	defer p.Close()
	var mu sync.Mutex
	calls := 0
	a := <-p.Submit(func() (Metrics, any, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return nil, nil, fmt.Errorf("flaky (call %d)", calls)
		}
		return Metrics{"v": 2}, nil, nil
	}, 0, 2)
	if a.Err != nil || a.Attempts != 3 || a.Metrics["v"] != 2 {
		t.Fatalf("attempt = %+v, want success on third try", a)
	}
}

func TestWorkerPoolTimeoutAbandonsAttempt(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := NewWorkerPool(1)
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	a := <-p.Submit(func() (Metrics, any, error) {
		<-block
		return nil, nil, nil
	}, 20*time.Millisecond, 0)
	if a.Err == nil || !strings.Contains(a.Err.Error(), "timed out") {
		t.Fatalf("attempt = %+v, want timeout", a)
	}
	// The worker must be free for the next job despite the abandoned one.
	b := <-p.Submit(func() (Metrics, any, error) { return Metrics{"v": 3}, nil, nil }, 0, 0)
	if b.Err != nil || b.Metrics["v"] != 3 {
		t.Fatalf("pool wedged after timeout: %+v", b)
	}
}

func TestWorkerPoolClosedRejectsSubmit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := NewWorkerPool(1)
	p.Close()
	a := <-p.Submit(func() (Metrics, any, error) { return nil, nil, nil }, 0, 0)
	if !errors.Is(a.Err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", a.Err)
	}
}

func TestRecordStoreMemoryOnly(t *testing.T) {
	type rec struct {
		Key string `json:"key"`
		Val int    `json:"val"`
		OK  bool   `json:"ok"`
	}
	rs, err := OpenRecordStore("",
		func(r rec) string { return r.Key },
		func(r rec) bool { return r.OK })
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Append(rec{Key: "a", Val: 1, OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Append(rec{Key: "b", Val: 2, OK: false}); err != nil {
		t.Fatal(err)
	}
	if got, ok := rs.Completed("a"); !ok || got.Val != 1 {
		t.Fatalf("Completed(a) = %+v ok=%v", got, ok)
	}
	if _, ok := rs.Completed("b"); ok {
		t.Fatal("record failing keep must not be served")
	}
	if rs.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", rs.Len())
	}
}
