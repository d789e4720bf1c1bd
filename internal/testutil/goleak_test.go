package testutil

import (
	"strings"
	"testing"
	"time"
)

// recorder captures what VerifyNoLeaks would report without failing the
// real test.
type recorder struct {
	*testing.T
	cleanups []func()
	failures []string
}

func (r *recorder) Cleanup(f func())          { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Errorf(f string, a ...any) { r.failures = append(r.failures, f) }

func (r *recorder) runCleanups() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func TestVerifyNoLeaksPassesWhenClean(t *testing.T) {
	r := &recorder{T: t}
	VerifyNoLeaks(r)
	// A goroutine that exits before teardown is not a leak.
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	r.runCleanups()
	if len(r.failures) != 0 {
		t.Fatalf("clean test reported failures: %v", r.failures)
	}
}

func TestVerifyNoLeaksToleratesLateExit(t *testing.T) {
	r := &recorder{T: t}
	VerifyNoLeaks(r)
	// Still running when cleanup starts, but exits within the grace
	// period — the polling must absorb it.
	go func() {
		time.Sleep(50 * time.Millisecond)
	}()
	r.runCleanups()
	if len(r.failures) != 0 {
		t.Fatalf("late-exiting goroutine reported as leak: %v", r.failures)
	}
}

func TestVerifyNoLeaksCatchesLeak(t *testing.T) {
	r := &recorder{T: t}
	base := goroutineIDs()
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() {
		close(started)
		<-stop // parked past teardown: a leak
	}()
	<-started
	leaked := awaitNoNewGoroutines(base, 50*time.Millisecond)
	if len(leaked) != 1 {
		t.Fatalf("leaked = %v, want exactly the parked goroutine", leaked)
	}
	if !strings.Contains(leaked[0], "chan receive") {
		t.Errorf("leak summary %q does not name the blocking state", leaked[0])
	}
	_ = r
}

func TestBenignGoroutineFilters(t *testing.T) {
	if !benignGoroutine("goroutine 7 [syscall]:\nos/signal.signal_recv()") {
		t.Error("signal goroutine not filtered")
	}
	if benignGoroutine("goroutine 8 [chan receive]:\nrepro/internal/campaign.(*WorkerPool).worker()") {
		t.Error("worker goroutine wrongly filtered")
	}
}
