package sim

import (
	"testing"
	"time"
)

// TestHandleGenerationStaleCancel pins the classic pooling bug: a Handle
// held across its event's death must not affect the item's next occupant.
// Sequence: schedule A → cancel A (item returns to the pool) → schedule B
// (reuses the item) → the stale A handle must report inactive and its
// Cancel must be a no-op; B still fires.
func TestHandleGenerationStaleCancel(t *testing.T) {
	s := New(1)
	hA := s.After(time.Second, func(Time) { t.Fatal("A fired after cancel") })
	if !s.Cancel(hA) {
		t.Fatal("cancel A should report pending")
	}
	fired := false
	hB := s.After(time.Second, func(Time) { fired = true })
	if hA.it != hB.it {
		t.Skip("pool did not reuse the item; generation safety not exercised")
	}
	if hA.Active() {
		t.Fatal("stale handle reports active on recycled item")
	}
	if s.Cancel(hA) {
		t.Fatal("stale handle canceled the new occupant")
	}
	if !hB.Active() {
		t.Fatal("fresh handle should be active")
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("B did not fire")
	}
}

// TestHandleGenerationAfterRun is the same safety check for the other way
// an item dies: its event runs to completion.
func TestHandleGenerationAfterRun(t *testing.T) {
	s := New(1)
	hA := s.After(time.Millisecond, func(Time) {})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if hA.Active() {
		t.Fatal("handle still active after its event ran")
	}
	ran := 0
	hB := s.After(time.Millisecond, func(Time) { ran++ })
	if hA.it == hB.it && s.Cancel(hA) {
		t.Fatal("stale handle canceled the recycled item's new event")
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("B ran %d times, want 1", ran)
	}
}

// TestItemPoolSteadyState verifies the free list actually recycles: a
// schedule→run cycle repeated many times must keep the pool at a handful of
// items rather than growing without bound.
func TestItemPoolSteadyState(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.After(time.Microsecond, func(Time) {})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.items.recs); got > 4 {
		t.Fatalf("free list grew to %d items for a serial workload", got)
	}
}

// TestCancelMiddleOfHeap removes events from interior heap positions and
// checks the remaining run order stays (time, seq)-sorted.
func TestCancelMiddleOfHeap(t *testing.T) {
	s := New(1)
	var order []int
	handles := make([]Handle, 0, 20)
	for i := 0; i < 20; i++ {
		i := i
		d := time.Duration(((i * 7) % 10)) * time.Millisecond
		handles = append(handles, s.After(d, func(Time) { order = append(order, i) }))
	}
	for _, i := range []int{3, 11, 17, 0, 19} {
		if !s.Cancel(handles[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 15 {
		t.Fatalf("ran %d events, want 15", len(order))
	}
	last := Time(-1)
	seen := map[int]bool{3: true, 11: true, 17: true, 0: true, 19: true}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("event %d ran twice or after cancel", i)
		}
		seen[i] = true
		at := Time(((i * 7) % 10)) * Millisecond
		if at < last {
			t.Fatalf("out-of-order execution: event %d at %v after %v", i, at, last)
		}
		last = at
	}
}

// TestAfterArgNoAlloc checks the arg-carrying fast path: a steady
// reschedule loop through AfterArg must not allocate once the pool warms.
func TestAfterArgNoAlloc(t *testing.T) {
	s := New(1)
	type st struct{ n int }
	state := &st{}
	var fire ArgEvent
	fire = func(now Time, arg any) {
		r := arg.(*st)
		if r.n++; r.n < 100 {
			s.AfterArg(time.Microsecond, fire, arg)
		}
	}
	s.AfterArg(time.Microsecond, fire, state)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if state.n != 100 {
		t.Fatalf("ran %d, want 100", state.n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		state.n = 99
		s.AfterArg(time.Microsecond, fire, state)
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("AfterArg steady state allocates %.1f per run, want 0", allocs)
	}
}

// TestTickerNoAlloc: a running Ticker re-arms itself through the pooled
// AfterArg path, so steady-state ticks allocate nothing.
func TestTickerNoAlloc(t *testing.T) {
	s := New(1)
	ticks := 0
	stop := s.Ticker(time.Millisecond, func(Time) { ticks++ })
	defer stop()
	tick := func() {
		if err := s.Run(s.Now().Add(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // warm the item pool
		tick()
	}
	allocs := testing.AllocsPerRun(100, tick)
	if allocs > 0 {
		t.Fatalf("Ticker steady state allocates %.1f per tick, want 0", allocs)
	}
	if ticks != 111 {
		t.Fatalf("ticked %d times, want 111 (one per millisecond)", ticks)
	}
}

// TestScheduleCancelNoAlloc: timer churn (schedule, then Cancel before it
// fires — the TCP retransmit-restart pattern) reuses the pooled item.
func TestScheduleCancelNoAlloc(t *testing.T) {
	s := New(1)
	churn := func() { s.Cancel(s.After(time.Second, func(Time) {})) }
	churn() // warm the item pool
	if allocs := testing.AllocsPerRun(100, churn); allocs > 0 {
		t.Fatalf("schedule-then-Cancel allocates %.1f per run, want 0", allocs)
	}
}

// TestFreeListPoisonsReleasedRecords: in a test binary Put runs the type's
// poison before it keeps the record, Get hands the same record back, and
// the zero FreeList (the simulator's own item list) never poisons.
func TestFreeListPoisonsReleasedRecords(t *testing.T) {
	type rec struct{ hops int }
	l := NewFreeList(func(r *rec) { r.hops = -1 })
	r := l.Get()
	r.hops = 7
	l.Put(r)
	if r.hops != -1 {
		t.Fatalf("released record reads %d hops, want the poison −1", r.hops)
	}
	if got := l.Get(); got != r {
		t.Fatal("Get allocated instead of reusing the released record")
	}
	var plain FreeList[rec]
	r.hops = 7
	plain.Put(r)
	if r.hops != 7 {
		t.Fatalf("the zero FreeList changed a released record to %d hops", r.hops)
	}
}
