// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event; all model code
// runs synchronously inside event callbacks. Determinism is guaranteed by a
// stable tie-break on (time, sequence) and by routing every source of
// randomness through the simulator's seeded RNG.
//
// The event core is allocation-free in steady state. Scheduled events live
// in two indexed 4-ary min-heaps of *item: a near heap for events up to a
// split instant and a far heap for the later ones, which moves one window
// into the near heap whenever the near heap drains. Every near key is below
// every far key, so the pop order is exactly (time, sequence). Items are
// recycled through a free list, and Handles carry a generation counter so
// a handle to an already-run (and possibly recycled) event is safely
// inert. The AtArg/AfterArg variants let hot paths schedule a static
// function plus a pooled argument record instead of allocating a fresh
// closure per event; ReserveSeq/AtArgSeq let a model hold an event outside
// the queue and insert it later at the place it would have had.
package sim

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Time is a virtual time instant, measured as a duration since the start of
// the simulation. It is deliberately not time.Time: simulations have no
// calendar.
type Time time.Duration

// Common virtual-time unit helpers.
const (
	Nanosecond  = Time(time.Nanosecond)
	Microsecond = Time(time.Microsecond)
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
)

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats t like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a callback scheduled to run at a virtual instant.
type Event func(now Time)

// ArgEvent is an Event that receives an opaque argument at fire time. Hot
// paths pass a package-level function here (never a fresh closure) and
// thread per-event state through arg, typically a pooled record.
type ArgEvent func(now Time, arg any)

// farWindow is how much simulated time one refill moves from the far heap
// into the near heap. Too short and a workload whose events are spread out
// refills all the time; too long and the near heap fills with the timers
// the split exists to keep out of it (DESIGN.md §9 "Event core" has the
// sweep).
const farWindow = 20 * Millisecond

// item is a scheduled event in the priority queue. Items are pooled: gen
// increments every time an item is released, invalidating outstanding
// Handles before the item can be reused.
type item struct {
	at    Time
	seq   uint64 // tie-break: FIFO among equal times
	fn    Event
	argFn ArgEvent
	arg   any
	index int32 // index in its heap; -1 once popped or canceled
	far   bool  // which heap holds it
	gen   uint64
}

// itemLess is the total event order: (at, seq). seq is unique, so there are
// never ties and heap pop order is deterministic.
func itemLess(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be canceled. The generation
// pin makes stale handles safe: once the event has run or been canceled its
// item may be recycled for a new event, and the old handle must not cancel
// the new occupant.
type Handle struct {
	it  *item
	gen uint64
}

// Active reports whether the event is still pending.
func (h Handle) Active() bool { return h.it != nil && h.it.gen == h.gen && h.it.index >= 0 }

// ErrStopped is returned by Run when the simulation was stopped explicitly.
var ErrStopped = errors.New("sim: stopped")

// Simulator owns the virtual clock and event queue. It is single-threaded:
// every event of a run executes on the goroutine that called Run.
type Simulator struct {
	now Time
	// near holds the events at or before split, far the later ones, so
	// every near key is below every far key.
	near    eventHeap
	far     eventHeap
	split   Time
	items   FreeList[item] // unpoisoned: gen is the items' own safety net
	seq     uint64
	rng     *rand.Rand
	stopped bool
	ran     uint64
	peak    int // high-water mark of Pending
}

// New returns a simulator whose RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation RNG. All model randomness must come from it.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsRun returns the number of events executed so far.
func (s *Simulator) EventsRun() uint64 { return s.ran }

// Pending returns the number of events still queued, in both heaps. An
// event a model holds outside the queue under a reserved sequence number
// (ReserveSeq) is not pending until AtArgSeq schedules it: the network's
// arrivals queued behind a link direction's head and OSPF's flood records
// queued behind the flood FIFO's head are not counted.
func (s *Simulator) Pending() int { return len(s.near) + len(s.far) }

// PeakPending returns the most events that were ever queued at once (the
// high-water mark of Pending): how deep the queue got, which sampling
// Pending between phases cannot see.
func (s *Simulator) PeakPending() int { return s.peak }

// schedule enqueues one event under sequence number seq. Scheduling in the
// past is treated as "now" (the event runs before time advances further).
func (s *Simulator) schedule(at Time, seq uint64, fn Event, argFn ArgEvent, arg any) Handle {
	if at < s.now {
		at = s.now
	}
	it := s.items.Get()
	it.at, it.seq = at, seq
	it.fn, it.argFn, it.arg = fn, argFn, arg
	it.far = at > s.split
	if it.far {
		s.far.push(it)
	} else {
		s.near.push(it)
	}
	if p := s.Pending(); p > s.peak {
		s.peak = p
	}
	return Handle{it: it, gen: it.gen}
}

// next consumes one sequence number.
func (s *Simulator) next() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// At schedules fn to run at the absolute virtual time at.
func (s *Simulator) At(at Time, fn Event) Handle {
	return s.schedule(at, s.next(), fn, nil, nil)
}

// After schedules fn to run d after the current time (a negative d means
// now, by schedule's rule for the past).
func (s *Simulator) After(d time.Duration, fn Event) Handle {
	return s.schedule(s.now.Add(d), s.next(), fn, nil, nil)
}

// AtArg schedules fn(now, arg) at the absolute virtual time at. fn should
// be a package-level function; arg carries the per-event state (ideally a
// pooled pointer) so the call allocates nothing.
func (s *Simulator) AtArg(at Time, fn ArgEvent, arg any) Handle {
	return s.schedule(at, s.next(), nil, fn, arg)
}

// AfterArg schedules fn(now, arg) to run d after the current time (a
// negative d means now).
func (s *Simulator) AfterArg(d time.Duration, fn ArgEvent, arg any) Handle {
	return s.schedule(s.now.Add(d), s.next(), nil, fn, arg)
}

// ReserveSeq consumes the sequence number the next scheduling call would
// take, for an event the caller holds outside the queue and schedules later
// with AtArgSeq. Reserving and then scheduling is indistinguishable from
// AtArg at the time of the reservation, provided the event enters the queue
// before anything ordered after it runs: a FIFO of events with
// non-decreasing times whose head is scheduled, and whose head schedules
// the next one when it runs, meets that.
func (s *Simulator) ReserveSeq() uint64 { return s.next() }

// AtArgSeq schedules fn(now, arg) at the absolute virtual time at under seq,
// a number from ReserveSeq that has not been scheduled yet. It consumes no
// sequence number.
func (s *Simulator) AtArgSeq(at Time, seq uint64, fn ArgEvent, arg any) Handle {
	return s.schedule(at, seq, nil, fn, arg)
}

// Cancel removes a pending event. Canceling an already-run, already-
// canceled or stale-generation event is a no-op. It reports whether the
// event was pending.
func (s *Simulator) Cancel(h Handle) bool {
	if !h.Active() {
		return false
	}
	if h.it.far {
		s.far.removeAt(int(h.it.index))
	} else {
		s.near.removeAt(int(h.it.index))
	}
	h.it.gen++ // deactivates every Handle issued for this life
	s.items.Put(h.it)
	return true
}

// Stop makes Run return ErrStopped after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// refill moves the far heap's first window into the empty near heap: the
// split advances to farWindow past the earliest far event (saturating at
// the end of time), and every far event up to the new split changes heaps.
func (s *Simulator) refill() {
	if first := s.far[0].at; first > math.MaxInt64-farWindow {
		s.split = math.MaxInt64
	} else {
		s.split = first + farWindow
	}
	for len(s.far) > 0 && s.far[0].at <= s.split {
		it := s.far.removeAt(0)
		it.far = false
		s.near.push(it)
	}
}

// Run executes events until the queue drains or the clock passes horizon.
// A zero horizon means "run to exhaustion". Events scheduled exactly at the
// horizon still run.
func (s *Simulator) Run(horizon Time) error {
	for {
		if len(s.near) == 0 {
			if len(s.far) == 0 {
				break
			}
			s.refill()
		}
		if s.stopped {
			return ErrStopped
		}
		next := s.near[0]
		if horizon > 0 && next.at > horizon {
			s.now = horizon
			return nil
		}
		it := s.near.removeAt(0)
		s.now = it.at
		s.ran++
		fn, argFn, arg := it.fn, it.argFn, it.arg
		// Release before running: the generation bump kills the handle,
		// and the callback may immediately schedule into the slot. The
		// item keeps its callback until schedule reuses it.
		it.gen++
		s.items.Put(it)
		if argFn != nil {
			argFn(s.now, arg)
		} else if fn != nil {
			fn(s.now)
		}
	}
	if horizon > s.now {
		s.now = horizon
	}
	return nil
}

// RunUntilIdle is Run with no horizon.
func (s *Simulator) RunUntilIdle() error { return s.Run(0) }

// eventHeap is an indexed 4-ary min-heap ordered by itemLess: every item
// records its position, so Cancel removes it without a search.
type eventHeap []*item

// push adds it to the heap.
func (h *eventHeap) push(it *item) {
	it.index = int32(len(*h))
	*h = append(*h, it)
	h.siftUp(len(*h) - 1)
}

// siftUp restores the heap property from index i toward the root.
func (h eventHeap) siftUp(i int) {
	it := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !itemLess(it, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = it
	it.index = int32(i)
}

// siftDown restores the heap property from index i toward the leaves.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	it := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if itemLess(h[k], h[m]) {
				m = k
			}
		}
		if !itemLess(h[m], it) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = it
	it.index = int32(i)
}

// removeAt detaches the item at index i, preserving the heap order of the
// rest, and returns it with index −1, ready for the free list.
func (h *eventHeap) removeAt(i int) *item {
	old := *h
	n := len(old) - 1
	it := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.index = int32(i)
		h.siftDown(i)
		if int(last.index) == i {
			h.siftUp(i)
		}
	}
	it.index = -1
	return it
}

// ticker carries the state of one repeating timer; pooled per Ticker call
// so each tick schedules without allocating.
type ticker struct {
	s        *Simulator
	interval time.Duration
	fn       Event
	h        Handle
	stopped  bool
}

// tickerFire is the static re-arming callback for Ticker.
func tickerFire(now Time, arg any) {
	t := arg.(*ticker)
	if t.stopped {
		return
	}
	t.fn(now)
	t.h = t.s.AfterArg(t.interval, tickerFire, t)
}

func (t *ticker) stop() {
	t.stopped = true
	t.s.Cancel(t.h)
}

// Ticker invokes fn every interval until canceled via the returned stop
// function.
func (s *Simulator) Ticker(interval time.Duration, fn Event) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	t := &ticker{s: s, interval: interval, fn: fn}
	t.h = s.AfterArg(interval, tickerFire, t)
	return t.stop
}
