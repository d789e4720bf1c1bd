package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// orderModel is the reference for TestQueueOrderMatchesSortedReference: the
// set of events that should be pending, keyed by the sequence number the
// simulator gives them, with the number the next scheduling call takes.
type orderModel struct {
	t       *testing.T
	s       *Simulator
	rng     *rand.Rand
	seq     uint64
	pending map[uint64]Time
	handles []Handle
	seqs    []uint64 // seqs[i] belongs to handles[i]
	held    []heldEvent
	// fifo mimics a link direction: a FIFO of arrivals whose head alone is
	// scheduled and which schedules its successor when it runs.
	fifo     []heldEvent
	fifoBusy bool
	fifoLast Time
	ran      int
	splits   map[Time]bool
	farSeen  bool
}

type heldEvent struct {
	at  Time
	seq uint64
}

// delay draws from 1 µs to 10 s, log-uniformly, or one of the instants
// where ties and the heap split happen.
func (m *orderModel) delay() time.Duration {
	switch m.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return time.Duration(m.rng.Intn(4)) * time.Millisecond
	case 2:
		if d := m.s.split - m.s.now; d >= 0 {
			return time.Duration(d + Time(m.rng.Intn(3)))
		}
	}
	return time.Duration(math.Pow(10, 3+7*m.rng.Float64()))
}

// check is every callback's first action: the event must be pending at
// this instant, no pending event may come before it in (at, seq), and the
// split must separate the two heaps.
func (m *orderModel) check(seq uint64, now Time) {
	m.t.Helper()
	at, ok := m.pending[seq]
	if !ok {
		m.t.Fatalf("event %d ran but is not pending (canceled, or ran twice)", seq)
	}
	if at != now {
		m.t.Fatalf("event %d ran at %v, scheduled for %v", seq, now, at)
	}
	for q, a := range m.pending {
		if a < at || a == at && q < seq {
			m.t.Fatalf("event %d (%v) ran before event %d (%v)", seq, at, q, a)
		}
	}
	for _, it := range m.s.near {
		if it.at > m.s.split {
			m.t.Fatalf("near heap holds an event at %v, after the split at %v", it.at, m.s.split)
		}
	}
	for _, it := range m.s.far {
		if it.at <= m.s.split {
			m.t.Fatalf("far heap holds an event at %v, not after the split at %v", it.at, m.s.split)
		}
	}
	delete(m.pending, seq)
	m.ran++
	m.splits[m.s.split] = true
	m.farSeen = m.farSeen || len(m.s.far) > 0
}

// schedule adds one event through a randomly chosen entry point.
func (m *orderModel) schedule() {
	d := m.delay()
	at := m.s.now.Add(d)
	seq := m.seq
	m.seq++
	m.pending[seq] = at
	var h Handle
	switch m.rng.Intn(4) {
	case 0:
		h = m.s.At(at, func(now Time) { m.fire(seq, now) })
	case 1:
		h = m.s.After(d, func(now Time) { m.fire(seq, now) })
	case 2:
		h = m.s.AtArg(at, orderFire, orderArg{m, seq})
	default:
		h = m.s.AfterArg(d, orderFire, orderArg{m, seq})
	}
	m.handles = append(m.handles, h)
	m.seqs = append(m.seqs, seq)
}

type orderArg struct {
	m   *orderModel
	seq uint64
}

func orderFire(now Time, arg any) {
	a := arg.(orderArg)
	a.m.fire(a.seq, now)
}

// fire checks the event, then sometimes schedules a follow-up from inside
// the run, as model code does.
func (m *orderModel) fire(seq uint64, now Time) {
	m.check(seq, now)
	if m.rng.Intn(3) == 0 {
		m.schedule()
	}
}

// transmit queues an arrival on the FIFO, reserving its sequence number if
// an earlier arrival is still in flight.
func (m *orderModel) transmit() {
	at := m.s.now
	if m.fifoLast > at {
		at = m.fifoLast
	}
	at += Time(m.rng.Intn(3)) * Microsecond
	m.fifoLast = at
	seq := m.seq
	m.seq++
	m.pending[seq] = at
	if m.fifoBusy {
		if got := m.s.ReserveSeq(); got != seq {
			m.t.Fatalf("ReserveSeq = %d, want %d", got, seq)
		}
		m.fifo = append(m.fifo, heldEvent{at, seq})
		return
	}
	m.fifoBusy = true
	m.s.AtArg(at, fifoFire, orderArg{m, seq})
}

func fifoFire(now Time, arg any) {
	a := arg.(orderArg)
	m := a.m
	m.check(a.seq, now)
	if len(m.fifo) == 0 {
		m.fifoBusy = false
		return
	}
	nx := m.fifo[0]
	m.fifo = m.fifo[1:]
	m.s.AtArgSeq(nx.at, nx.seq, fifoFire, orderArg{m, nx.seq})
}

// run advances to a horizon and checks that nothing due by it was left.
func (m *orderModel) run(horizon Time) {
	m.t.Helper()
	for _, h := range m.held {
		m.s.AtArgSeq(h.at, h.seq, orderFire, orderArg{m, h.seq})
	}
	m.held = m.held[:0]
	if err := m.s.Run(horizon); err != nil {
		m.t.Fatal(err)
	}
	for q, a := range m.pending {
		if horizon == 0 || a <= horizon {
			m.t.Fatalf("event %d due at %v still pending after Run(%v)", q, a, horizon)
		}
	}
	if horizon > 0 && m.s.Now() != horizon {
		m.t.Fatalf("Now = %v after Run(%v)", m.s.Now(), horizon)
	}
	if got, want := m.s.Pending(), len(m.pending)-len(m.fifo); got != want {
		m.t.Fatalf("Pending = %d, want %d", got, want)
	}
}

// TestQueueOrderMatchesSortedReference drives the queue with a seeded mix of
// At, After, AtArg, AfterArg, Cancel (of live and of stale handles),
// ReserveSeq followed later by AtArgSeq, and a link-like FIFO whose head
// schedules its successor, interleaved with horizon-bounded Run calls.
// Delays run from 1 µs to 10 s and include ties and the heap split itself,
// so events land in both heaps and the far heap refills many times. Every
// event must run exactly when the reference, the pending set ordered by
// (at, seq), says it is first; every call but AtArgSeq must consume exactly
// one sequence number.
func TestQueueOrderMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := &orderModel{t: t, s: New(seed), rng: rand.New(rand.NewSource(seed)),
			pending: map[uint64]Time{}, splits: map[Time]bool{}}
		for op := 0; op < 3000; op++ {
			switch r := m.rng.Intn(20); {
			case r < 7:
				m.schedule()
			case r < 9:
				i := m.rng.Intn(len(m.handles) + 1)
				if i == len(m.handles) {
					continue
				}
				_, live := m.pending[m.seqs[i]]
				if got := m.s.Cancel(m.handles[i]); got != live {
					t.Fatalf("seed %d: Cancel of event %d = %v, want %v", seed, m.seqs[i], got, live)
				}
				delete(m.pending, m.seqs[i])
			case r < 11:
				at := m.s.now.Add(m.delay())
				seq := m.s.ReserveSeq()
				if seq != m.seq {
					t.Fatalf("seed %d: ReserveSeq = %d, want %d", seed, seq, m.seq)
				}
				m.seq++
				m.pending[seq] = at
				m.held = append(m.held, heldEvent{at, seq})
			case r < 16:
				m.transmit()
			default:
				m.run(m.s.now.Add(time.Duration(math.Pow(10, 3+6*m.rng.Float64()))))
			}
			if m.s.seq != m.seq {
				t.Fatalf("seed %d, op %d: simulator consumed %d sequence numbers, want %d", seed, op, m.s.seq, m.seq)
			}
		}
		m.run(0)
		if m.s.Pending() != 0 || len(m.fifo) != 0 {
			t.Fatalf("seed %d: %d events and %d queued arrivals left", seed, m.s.Pending(), len(m.fifo))
		}
		if uint64(m.ran) != m.s.EventsRun() {
			t.Fatalf("seed %d: the reference ran %d events, the simulator %d", seed, m.ran, m.s.EventsRun())
		}
		if len(m.splits) < 20 || !m.farSeen {
			t.Fatalf("seed %d: %d distinct splits, far heap used %v: the test no longer exercises refills",
				seed, len(m.splits), m.farSeen)
		}
	}
}
