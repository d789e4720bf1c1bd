package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// ErrPoolClosed is delivered to jobs submitted after Close.
var ErrPoolClosed = errors.New("campaign: worker pool closed")

// Job is one unit of work for a WorkerPool: executed once per attempt,
// returning flat metrics, an optional rich payload and an error.
type Job func() (Metrics, any, error)

// Attempt is the outcome of a job's attempt loop: the last attempt's
// result, how many attempts it took and what the recorded attempt cost in
// wall-clock time.
type Attempt struct {
	Metrics  Metrics
	Payload  any
	Err      error
	Panic    string // captured stack of the last panicking attempt
	Attempts int
	WallMS   float64
}

// poolJob is one queued unit with its completion channel.
type poolJob struct {
	run     Job
	timeout time.Duration
	retries int
	done    chan Attempt
}

// WorkerPool is a long-lived pool executing jobs with panic isolation,
// per-attempt wall-clock timeouts and bounded retries — the machinery
// campaign.Run always used, extracted so long-lived services
// (internal/serve) can multiplex concurrent queries over the same
// execution discipline. A panicking job poisons nothing: the panic is
// captured with its stack and delivered as the job's error while the
// worker moves on to the next job. Submission never blocks; jobs run in
// FIFO order as workers free up.
type WorkerPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []poolJob
	closed  bool
	busy    int
	workers int
	wg      sync.WaitGroup
}

// NewWorkerPool starts a pool of the given size (0 = GOMAXPROCS).
func NewWorkerPool(workers int) *WorkerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &WorkerPool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues a job and returns a buffered channel its outcome is
// delivered on. timeout bounds each attempt in wall-clock time (0 = no
// bound); retries is the number of extra attempts after the first.
// Submitting to a closed pool delivers ErrPoolClosed.
func (p *WorkerPool) Submit(run Job, timeout time.Duration, retries int) <-chan Attempt {
	done := make(chan Attempt, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		done <- Attempt{Err: ErrPoolClosed}
		return done
	}
	p.queue = append(p.queue, poolJob{run: run, timeout: timeout, retries: retries, done: done})
	p.mu.Unlock()
	p.cond.Signal()
	return done
}

func (p *WorkerPool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.busy++
		p.mu.Unlock()
		a := runAttempts(j.run, j.timeout, j.retries)
		p.mu.Lock()
		p.busy--
		p.mu.Unlock()
		j.done <- a
	}
}

// Close stops accepting jobs, drains the queue and waits for the workers
// to exit. Outcomes of already-submitted jobs are still delivered.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Workers returns the pool size.
func (p *WorkerPool) Workers() int { return p.workers }

// Busy returns how many workers are executing a job right now — the
// occupancy gauge /metrics reports.
func (p *WorkerPool) Busy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busy
}

// QueueDepth returns how many submitted jobs are waiting for a worker.
func (p *WorkerPool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// runAttempts drives one job through the attempt loop.
func runAttempts(run Job, timeout time.Duration, retries int) Attempt {
	var a Attempt
	attempts := retries + 1
	for n := 1; n <= attempts; n++ {
		a.Attempts = n
		begin := time.Now()
		m, payload, err := attemptOnce(run, timeout)
		a.WallMS = float64(time.Since(begin)) / float64(time.Millisecond)
		if err == nil {
			a.Metrics, a.Payload = m, payload
			a.Err, a.Panic = nil, ""
			return a
		}
		a.Err = err
		var pe *panicError
		if errors.As(err, &pe) {
			a.Panic = pe.stack
		} else {
			a.Panic = ""
		}
	}
	return a
}

// panicError wraps a recovered panic with its stack.
type panicError struct {
	value any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// attemptOnce executes the job once in its own goroutine, converting a
// panic into *panicError and enforcing the wall-clock timeout. A panic
// value with a PanicStack method was raised on another goroutine and
// re-raised on the job's (exp's both does this); its own stack comes
// first. On timeout the goroutine is abandoned — the simulation it runs is
// synchronous and cannot be preempted — and its eventual result is
// discarded; the buffered channel send keeps it from leaking forever.
func attemptOnce(run Job, timeout time.Duration) (m Metrics, payload any, err error) {
	type outcome struct {
		m       Metrics
		payload any
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				stack := string(debug.Stack())
				if s, ok := r.(interface{ PanicStack() string }); ok {
					stack = s.PanicStack() + "\nre-raised on the job's goroutine:\n" + stack
				}
				ch <- outcome{err: &panicError{value: r, stack: stack}}
			}
		}()
		m, p, err := run()
		ch <- outcome{m: m, payload: p, err: err}
	}()
	if timeout <= 0 {
		o := <-ch
		return o.m, o.payload, o.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.m, o.payload, o.err
	case <-timer.C:
		return nil, nil, fmt.Errorf("timed out after %v (attempt abandoned)", timeout)
	}
}
