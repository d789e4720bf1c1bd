// Package testutil holds test-only helpers shared across packages. It is
// stdlib-only by the repo's dependency rule; nothing here may be imported
// from non-test code.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// VerifyNoLeaks registers a cleanup that fails the test if goroutines
// started during it are still running at teardown — the runtime.Stack
// analogue of the goleak library, without the dependency. Call it first
// thing in a test (or TestMain-adjacent helper):
//
//	func TestServer(t *testing.T) {
//		testutil.VerifyNoLeaks(t)
//		...
//	}
//
// It snapshots the goroutine set now and diffs against it at cleanup,
// polling briefly so goroutines that are mid-exit (a Close that returns
// before its workers fully unwind) are not false positives. Runtime-owned
// goroutines and the testing framework's own are filtered as benign.
func VerifyNoLeaks(t TB) {
	t.Helper()
	base := goroutineIDs()
	t.Cleanup(func() {
		leaked := awaitNoNewGoroutines(base, 2*time.Second)
		if len(leaked) > 0 {
			t.Errorf("leaked %d goroutine(s) past test teardown:\n%s",
				len(leaked), strings.Join(leaked, "\n"))
		}
	})
}

// TB is the subset of testing.TB the helper needs; taking the interface
// keeps testutil importable without the testing package appearing in any
// exported signature's call sites.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// awaitNoNewGoroutines polls until every goroutine not in base and not
// benign has exited, or the grace period lapses; it returns the headers
// of the stragglers. Polling (rather than one sample) absorbs the normal
// teardown race: Close has returned but a worker is still between its
// last select and exiting.
func awaitNoNewGoroutines(base map[string]bool, grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		leaked := diffGoroutines(base)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// diffGoroutines returns one descriptive line per live goroutine that is
// neither in base nor benign.
func diffGoroutines(base map[string]bool) []string {
	var out []string
	for _, g := range goroutineStacks() {
		if base[g.id] || benignGoroutine(g.stack) {
			continue
		}
		out = append(out, fmt.Sprintf("  goroutine %s: %s", g.id, g.summary()))
	}
	sort.Strings(out)
	return out
}

// goroutine is one parsed runtime.Stack record.
type goroutine struct {
	id    string // numeric id from the "goroutine N [state]:" header
	stack string // full record including the header
}

// summary renders the header state plus the top frame — enough to find
// the leak without dumping whole stacks into test logs.
func (g goroutine) summary() string {
	lines := strings.Split(g.stack, "\n")
	head := lines[0]
	if i := strings.Index(head, "["); i >= 0 {
		head = strings.TrimSuffix(strings.TrimSpace(head[i:]), ":")
	}
	for _, l := range lines[1:] {
		l = strings.TrimSpace(l)
		if l != "" {
			return head + " at " + l
		}
	}
	return head
}

// goroutineStacks snapshots all goroutines via runtime.Stack and splits
// the dump into records.
func goroutineStacks() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, rec := range strings.Split(string(buf), "\n\n") {
		if !strings.HasPrefix(rec, "goroutine ") {
			continue
		}
		header := rec[len("goroutine "):]
		id := header
		if i := strings.IndexByte(header, ' '); i >= 0 {
			id = header[:i]
		}
		out = append(out, goroutine{id: id, stack: rec})
	}
	return out
}

// goroutineIDs snapshots just the id set, for the baseline.
func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, g := range goroutineStacks() {
		ids[g.id] = true
	}
	return ids
}

// benignGoroutine reports whether a stack belongs to the runtime or the
// testing machinery rather than code under test.
func benignGoroutine(stack string) bool {
	for _, marker := range []string{
		"testing.(*T).Run",            // the test runner itself
		"testing.(*M).",               // TestMain machinery
		"testing.tRunner",             // a parallel sibling's runner frame
		"runtime.goexit",              // fully-unwound goroutine
		"runtime/trace",               // execution tracer
		"runtime.gc",                  // collector helpers
		"runtime.bgsweep",             // background sweeper
		"runtime.bgscavenge",          // background scavenger
		"runtime.forcegchelper",       // periodic GC
		"runtime.ReadTrace",           // tracer reader
		"signal.signal_recv",          // signal handling
		"net/http/httptest.(*Server)", // httptest's own keep-alive reaper
		"os/signal.loop",              // signal loop
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
