package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public API.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // host ns since the tracer was created
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Run    int    `json:"run"`    // the pass or request the span belongs to
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so one code path serves the untraced and the traced pass.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// noSpan is the parent of a root span and the id a nil tracer hands out.
const noSpan = -1

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent, run int, name string) int {
	if t == nil {
		return noSpan
	}
	at := int64(since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: at, End: at, Parent: parent, Run: run})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	at := int64(since(t.t0))
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap (the
// concurrent serve phases), so coverage is the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
	P50Ms   float64 `json:"p50Ms"`
}

// summarize groups spans by name, in first-seen order.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	index := make(map[string]int)
	var stats []spanStat
	durs := make(map[string]sample)
	for i, s := range spans {
		k, ok := index[s.Name]
		if !ok {
			k = len(stats)
			index[s.Name] = k
			stats = append(stats, spanStat{Name: s.Name})
		}
		stats[k].Count++
		stats[k].TotalMs += millis(s.dur())
		stats[k].SelfMs += millis(self[i])
		durs[s.Name] = append(durs[s.Name], millis(s.dur()))
	}
	for i := range stats {
		stats[i].P50Ms = durs[stats[i].Name].median()
	}
	return stats
}

// durations returns the durations (ms) of every span with the name.
func (t *tracer) durations(name string) sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out sample
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, millis(s.dur()))
		}
	}
	return out
}
