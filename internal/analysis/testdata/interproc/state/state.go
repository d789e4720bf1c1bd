// Package state is the upstream half of the interprocedural fixture: it
// declares marked types and helper functions whose contracts travel to
// the app package only as exported facts — the wrappers hide every
// violation from a per-package analysis of their callers.
package state

import "time"

// WrapClock hides a wall-clock read behind one call level.
func WrapClock() int64 { return readClock() }

func readClock() int64 { return time.Now().UnixNano() }

// Rec is a pooled record.
//
//f2tree:pooled
type Rec struct {
	N int
}

var sink []*Rec

// Keep retains its argument on a package-level list, exporting the
// retains:0 fact.
func Keep(r *Rec) {
	sink = append(sink, r)
}
