// Package app is the downstream half of the interprocedural fixture.
// Every violation below crosses the package boundary: a per-package
// analysis of app alone sees nothing wrong, because the evidence —
// pooled marker, the wall-clock read, the retention — lives in package
// state and arrives here only as facts.
package app

import "interproc/state"

// Tick reads the wall clock transitively through state.WrapClock.
func Tick() int64 {
	return state.WrapClock()
}

// Retain hands its pooled argument to a cross-package retainer.
func Retain(r *state.Rec) {
	state.Keep(r)
}
