package sim

import "testing"

// FreeList recycles *T records for one owner (a simulator, network, domain
// or stack), never for a package. Get and Put are a plain pop and push, so
// they inline on the hot paths. A record from Get holds whatever its last
// life left in it: the caller sets every field before reading it, except
// storage its type keeps across lives (a slice cut to [:0], a generation
// counter). In test binaries Put first overwrites the released record with
// its type's poison, values no live record holds, so a read after release
// yields an impossible value; the poison touches only fields the caller
// sets after Get, so test and production binaries run on the same bytes.
// The zero FreeList is empty and never poisons.
type FreeList[T any] struct {
	recs   []*T
	poison func(*T) // nil outside test binaries
}

// NewFreeList returns an empty free list that poisons released records
// with poison in test binaries and ignores it otherwise.
func NewFreeList[T any](poison func(*T)) FreeList[T] {
	if !testing.Testing() {
		return FreeList[T]{}
	}
	return FreeList[T]{poison: poison}
}

// Get returns a released record, or a new zero one when none is free.
func (l *FreeList[T]) Get() *T {
	n := len(l.recs)
	if n == 0 {
		return new(T)
	}
	r := l.recs[n-1]
	l.recs = l.recs[:n-1]
	return r
}

// Put releases r for reuse. The caller must not read r afterwards.
func (l *FreeList[T]) Put(r *T) {
	if l.poison != nil {
		l.poison(r)
	}
	l.recs = append(l.recs, r)
}
