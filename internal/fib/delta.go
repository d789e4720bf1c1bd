package fib

import (
	"fmt"
	"slices"
)

// ReplaceSource replaces every route of the given source with the provided
// set — a routing protocol installing the result of a fresh computation —
// and touches only what differs: the table itself is the diff base. After a
// single-link event a handful of prefixes change next hops while a fat-tree
// FIB holds one route per ToR subnet, so the usual install compares and
// stamps, copies a few hop lists into one new array and withdraws nothing.
//
// The list is validated before anything is written: on error the table is
// untouched. Otherwise the result is the state removing all of src's routes
// and adding the list in order would leave — the last occurrence of a
// duplicated prefix wins, other sources keep their routes — and the epoch
// is bumped whether or not a route changed: an install event invalidates
// memoized lookups.
func (t *Table) ReplaceSource(src Source, routes []Route) error {
	if !src.known() { // an empty list names a source too
		return fmt.Errorf("fib: unknown source %v", src)
	}
	for _, r := range routes {
		if err := validate(src, r); err != nil {
			return err
		}
	}
	t.gen++
	// named counts the distinct prefixes stamped; fresh the routes whose
	// prefix has no entry yet; need the hops of the routes to copy in.
	named, fresh, need := 0, 0, 0
	stamp := func(e *entry) {
		if e.stamp != t.gen {
			e.stamp = t.gen
			named++
		}
	}
	var l *level
	at := -1
	for _, r := range routes {
		if l, at = t.slot(r.Prefix, 0, at+1); at < 0 {
			fresh++
		} else if e := &l.ents[at]; slices.Equal(e.hops[src-1], r.NextHops) {
			stamp(e)
			continue
		}
		need += len(r.NextHops)
	}
	if need > 0 {
		// One array for every changed route. A list that repeats a prefix
		// with different hops can need more than was counted; append grows.
		buf := make([]NextHop, 0, need)
		at = -1
		for _, r := range routes {
			l, at = t.slot(r.Prefix, 1+fresh, at+1)
			e := &l.ents[at]
			if !slices.Equal(e.hops[src-1], r.NextHops) {
				buf = t.put(e, src, r.NextHops, buf)
			}
			stamp(e)
		}
	}
	if named != t.count[src-1] {
		// The source holds routes this call did not name: withdraw them.
		for li := range t.levels {
			l := &t.levels[li]
			for i := range l.ents {
				if e := &l.ents[i]; e.hops[src-1] != nil && e.stamp != t.gen {
					e.hops[src-1] = nil
					t.count[src-1]--
				}
			}
			l.compact()
		}
	}
	t.epoch++
	return nil
}

// SourceRoutes returns every installed route of one source in Routes()
// order (bits desc, addr): what refroute.Installed holds a control plane's
// routes to the reference with.
func (t *Table) SourceRoutes(src Source) []Route { return t.routes(src, src) }
