// Package detsort provides deterministic iteration helpers for maps.
//
// Go randomizes map iteration order per run, which silently breaks the
// simulator's bit-for-bit reproducibility guarantee whenever a map range
// feeds scheduling, route installation or any other order-sensitive sink.
// Iterate Keys/KeysFunc instead; the pinned digests and output tests
// (TestGoldenDigests, TestRunProtocolsAllPlanes,
// TestAggregateRowsInGroupKeyOrder) fail when an order-sensitive range
// slips back to map order.
package detsort

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m sorted ascending. The result is a fresh slice;
// mutating it does not affect m.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// KeysFunc returns the keys of m sorted by less, for key types without a
// natural order (structs such as fib.NextHop). less must describe a strict
// weak ordering that distinguishes any two distinct keys, otherwise the
// result order is unspecified among ties.
func KeysFunc[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b K) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
	return out
}
