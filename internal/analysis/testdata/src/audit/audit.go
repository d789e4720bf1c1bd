// Package fixture exercises the directive auditor: one live suppression,
// one live-but-unjustified suppression, one stale suppression, one
// unknown verb, the retired analyzers' verbs (unknown since their
// analyzers were removed), and one marker.
package fixture

import "time"

func live(m map[int]int) int {
	sum := 0
	//f2tree:unordered summation is order-independent
	for _, v := range m {
		sum += v
	}
	return sum
}

func unjustified(m map[int]int) int {
	n := 0
	//f2tree:unordered
	for range m {
		n++
	}
	return n
}

// stale: nothing on the next line reads the wall clock anymore.
func stale() int {
	//f2tree:wallclock leftover from a removed time.Now call
	x := 1 + 2
	return x
}

// unknown: a typo'd verb suppresses nothing and is flagged as such.
func unknown() time.Duration {
	//f2tree:wallclok grace period
	return time.Second
}

// retired: the verbs of the removed sharding and concurrency analyzers
// are unknown now, so a resurrected marker fails the audit.
//
//f2tree:shardlocal
type retired struct {
	//f2tree:shardport crosses shards through a port
	n int
}

//f2tree:blocking waits for a peer
//f2tree:lockorder mu before other
func (r *retired) get() int { return r.n }

// retiredGate: the verbs of lockcheck, hotpathalloc, epochcheck and
// handlecheck, which tests now cover (DESIGN.md §10), are unknown too.
//
//f2tree:sharedstate written after initialization
var retiredGate int

// epochState carried the epochcheck markers.
type epochState struct {
	//f2tree:epochguarded
	routes []int
	//f2tree:epoch
	epoch uint64
}

//f2tree:hotpath
func (e *epochState) add(r int) {
	e.routes = append(e.routes, r) //f2tree:alloc amortized growth
	e.epoch++
}

//f2tree:noepoch construction
func (e *epochState) reset() {
	e.routes = nil
	e.bump() //f2tree:handle kept after Cancel
}

//f2tree:epochbump
func (e *epochState) bump() { e.epoch++ }

// marker directives are inventoried but can never be stale.
//
//f2tree:pooled
type marked struct{ x int }
