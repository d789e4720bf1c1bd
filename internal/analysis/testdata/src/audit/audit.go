// Package fixture exercises the directive auditor: one live suppression,
// one live-but-unjustified suppression, one stale suppression, one
// unknown verb, the four retired verbs (unknown since their analyzers
// were removed), and one marker.
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

// marker directives are inventoried but can never be stale.
//
//f2tree:hotpath
func marked(x int) int { return x + 1 }
