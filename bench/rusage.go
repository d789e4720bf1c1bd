package main

import "syscall"

// peakRSSMB is the process's peak resident set so far, in MiB. Each workload
// runs in a process of its own, so the figure belongs to that workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
