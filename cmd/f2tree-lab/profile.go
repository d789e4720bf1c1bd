package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles wires runtime/pprof behind the -cpuprofile and -memprofile
// flags of the sim and campaign verbs (`go tool pprof` reads the output).
// It begins CPU profiling if cpuPath is non-empty and returns a stop
// function that finishes the CPU profile and, if memPath is non-empty,
// writes a GC-settled heap profile. Either path may be empty; the stop
// function must always be called (idempotence is not required — call once).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle so the heap profile shows live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profile: %w", err)
			}
		}
		return nil
	}, nil
}
