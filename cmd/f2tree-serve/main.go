// Command f2tree-serve runs the what-if query service: a long-lived HTTP
// server answering "link (a,b) fails at t=X under workload W, scheme S —
// report the blackhole window, affected flows and recovery time" by
// simulating on demand. Queries multiplex over a worker pool with panic
// isolation and per-query timeouts; answers are memoized by the content
// hash of the canonical query, so repeats and concurrent duplicates cost
// one simulation (see internal/serve and DESIGN.md §13).
//
// Usage:
//
//	f2tree-serve [flags]
//
// Examples:
//
//	f2tree-serve -addr :8080 -j 4
//	f2tree-serve -addr :8080 -store serve-cache.jsonl   # warm-startable cache
//
//	curl -s localhost:8080/query -d '{"scheme":"f2tree","ports":6,
//	    "link":{"a":"tor-p0-0","b":"agg-p0-0"},"failAtMs":300}'
//	curl -s localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f2tree-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f2tree-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address")
		j       = fs.Int("j", runtime.GOMAXPROCS(0), "query workers")
		timeout = fs.Duration("timeout", 2*time.Minute, "wall-clock budget per query simulation (0 = none)")
		store   = fs.String("store", "", "JSONL memoization store (enables warm start; empty = memory-only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv, err := serve.NewServer(serve.Config{
		Workers: *j, Timeout: *timeout, StorePath: *store,
		Fingerprint: buildFingerprint(),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, w := range srv.Warnings() {
		fmt.Fprintln(stderr, "f2tree-serve: warning:", w)
	}
	if *store != "" {
		fmt.Fprintf(stdout, "f2tree-serve: cache schema %s\n", srv.Schema())
	}
	if n := srv.CacheLen(); n > 0 {
		fmt.Fprintf(stdout, "f2tree-serve: warm start with %d cached answers\n", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "f2tree-serve: listening on http://%s (workers %d)\n", ln.Addr(), *j)
	return http.Serve(ln, srv.Handler())
}

// buildFingerprint resolves the cache-versioning fingerprint at startup.
// Run from a module checkout (the `go run` mode, where the executable is
// a transient build artifact), it hashes the Go sources via the
// go-list-free file walk, so the cache invalidates exactly when the
// simulator's code changes; deployed as a bare binary it hashes the
// executable itself.
func buildFingerprint() string {
	dir, err := os.Getwd()
	if err == nil {
		for d := dir; ; {
			if _, statErr := os.Stat(filepath.Join(d, "go.mod")); statErr == nil {
				if fp, fpErr := serve.FingerprintDir(d); fpErr == nil {
					return fp
				}
				break
			}
			parent := filepath.Dir(d)
			if parent == d {
				break
			}
			d = parent
		}
	}
	return serve.Fingerprint()
}
