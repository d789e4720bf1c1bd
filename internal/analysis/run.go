package analysis

import (
	"errors"
	"fmt"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Finding is one position-resolved diagnostic — the serializable form the
// driver prints and emits as JSON.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Package  string `json:"package"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Verb is the suppression verb that can silence the finding; empty for
	// unsuppressible findings.
	Verb string `json:"verb,omitempty"`
	// Suppressed marks a finding covered by a directive, present only in
	// KeepSuppressed (audit) runs.
	Suppressed bool `json:"suppressed,omitempty"`
}

// PkgResult is one package's analysis outcome: its findings (empty for
// out-of-scope and dep-only packages) and the facts it exports to
// dependents.
type PkgResult struct {
	ImportPath string    `json:"package"`
	Findings   []Finding `json:"findings"`
	Facts      []Fact    `json:"facts"`
	// DepOnly is run-local bookkeeping, not part of the JSON output.
	DepOnly bool `json:"-"`
}

// RunOptions configures a graph run.
type RunOptions struct {
	// KeepSuppressed reports directive-covered findings too, marked
	// Suppressed — the audit mode.
	KeepSuppressed bool
	// InScope filters which packages produce findings; nil means all.
	// Fact generation always runs on every loaded package regardless.
	InScope func(importPath string) bool
	// Workers bounds analysis parallelism; <= 0 means GOMAXPROCS.
	Workers int
}

// RunGraph applies the analyzers to the packages in dependency order:
// a package is analyzed only after all its in-graph dependencies, so the
// facts they export (wallclock, pooled, retains:N) are
// complete when its pass starts. Packages with no ordering constraint
// between them run in parallel. Results come back sorted by import path,
// one per package, so output is deterministic at any worker count — the
// same guarantee the campaign pool gives (j=1 ≡ j=8).
func RunGraph(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) ([]*PkgResult, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}

	// Build the in-graph dependency edges.
	deps := make(map[string][]string)
	dependents := make(map[string][]string)
	indeg := make(map[string]int)
	for _, p := range pkgs {
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; ok && imp != p.ImportPath {
				deps[p.ImportPath] = append(deps[p.ImportPath], imp)
				dependents[imp] = append(dependents[imp], p.ImportPath)
				indeg[p.ImportPath]++
			}
		}
	}

	// Transitive dependency closure, memoized. Go import graphs are
	// acyclic, so plain recursion terminates.
	closure := make(map[string][]string)
	var transitive func(path string) []string
	transitive = func(path string) []string {
		if c, ok := closure[path]; ok {
			return c
		}
		set := make(map[string]bool)
		for _, d := range deps[path] {
			set[d] = true
			for _, t := range transitive(d) {
				set[t] = true
			}
		}
		out := make([]string, 0, len(set))
		//f2tree:unordered closure list is sorted below
		for d := range set {
			out = append(out, d)
		}
		sort.Strings(out)
		closure[path] = out
		return out
	}
	for _, p := range pkgs {
		transitive(p.ImportPath)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu      sync.Mutex
		results = make(map[string]*PkgResult, len(pkgs))
		errs    []error
		done    int
		ready   = make(chan string, len(pkgs))
		wg      sync.WaitGroup
	)
	// Seed the ready queue with dependency-free packages, in sorted order
	// for a stable starting schedule.
	roots := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if indeg[p.ImportPath] == 0 {
			roots = append(roots, p.ImportPath)
		}
	}
	sort.Strings(roots)
	for _, r := range roots {
		ready <- r
	}
	if len(pkgs) == 0 {
		close(ready)
	}

	// complete records one package's result and releases any dependents
	// whose last dependency this was. Closing ready when every package is
	// accounted for ends the workers' range loops.
	complete := func(path string, res *PkgResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
		results[path] = res
		done++
		for _, dep := range dependents[path] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready <- dep
			}
		}
		if done == len(pkgs) {
			close(ready)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range ready {
				pkg := byPath[path]

				// Dependencies are complete (the scheduler released this
				// package only after their results were stored), so their
				// facts can be merged under the lock.
				depFacts := make(FactSet)
				mu.Lock()
				for _, d := range closure[path] {
					if r := results[d]; r != nil {
						depFacts.AddAll(r.Facts)
					}
				}
				mu.Unlock()

				inScope := !pkg.DepOnly && (opt.InScope == nil || opt.InScope(path))

				res, err := analyzePackage(pkg, analyzers, opt, inScope, depFacts)
				if res == nil {
					res = &PkgResult{ImportPath: path}
				}
				res.DepOnly = pkg.DepOnly
				complete(path, res, err)
			}
		}()
	}
	wg.Wait()

	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	out := make([]*PkgResult, 0, len(pkgs))
	//f2tree:unordered result list is sorted below
	for _, r := range results {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// analyzePackage runs every analyzer over one package with the given
// dependency facts, returning resolved findings (empty when out of scope)
// and the package's exported facts.
func analyzePackage(pkg *Package, analyzers []*Analyzer, opt RunOptions, inScope bool, depFacts FactSet) (*PkgResult, error) {
	exported := make(FactSet)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:       a,
			Fset:           pkg.Fset,
			Files:          pkg.Files,
			Pkg:            pkg.Types,
			TypesInfo:      pkg.TypesInfo,
			KeepSuppressed: opt.KeepSuppressed,
			ImportedFacts:  depFacts,
			ExportFact: func(obj types.Object, kind string) {
				if sym := SymbolName(obj); sym != "" {
					exported.Add(sym, kind)
				}
			},
			Report: func(d Diagnostic) {
				if inScope {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		findings = append(findings, Finding{
			File:       pos.Filename,
			Line:       pos.Line,
			Column:     pos.Column,
			Package:    pkg.ImportPath,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Verb:       d.Verb,
			Suppressed: d.Suppressed,
		})
	}
	return &PkgResult{
		ImportPath: pkg.ImportPath,
		Findings:   findings,
		Facts:      exported.Sorted(),
	}, nil
}
