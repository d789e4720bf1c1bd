package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	// Imports are the package's direct imports (all of them; the graph
	// driver intersects with the loaded set).
	Imports []string
	// DepOnly marks a package loaded only because a matched package depends
	// on it: it contributes facts to the interprocedural pass but is never
	// reported on, regardless of scope flags.
	DepOnly bool
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	DepOnly    bool
	Standard   bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with the go command and returns the
// matched packages parsed and type-checked. Dependencies are imported from
// compiler export data produced by `go list -export`, so no source outside
// the loaded packages is parsed and no third-party loader is required.
// Main-module dependencies of the matched packages are loaded too, marked
// DepOnly: export data carries no comments, so the fact-generating pass
// needs their syntax to see //f2tree: markers — but they are never
// reported on. Only non-test files are analyzed: _test.go files may
// legitimately use wall-clock time (benchmark timing) and unordered
// iteration.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly || (p.Module != nil && p.Module.Main) {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := ExportDataImporter(fset, exports)
	var pkgs []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			files = append(files, f)
		}
		pkg, info, err := Check(p.ImportPath, fset, files, imp)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			Fset:       fset,
			Files:      files,
			Types:      pkg,
			TypesInfo:  info,
			Imports:    p.Imports,
			DepOnly:    p.DepOnly,
		})
	}
	return pkgs, nil
}

// ExportDataImporter returns a types.Importer that resolves import paths
// through the given map of import path → compiler export-data file (as
// reported by `go list -export`).
func ExportDataImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// ExportData runs `go list -export -deps` on the given import paths
// (typically stdlib packages needed by test fixtures) and returns the
// import path → export-data file map for them and all their dependencies.
func ExportData(dir string, importPaths ...string) (map[string]string, error) {
	if len(importPaths) == 0 {
		return map[string]string{}, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json"}, importPaths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", importPaths, err, stderr.Bytes())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// Check type-checks one package's files and returns its types plus the
// fully populated types.Info the analyzers consume.
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// RunAnalyzer applies one analyzer to one package and returns its
// diagnostics sorted by position.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// sortDiagnostics orders diagnostics by file position, then analyzer name,
// so driver output is stable run to run.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		pa, pb := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Offset != pb.Offset {
			return pa.Offset < pb.Offset
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
