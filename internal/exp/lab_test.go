package exp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/refroute"
)

func TestParseControl(t *testing.T) {
	cases := []struct {
		name string
		want core.ControlPlane
		ok   bool
	}{
		{"", core.ControlOSPF, true},
		{"ospf", core.ControlOSPF, true},
		{"bgp", core.ControlBGP, true},
		{"centralized", core.ControlCentralized, true},
		{"BGP", 0, false},
		{"rip", 0, false},
	}
	for _, c := range cases {
		got, err := ParseControl(c.name)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseControl(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.want, c.ok)
		}
	}
}

// TestPlanesMatchReference: right after NewLab, every switch's protocol
// routes equal refroute.Routes with no links failed, under each control
// plane, on single- and dual-ToR F²Tree — the §V comparison's premise that
// OSPF, BGP and the controller converge to the same shortest-path ECMP
// routes, checked on the labs every driver builds. A BGP speaker installs
// no route for a prefix it originates, so those leave the reference first.
func TestPlanesMatchReference(t *testing.T) {
	for _, scheme := range []Scheme{SchemeF2Tree, SchemeF2TreeDual} {
		for _, n := range []int{6, 8} {
			for _, control := range []string{ControlOSPF, ControlBGP, ControlCentralized} {
				t.Run(fmt.Sprintf("%s/%d/%s", scheme, n, control), func(t *testing.T) {
					lab, err := NewLab(LabSpec{Scheme: scheme, Ports: n, Control: control})
					if err != nil {
						t.Fatal(err)
					}
					want, src := refroute.Routes(lab.Topo, nil), fib.OSPF
					if control == ControlBGP {
						src = fib.BGP
						for sw := range want {
							delete(want[sw], lab.Topo.Node(sw).Subnet)
						}
					}
					if err := refroute.Compare(lab.Net, src, want); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestNewLabSeedDefault(t *testing.T) {
	// Seed 0 is seed 42: the default every driver used to repeat.
	a, err := NewLab(LabSpec{Scheme: SchemeFatTree, Ports: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLab(LabSpec{Scheme: SchemeFatTree, Ports: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if x, y := a.Sim.Rand().Int63(), b.Sim.Rand().Int63(); x != y {
		t.Fatalf("seed 0 draws %d, seed 42 draws %d", x, y)
	}
	if _, err := NewLab(LabSpec{Scheme: SchemeFatTree, Ports: 4, Control: "rip"}); err == nil {
		t.Fatal("unknown control plane accepted")
	}
}

func TestResolveHost(t *testing.T) {
	lab, err := NewLab(LabSpec{Scheme: SchemeFatTree, Ports: 4})
	if err != nil {
		t.Fatal(err)
	}
	named := lab.Topo.Node(lab.LeftmostHost()).Name
	cases := []struct {
		name string
		want string // resolved node name; "" = error
	}{
		{"leftmost", named},
		{"rightmost", lab.Topo.Node(lab.RightmostHost()).Name},
		{named, named},
		{"tor-p0-0", ""}, // a switch is not a host
		{"host-p9-t9-9", ""},
		{"", ""},
	}
	for _, c := range cases {
		id, err := ResolveHost(lab, c.name)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("ResolveHost(%q) accepted", c.name)
		case c.want != "" && err != nil:
			t.Errorf("ResolveHost(%q): %v", c.name, err)
		case c.want != "" && lab.Topo.Node(id).Name != c.want:
			t.Errorf("ResolveHost(%q) = %s, want %s", c.name, lab.Topo.Node(id).Name, c.want)
		}
	}
}

// TestOnlyExpBuildsLabs keeps run assembly in one place: core.NewLab cannot
// be unexported while bench/ uses it, so this walk over the module (the
// root package, commands, packages and examples, tests included) is what
// stops another driver or test from assembling its own lab. exp.NewLab
// itself, internal/core and bench/ are exempt.
func TestOnlyExpBuildsLabs(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if (rel != "." && strings.HasPrefix(d.Name(), ".")) || d.Name() == "testdata" ||
				rel == "bench" || rel == "internal/core" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || rel == "internal/exp/exp.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewLab" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" {
					t.Errorf("%s: calls core.NewLab; build labs through exp.NewLab", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
