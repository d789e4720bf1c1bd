package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignSectionRefsResolve fails when a .go or .md file cites
// "DESIGN §N" or "DESIGN.md §N" and DESIGN.md has no "## N." heading, so
// renumbering or folding a section cannot leave a dangling reference.
func TestDesignSectionRefsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".md" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range cite.FindAllStringSubmatch(line, -1) {
				cited++
				if !sections[m[1]] {
					t.Errorf("%s:%d cites %s, but DESIGN.md has no \"## %s.\" heading", filepath.ToSlash(path), i+1, m[0], m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no DESIGN section citation found; the pattern no longer matches how the tree cites DESIGN.md")
	}
}
