package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Suppression verbs: each silences exactly one analyzer's finding on its
// line or the line below, and must carry a reason a reviewer can audit.
const (
	VerbUnordered = "unordered" // mapiter
	VerbWallClock = "wallclock" // simclock
	VerbRetained  = "retained"  // poolcheck
)

// VerbPooled is the one marker verb: it declares a contract (a pooled type)
// instead of suppressing a finding, so it is inventoried but can never be
// stale.
const VerbPooled = "pooled"

// suppressionAnalyzer maps each suppression verb to the analyzer it
// silences. Any other verb but VerbPooled is unknown, including those of
// retired analyzers, so a marker left behind fails the audit.
var suppressionAnalyzer = map[string]string{
	VerbUnordered: "mapiter",
	VerbWallClock: "simclock",
	VerbRetained:  "poolcheck",
}

// DirectiveKind classifies a //f2tree: directive.
type DirectiveKind string

// Directive kinds.
const (
	KindSuppression DirectiveKind = "suppression"
	KindMarker      DirectiveKind = "marker"
	KindUnknown     DirectiveKind = "unknown"
)

// Directive is one //f2tree: comment found in an analyzed package.
type Directive struct {
	// Verb is the word after "f2tree:" ("unordered", "pooled", ...).
	Verb string
	// Reason is the rest of the comment — the text a reviewer audits.
	Reason string
	// Analyzer is the analyzer a suppression silences; empty for markers.
	Analyzer string
	Kind     DirectiveKind
	Package  string
	File     string
	Line     int
	// Stale marks a suppression whose line (or the line below) no longer
	// produces the finding it silences.
	Stale bool
	// MissingReason marks a suppression with no justification text.
	MissingReason bool
}

// AuditResult is the full directive inventory of a set of packages plus
// its defects.
type AuditResult struct {
	// Directives lists every //f2tree: directive, sorted by position.
	Directives []Directive
	// Stale, Unknown and Unjustified are the defective subsets (views into
	// the same records).
	Stale       []Directive
	Unknown     []Directive
	Unjustified []Directive
}

// Clean reports whether the audit found no defective directives.
func (r *AuditResult) Clean() bool {
	return len(r.Stale) == 0 && len(r.Unknown) == 0 && len(r.Unjustified) == 0
}

// Audit inventories every //f2tree: directive in the in-scope packages and
// verifies each suppression still suppresses something: the analyzers are
// re-run through the dependency-ordered graph driver with suppression
// disabled (KeepSuppressed) — so interprocedural findings count as
// coverage too — and a suppression directive with no matching finding on
// its line or the line below is reported stale. Unknown verbs (typos) and
// suppressions without a reason are defects too. opt.KeepSuppressed is
// forced on; opt.InScope and Workers are honored.
func Audit(pkgs []*Package, opt RunOptions) (*AuditResult, error) {
	opt.KeepSuppressed = true
	results, err := RunGraph(pkgs, Analyzers(), opt)
	if err != nil {
		return nil, err
	}
	// Collect every finding, suppressed or not, keyed by file:line.
	type lineKey struct {
		file string
		line int
	}
	findings := make(map[lineKey]map[string]bool) // → verbs present
	for _, r := range results {
		for _, f := range r.Findings {
			if f.Verb == "" {
				continue
			}
			k := lineKey{f.File, f.Line}
			if findings[k] == nil {
				findings[k] = make(map[string]bool)
			}
			findings[k][f.Verb] = true
		}
	}

	res := &AuditResult{}
	for _, pkg := range pkgs {
		if pkg.DepOnly || (opt.InScope != nil && !opt.InScope(pkg.ImportPath)) {
			continue
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					verb, reason, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.End())
					d := Directive{
						Verb:    verb,
						Reason:  reason,
						Package: pkg.ImportPath,
						File:    pos.Filename,
						Line:    pos.Line,
					}
					switch {
					case verb == VerbPooled:
						d.Kind = KindMarker
					case suppressionAnalyzer[verb] != "":
						d.Kind = KindSuppression
						d.Analyzer = suppressionAnalyzer[verb]
						d.MissingReason = reason == ""
						// A directive covers its own line and the next one.
						covered := findings[lineKey{pos.Filename, pos.Line}][verb] ||
							findings[lineKey{pos.Filename, pos.Line + 1}][verb]
						d.Stale = !covered
					default:
						d.Kind = KindUnknown
					}
					res.Directives = append(res.Directives, d)
				}
			}
		}
	}

	sort.Slice(res.Directives, func(i, j int) bool {
		a, b := res.Directives[i], res.Directives[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	for _, d := range res.Directives {
		switch {
		case d.Kind == KindUnknown:
			res.Unknown = append(res.Unknown, d)
		case d.Stale:
			res.Stale = append(res.Stale, d)
		case d.MissingReason:
			res.Unjustified = append(res.Unjustified, d)
		}
	}
	return res, nil
}

// parseDirective splits one comment into a directive verb and reason, or
// reports that the comment is not a //f2tree: directive.
func parseDirective(comment string) (verb, reason string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	verb, reason, _ = strings.Cut(rest, " ")
	return verb, strings.TrimSpace(reason), verb != ""
}

// Describe renders a directive as "file:line verb(analyzer): reason".
func (d Directive) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d //f2tree:%s", d.File, d.Line, d.Verb)
	if d.Analyzer != "" {
		fmt.Fprintf(&b, " [%s]", d.Analyzer)
	}
	if d.Reason != "" {
		fmt.Fprintf(&b, " — %s", d.Reason)
	}
	return b.String()
}
