package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Run applies analyzers to pkgs (already sorted dependencies-first by
// Load) and returns the surviving diagnostics in deterministic order:
// by file, line, column, analyzer, message. Findings suppressed by a
// //lint:ignore comment are dropped, as is every finding in a
// FactsOnly package. Analyzer Scope is honored: out-of-scope packages
// are skipped.
func Run(analyzers []*Analyzer, pkgs []*Package, modulePath string) ([]Diagnostic, error) {
	facts := NewFactStore()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, a := range analyzers {
			if !a.InScope(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				ModulePath: modulePath,
				Dir:        pkg.Dir,
				facts:      facts,
				report: func(d Diagnostic) {
					if !pkg.FactsOnly && !sup.suppressed(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// suppressions records, per file and line, which analyzers have been
// silenced by a //lint:ignore comment. A suppression on line N covers
// diagnostics reported on line N (trailing comment) and line N+1
// (comment on its own line above the flagged statement).
type suppressions struct {
	byFile map[string]map[int][]string
}

// IgnorePrefix is the suppression comment marker. The full syntax is
//
//	//lint:ignore cbws/<analyzer> <reason>
//
// and the reason is mandatory: a bare suppression is ignored (and thus
// does not suppress), so every waiver is forced to document itself.
const IgnorePrefix = "//lint:ignore "

func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byFile: make(map[string]map[int][]string)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 { // analyzer + non-empty reason required
					continue
				}
				name, ok := strings.CutPrefix(fields[0], "cbws/")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := s.byFile[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					s.byFile[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], name)
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(d Diagnostic) bool {
	m := s.byFile[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range m[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// FileHasBuildTag reports whether f carries a //go:build constraint
// mentioning tag (e.g. "cbwscheck"). Such files only compile into
// checked builds, so checkguard exempts them from the Enabled-guard
// requirement.
func FileHasBuildTag(f *ast.File, tag string) bool {
	for _, cg := range f.Comments {
		// Build constraints precede the package clause.
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if expr, ok := strings.CutPrefix(c.Text, "//go:build "); ok {
				for _, tok := range strings.FieldsFunc(expr, func(r rune) bool {
					return r == ' ' || r == '(' || r == ')' || r == '&' || r == '|' || r == '\t'
				}) {
					if tok == tag {
						return true
					}
				}
			}
		}
	}
	return false
}
