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
	"strings"
)

// Package is one loaded, type-checked package with syntax.
type Package struct {
	PkgPath   string
	Dir       string
	Module    string // module path, "" outside a module
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// FactsOnly marks an in-module dependency that no pattern named.
	// Run analyzes it so that the named packages can import its facts
	// (a hot-path callee's annotation, a *Locked method's contract) and
	// reports nothing found in it.
	FactsOnly bool
	// depCount is the transitive import count, used to order analysis
	// dependencies-first so facts flow from callee to caller packages.
	depCount int
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Deps       []string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with the go command and
// type-checks every matched non-test package from source, together
// with the main-module packages they depend on, marked FactsOnly. Imports —
// stdlib and module-internal alike — are satisfied from the compiler
// export data that `go list -export` leaves in the build cache, so
// loading is hermetic: no network, no GOPATH archives. tags is the
// build-tag list forwarded to the go command (empty for the default
// variant, "cbwscheck" for the checked build).
//
// The returned packages are sorted dependencies-first, which is the
// order Run analyzes them in.
func Load(dir string, tags string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("load: no package patterns")
	}
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Deps,Standard,DepOnly,Module,Error"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var roots, deps []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		switch {
		case p.Standard:
		case p.DepOnly:
			// The analyzers demand facts about module-internal
			// callees alone.
			if p.Module != nil && p.Module.Main {
				deps = append(deps, p)
			}
		default:
			roots = append(roots, p)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("go list %s: no packages matched", strings.Join(patterns, " "))
	}
	nroots := len(roots)
	roots = append(roots, deps...)

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var pkgs []*Package
	for i, root := range roots {
		files, err := parseDir(fset, root.Dir, root.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, info, err := TypeCheck(fset, root.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		module := ""
		if root.Module != nil {
			module = root.Module.Path
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   root.ImportPath,
			Dir:       root.Dir,
			Module:    module,
			Fset:      fset,
			Files:     files,
			Types:     pkg,
			TypesInfo: info,
			FactsOnly: i >= nroots,
			depCount:  len(root.Deps),
		})
	}
	// Deps is transitive, so |Deps| strictly increases along import
	// edges and sorting by it yields a dependencies-first order;
	// the path tiebreak keeps the order deterministic.
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].depCount != pkgs[j].depCount {
			return pkgs[i].depCount < pkgs[j].depCount
		}
		return pkgs[i].PkgPath < pkgs[j].PkgPath
	})
	return pkgs, nil
}

// parseDir parses the named files of dir with comments retained
// (analyzers read annotations and suppression comments).
func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ExportImporter returns a go/types importer that reads compiler
// export data from the files named in exports (import path → file),
// as produced by `go list -export`.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
}

// TypeCheck runs go/types over one package's files with every Info map
// populated, which is what analyzers expect from a Pass.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

// ExportsFor runs `go list -export` over the given import paths and
// returns the export-data map for them and all their dependencies.
// The fixture loader uses it to resolve the imports of testdata
// packages that are not part of the module's package graph.
func ExportsFor(dir string, importPaths []string) (map[string]string, error) {
	exports := make(map[string]string)
	if len(importPaths) == 0 {
		return exports, nil
	}
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Export,Error"}
	args = append(args, importPaths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v\n%s",
			strings.Join(importPaths, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -export: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list -export: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
