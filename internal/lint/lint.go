// Package lint holds the repo's custom static analyzers — the
// compile-time-adjacent enforcement of the three invariants the test
// suite otherwise only catches dynamically:
//
//   - hotpathalloc: functions annotated //cbws:hotpath (and every
//     module function they statically call) must not contain
//     allocating constructs, so the AllocsPerRun pins cannot be
//     broken by an innocent-looking edit.
//   - determinism: the packages whose output feeds the golden
//     manifests must not iterate maps into ordered output, read wall
//     clocks, use the unseeded global rand, or rely on unstable
//     sorts.
//   - checkguard: runtime invariant hooks (check.Assertf / Failf and
//     the unexported check* helpers that wrap them) must be gated on
//     check.Enabled or confined to cbwscheck-tagged files.
//   - batchalias: BatchSink implementations must not retain or
//     mutate the batch slice, whose backing array the producer reuses.
//
// The v2 analyzers guard the concurrent, clustered system:
//
//   - guardedby: fields annotated //cbws:guardedby <mutex> may only be
//     accessed while the named sibling sync.Mutex/RWMutex is held;
//     *Locked methods carry the obligation to their callers via
//     object facts. It also bans the sync/atomic package functions:
//     shared words use the typed wrappers (atomic.Int64, ...), whose
//     copies go vet's copylocks check flags.
//   - golifecycle: no fire-and-forget goroutines in the long-lived
//     packages — every go statement must join through a WaitGroup, a
//     received result channel, or context cancellation.
//   - wirecompat: the api/v1 wire contract (struct shapes, json tags,
//     routes, job-key schema) is frozen in api/v1/compat.json;
//     breaking drift fails lint until the manifest is bumped.
//
// False positives are silenced in place with
//
//	//lint:ignore cbws/<analyzer> <reason>
//
// on (or immediately above) the flagged line; the reason is mandatory.
// The cmd/cbwslint driver runs the whole suite; fixture tests under
// testdata/ are the executable specification.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"cbws/internal/lint/analysis"
)

// Analyzers returns the full suite in a deterministic order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		HotPathAlloc, Determinism, CheckGuard, BatchAlias,
		GuardedBy, GoLifecycle, WireCompat,
	}
}

// ByName returns the analyzer with the given name, if present.
func ByName(name string) (*analysis.Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// calleeOf resolves the static callee of call, or nil when the callee
// is dynamic (a func value, an interface method, a builtin, or a type
// conversion).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return nil // dynamic dispatch
		}
	}
	return fn
}

// methodOf resolves the called function including interface methods,
// for checks that care about the method's name and shape rather than
// the concrete implementation (e.g. Write on an io.Writer).
func methodOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named function of a package
// whose import path is pathSuffix or ends in "/"+pathSuffix, which
// matches both the real module layout and relocated fixture imports.
func isPkgFunc(fn *types.Func, pathSuffix, name string) bool {
	return fn != nil && fn.Name() == name && pkgPathHasSuffix(fn.Pkg(), pathSuffix)
}

func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// isCheckEnabled reports whether expr denotes the check.Enabled gate.
func isCheckEnabled(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return false
	}
	return obj.Name() == "Enabled" && pkgPathHasSuffix(obj.Pkg(), "internal/check")
}

// guardsCheckEnabled reports whether cond establishes check.Enabled,
// either alone or as a conjunct (check.Enabled && ...).
func guardsCheckEnabled(info *types.Info, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op.String() == "&&" {
			return guardsCheckEnabled(info, e.X) || guardsCheckEnabled(info, e.Y)
		}
		return false
	default:
		return isCheckEnabled(info, cond)
	}
}

// inModule reports whether pkg belongs to the module under analysis.
func inModule(pkg *types.Package, modulePath string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// rootIdent peels selectors, indexing, slicing, dereferences, and
// parens off expr and returns the base identifier's object, or nil.
func rootIdent(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return info.Uses[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.CallExpr:
			return nil // function result: no stable root
		default:
			return nil
		}
	}
}
