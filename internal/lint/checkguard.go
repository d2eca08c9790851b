package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"cbws/internal/lint/analysis"
)

// CheckGuard enforces the check-layer/production separation:
//
//  1. Calls to the invariant hooks check.Assertf and check.Failf must
//     be guarded — lexically inside an `if check.Enabled` block — or
//     confined to a cbwscheck-tagged file, or live inside an
//     unexported check* helper (the repo convention for batched
//     invariant scans such as checkMSHR / checkROBOrder).
//  2. Calls to those unexported check* helpers must themselves be
//     guarded by check.Enabled (or be made from another helper /
//     tagged file), closing the loop opened by rule 1.
//
// Package check itself is exempt (it defines the hooks). Its reference
// models need no rule to stay independent of the optimized packages
// they validate: internal/cache, engine, core and prefetch/learned all
// import internal/check, so importing one from a model is an import
// cycle the compiler rejects.
var CheckGuard = &analysis.Analyzer{
	Name: "checkguard",
	Doc:  "require check.Enabled guards around invariant hooks",
	Run:  runCheckGuard,
}

func runCheckGuard(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "check" {
		return nil // the check package defines the hooks; guards don't apply
	}
	helpers := collectCheckHelpers(pass)
	for _, f := range pass.Files {
		if analysis.FileHasBuildTag(f, "cbwscheck") {
			continue // the whole file only exists in checked builds
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedCalls(pass, fd, helpers)
		}
	}
	return nil
}

// collectCheckHelpers returns the unexported check*-named functions of
// this package whose bodies call check.Assertf or check.Failf
// directly; their call sites take over the guard obligation.
func collectCheckHelpers(pass *analysis.Pass) map[*types.Func]bool {
	helpers := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isCheckHelperName(fd.Name.Name) {
				continue
			}
			callsHook := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isInvariantHook(pass.TypesInfo, call) {
					callsHook = true
				}
				return !callsHook
			})
			if callsHook {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					helpers[fn] = true
				}
			}
		}
	}
	return helpers
}

func isCheckHelperName(name string) bool {
	return strings.HasPrefix(name, "check") && !ast.IsExported(name)
}

func isInvariantHook(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	return isPkgFunc(fn, "internal/check", "Assertf") || isPkgFunc(fn, "internal/check", "Failf")
}

// checkGuardedCalls walks one function body tracking whether the
// current position is dominated by an `if check.Enabled` condition,
// and reports unguarded hook and helper calls.
func checkGuardedCalls(pass *analysis.Pass, fd *ast.FuncDecl, helpers map[*types.Func]bool) {
	// Inside a helper every hook call is fine: the helper's own call
	// sites carry the guard obligation (rule 2).
	selfIsHelper := false
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		selfIsHelper = helpers[fn]
	}
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.IfStmt:
				if guardsCheckEnabled(pass.TypesInfo, e.Cond) {
					walk(e.Init, guarded)
					walk(e.Body, true)
					walk(e.Else, guarded)
					return false
				}
			case *ast.CallExpr:
				if guarded || selfIsHelper {
					return true
				}
				if isInvariantHook(pass.TypesInfo, e) {
					pass.Reportf(e.Pos(),
						"call to check.%s is not guarded by check.Enabled (wrap it in `if check.Enabled`, move it into an unexported check* helper, or a cbwscheck-tagged file)",
						calleeOf(pass.TypesInfo, e).Name())
				} else if fn := calleeOf(pass.TypesInfo, e); fn != nil && helpers[fn] {
					pass.Reportf(e.Pos(),
						"call to invariant helper %s is not guarded by check.Enabled", fn.Name())
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}
