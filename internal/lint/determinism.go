package lint

import (
	"go/ast"
	"go/types"

	"cbws/internal/lint/analysis"
)

// Determinism guards the packages whose output lands in golden
// manifests, figures, and run records: results there must be
// bit-identical across runs and across -par settings, so the analyzer
// flags the constructs that historically break that —
//
//   - ranging over a map while producing ordered output (writes,
//     prints, hashes) or while appending to a slice that is never
//     sorted afterwards in the same function;
//   - time.Now (wall-clock values leak into output);
//   - the unseeded global math/rand source;
//   - sort.Slice, which is not stable: equal elements land in
//     observation order, so only a total-order comparator is safe and
//     sort.SliceStable (or a total-order key) is required.
//
// The driver scopes it to the simulator core that every golden cell
// runs through — internal/{prefetch,core,cache,engine} (a scope entry
// covers its subpackages, so the learned baselines are in too) — and to
// internal/{sim,harness,report,stats,service}, internal/trace/corpus,
// and cmd/figures; fixture tests run it everywhere. The core is in
// scope because a map iteration, wall-clock read or unseeded random
// draw in a prefetcher, cache or the engine changes simulation results
// and so breaks the pinned manifests. internal/service is in scope
// because its cached run records are compared byte-for-byte across
// daemons — the one legitimate wall-clock read (job duration
// telemetry) carries an explicit waiver. internal/trace/corpus is in
// scope because corpus files are content-addressed: any nondeterminism
// in the writer would silently fracture the shared result cache.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag map-iteration-order leaks, wall-clock reads, unseeded " +
		"randomness, and unstable sorts in golden-output packages",
	Scope: []string{
		"cbws/internal/prefetch",
		"cbws/internal/core",
		"cbws/internal/cache",
		"cbws/internal/engine",
		"cbws/internal/sim",
		"cbws/internal/harness",
		"cbws/internal/report",
		"cbws/internal/stats",
		"cbws/internal/service",
		"cbws/internal/trace/corpus",
		"cbws/cmd/figures",
	},
	Run: runDeterminism,
}

// randConstructors are the math/rand(/v2) package-level functions that
// build explicitly seeded sources rather than drawing from the global
// one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDeterminism(pass, fd)
		}
	}
	return nil
}

func checkDeterminism(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			fn := calleeOf(info, e)
			if fn == nil {
				return true
			}
			switch {
			case isPkgFunc(fn, "time", "Now"):
				pass.Reportf(e.Pos(), "time.Now in a golden-output package: wall-clock values are nondeterministic")
			case pkgPathHasSuffix(fn.Pkg(), "math/rand") || pkgPathHasSuffix(fn.Pkg(), "math/rand/v2"):
				if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
					pass.Reportf(e.Pos(), "rand.%s draws from the unseeded global source; use a seeded rand.New(rand.NewSource(...))", fn.Name())
				}
			case isPkgFunc(fn, "sort", "Slice"):
				pass.Reportf(e.Pos(), "sort.Slice is not stable; use sort.SliceStable or sort by a total-order key")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					checkMapRangeBody(pass, fd, e)
				}
			}
		}
		return true
	})
}

// checkMapRangeBody flags order-dependent effects inside a
// range-over-map body. Appending map elements to a slice is the one
// sanctioned pattern — but only when the slice is sorted later in the
// same function, which restores a canonical order.
func checkMapRangeBody(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				target := rootIdent(info, call.Args[0])
				if target == nil {
					return true
				}
				if target.Pos() > rng.Pos() && target.Pos() < rng.End() {
					return true // loop-local accumulator: scoped to one iteration
				}
				if !sortedLater(pass, fd, rng, target) {
					pass.Reportf(call.Pos(),
						"append to %q inside range over map leaks iteration order; sort it afterwards or iterate sorted keys", target.Name())
				}
				return true
			}
		}
		// Resolve interface methods too: a Write on an io.Writer is
		// exactly the ordered-output shape this check exists for.
		fn := methodOf(info, call)
		if fn == nil {
			return true
		}
		if orderedOutputCall(fn) {
			pass.Reportf(call.Pos(),
				"%s inside range over map emits output in map iteration order", fn.Name())
		}
		return true
	})
}

// orderedOutputCall reports whether fn writes to an ordered byte
// stream: fmt printers and Write*/Sum-style methods.
func orderedOutputCall(fn *types.Func) bool {
	if pkgPathHasSuffix(fn.Pkg(), "fmt") {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Sum":
		return true
	}
	return false
}

// sortedLater reports whether obj is passed to a sort call after the
// range statement within the same function body.
func sortedLater(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil || !(pkgPathHasSuffix(fn.Pkg(), "sort") || pkgPathHasSuffix(fn.Pkg(), "slices")) {
			return true
		}
		for _, arg := range call.Args {
			if rootIdent(info, arg) == obj {
				found = true
			}
		}
		return true
	})
	return found
}
