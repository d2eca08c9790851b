package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cbws/internal/lint/analysis"
)

// HotPathAnnotation marks a function as part of the zero-allocation
// steady state: it must appear on its own line in the function's doc
// comment. The contract is transitive — every module function a hot
// function statically calls must itself carry the annotation — so the
// whole reachable hot region is checked, not just the entry points.
const HotPathAnnotation = "//cbws:hotpath"

// hotFact is the object fact recorded for every annotated function so
// importing packages can verify cross-package calls.
type hotFact struct{}

// HotPathAlloc enforces the zero-allocation contract of //cbws:hotpath
// functions: no make/new, no map or slice literals, no escaping
// (address-taken) composite literals, no append to slices that are not
// owned by the receiver, no capturing closures, no goroutines, no fmt
// calls, no string concatenation, no interface conversions of
// non-pointer values, no string <-> []byte/[]rune conversions (except
// the forms the compiler performs in place: a map lookup key, a
// comparison operand, and ranging over []byte(s)), and no calls to
// unannotated module functions.
// Code inside an `if check.Enabled` block is exempt: checked builds
// may allocate.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "flag allocating constructs inside //cbws:hotpath functions " +
		"and calls from them to unannotated module functions",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	// Phase 1: record every annotated function (as a fact, so callers
	// in later-analyzed packages can see it) before checking bodies.
	var hot []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasHotAnnotation(fd) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				pass.ExportObjectFact(obj, hotFact{})
				hot = append(hot, fd)
			}
		}
	}
	for _, fd := range hot {
		checkHotFunc(pass, fd)
	}
	return nil
}

func hasHotAnnotation(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == HotPathAnnotation {
			return true
		}
	}
	return false
}

// hotChecker walks one annotated function body.
type hotChecker struct {
	pass *analysis.Pass
	decl *ast.FuncDecl
	// owned holds the receiver object and local variables derived from
	// it by plain assignment/reslicing: appending to these reuses
	// preallocated receiver-owned capacity and is permitted.
	owned map[types.Object]bool
	// inPlace holds the expressions in a position where the compiler
	// converts string <-> []byte without allocating; stored holds the
	// assignment targets, whose map keys are copied into the map.
	inPlace map[ast.Expr]bool
	stored  map[ast.Expr]bool
}

func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	c := &hotChecker{pass: pass, decl: fd, owned: make(map[types.Object]bool),
		inPlace: make(map[ast.Expr]bool), stored: make(map[ast.Expr]bool)}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if obj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			c.owned[obj] = true
		}
	}
	// Pre-pass: collect receiver-derived aliases (x := p.buf[...] etc.)
	// in source order, before judging appends against them.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if root := c.sliceRoot(as.Rhs[i]); root != nil && c.owned[root] {
				if obj := c.defOrUse(id); obj != nil {
					c.owned[obj] = true
				}
			}
		}
		return true
	})
	c.walkStmt(fd.Body)
}

func (c *hotChecker) defOrUse(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// sliceRoot returns the base object of a slice-valued expression chain
// (ident, reslice, field, or index), or nil.
func (c *hotChecker) sliceRoot(expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return c.defOrUse(e)
	case *ast.SliceExpr:
		return c.sliceRoot(e.X)
	case *ast.SelectorExpr:
		return rootIdent(c.pass.TypesInfo, e)
	case *ast.IndexExpr:
		return rootIdent(c.pass.TypesInfo, e)
	case *ast.StarExpr:
		return c.sliceRoot(e.X)
	case *ast.UnaryExpr:
		// &p.table[i]: a pointer into receiver-owned storage keeps the
		// receiver as its root, matching the e := &p.table[i] idiom.
		if e.Op == token.AND {
			return c.sliceRoot(e.X)
		}
	}
	return nil
}

// walkStmt visits statements, skipping bodies of `if check.Enabled`
// blocks (the else branch still runs in production and is visited).
func (c *hotChecker) walkStmt(n ast.Node) {
	if n == nil {
		return
	}
	if ifs, ok := n.(*ast.IfStmt); ok && guardsCheckEnabled(c.pass.TypesInfo, ifs.Cond) {
		c.walkStmt(ifs.Init)
		c.walkStmt(ifs.Else)
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.IfStmt:
			if e != n && guardsCheckEnabled(c.pass.TypesInfo, e.Cond) {
				c.walkStmt(e.Init)
				c.walkStmt(e.Else)
				return false
			}
		case *ast.GoStmt:
			c.pass.Reportf(e.Pos(), "hot path spawns a goroutine")
		case *ast.FuncLit:
			c.checkFuncLit(e)
			return false // contents judged as part of the closure check
		case *ast.CompositeLit:
			c.checkCompositeLit(e)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					c.pass.Reportf(e.Pos(), "hot path takes the address of a composite literal (escapes)")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && c.isString(e.X) {
				c.pass.Reportf(e.Pos(), "hot path concatenates strings (allocates)")
			}
			switch e.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				c.inPlace[ast.Unparen(e.X)] = true
				c.inPlace[ast.Unparen(e.Y)] = true
			}
		case *ast.IndexExpr:
			if t := c.pass.TypesInfo.TypeOf(e.X); t != nil && isMap(t) && !c.stored[e] {
				c.inPlace[ast.Unparen(e.Index)] = true
			}
		case *ast.RangeStmt:
			if x := ast.Unparen(e.X); sliceElemKind(c.pass.TypesInfo.TypeOf(x)) == types.Uint8 {
				c.inPlace[x] = true
			}
		case *ast.IncDecStmt:
			c.stored[ast.Unparen(e.X)] = true
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && c.isString(e.Lhs[0]) {
				c.pass.Reportf(e.Pos(), "hot path concatenates strings (allocates)")
			}
			for _, lhs := range e.Lhs {
				c.stored[ast.Unparen(lhs)] = true
			}
		case *ast.CallExpr:
			c.checkCall(e)
		}
		return true
	})
}

func (c *hotChecker) isString(expr ast.Expr) bool {
	return isStringType(c.pass.TypesInfo.TypeOf(expr))
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sliceElemKind returns the kind of t's element when t is a slice of a
// basic type (types.Uint8 for []byte, types.Int32 for []rune), and
// types.Invalid otherwise.
func sliceElemKind(t types.Type) types.BasicKind {
	if t == nil {
		return types.Invalid
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := s.Elem().Underlying().(*types.Basic); ok {
			return b.Kind()
		}
	}
	return types.Invalid
}

// isBytesOrRunes reports whether t is a []byte or []rune type.
func isBytesOrRunes(t types.Type) bool {
	k := sliceElemKind(t)
	return k == types.Uint8 || k == types.Int32
}

func (c *hotChecker) checkFuncLit(fl *ast.FuncLit) {
	// A closure allocates exactly when it captures variables of the
	// enclosing function; package-level references keep it static.
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != "" {
			return captured == ""
		}
		obj, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= c.decl.Pos() && obj.Pos() < fl.Pos() {
			captured = obj.Name()
		}
		return true
	})
	if captured != "" {
		c.pass.Reportf(fl.Pos(), "hot path closure captures %q (allocates)", captured)
	}
}

func (c *hotChecker) checkCompositeLit(cl *ast.CompositeLit) {
	t := c.pass.TypesInfo.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.pass.Reportf(cl.Pos(), "hot path builds a map literal (allocates)")
	case *types.Slice:
		c.pass.Reportf(cl.Pos(), "hot path builds a slice literal (allocates)")
	}
}

func (c *hotChecker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	// Type conversions: converting a non-pointer-shaped value to an
	// interface boxes it, and string <-> []byte/[]rune copies the bytes
	// unless the compiler can use them in place.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		from := info.TypeOf(call.Args[0])
		switch {
		case types.IsInterface(tv.Type) && !pointerShaped(from):
			c.pass.Reportf(call.Pos(), "hot path converts non-pointer value to interface (allocates)")
		case (isStringType(tv.Type) && isBytesOrRunes(from) ||
			isBytesOrRunes(tv.Type) && isStringType(from)) && !c.inPlace[call]:
			c.pass.Reportf(call.Pos(), "hot path converts %s to %s (allocates)", from, tv.Type)
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.pass.Reportf(call.Pos(), "hot path calls make (allocates)")
			case "new":
				c.pass.Reportf(call.Pos(), "hot path calls new (allocates)")
			case "append":
				c.checkAppend(call)
			}
			return
		}
	}
	fn := calleeOf(info, call)
	if fn == nil {
		// Dynamic call: func value or interface method. The target is
		// unknowable statically; the contract is enforced at each
		// concrete implementation instead.
		c.checkArgsBox(call, nil)
		return
	}
	if pkgPathHasSuffix(fn.Pkg(), "fmt") {
		c.pass.Reportf(call.Pos(), "hot path calls fmt.%s (allocates)", fn.Name())
		return
	}
	if inModule(fn.Pkg(), c.pass.ModulePath) {
		if _, ok := c.pass.ImportObjectFact(fn); !ok {
			c.pass.Reportf(call.Pos(),
				"hot path calls %s, which is not annotated %s", fn.FullName(), HotPathAnnotation)
		}
	}
	c.checkArgsBox(call, fn)
}

// checkArgsBox flags arguments that box non-pointer values into
// interface parameters.
func (c *hotChecker) checkArgsBox(call *ast.CallExpr, fn *types.Func) {
	info := c.pass.TypesInfo
	sigType := info.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // x... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if types.IsInterface(pt) && !pointerShaped(at) {
			c.pass.Reportf(arg.Pos(),
				"hot path passes non-pointer %s as interface argument (allocates)", at)
		}
	}
}

// checkAppend permits append only on receiver-owned slices, whose
// capacity the Reset/New path preallocated; anything else may grow.
func (c *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	root := c.sliceRoot(call.Args[0])
	if root != nil && c.owned[root] {
		return
	}
	c.pass.Reportf(call.Pos(), "hot path appends to a slice not owned by the receiver (may allocate)")
}

// pointerShaped reports whether values of t convert to interface
// without allocating: pointers, maps, channels, funcs, unsafe
// pointers, and interfaces themselves.
func pointerShaped(t types.Type) bool {
	if t == nil {
		return true // be lenient on untypeable corners
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer || b.Kind() == types.UntypedNil
	}
	return false
}
