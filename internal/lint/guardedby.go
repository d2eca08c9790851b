package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"cbws/internal/lint/analysis"
)

// GuardedByAnnotation marks a struct field as protected by a sibling
// mutex field. It appears in the field's doc or line comment:
//
//	mu    sync.Mutex
//	jobs  map[string]*Job //cbws:guardedby mu
//
// Every read or write of the annotated field must then happen while
// the named sync.Mutex (or sync.RWMutex: RLock suffices for reads,
// Lock is required for writes) is held on all paths. Methods whose
// name ends in "Locked" are assumed to be called with the receiver's
// guard mutexes held — and callers of such methods are checked for
// exactly that, across packages via object facts.
const GuardedByAnnotation = "//cbws:guardedby"

// lockedFact is exported for every *Locked method of a type with
// guarded fields so that importing packages can verify their call
// sites hold the receiver's mutexes.
type lockedFact struct {
	Mutexes []string
}

// GuardedBy verifies //cbws:guardedby field annotations: an annotated
// field may only be accessed while the named sibling mutex is held.
// The check is an intraprocedural forward dataflow over each function
// body — Lock/RLock acquire, Unlock/RUnlock release, deferred unlocks
// keep the mutex held to function exit, and branches join by
// intersection (a lock must be held on every path reaching the
// access). Function literals are analyzed against an empty lock set,
// since they may run on any goroutine.
//
// It also bans the sync/atomic package functions (AddInt64, LoadUint32,
// ...): a word passed to them can still be read or written plainly
// elsewhere, while the typed wrappers (atomic.Int64, ...) admit only
// atomic access, and go vet's copylocks check flags their copies.
var GuardedBy = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "verify that fields annotated //cbws:guardedby <mutex> are only " +
		"accessed while the named sibling sync.Mutex/RWMutex is held; " +
		"ban the sync/atomic package functions in favour of the typed wrappers",
	Run: runGuardedBy,
}

// guardInfo describes one annotated field: the name of the sibling
// mutex that guards it.
type guardInfo struct {
	mutex string
}

type guardedChecker struct {
	pass *analysis.Pass
	// guards maps an annotated field object to its guard.
	guards map[types.Object]guardInfo
	// typeGuards maps a struct type to the sorted mutex field names
	// guarding any of its fields; *Locked methods on such a type are
	// assumed (and required) to run with all of them held.
	typeGuards map[*types.TypeName][]string
	// locked is the same-package view of lockedFact.
	locked map[*types.Func][]string
}

func runGuardedBy(pass *analysis.Pass) error {
	c := &guardedChecker{
		pass:       pass,
		guards:     make(map[types.Object]guardInfo),
		typeGuards: make(map[*types.TypeName][]string),
		locked:     make(map[*types.Func][]string),
	}
	// Phase 1: collect annotations and validate the named mutexes.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						c.collectStruct(ts, st)
					}
				}
			}
		}
	}
	// Phase 2: record the contract of every *Locked method before any
	// body is checked, so intra-package call sites (and, via facts,
	// importing packages) can be verified.
	c.collectLockedContracts()
	// Phase 3: dataflow over every function body.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				c.checkFunc(fd)
			}
		}
	}
	// Phase 4: any reference to a sync/atomic package function.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
				fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "sync/atomic.%s: use a typed wrapper (atomic.Int64, ...) so the word has no plain access", fn.Name())
			}
			return true
		})
	}
	return nil
}

func (c *guardedChecker) collectStruct(ts *ast.TypeSpec, st *ast.StructType) {
	tn, _ := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	var mutexes []string
	for _, field := range st.Fields.List {
		guard, ok := guardAnnotation(field)
		if !ok {
			continue
		}
		mut := siblingField(c.pass.TypesInfo, st, guard)
		if mut == nil || !isMutexType(mut.Type()) {
			c.pass.Reportf(field.Pos(), "//cbws:guardedby names %q: no sibling sync.Mutex or sync.RWMutex field", guard)
			continue
		}
		for _, name := range field.Names {
			if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
				c.guards[obj] = guardInfo{mutex: guard}
			}
		}
		if !slices.Contains(mutexes, guard) {
			mutexes = append(mutexes, guard)
		}
	}
	if tn != nil && len(mutexes) > 0 {
		sort.Strings(mutexes)
		c.typeGuards[tn] = mutexes
	}
}

// guardAnnotation extracts the mutex name from a field's
// //cbws:guardedby comment (doc group or trailing line comment).
func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			rest, ok := strings.CutPrefix(cmt.Text, GuardedByAnnotation)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				return fields[0], true
			}
			return "", true
		}
	}
	return "", false
}

func siblingField(info *types.Info, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				v, _ := info.Defs[n].(*types.Var)
				return v
			}
		}
	}
	return nil
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockedDecl is one *Locked method awaiting contract derivation.
type lockedDecl struct {
	fn   *types.Func
	fd   *ast.FuncDecl
	recv types.Object
}

// collectLockedContracts derives, for every *Locked method on a type
// with guarded fields, the set of mutexes its callers must hold: the
// guards of the receiver fields the body accesses directly, plus the
// contracts of other *Locked methods it calls on the same receiver
// (one propagation round — deeper chains would need a fixpoint, which
// the codebase doesn't).
func (c *guardedChecker) collectLockedContracts() {
	info := c.pass.TypesInfo
	var decls []lockedDecl
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			tn := receiverTypeName(fn)
			if tn == nil {
				continue
			}
			if _, ok := c.typeGuards[tn]; !ok {
				continue
			}
			if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
				continue
			}
			recv := info.Defs[fd.Recv.List[0].Names[0]]
			if recv == nil {
				continue
			}
			decls = append(decls, lockedDecl{fn: fn, fd: fd, recv: recv})
		}
	}
	direct := make(map[*types.Func]map[string]bool, len(decls))
	for _, d := range decls {
		direct[d.fn] = c.directGuards(d)
	}
	for _, d := range decls {
		need := direct[d.fn]
		for _, callee := range c.receiverLockedCallees(d) {
			for m := range direct[callee] {
				need[m] = true
			}
		}
		mutexes := make([]string, 0, len(need))
		for m := range need {
			mutexes = append(mutexes, m)
		}
		sort.Strings(mutexes)
		c.locked[d.fn] = mutexes
		c.pass.ExportObjectFact(d.fn, lockedFact{Mutexes: mutexes})
	}
}

// directGuards returns the guard mutexes of receiver fields the body
// accesses directly (owner expression is exactly the receiver).
func (c *guardedChecker) directGuards(d lockedDecl) map[string]bool {
	info := c.pass.TypesInfo
	need := make(map[string]bool)
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		gi, guarded := c.guards[info.Uses[sel.Sel]]
		if !guarded {
			return true
		}
		if root, path, ok := selectorPath(info, sel.X); ok && root == d.recv && path == "" {
			need[gi.mutex] = true
		}
		return true
	})
	return need
}

// receiverLockedCallees returns the *Locked methods d's body calls on
// its own receiver.
func (c *guardedChecker) receiverLockedCallees(d lockedDecl) []*types.Func {
	info := c.pass.TypesInfo
	var out []*types.Func
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil || !strings.HasSuffix(fn.Name(), "Locked") {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if root, path, ok := selectorPath(info, sel.X); ok && root == d.recv && path == "" {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// receiverTypeName returns the defining TypeName of fn's receiver base
// type, or nil for non-methods and non-named receivers.
func receiverTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// lockedMutexes resolves the mutexes a *Locked method requires, from
// the same package or from a fact exported by a dependency.
func (c *guardedChecker) lockedMutexes(fn *types.Func) ([]string, bool) {
	if m, ok := c.locked[fn]; ok {
		return m, true
	}
	if v, ok := c.pass.ImportObjectFact(fn); ok {
		if f, ok := v.(lockedFact); ok {
			return f.Mutexes, true
		}
	}
	return nil, false
}

// lockMode is the bitset of modes a mutex is held in on the current
// path: read (RLock) and/or write (Lock).
type lockMode uint8

const (
	lockRead lockMode = 1 << iota
	lockWrite
)

// lockKey identifies a mutex by the root object of its access path and
// the selector path from that root ("s" + ".tenants.mu"), so distinct
// instances reached from different variables do not alias.
type lockKey struct {
	root types.Object
	path string
}

type lockState map[lockKey]lockMode

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// intersect keeps only the locks (and modes) held in both states.
func intersect(a, b lockState) lockState {
	out := make(lockState)
	for k, v := range a {
		if m := v & b[k]; m != 0 {
			out[k] = m
		}
	}
	return out
}

// joinStates merges two branch exits; a terminated branch (return,
// break, continue) does not constrain the state after the merge point.
func joinStates(a lockState, aTerm bool, b lockState, bTerm bool) lockState {
	switch {
	case aTerm && bTerm:
		return a
	case aTerm:
		return b
	case bTerm:
		return a
	default:
		return intersect(a, b)
	}
}

// selectorPath resolves expr to a (root object, ".a.b" selector path)
// pair. Only plain identifier roots with pure field selections are
// trackable; anything involving calls, indexing, or slicing is not.
func selectorPath(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		root, p, ok := selectorPath(info, e.X)
		if !ok {
			return nil, "", false
		}
		return root, p + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return selectorPath(info, e.X)
	}
	return nil, "", false
}

func (c *guardedChecker) checkFunc(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	fc := &fnChecker{c: c, pass: c.pass}
	st := lockState{}
	// A *Locked method runs with its contract mutexes held; seed the
	// entry state accordingly.
	if fd.Recv != nil && strings.HasSuffix(fd.Name.Name, "Locked") &&
		len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			if recvObj := c.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]; recvObj != nil {
				for _, m := range c.locked[fn] {
					st[lockKey{recvObj, "." + m}] = lockWrite
				}
			}
		}
	}
	fc.stmts(fd.Body.List, st)
}

// fnChecker walks one function body, threading lockState through the
// control flow.
type fnChecker struct {
	c    *guardedChecker
	pass *analysis.Pass
}

// stmts walks a statement list. It returns the exit state and whether
// the list always terminates (return/break/continue/goto), in which
// case the exit state does not constrain the merge point.
func (fc *fnChecker) stmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = fc.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (fc *fnChecker) stmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case nil:
		return st, false
	case *ast.BlockStmt:
		return fc.stmts(s.List, st)
	case *ast.ExprStmt:
		fc.expr(s.X, st)
		return st, false
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			fc.expr(rhs, st)
		}
		for _, lhs := range s.Lhs {
			fc.assignTarget(lhs, st)
		}
		return st, false
	case *ast.IncDecStmt:
		fc.assignTarget(s.X, st)
		return st, false
	case *ast.DeferStmt:
		fc.deferStmt(s, st)
		return st, false
	case *ast.GoStmt:
		// The goroutine runs with no locks held from its own
		// perspective; arguments are evaluated now, under the current
		// state.
		for _, arg := range s.Call.Args {
			fc.expr(arg, st)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			fc.funcLit(lit)
		} else {
			fc.expr(s.Call.Fun, st)
		}
		return st, false
	case *ast.SendStmt:
		fc.expr(s.Chan, st)
		fc.expr(s.Value, st)
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fc.expr(r, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.LabeledStmt:
		return fc.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fc.expr(v, st)
					}
				}
			}
		}
		return st, false
	case *ast.IfStmt:
		st, _ = fc.stmt(s.Init, st)
		fc.expr(s.Cond, st)
		thenSt, thenTerm := fc.stmts(s.Body.List, st.clone())
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = fc.stmt(s.Else, elseSt)
		}
		return joinStates(thenSt, thenTerm, elseSt, elseTerm), false
	case *ast.ForStmt:
		st, _ = fc.stmt(s.Init, st)
		fc.expr(s.Cond, st)
		bodySt, bodyTerm := fc.stmts(s.Body.List, st.clone())
		if !bodyTerm {
			bodySt, _ = fc.stmt(s.Post, bodySt)
		}
		// Loop exit: only locks held both before the loop and at the
		// end of an iteration are assumed afterwards (a break mid-body
		// is treated conservatively).
		return intersect(st, bodySt), false
	case *ast.RangeStmt:
		fc.expr(s.X, st)
		bodySt, _ := fc.stmts(s.Body.List, st.clone())
		return intersect(st, bodySt), false
	case *ast.SwitchStmt:
		st, _ = fc.stmt(s.Init, st)
		fc.expr(s.Tag, st)
		return fc.clauses(s.Body.List, st, !hasDefaultClause(s.Body.List)), false
	case *ast.TypeSwitchStmt:
		st, _ = fc.stmt(s.Init, st)
		st, _ = fc.stmt(s.Assign, st)
		return fc.clauses(s.Body.List, st, !hasDefaultClause(s.Body.List)), false
	case *ast.SelectStmt:
		// select blocks until one case proceeds: join the case exits.
		return fc.clauses(s.Body.List, st, false), false
	default:
		return st, false
	}
}

func hasDefaultClause(list []ast.Stmt) bool {
	for _, cl := range list {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// clauses joins the non-terminated exits of switch/select clauses.
// includeEntry adds the entry state to the join (a switch without a
// default may execute no clause at all).
func (fc *fnChecker) clauses(list []ast.Stmt, st lockState, includeEntry bool) lockState {
	var exits []lockState
	for _, cl := range list {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				fc.expr(e, st)
			}
			s, term := fc.stmts(cl.Body, st.clone())
			if !term {
				exits = append(exits, s)
			}
		case *ast.CommClause:
			cs := st.clone()
			cs, _ = fc.stmt(cl.Comm, cs)
			s, term := fc.stmts(cl.Body, cs)
			if !term {
				exits = append(exits, s)
			}
		}
	}
	if includeEntry {
		exits = append(exits, st)
	}
	if len(exits) == 0 {
		return st // every clause terminates; the successor is unreachable
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = intersect(out, e)
	}
	return out
}

func (fc *fnChecker) deferStmt(s *ast.DeferStmt, st lockState) {
	// defer mu.Unlock() releases at function exit: the mutex stays
	// held for the remainder of the body, so the state is untouched.
	if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			if isMutexType(fc.pass.TypesInfo.TypeOf(sel.X)) {
				return
			}
		}
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		for _, a := range s.Call.Args {
			fc.expr(a, st)
		}
		fc.funcLit(lit)
		return
	}
	fc.expr(s.Call.Fun, st)
	for _, a := range s.Call.Args {
		fc.expr(a, st)
	}
}

// funcLit analyzes a closure body against an empty lock set: it may
// run on any goroutine, so locks held at the creation site don't
// transfer. Locks the closure acquires itself are tracked normally.
func (fc *fnChecker) funcLit(lit *ast.FuncLit) {
	fc.stmts(lit.Body.List, lockState{})
}

// expr walks an expression in read position, updating st for lock
// operations and checking guarded-field accesses.
func (fc *fnChecker) expr(e ast.Expr, st lockState) {
	switch e := e.(type) {
	case nil, *ast.Ident, *ast.BasicLit:
	case *ast.ParenExpr:
		fc.expr(e.X, st)
	case *ast.SelectorExpr:
		if fc.isGuarded(e) {
			fc.access(e, st, false)
		}
		fc.expr(e.X, st)
	case *ast.StarExpr:
		fc.expr(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking a guarded field's address lets it escape the
			// critical section; require the write mode.
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok && fc.isGuarded(sel) {
				fc.access(sel, st, true)
				fc.expr(sel.X, st)
				return
			}
		}
		fc.expr(e.X, st)
	case *ast.BinaryExpr:
		fc.expr(e.X, st)
		fc.expr(e.Y, st)
	case *ast.IndexExpr:
		fc.expr(e.X, st)
		fc.expr(e.Index, st)
	case *ast.IndexListExpr:
		fc.expr(e.X, st)
		for _, i := range e.Indices {
			fc.expr(i, st)
		}
	case *ast.SliceExpr:
		fc.expr(e.X, st)
		fc.expr(e.Low, st)
		fc.expr(e.High, st)
		fc.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		fc.expr(e.X, st)
	case *ast.CallExpr:
		fc.call(e, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			fc.expr(el, st)
		}
	case *ast.KeyValueExpr:
		fc.expr(e.Key, st)
		fc.expr(e.Value, st)
	case *ast.FuncLit:
		fc.funcLit(e)
	}
}

func (fc *fnChecker) call(e *ast.CallExpr, st lockState) {
	if fc.lockOp(e, st) {
		return
	}
	// delete(x.guardedMap, k) writes the field.
	if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) >= 1 {
		if b, ok := fc.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
			if sel, ok := ast.Unparen(e.Args[0]).(*ast.SelectorExpr); ok && fc.isGuarded(sel) {
				fc.access(sel, st, true)
				fc.expr(sel.X, st)
				for _, a := range e.Args[1:] {
					fc.expr(a, st)
				}
				return
			}
		}
	}
	fc.lockedCall(e, st)
	fc.expr(e.Fun, st)
	for _, a := range e.Args {
		fc.expr(a, st)
	}
}

// lockOp recognizes Lock/RLock/Unlock/RUnlock calls on sync mutexes
// and updates st in place. It reports true when e was such a call.
func (fc *fnChecker) lockOp(e *ast.CallExpr, st lockState) bool {
	fn := methodOf(fc.pass.TypesInfo, e)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	var bit lockMode
	var acquire bool
	switch fn.Name() {
	case "Lock":
		bit, acquire = lockWrite, true
	case "RLock":
		bit, acquire = lockRead, true
	case "Unlock":
		bit, acquire = lockWrite, false
	case "RUnlock":
		bit, acquire = lockRead, false
	default:
		return false
	}
	sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
	if !ok {
		return true
	}
	root, path, ok := selectorPath(fc.pass.TypesInfo, sel.X)
	if !ok {
		return true // untrackable mutex expression: no state change
	}
	key := lockKey{root, path}
	if acquire {
		st[key] |= bit
	} else {
		st[key] &^= bit
		if st[key] == 0 {
			delete(st, key)
		}
	}
	return true
}

// lockedCall checks that a call to a *Locked method holds the
// receiver's guard mutexes in write mode.
func (fc *fnChecker) lockedCall(e *ast.CallExpr, st lockState) {
	fn := calleeOf(fc.pass.TypesInfo, e)
	if fn == nil || !strings.HasSuffix(fn.Name(), "Locked") {
		return
	}
	mutexes, ok := fc.c.lockedMutexes(fn)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	root, path, ok := selectorPath(fc.pass.TypesInfo, sel.X)
	if !ok {
		return
	}
	for _, m := range mutexes {
		if st[lockKey{root, path + "." + m}]&lockWrite == 0 {
			fc.pass.Reportf(e.Pos(), "call to %s without holding %s", fn.Name(), m)
		}
	}
}

// assignTarget checks an assignment LHS: storing to a guarded field
// (or an element of one) requires the write mode.
func (fc *fnChecker) assignTarget(lhs ast.Expr, st lockState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if fc.isGuarded(l) {
			fc.access(l, st, true)
			fc.expr(l.X, st)
			return
		}
		fc.expr(l, st)
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok && fc.isGuarded(sel) {
			fc.access(sel, st, true)
			fc.expr(sel.X, st)
			fc.expr(l.Index, st)
			return
		}
		fc.expr(l, st)
	case *ast.StarExpr:
		fc.expr(l.X, st)
	case *ast.Ident:
		// Local or blank target: nothing guarded.
	default:
		fc.expr(lhs, st)
	}
}

func (fc *fnChecker) isGuarded(sel *ast.SelectorExpr) bool {
	obj := fc.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	_, ok := fc.c.guards[obj]
	return ok
}

func (fc *fnChecker) access(sel *ast.SelectorExpr, st lockState, write bool) {
	obj := fc.pass.TypesInfo.Uses[sel.Sel]
	gi := fc.c.guards[obj]
	root, path, ok := selectorPath(fc.pass.TypesInfo, sel.X)
	if !ok {
		return // untrackable owner: give the benefit of the doubt
	}
	mode := st[lockKey{root, path + "." + gi.mutex}]
	switch {
	case write && mode&lockWrite == 0:
		if mode&lockRead != 0 {
			fc.pass.Reportf(sel.Sel.Pos(), "field %s written while holding only %s.RLock", sel.Sel.Name, gi.mutex)
		} else {
			fc.pass.Reportf(sel.Sel.Pos(), "field %s written without holding %s", sel.Sel.Name, gi.mutex)
		}
	case !write && mode == 0:
		fc.pass.Reportf(sel.Sel.Pos(), "field %s read without holding %s", sel.Sel.Name, gi.mutex)
	}
}
