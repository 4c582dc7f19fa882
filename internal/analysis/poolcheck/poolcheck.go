// Package poolcheck enforces the repo's pooled-buffer hygiene: every
// pooled acquire (GetWindow, GetDecoder, getSymBuf, NewTailSink, ...)
// is released on all return paths, released values are not used
// afterwards, and values never flow into the Put of a different pool
// (the decode sinks' tail-pool vs full-pool separation).
//
// The analysis is a path-sensitive walk of each function body with a
// three-state ownership lattice per acquired local:
//
//	Clean    — acquired, this path has not released it
//	Released — handed back to its pool on every path reaching here
//	Escaped  — ownership transferred (stored, returned, passed on)
//
// A return reachable while a value is Clean is a leak; any use while
// Released is a use-after-release; a second release while Released is
// a double release. Escapes are deliberate: the engine stores windows
// into propagation chains and Results transfer buffers to callers, so
// any transfer (field store, call argument, composite literal,
// closure capture, channel send) ends tracking for that path. The
// checker therefore under-reports rather than second-guessing
// ownership transfers — every report is actionable.
//
// A release deferred at any point in the function (directly or inside
// a deferred closure) covers all paths and exempts the value.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the poolcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "check that pooled acquires are released on every path, " +
		"never used after release, and returned to the pool they came from",
	Run: run,
}

// pairs maps each pooled acquire to the releases allowed for its
// value. The pairing is by name — the convention the repo holds to —
// so the analyzer needs no import-graph facts and the testdata
// fixtures stay self-contained. A method call named Release on the
// acquired value is always an allowed release.
var pairs = map[string][]string{
	"GetWindow":     {"PutWindow"},
	"ResolveWindow": {"PutWindow"},
	"GetDecoder":    {"PutDecoder"},
	"getPlainBuf":   {"putPlainBuf"},
	"getSymBuf":     {"putSymBuf"},
	"getResolveTab": {"putResolveTab"},
	"NewSink":       {"Release", "putSymBuf"},
	"NewTailSink":   {"Release", "putTailBuf"},
	"NewSlideSink":  {"Release", "putTailBuf"},
}

// releaseNames is every known release function, for wrong-pool
// detection: releasing a tracked value through a name in this set
// that is not allowed for its acquire is a pool-mixing bug.
var releaseNames = func() map[string]bool {
	m := map[string]bool{"Release": true}
	for _, rs := range pairs {
		for _, r := range rs {
			m[r] = true
		}
	}
	return m
}()

type status uint8

const (
	clean status = iota
	released
	escaped
)

// tracked is one acquired local under analysis.
type tracked struct {
	name    string // variable name
	acquire string // acquire function name
	pos     token.Pos
	allowed []string // release names valid for this acquire
}

func (t *tracked) allows(name string) bool {
	if name == "Release" {
		return true
	}
	for _, a := range t.allowed {
		if a == name {
			return true
		}
	}
	return false
}

// owned is the per-path fact about one acquired object.
type owned struct {
	t *tracked
	s status
}

// state is the per-path ownership map, keyed by the variable's object
// so re-acquiring into the same variable (loop hand-off) replaces the
// old fact. Absent objects are untracked.
type state struct {
	vals       map[types.Object]owned
	terminated bool
}

func newState() *state { return &state{vals: make(map[types.Object]owned)} }

func (s *state) clone() *state {
	n := newState()
	for k, v := range s.vals {
		n.vals[k] = v
	}
	n.terminated = s.terminated
	return n
}

// merge folds other into s as the join of two incoming paths: Clean
// dominates (a may-leak on either path is a may-leak), then Escaped,
// then Released.
func (s *state) merge(other *state) {
	if other == nil || other.terminated {
		return
	}
	if s.terminated {
		s.vals, s.terminated = other.vals, false
		return
	}
	for k, v := range other.vals {
		cur, ok := s.vals[k]
		if !ok {
			s.vals[k] = v
			continue
		}
		s.vals[k] = owned{t: cur.t, s: joinStatus(cur.s, v.s)}
	}
}

func joinStatus(a, b status) status {
	if a == clean || b == clean {
		return clean
	}
	if a == escaped || b == escaped {
		return escaped
	}
	return released
}

func run(pass *analysis.Pass) error {
	analysis.ForEachFunc(pass, func(fs analysis.FuncScope) {
		newChecker(pass, fs).check()
	})
	return nil
}

// loopFrame accumulates the states of break statements targeting one
// loop (or switch/select, which consume unlabeled breaks).
type loopFrame struct {
	label     string
	isLoop    bool
	breaks    *state
	continues *state
}

type checker struct {
	pass   *analysis.Pass
	fn     analysis.FuncScope
	defers map[types.Object]bool // objects released by a defer
	// errFor maps the error object of a two-value acquire (w, err :=
	// ResolveWindow(...)) to the value object: on the err != nil branch
	// the value is nil by contract (released inside the acquire), so it
	// carries no obligation there.
	errFor  map[types.Object]types.Object
	frames  []*loopFrame
	abort   bool   // goto seen: give up on this function
	pending string // label attached to the next loop statement
}

func newChecker(pass *analysis.Pass, fs analysis.FuncScope) *checker {
	return &checker{
		pass:   pass,
		fn:     fs,
		defers: map[types.Object]bool{},
		errFor: map[types.Object]types.Object{},
	}
}

func (c *checker) check() {
	c.collectDefers()
	st := newState()
	c.walkList(c.fn.Body.List, st)
	if !c.abort && !st.terminated {
		// Falling off the end of the body is an implicit return.
		c.reportLeaks(st, c.fn.Body.End())
	}
}

// collectDefers records every object released by a defer statement —
// directly (defer PutWindow(w)) or inside a deferred closure (defer
// func() { tracked.PutWindow(ctx) }()). Deferred releases cover all
// return paths, so such objects are exempt from leak tracking.
func (c *checker) collectDefers() {
	analysis.WalkShallow(c.fn.Body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		c.markDeferredReleases(d.Call)
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					c.markDeferredReleases(call)
				}
				return true
			})
		}
		return true
	})
}

func (c *checker) markDeferredReleases(call *ast.CallExpr) {
	name, recv := c.releaseCall(call)
	if name == "" {
		return
	}
	for _, e := range call.Args {
		if id := analysis.RootIdent(e); id != nil {
			if o := c.pass.TypesInfo.Uses[id]; o != nil {
				c.defers[o] = true
			}
		}
	}
	if recv != nil {
		if o := c.pass.TypesInfo.Uses[recv]; o != nil {
			c.defers[o] = true
		}
	}
}

// releaseCall classifies call as a pool release. It returns the
// release name ("" when not a release) and, for method-form releases
// (x.Release(), pool.Put(v)), the root identifier of the receiver.
func (c *checker) releaseCall(call *ast.CallExpr) (string, *ast.Ident) {
	switch fun := c.callee(call).(type) {
	case *ast.Ident:
		if releaseNames[fun.Name] && fun.Name != "Release" {
			return fun.Name, nil
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Release" && len(call.Args) == 0 {
			return "Release", analysis.RootIdent(fun.X)
		}
		if releaseNames[fun.Sel.Name] && fun.Sel.Name != "Release" {
			// Qualified call: tracked.PutWindow(w), flate.PutDecoder(d).
			if _, ok := c.pass.TypesInfo.Selections[fun]; !ok {
				return fun.Sel.Name, nil
			}
		}
		if fun.Sel.Name == "Put" && len(call.Args) == 1 && c.isSyncPool(fun.X) {
			return "Put", nil
		}
	}
	return "", nil
}

func (c *checker) isSyncPool(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

// callee returns call's function expression with parentheses and any
// explicit instantiation stripped, so putTailBuf[uint16](b) and
// flate.NewSlideSink[byte](ctx) classify by their generic function's
// name.
func (c *checker) callee(call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	var x ast.Expr
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		x = ix.X
	case *ast.IndexListExpr:
		x = ix.X
	default:
		return fun
	}
	// Only an instantiated generic function unwraps (a function object
	// can be indexed only to instantiate it); an indexed slice or map
	// of funcs (fns[i](v)) stays opaque.
	var id *ast.Ident
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	}
	if _, ok := c.objOf(id).(*types.Func); ok {
		return ast.Unparen(x)
	}
	return fun
}

// acquireName returns the pooled-acquire name of call, or "".
func (c *checker) acquireName(call *ast.CallExpr) string {
	var name string
	switch fun := c.callee(call).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return ""
	}
	if _, ok := pairs[name]; ok {
		return name
	}
	return ""
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if o := c.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Defs[id]
}

func (c *checker) lookup(st *state, id *ast.Ident) (types.Object, owned, bool) {
	o := c.objOf(id)
	if o == nil {
		return nil, owned{}, false
	}
	ow, ok := st.vals[o]
	return o, ow, ok
}

func (c *checker) reportLeaks(st *state, pos token.Pos) {
	var leaks []*tracked
	for _, ow := range st.vals {
		if ow.s == clean {
			leaks = append(leaks, ow.t)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, t := range leaks {
		c.pass.Reportf(pos, "pooled value %s (from %s, acquired at %s) may not be released on this return path",
			t.name, t.acquire, c.pass.Fset.Position(t.pos))
	}
}

// --- statement walk ---------------------------------------------------

func (c *checker) walkList(list []ast.Stmt, st *state) {
	for i := 0; i < len(list); i++ {
		if c.abort || st.terminated {
			return
		}
		c.walkStmt(list[i], st)
	}
}

func (c *checker) walkStmt(s ast.Stmt, st *state) {
	if c.abort {
		return
	}
	switch x := s.(type) {
	case *ast.AssignStmt:
		c.walkAssign(x, st)
	case *ast.DeclStmt:
		c.walkDecl(x, st)
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if name := c.acquireName(call); name != "" {
				c.scanExprs(call.Args, st, true)
				c.pass.Reportf(call.Pos(), "result of %s is discarded: the pooled value can never be released", name)
				return
			}
		}
		c.scanExpr(x.X, st, false)
	case *ast.ReturnStmt:
		// Returning a value transfers ownership to the caller.
		c.scanExprs(x.Results, st, true)
		c.reportLeaks(st, x.Pos())
		st.terminated = true
	case *ast.IfStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.scanExpr(x.Cond, st, false)
		thenSt := st.clone()
		elseSt := st.clone()
		// Error-contract refinement: after v, err := Acquire(), the
		// branch where err is non-nil has v == nil (the acquire
		// released it), so it carries no obligation there.
		if vo, errOnThen, ok := c.errNilBranch(x.Cond); ok {
			if errOnThen {
				delete(thenSt.vals, vo)
			} else {
				delete(elseSt.vals, vo)
			}
		}
		c.walkStmt(x.Body, thenSt)
		if x.Else != nil {
			c.walkStmt(x.Else, elseSt)
		}
		*st = *thenSt
		st.merge(elseSt)
	case *ast.BlockStmt:
		c.walkList(x.List, st)
	case *ast.ForStmt:
		c.walkFor(x, st)
	case *ast.RangeStmt:
		c.walkRange(x, st)
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			c.scanExpr(x.Tag, st, false)
		}
		c.walkCases(x.Body, st, nil)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, st)
		}
		c.walkStmt(x.Assign, st)
		c.walkCases(x.Body, st, nil)
	case *ast.SelectStmt:
		c.walkSelect(x, st)
	case *ast.BranchStmt:
		c.walkBranch(x, st)
	case *ast.LabeledStmt:
		c.pending = x.Label.Name
		c.walkStmt(x.Stmt, st)
		c.pending = ""
	case *ast.DeferStmt:
		// Deferred releases were credited in the prepass; anything else
		// a defer touches is treated as captured.
		if name, _ := c.releaseCall(x.Call); name == "" {
			c.scanExpr(x.Call, st, true)
		}
	case *ast.GoStmt:
		c.scanExpr(x.Call, st, true)
	case *ast.SendStmt:
		c.scanExpr(x.Chan, st, false)
		c.scanExpr(x.Value, st, true)
	case *ast.IncDecStmt:
		c.scanExpr(x.X, st, false)
	case *ast.EmptyStmt:
	default:
		// goto (or anything unrecognized): results would be unsound.
		if b, ok := s.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			c.abort = true
			return
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				c.scanExpr(e, st, true)
				return false
			}
			return true
		})
	}
}

func (c *checker) walkAssign(x *ast.AssignStmt, st *state) {
	// Acquire form: v := Acquire(...) or v, err := Acquire(...).
	if len(x.Rhs) == 1 {
		if call, ok := ast.Unparen(stripAssert(x.Rhs[0])).(*ast.CallExpr); ok {
			if name := c.acquireName(call); name != "" {
				c.scanExprs(call.Args, st, true)
				c.killOverwritten(x.Lhs, st)
				switch lhs := x.Lhs[0].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						c.pass.Reportf(call.Pos(), "result of %s is discarded: the pooled value can never be released", name)
					} else {
						c.trackAcquire(lhs, name, st)
						if len(x.Lhs) >= 2 {
							if errID, ok := x.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
								if eo, vo := c.objOf(errID), c.objOf(lhs); eo != nil && vo != nil {
									c.errFor[eo] = vo
								}
							}
						}
					}
				default:
					// Field or element assignment: ownership transfers
					// into the owning structure (sink buffers, chunk
					// tails) whose release path returns it.
					c.scanExpr(x.Lhs[0], st, false)
				}
				c.scanExprs(x.Lhs[1:], st, false)
				return
			}
		}
	}
	c.scanExprs(x.Rhs, st, true)
	c.killOverwritten(x.Lhs, st)
	for _, l := range x.Lhs {
		if _, ok := l.(*ast.Ident); !ok {
			c.scanExpr(l, st, false)
		}
	}
}

func (c *checker) walkDecl(x *ast.DeclStmt, st *state) {
	gd, ok := x.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Names) == 1 && len(vs.Values) == 1 {
			if call, ok := ast.Unparen(stripAssert(vs.Values[0])).(*ast.CallExpr); ok {
				if name := c.acquireName(call); name != "" {
					c.scanExprs(call.Args, st, true)
					c.trackAcquire(vs.Names[0], name, st)
					continue
				}
			}
		}
		c.scanExprs(vs.Values, st, true)
	}
}

// errNilBranch recognizes `err != nil` / `err == nil` conditions for
// an error bound by a two-value acquire. It returns the acquired value
// object and whether the error-is-non-nil case is the then-branch.
func (c *checker) errNilBranch(cond ast.Expr) (types.Object, bool, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		id, ok := ast.Unparen(pair[0]).(*ast.Ident)
		if !ok {
			continue
		}
		nilID, ok := ast.Unparen(pair[1]).(*ast.Ident)
		if !ok || nilID.Name != "nil" {
			continue
		}
		eo := c.objOf(id)
		if eo == nil {
			continue
		}
		if vo, ok := c.errFor[eo]; ok {
			return vo, be.Op == token.NEQ, true
		}
	}
	return nil, false, false
}

func stripAssert(e ast.Expr) ast.Expr {
	if ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr); ok {
		return stripAssert(ta.X)
	}
	return e
}

func (c *checker) trackAcquire(id *ast.Ident, acquire string, st *state) {
	o := c.objOf(id)
	if o == nil || c.defers[o] {
		return
	}
	st.vals[o] = owned{
		t: &tracked{name: id.Name, acquire: acquire, pos: id.Pos(), allowed: pairs[acquire]},
		s: clean,
	}
}

// killOverwritten handles assignment targets: overwriting a Clean
// pooled local loses the only reference (a leak, reported here);
// overwriting a Released or Escaped one just ends its tracking.
func (c *checker) killOverwritten(lhs []ast.Expr, st *state) {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		if o, ow, ok := c.lookup(st, id); ok {
			if ow.s == clean {
				c.pass.Reportf(id.Pos(), "pooled value %s (from %s) overwritten before release: the value leaks", ow.t.name, ow.t.acquire)
			}
			delete(st.vals, o)
		}
	}
}

func (c *checker) walkFor(x *ast.ForStmt, st *state) {
	if x.Init != nil {
		c.walkStmt(x.Init, st)
	}
	if x.Cond != nil {
		c.scanExpr(x.Cond, st, false)
	}
	frame := c.pushFrame(true)
	// Two passes approximate the loop fixpoint: values acquired or
	// released on a previous iteration are visible on the next.
	body := st.clone()
	for i := 0; i < 2; i++ {
		it := body.clone()
		c.walkStmt(x.Body, it)
		if x.Post != nil && !it.terminated {
			c.walkStmt(x.Post, it)
		}
		it.merge(frame.continues)
		body.merge(it)
	}
	c.popFrame()
	after := newState()
	after.terminated = true
	if x.Cond != nil {
		// The loop may run zero or more times: body already joins the
		// entry state with every iteration's exit.
		after.merge(body)
	}
	after.merge(frame.breaks)
	*st = *after
}

func (c *checker) walkRange(x *ast.RangeStmt, st *state) {
	c.scanExpr(x.X, st, false)
	if x.Key != nil {
		c.scanExpr(x.Key, st, false)
	}
	if x.Value != nil {
		c.scanExpr(x.Value, st, false)
	}
	frame := c.pushFrame(true)
	body := st.clone()
	for i := 0; i < 2; i++ {
		it := body.clone()
		c.walkStmt(x.Body, it)
		it.merge(frame.continues)
		body.merge(it)
	}
	c.popFrame()
	after := st.clone() // a range may run zero times
	after.merge(frame.breaks)
	after.merge(body)
	*st = *after
}

// walkCases analyzes a switch (or type switch) body: each clause
// starts from the entry state; fallthrough carries one clause's exit
// into the next; the statement's exit is the join of all clause exits
// plus, when there is no default clause, the entry itself.
func (c *checker) walkCases(body *ast.BlockStmt, st *state, _ *loopFrame) {
	frame := c.pushFrame(false)
	exit := newState()
	exit.terminated = true
	hasDefault := false
	var carry *state
	for _, cs := range body.List {
		clause, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		in := st.clone()
		if carry != nil {
			in.merge(carry)
			carry = nil
		}
		for _, e := range clause.List {
			c.scanExpr(e, in, false)
		}
		fallsThrough := false
		if n := len(clause.Body); n > 0 {
			if b, ok := clause.Body[n-1].(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		c.walkList(clause.Body, in)
		if fallsThrough {
			carry = in
			continue
		}
		exit.merge(in)
	}
	c.popFrame()
	exit.merge(frame.breaks)
	if !hasDefault {
		exit.merge(st)
	}
	*st = *exit
}

func (c *checker) walkSelect(x *ast.SelectStmt, st *state) {
	frame := c.pushFrame(false)
	exit := newState()
	exit.terminated = true
	for _, cs := range x.Body.List {
		clause, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		in := st.clone()
		if clause.Comm != nil {
			c.walkStmt(clause.Comm, in)
		}
		c.walkList(clause.Body, in)
		exit.merge(in)
	}
	c.popFrame()
	exit.merge(frame.breaks)
	*st = *exit
}

func (c *checker) walkBranch(x *ast.BranchStmt, st *state) {
	switch x.Tok {
	case token.GOTO:
		c.abort = true
	case token.BREAK:
		if f := c.findFrame(x.Label, false); f != nil {
			f.breaks.merge(st)
		}
		st.terminated = true
	case token.CONTINUE:
		if f := c.findFrame(x.Label, true); f != nil {
			f.continues.merge(st)
		}
		st.terminated = true
	case token.FALLTHROUGH:
		// Handled by walkCases; reaching here means a stray fallthrough.
		st.terminated = true
	}
}

func (c *checker) pushFrame(isLoop bool) *loopFrame {
	breaks := newState()
	breaks.terminated = true
	continues := newState()
	continues.terminated = true
	f := &loopFrame{label: c.pending, isLoop: isLoop, breaks: breaks, continues: continues}
	c.pending = ""
	c.frames = append(c.frames, f)
	return f
}

func (c *checker) popFrame() {
	c.frames = c.frames[:len(c.frames)-1]
}

func (c *checker) findFrame(label *ast.Ident, loopOnly bool) *loopFrame {
	for i := len(c.frames) - 1; i >= 0; i-- {
		f := c.frames[i]
		if loopOnly && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// --- expression scan --------------------------------------------------

func (c *checker) scanExprs(list []ast.Expr, st *state, transfer bool) {
	for _, e := range list {
		c.scanExpr(e, st, transfer)
	}
}

// scanExpr applies an expression's effects on tracked values.
// transfer reports whether the expression's value flows somewhere the
// checker cannot follow (a call argument, a stored value, a returned
// value): a Clean tracked value in transfer position becomes Escaped,
// a Released one is a use-after-release. Pure reads (conditions,
// indexes, len/cap/copy) touch nothing.
func (c *checker) scanExpr(e ast.Expr, st *state, transfer bool) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		c.useIdent(x, st, transfer)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr, *ast.ParenExpr, *ast.TypeAssertExpr:
		// Derived views carry their base's ownership: passing w[:n] or
		// sink.buf onward transfers w or sink.
		if id := analysis.RootIdent(e); id != nil {
			c.useIdent(id, st, transfer)
		}
		c.scanInner(e, st, transfer)
	case *ast.CallExpr:
		c.scanCall(x, st)
	case *ast.BinaryExpr:
		c.scanExpr(x.X, st, false)
		c.scanExpr(x.Y, st, false)
	case *ast.UnaryExpr:
		c.scanExpr(x.X, st, x.Op == token.AND || transfer)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.scanExpr(kv.Value, st, true)
				continue
			}
			c.scanExpr(el, st, true)
		}
	case *ast.KeyValueExpr:
		c.scanExpr(x.Key, st, false)
		c.scanExpr(x.Value, st, true)
	case *ast.FuncLit:
		// Captured by a closure whose schedule is unknown.
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				c.useIdent(id, st, true)
			}
			return true
		})
	}
}

// scanInner descends into the sub-expressions of derived views
// (indexes, slice bounds) as pure reads.
func (c *checker) scanInner(e ast.Expr, st *state, transfer bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
	case *ast.IndexExpr:
		c.scanExpr(x.Index, st, false)
	case *ast.SliceExpr:
		c.scanExpr(x.Low, st, false)
		c.scanExpr(x.High, st, false)
		c.scanExpr(x.Max, st, false)
	case *ast.StarExpr:
	case *ast.ParenExpr:
		c.scanExpr(x.X, st, transfer)
	case *ast.TypeAssertExpr:
	}
}

func (c *checker) scanCall(call *ast.CallExpr, st *state) {
	// Release call: kill the released value, checking pool identity.
	if name, recv := c.releaseCall(call); name != "" {
		if name == "Release" && recv != nil {
			c.releaseIdent(recv, name, call, st)
			return
		}
		handled := false
		for _, a := range call.Args {
			if id := analysis.RootIdent(a); id != nil {
				if c.releaseIdent(id, name, call, st) {
					handled = true
				}
			}
		}
		if handled {
			return
		}
		// A release of something we don't track (a field, a parameter):
		// its arguments are still plain reads.
		c.scanExprs(call.Args, st, false)
		return
	}
	// Acquire in expression position (a composite-literal value, a call
	// argument, a return): the result transfers into whatever consumes
	// it. Only a bare statement-level acquire (handled at ExprStmt) or
	// an assignment to _ truly discards the value.
	if c.acquireName(call) != "" {
		c.scanExprs(call.Args, st, true)
		return
	}
	switch analysis.BuiltinName(c.pass.TypesInfo, call) {
	case "len", "cap", "copy", "print", "println", "clear", "min", "max":
		c.scanExprs(call.Args, st, false)
		return
	}
	// Unknown call: arguments (including a method receiver) may be
	// retained by the callee.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := c.pass.TypesInfo.Selections[sel]; isMethod {
			c.scanExpr(sel.X, st, true)
		}
	}
	c.scanExprs(call.Args, st, true)
}

// releaseIdent applies a release of the value named by id through
// release function name. Reports wrong-pool releases and double
// releases. Returns false when id is not tracked.
func (c *checker) releaseIdent(id *ast.Ident, name string, call *ast.CallExpr, st *state) bool {
	o, ow, ok := c.lookup(st, id)
	if !ok {
		return false
	}
	switch ow.s {
	case released:
		c.pass.Reportf(call.Pos(), "pooled value %s (from %s) released again: double release corrupts the pool", ow.t.name, ow.t.acquire)
	case clean:
		if !ow.t.allows(name) {
			c.pass.Reportf(call.Pos(), "value from %s released via %s: wrong pool (want %s)",
				ow.t.acquire, name, strings.Join(ow.t.allowed, " or "))
		}
	}
	st.vals[o] = owned{t: ow.t, s: released}
	return true
}

func (c *checker) useIdent(id *ast.Ident, st *state, transfer bool) {
	o, ow, ok := c.lookup(st, id)
	if !ok {
		return
	}
	switch ow.s {
	case released:
		c.pass.Reportf(id.Pos(), "use of %s after it was released to its pool", ow.t.name)
	case clean:
		if transfer {
			st.vals[o] = owned{t: ow.t, s: escaped}
		}
	}
}
