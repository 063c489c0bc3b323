package taint

import (
	"go/ast"
	"go/token"
	"go/types"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/cfg"
)

// state maps each tracked local variable to the taint it may carry at a
// program point. Absent object = clean.
type state map[types.Object]Taint

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinInto merges src into dst (the meet over paths: union), reporting
// whether dst changed. Per-object unions are independent, so map
// iteration order cannot influence the result.
func joinInto(dst, src state) bool {
	changed := false
	for obj, t := range src {
		u := dst[obj].union(t)
		if !u.equal(dst[obj]) {
			dst[obj] = u
			changed = true
		}
	}
	return changed
}

// findingKey dedups findings: one report per (position, sink, kind)
// even when a value reaches the same sink along several paths.
type findingKey struct {
	pos  token.Pos
	sink string
	kind Kind
}

// memoKey namespaces one spec's summary cache inside Pass.Memo.
type memoKey string

// engine binds a spec to a pass and to the run-wide summary cache, so
// helper functions are summarized once no matter how many passes (one
// per package) consult them.
type engine struct {
	pass *analysis.Pass
	spec *Spec
	sums map[*types.Func]*sumEntry
	seen map[findingKey]bool
}

func newEngine(pass *analysis.Pass, spec *Spec) *engine {
	sums := pass.Memo(memoKey(spec.Name), func() any {
		return make(map[*types.Func]*sumEntry)
	}).(map[*types.Func]*sumEntry)
	return &engine{
		pass: pass,
		spec: spec,
		sums: sums,
		seen: make(map[findingKey]bool),
	}
}

// analyzeTop runs the dataflow over one function declaration or literal
// with no seeds and live reporting.
func (e *engine) analyzeTop(fnNode ast.Node, fn *types.Func, info *types.Info, report func(Finding)) {
	fr := e.newFuncRun(fnNode, fn, info, 0)
	fr.report = report
	fr.run(nil)
}

// funcRun is the dataflow analysis of one function body: the fixpoint
// iteration, then a reporting pass over the converged block states.
type funcRun struct {
	e     *engine
	ctx   *Ctx
	info  *types.Info
	graph *cfg.Graph
	depth int

	// ranges maps each range statement's operand expression — the node
	// the CFG places in the loop-head block — back to the statement, so
	// the implicit key/value assignment can be modeled.
	ranges map[ast.Node]*ast.RangeStmt
	// goCaps lists, per `go func(){...}()` statement, the enclosing
	// function's variables the spawned literal assigns to.
	goCaps map[*ast.GoStmt][]types.Object
	// namedResults are the declared result variables (for bare returns).
	namedResults []types.Object
	// resultSink, when set, makes every returned value a sink.
	resultSink *Sink

	report     func(Finding)
	paramSinks []*ParamSinkRef // non-nil in summary mode
	retTaints  []Taint         // per result index
	final      bool            // reporting pass (post-fixpoint)

	// Summary mode only: params indexes the parameter variables,
	// paramSanitize collects the in-place kills applied to them, and
	// exits holds the converged state at every exit block.
	params        map[types.Object]int
	paramSanitize []*ParamSanitizer
	exits         []state
}

func (e *engine) newFuncRun(fnNode ast.Node, fn *types.Func, info *types.Info, depth int) *funcRun {
	var body *ast.BlockStmt
	var ftype *ast.FuncType
	switch n := fnNode.(type) {
	case *ast.FuncDecl:
		body = n.Body
		ftype = n.Type
	case *ast.FuncLit:
		body = n.Body
		ftype = n.Type
		// Literals are analyzed as anonymous functions: hooks must not
		// attribute the enclosing declaration's identity to them.
		fn = nil
	}
	fr := &funcRun{
		e:     e,
		ctx:   &Ctx{Pass: e.pass, Info: info, Fn: fn},
		info:  info,
		graph: e.pass.CFG(fnNode),
		depth: depth,
	}
	fr.scanBody(fnNode, body)
	nres := 0
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			if len(f.Names) == 0 {
				nres++
				continue
			}
			nres += len(f.Names)
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					fr.namedResults = append(fr.namedResults, obj)
				}
			}
		}
	}
	fr.retTaints = make([]Taint, nres)
	if e.spec.ReturnSink != nil {
		if sk, ok := e.spec.ReturnSink(fr.ctx); ok {
			fr.resultSink = &sk
		}
	}
	return fr
}

// scanBody precomputes the range-operand and goroutine-capture indexes
// for the function's own statements (nested literals excluded — they
// get their own funcRuns).
func (fr *funcRun) scanBody(fnNode ast.Node, body *ast.BlockStmt) {
	fr.ranges = make(map[ast.Node]*ast.RangeStmt)
	fr.goCaps = make(map[*ast.GoStmt][]types.Object)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			fr.ranges[n.X] = n
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				fr.goCaps[n] = capturedMutations(fr.info, lit, fnNode)
			}
		}
		return true
	})
}

// capturedMutations returns the variables of the enclosing function
// (declared between fnNode's start and the literal) that lit's body
// assigns to, in declaration order.
func capturedMutations(info *types.Info, lit *ast.FuncLit, fnNode ast.Node) []types.Object {
	seen := make(map[types.Object]bool)
	var out []types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			obj := rootObj(info, l)
			if obj == nil || seen[obj] {
				continue
			}
			if obj.Pos() >= fnNode.Pos() && obj.Pos() < lit.Pos() {
				seen[obj] = true
				out = append(out, obj)
			}
		}
		return true
	})
	// Declaration order keeps hook invocation (and so source positions)
	// deterministic.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos() < out[j-1].Pos(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// run executes the worklist fixpoint from seeds, then re-walks every
// reachable block with its converged in-state to collect findings and
// return-value taint. Termination: in-states only grow under joinInto,
// and Taint is bounded by the finite kind vocabulary.
func (fr *funcRun) run(seeds state) {
	blocks := fr.graph.Blocks
	in := make([]state, len(blocks))
	entry := fr.graph.Entry()
	if seeds == nil {
		in[entry.Index] = make(state)
	} else {
		in[entry.Index] = seeds.clone()
	}
	work := []*cfg.Block{entry}
	queued := make([]bool, len(blocks))
	queued[entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := fr.transfer(in[b.Index].clone(), b)
		for _, succ := range b.Succs {
			changed := false
			if in[succ.Index] == nil {
				in[succ.Index] = out.clone()
				changed = true
			} else {
				changed = joinInto(in[succ.Index], out)
			}
			if changed && !queued[succ.Index] {
				work = append(work, succ)
				queued[succ.Index] = true
			}
		}
	}
	fr.final = true
	for _, b := range blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		out := fr.transfer(in[b.Index].clone(), b)
		if fr.params != nil && len(b.Succs) == 0 {
			fr.exits = append(fr.exits, out)
		}
	}
}

// sanitizedParams finalizes a summary's ParamSanitize: parameter i
// counts as sanitized in place only when a sanitizer was applied to it,
// its pseudo-kind is gone at every exit (so no path skips the kill),
// and the body never rebinds the parameter variable (which would also
// drop the pseudo-kind without touching the caller's value). Variadic
// parameters are excluded: the call site passes a fresh slice.
func (fr *funcRun) sanitizedParams(body *ast.BlockStmt, sig *types.Signature) []*ParamSanitizer {
	if len(fr.exits) == 0 {
		return nil
	}
	var out []*ParamSanitizer
	for obj, i := range fr.params {
		ps := fr.paramSanitize[i]
		if ps == nil || (sig.Variadic() && i == sig.Params().Len()-1) || rebinds(fr.info, body, obj) {
			continue
		}
		kept := true
		for _, st := range fr.exits {
			if st[obj].has(paramKind(i)) {
				kept = false
				break
			}
		}
		if !kept {
			continue
		}
		if out == nil {
			out = make([]*ParamSanitizer, len(fr.paramSanitize))
		}
		out[i] = ps
	}
	return out
}

// rebinds reports whether body assigns to obj as a whole variable.
func rebinds(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// transfer applies one block's nodes to st in execution order.
func (fr *funcRun) transfer(st state, b *cfg.Block) state {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fr.assign(st, n)
		case *ast.DeclStmt:
			fr.declStmt(st, n)
		case *ast.ReturnStmt:
			fr.returnStmt(st, n)
		case *ast.ExprStmt:
			fr.expr(st, n.X)
		case *ast.SendStmt:
			fr.expr(st, n.Chan)
			fr.expr(st, n.Value)
		case *ast.GoStmt:
			fr.goStmt(st, n)
		case *ast.DeferStmt:
			fr.call(st, n.Call)
		case *ast.IncDecStmt:
			// x++ cannot change x's taint kind set.
		case ast.Expr:
			// A decomposed condition, switch tag, case expression — or a
			// range operand, which carries the implicit loop-var binding.
			if rng, ok := fr.ranges[n]; ok {
				fr.rangeHead(st, rng)
			} else {
				fr.expr(st, n)
			}
		}
	}
	return st
}

// rangeHead models `for k, v := range x`: both loop variables inherit
// the container's taint plus whatever the spec says iterating this
// container confers (map iteration order, channel arrival order).
func (fr *funcRun) rangeHead(st state, rng *ast.RangeStmt) {
	t := fr.expr(st, rng.X)
	if fr.e.spec.RangeSource != nil {
		if src, ok := fr.e.spec.RangeSource(fr.ctx, rng); ok {
			t = t.add(src)
		}
	}
	fr.setLHS(st, rng.Key, t, true)
	fr.setLHS(st, rng.Value, t, true)
}

func (fr *funcRun) goStmt(st state, g *ast.GoStmt) {
	fr.call(st, g.Call)
	if fr.e.spec.GoCapture == nil {
		return
	}
	for _, obj := range fr.goCaps[g] {
		if src, ok := fr.e.spec.GoCapture(fr.ctx, g, obj); ok {
			st[obj] = st[obj].add(src)
		}
	}
}

func (fr *funcRun) assign(st state, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		// Op-assign (+=, |=, ...): reads and rebuilds the target, which
		// makes it an accumulation point for marker promotion.
		lhs := as.Lhs[0]
		t := fr.expr(st, lhs).union(fr.expr(st, as.Rhs[0]))
		t = fr.accum(t, as.TokPos, fr.typeOf(lhs))
		fr.setLHS(st, lhs, t, true)
		return
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// x, y := f(): each target gets its own result slot's taint when
		// the callee is summarized; otherwise all share the union (map
		// reads, type assertions, channel receives, external calls).
		if ce, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			t, per := fr.callN(st, ce)
			if len(per) == len(as.Lhs) {
				for i, l := range as.Lhs {
					fr.setLHS(st, l, per[i], true)
				}
				return
			}
			for _, l := range as.Lhs {
				fr.setLHS(st, l, t, true)
			}
			return
		}
		t := fr.expr(st, as.Rhs[0])
		for _, l := range as.Lhs {
			fr.setLHS(st, l, t, true)
		}
		return
	}
	for i, l := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		t := fr.expr(st, as.Rhs[i])
		// A self-referential rebuild (s = s + k, xs = append handled in
		// call) accumulates: the target's new value embeds its old one.
		if obj := rootObj(fr.info, l); obj != nil && exprUses(fr.info, as.Rhs[i], obj) {
			t = fr.accum(t, as.TokPos, fr.typeOf(l))
		}
		fr.setLHS(st, l, t, true)
	}
}

func (fr *funcRun) declStmt(st state, ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, sp := range gd.Specs {
		vs, ok := sp.(*ast.ValueSpec)
		if !ok {
			continue
		}
		switch {
		case len(vs.Values) == 0:
			for _, name := range vs.Names {
				fr.setLHS(st, name, nil, true)
			}
		case len(vs.Values) == len(vs.Names):
			for i, name := range vs.Names {
				fr.setLHS(st, name, fr.expr(st, vs.Values[i]), true)
			}
		default: // var x, y = f()
			if ce, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				t, per := fr.callN(st, ce)
				if len(per) == len(vs.Names) {
					for i, name := range vs.Names {
						fr.setLHS(st, name, per[i], true)
					}
					continue
				}
				for _, name := range vs.Names {
					fr.setLHS(st, name, t, true)
				}
				continue
			}
			t := fr.expr(st, vs.Values[0])
			for _, name := range vs.Names {
				fr.setLHS(st, name, t, true)
			}
		}
	}
}

func (fr *funcRun) returnStmt(st state, ret *ast.ReturnStmt) {
	check := func(i int, t Taint, pos token.Pos) {
		if i >= 0 && i < len(fr.retTaints) {
			fr.retTaints[i] = fr.retTaints[i].union(t)
		}
		if fr.resultSink != nil {
			fr.sinkCheck(t, *fr.resultSink, pos, "")
		}
	}
	switch {
	case len(ret.Results) == 0:
		for i, obj := range fr.namedResults {
			check(i, st[obj], ret.Pos())
		}
	case len(ret.Results) == len(fr.retTaints):
		for i, r := range ret.Results {
			check(i, fr.expr(st, r), r.Pos())
		}
	default:
		// `return f()` forwarding a tuple: the single expression's union
		// taint conservatively reaches every result slot.
		for _, r := range ret.Results {
			t := fr.expr(st, r)
			check(0, t, r.Pos())
			for i := 1; i < len(fr.retTaints); i++ {
				fr.retTaints[i] = fr.retTaints[i].union(t)
			}
		}
	}
}

// setLHS writes taint t to an assignment target. Identifiers get a
// strong update (reassignment cleans); field, index and pointer targets
// weakly taint their root variable (x.f = tainted taints x, but
// x.f = clean cannot untaint x).
func (fr *funcRun) setLHS(st state, lhs ast.Expr, t Taint, strong bool) {
	if lhs == nil {
		return
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := fr.objOf(id)
		if obj == nil {
			return
		}
		if strong {
			if len(t) == 0 {
				delete(st, obj)
			} else {
				st[obj] = t
			}
		} else {
			st[obj] = st[obj].union(t)
		}
		return
	}
	// Evaluate the target expression itself (an index or selector may
	// contain calls), then weak-update the root.
	fr.expr(st, lhs)
	if obj := rootObj(fr.info, lhs); obj != nil && len(t) > 0 {
		st[obj] = st[obj].union(t)
	}
}

// accum runs the marker-promotion hook at an accumulation point.
func (fr *funcRun) accum(t Taint, pos token.Pos, target types.Type) Taint {
	sp := fr.e.spec
	if sp.Accum == nil || !fr.hasMarker(t) {
		return t
	}
	if src, ok := sp.Accum(fr.ctx, pos, target, t); ok {
		t = t.add(src)
	}
	return t
}

func (fr *funcRun) hasMarker(t Taint) bool {
	if fr.e.spec.IsMarker == nil {
		return false
	}
	for _, s := range t {
		if fr.e.spec.IsMarker(s.Kind) {
			return true
		}
	}
	return false
}

// expr computes the taint of e in st, applying call effects (sources,
// sanitizers, sinks, summaries) along the way.
func (fr *funcRun) expr(st state, e ast.Expr) Taint {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fr.expr(st, e.X)
	case *ast.Ident:
		if obj := fr.objOf(e); obj != nil {
			return st[obj]
		}
		return nil
	case *ast.CallExpr:
		return fr.call(st, e)
	case *ast.UnaryExpr:
		t := fr.expr(st, e.X)
		if e.Op == token.ARROW && fr.e.spec.SourceExpr != nil {
			if src, ok := fr.e.spec.SourceExpr(fr.ctx, e); ok {
				t = t.add(src)
			}
		}
		return t
	case *ast.StarExpr:
		return fr.expr(st, e.X)
	case *ast.BinaryExpr:
		return fr.expr(st, e.X).union(fr.expr(st, e.Y))
	case *ast.SelectorExpr:
		// Field-insensitive: x.f carries x's taint. (A package
		// qualifier's Ident resolves to no tracked object.)
		return fr.expr(st, e.X)
	case *ast.IndexExpr:
		// The element read depends on both container and index value.
		return fr.expr(st, e.X).union(fr.expr(st, e.Index))
	case *ast.IndexListExpr:
		return fr.expr(st, e.X)
	case *ast.SliceExpr:
		t := fr.expr(st, e.X)
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			if ix != nil {
				t = t.union(fr.expr(st, ix))
			}
		}
		return t
	case *ast.TypeAssertExpr:
		return fr.expr(st, e.X)
	case *ast.CompositeLit:
		var t Taint
		for _, el := range e.Elts {
			t = t.union(fr.expr(st, el))
		}
		return t
	case *ast.KeyValueExpr:
		return fr.expr(st, e.Key).union(fr.expr(st, e.Value))
	}
	// Literals, function literals (opaque), type expressions.
	return nil
}

// call applies a call expression's effects and returns its taint (the
// union over all results, for single-value expression contexts).
func (fr *funcRun) call(st state, call *ast.CallExpr) Taint {
	t, _ := fr.callN(st, call)
	return t
}

// callN additionally returns per-result taints when the callee has a
// module-local summary, so tuple destructuring (`a, b, err := f()`)
// keeps each slot's taint separate. A nil slice means no per-result
// information: the caller should use the union for every target.
func (fr *funcRun) callN(st state, call *ast.CallExpr) (Taint, []Taint) {
	sp := fr.e.spec
	// Type conversions carry their operand's taint.
	if tv, ok := fr.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return fr.expr(st, call.Args[0]), nil
		}
		return nil, nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := fr.info.Uses[id].(*types.Builtin); ok {
			return fr.builtin(st, id.Name, call), nil
		}
	}
	argTaints := make([]Taint, len(call.Args))
	for i, a := range call.Args {
		argTaints[i] = fr.expr(st, a)
	}
	// A method call's receiver expression may itself contain calls, and
	// its taint feeds the conservative default below.
	var recvTaint Taint
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvTaint = fr.expr(st, sel.X)
	}
	var result Taint
	if sp.SourceExpr != nil {
		if src, ok := sp.SourceExpr(fr.ctx, call); ok {
			result = result.add(src)
		}
	}
	if sp.Sanitize != nil {
		if idxs, kills, killParams, ok := sp.Sanitize(fr.ctx, call); ok {
			for _, i := range idxs {
				if i >= 0 && i < len(call.Args) {
					fr.sanitizeObj(st, call.Args[i], kills, killParams)
				}
			}
		}
	}
	if sp.SinkCall != nil {
		if sk, ok := sp.SinkCall(fr.ctx, call); ok {
			idxs := sk.Args
			if idxs == nil {
				idxs = make([]int, len(call.Args))
				for i := range idxs {
					idxs[i] = i
				}
			}
			for _, i := range idxs {
				if i >= 0 && i < len(call.Args) {
					fr.sinkCheck(argTaints[i], sk, call.Args[i].Pos(), "")
				}
			}
		}
	}
	// Interprocedural step. Module-local callees contribute through
	// their memoized summaries (a nil summary — recursion cycle or depth
	// bound — is trusted clean). Everything else, standard library and
	// calls through function values, gets the conservative default: the
	// result carries the union of argument and receiver taint, so
	// time.Now().Round(d) and fmt.Sprintf("%v", tainted) stay tainted.
	callee := cfg.Callee(fr.info, call)
	if callee != nil && fr.e.pass.CallGraph().DeclOf(callee) != nil {
		sum := fr.e.summaryOf(callee, fr.depth+1)
		if sum == nil {
			return result, nil
		}
		sig, _ := callee.Type().(*types.Signature)
		np := 0
		if sig != nil {
			np = sig.Params().Len()
		}
		// paramOf maps an argument index to its parameter (variadic
		// arguments all land on the final parameter).
		paramOf := func(i int) int {
			if i < np {
				return i
			}
			return np - 1
		}
		for i, at := range argTaints {
			if np == 0 {
				break
			}
			pi := paramOf(i)
			if pi < len(sum.ParamSink) && sum.ParamSink[pi] != nil {
				ps := sum.ParamSink[pi]
				fr.sinkCheck(at, Sink{Desc: ps.Desc, Strict: ps.Strict},
					call.Args[i].Pos(), callee.Name())
			}
		}
		// A callee that sanitizes a parameter in place (a sorting
		// helper) sanitizes the caller's argument, exactly as the
		// direct sanitizer call inside it would.
		for i := range call.Args {
			if i < len(sum.ParamSanitize) && sum.ParamSanitize[i] != nil {
				ps := sum.ParamSanitize[i]
				fr.sanitizeObj(st, call.Args[i], ps.Kills, ps.KillParams)
			}
		}
		// Resolve each result slot's taint: param pseudo-kinds stand for
		// the matching arguments' taints, everything else passes through.
		perResult := make([]Taint, len(sum.Results))
		for r, rt := range sum.Results {
			out := result
			for _, s := range rt {
				pi, isP := isParamKind(s.Kind)
				if !isP {
					out = out.add(s)
					continue
				}
				for i, at := range argTaints {
					if np > 0 && paramOf(i) == pi {
						out = out.union(at)
					}
				}
			}
			perResult[r] = out
		}
		union := result
		for _, rt := range perResult {
			union = union.union(rt)
		}
		return union, perResult
	}
	result = result.union(recvTaint)
	for _, at := range argTaints {
		result = result.union(at)
	}
	return result, nil
}

// builtin models the handful of built-ins with taint behavior; append
// is the canonical accumulation point.
func (fr *funcRun) builtin(st state, name string, call *ast.CallExpr) Taint {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return nil
		}
		base := fr.expr(st, call.Args[0])
		var elems Taint
		for _, a := range call.Args[1:] {
			elems = elems.union(fr.expr(st, a))
		}
		elems = fr.accum(elems, call.Pos(), fr.typeOf(call.Args[0]))
		return base.union(elems)
	case "min", "max", "complex", "real", "imag":
		var t Taint
		for _, a := range call.Args {
			t = t.union(fr.expr(st, a))
		}
		return t
	default:
		// len, cap, make, new, copy, delete, clear, close, panic, ...:
		// evaluate arguments for their effects; the result (if any) does
		// not carry element taint — a count or fresh value is clean.
		for _, a := range call.Args {
			fr.expr(st, a)
		}
		return nil
	}
}

// sanitizeObj removes the killed kinds from the root variable of arg.
// In summary mode a kill applied to a parameter variable is recorded
// for the summary's ParamSanitize.
func (fr *funcRun) sanitizeObj(st state, arg ast.Expr, kills func(Kind) bool, killParams bool) {
	obj := rootObj(fr.info, arg)
	if obj == nil {
		return
	}
	if i, ok := fr.params[obj]; ok && fr.final {
		fr.paramSanitize[i] = fr.paramSanitize[i].both(&ParamSanitizer{Kills: kills, KillParams: killParams})
	}
	var kept Taint
	for _, s := range st[obj] {
		if _, isP := isParamKind(s.Kind); isP {
			if killParams {
				continue
			}
			kept = append(kept, s)
			continue
		}
		if kills != nil && kills(s.Kind) {
			continue
		}
		kept = append(kept, s)
	}
	if len(kept) == 0 {
		delete(st, obj)
	} else {
		st[obj] = kept
	}
}

// sinkCheck reports each reportable source of t reaching sink sk. Param
// pseudo-kinds are recorded into the summary instead; marker kinds only
// fire at strict sinks.
func (fr *funcRun) sinkCheck(t Taint, sk Sink, pos token.Pos, via string) {
	sp := fr.e.spec
	for _, s := range t {
		if pi, ok := isParamKind(s.Kind); ok {
			if fr.paramSinks != nil && pi < len(fr.paramSinks) {
				if old := fr.paramSinks[pi]; old == nil || (!old.Strict && sk.Strict) {
					fr.paramSinks[pi] = &ParamSinkRef{Desc: sk.Desc, Strict: sk.Strict}
				}
			}
			continue
		}
		if !sk.Strict && sp.IsMarker != nil && sp.IsMarker(s.Kind) {
			continue
		}
		if !fr.final || fr.report == nil {
			continue
		}
		key := findingKey{pos: pos, sink: sk.Desc, kind: s.Kind}
		if fr.e.seen[key] {
			continue
		}
		fr.e.seen[key] = true
		fr.report(Finding{Pos: pos, Sink: sk.Desc, Source: s, Via: via})
	}
}

func (fr *funcRun) objOf(id *ast.Ident) types.Object {
	if obj := fr.info.Uses[id]; obj != nil {
		return obj
	}
	return fr.info.Defs[id]
}

func (fr *funcRun) typeOf(e ast.Expr) types.Type {
	if tv, ok := fr.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// rootObj resolves the base variable of an lvalue-shaped expression:
// x, x.f, x[i], *x, &x, x[1:] all root at x. Returns nil for anything
// rooted elsewhere (calls, literals, package members).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				if _, ok := obj.(*types.Var); ok {
					return obj
				}
				return nil
			}
			if obj := info.Defs[x]; obj != nil {
				if _, ok := obj.(*types.Var); ok {
					return obj
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// exprUses reports whether e mentions obj (outside nested literals it
// still counts — a closure reading s inside `s = f(func() {...s...})`
// is an accumulation too).
func exprUses(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
