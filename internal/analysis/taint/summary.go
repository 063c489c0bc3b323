package taint

import (
	"go/types"
)

// A Summary is the interprocedural abstraction of one function: what a
// caller needs to know without re-walking the body at every call site.
type Summary struct {
	// Results holds, per result index, the taint that result carries.
	// Param pseudo-kind sources stand for "whatever taint the caller
	// passes for that parameter" and are resolved against the actual
	// argument taints at each call site, so `return job, code, nil`
	// taints only the first result — a clock read flowing into one
	// tuple slot does not smear over its siblings.
	Results []Taint
	// ParamSink[i], when non-nil, reports that parameter i reaches a
	// sink inside the body (directly or through further calls), so the
	// call site must treat the argument as sunk.
	ParamSink []*ParamSinkRef
	// ParamSanitize[i], when non-nil, reports that the body sanitizes
	// parameter i in place on every path to its exits (a helper that
	// sorts its argument), so the call site applies the same kill to
	// the argument's variable.
	ParamSanitize []*ParamSanitizer
}

// ParamSanitizer is the in-place kill a callee applies to a parameter,
// as reported by Spec.Sanitize (or by a further summarized callee).
type ParamSanitizer struct {
	// Kills reports which kinds the callee removes from the argument.
	Kills func(Kind) bool
	// KillParams extends the kill to parameter pseudo-kinds, so a helper
	// of a helper still re-cleans its own caller's argument.
	KillParams bool
}

// both returns the kill common to s and o: a parameter sanitized by
// two different calls only reliably loses what both of them kill.
func (s *ParamSanitizer) both(o *ParamSanitizer) *ParamSanitizer {
	if s == nil {
		return o
	}
	k1, k2 := s.Kills, o.Kills
	return &ParamSanitizer{
		Kills:      func(k Kind) bool { return k1 != nil && k2 != nil && k1(k) && k2(k) },
		KillParams: s.KillParams && o.KillParams,
	}
}

// ParamSinkRef describes the sink a parameter reaches inside a callee.
type ParamSinkRef struct {
	// Desc is the ultimate sink's description, even when reached
	// through a chain of helpers.
	Desc string
	// Strict mirrors Sink.Strict: marker kinds count too.
	Strict bool
}

// sumEntry is one memoized summary. An entry that exists but is not
// done marks an in-progress computation, which is how recursion cycles
// are broken (the recursive edge is trusted clean — optimistic, and
// deterministic because passes run in a fixed package order).
type sumEntry struct {
	done bool
	sum  *Summary
}

// summaryOf returns fn's summary, computing and memoizing it on first
// request by running the same dataflow over fn's body with each
// parameter seeded with its pseudo-kind. Returns nil — trusted clean —
// for functions outside the module, recursion cycles, and requests more
// than Spec.MaxDepth frames below a top-level analysis.
func (e *engine) summaryOf(fn *types.Func, depth int) *Summary {
	if fn == nil || e.spec.MaxDepth == 0 {
		return nil
	}
	if ent, ok := e.sums[fn]; ok {
		if ent.done {
			return ent.sum
		}
		return nil // cycle in progress
	}
	if depth > e.spec.MaxDepth {
		return nil
	}
	cg := e.pass.CallGraph()
	decl := cg.DeclOf(fn)
	info := cg.InfoOf(fn)
	ent := &sumEntry{}
	e.sums[fn] = ent
	if decl == nil || decl.Body == nil || info == nil {
		ent.done = true // not declared in this module: trusted clean
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		ent.done = true
		return nil
	}
	np := sig.Params().Len()
	seeds := make(state, np)
	fr := e.newFuncRun(decl, fn, info, depth)
	fr.params = make(map[types.Object]int, np)
	for i := 0; i < np; i++ {
		p := sig.Params().At(i)
		seeds[p] = Taint{{Pos: p.Pos(), Kind: paramKind(i), Desc: "parameter " + p.Name()}}
		fr.params[p] = i
	}
	fr.paramSinks = make([]*ParamSinkRef, np)
	fr.paramSanitize = make([]*ParamSanitizer, np)
	fr.run(seeds)
	ent.sum = &Summary{Results: fr.retTaints, ParamSink: fr.paramSinks,
		ParamSanitize: fr.sanitizedParams(decl.Body, sig)}
	ent.done = true
	return ent.sum
}
