// Package foldorder flags fan-in ordering bugs: results collected from
// multiple goroutines or drained from channels must pass through a
// canonical sort (or an order-restoring merger) before they are
// marshaled or folded into canonical bytes.
//
// The sweep engine is embarrassingly parallel — workers evaluate design
// points concurrently and a collector drains their results — so every
// result slice starts life in arrival order, which varies run to run.
// The repository's byte-identity contract (chunked and distributed
// sweeps diff clean against single-process runs) therefore hinges on
// one discipline: sort before you emit. This analyzer checks it.
//
// Sources: a value received from a channel (`<-ch`, `range ch`, a
// select comm clause) carries an arrival-order marker — harmless for a
// single handoff, reportable once accumulated into a sequence or float
// fold; a variable the body of a `go func(){...}()` literal assigns or
// appends to is tainted outright (concurrent appends interleave
// nondeterministically even under a mutex). Sinks and sanitizers are
// shared with detflow: JSON/CSV emission and //asic:canonical
// functions; sort.*/slices.Sort* restore a canonical order, and so does
// a module-local helper that sorts its argument in place on every path
// (taint.Summary.ParamSanitize) or returns a sorted slice.
// ResultMerger needs no special case: its Finish sorts internally, and
// its accumulated state lives on the receiver, which the engine
// deliberately does not track — the merger is the sanctioned path.
//
// Suppress a deliberate exception with //lint:ignore foldorder and a
// justification (e.g. a progress stream whose order is explicitly
// best-effort and excluded from the byte-identity contract).
package foldorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/taint"
)

// Analyzer is the foldorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "foldorder",
	Doc: "flags results collected from goroutines or channels that reach JSON/CSV emission or " +
		"//asic:canonical functions without a canonical sort",
	Run: run,
}

// kindChanElem marks a value received from a channel (arrival order —
// a marker until accumulated); kindFoldOrder is its promoted form;
// kindGoAppend taints accumulators mutated from spawned goroutines.
const (
	kindChanElem  taint.Kind = "chan-elem"
	kindFoldOrder taint.Kind = "fold-order"
	kindGoAppend  taint.Kind = "goroutine-order"
)

const canonicalDirective = "asic:canonical"

var spec = &taint.Spec{
	Name:     "foldorder",
	MaxDepth: 4,
	IsMarker: func(k taint.Kind) bool { return k == kindChanElem },
	SourceExpr: func(c *taint.Ctx, e ast.Expr) (taint.Source, bool) {
		u, ok := e.(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return taint.Source{}, false
		}
		return taint.Source{
			Pos:  u.Pos(),
			Kind: kindChanElem,
			Desc: "channel arrival order (<-" + types.ExprString(u.X) + ")",
		}, true
	},
	RangeSource: func(c *taint.Ctx, rng *ast.RangeStmt) (taint.Source, bool) {
		tv, ok := c.Info.Types[rng.X]
		if !ok || tv.Type == nil {
			return taint.Source{}, false
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return taint.Source{}, false
		}
		return taint.Source{
			Pos:  rng.X.Pos(),
			Kind: kindChanElem,
			Desc: "channel arrival order (range over " + types.ExprString(rng.X) + ")",
		}, true
	},
	GoCapture: func(c *taint.Ctx, g *ast.GoStmt, obj types.Object) (taint.Source, bool) {
		return taint.Source{
			Pos:  g.Pos(),
			Kind: kindGoAppend,
			Desc: "goroutine interleaving (" + obj.Name() + " is appended to from a spawned goroutine)",
		}, true
	},
	Accum: func(c *taint.Ctx, pos token.Pos, target types.Type, elem taint.Taint) (taint.Source, bool) {
		if taint.CommutativeAccum(target) {
			return taint.Source{}, false
		}
		return taint.Source{
			Pos:  pos,
			Kind: kindFoldOrder,
			Desc: "sequence accumulated in channel arrival order",
		}, true
	},
	Sanitize: func(c *taint.Ctx, call *ast.CallExpr) ([]int, func(taint.Kind) bool, bool, bool) {
		if !taint.SortSanitizer(c, call) {
			return nil, nil, false, false
		}
		kills := func(k taint.Kind) bool {
			return k == kindChanElem || k == kindFoldOrder || k == kindGoAppend
		}
		return []int{0}, kills, true, true
	},
	SinkCall: func(c *taint.Ctx, call *ast.CallExpr) (taint.Sink, bool) {
		if sk, ok := taint.EmitterSink(c, call); ok {
			return sk, true
		}
		return taint.CanonicalWriteSink(c, call, canonicalDirective)
	},
	ReturnSink: func(c *taint.Ctx) (taint.Sink, bool) {
		return taint.CanonicalReturnSink(c, canonicalDirective)
	},
}

func run(pass *analysis.Pass) error {
	taint.Run(pass, spec, func(f taint.Finding) {
		via := ""
		if f.Via != "" {
			via = fmt.Sprintf(" (via %s)", f.Via)
		}
		pass.Reportf(f.Pos, "%s reaches %s%s — restore a canonical order (sort, or fold "+
			"through ResultMerger) before emitting, or //lint:ignore foldorder with the "+
			"determinism argument", f.Source.Desc, f.Sink, via)
	})
	return nil
}
