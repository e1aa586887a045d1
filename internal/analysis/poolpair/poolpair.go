// Package poolpair flags pool Gets whose Put can be skipped by an
// early return.
//
// Invariant: query scratch comes from sync.Pools (core.ScratchPool, the
// serving engine of both the in-memory and the disk-resident index, and
// the dynamic layer's estimator pool) so that
// serving runs at arbitrary concurrency without per-call allocation.
// A Get without a guaranteed Put does not crash — sync.Pool tolerates
// losses — but it silently re-allocates scratch on exactly the paths
// that are hardest to exercise (the error returns PR 5 threaded through
// every backend), which defeats the pool under sustained error load
// and shows up only as allocation noise in production profiles.
//
// The check, per function: every Get-like call whose result is bound
// to a variable must be released either by a deferred Put, or by a Put
// with NO return statement lexically between the Get and the Put. The
// lexical rule is a sound approximation of "Put on every path" for the
// straight-line shape all repository pool code uses: if an early
// `return` (usually `if err != nil { return ... }`) sits between Get
// and Put, the scratch leaks on that path and the analyzer says so;
// the fix is `defer`. A Get inside a return statement is exempt — that
// is the accessor shape (`return p.scratch.Get().(*T)`) which hands
// ownership to the caller.
//
// Recognized pairs:
//
//	sync.Pool:            Get        -> Put        (same receiver)
//	core.ScratchPool:     Scratch    -> PutScratch
//	                      Source     -> PutSource
//	                      Vector     -> PutVector
package poolpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"sling/internal/analysis/framework"
)

// Analyzer implements the check.
var Analyzer = &framework.Analyzer{
	Name: "poolpair",
	Doc:  "pool Get must be released by a deferred Put or a Put no return can skip; a leak on an error path defeats scratch pooling",
	Run:  run,
}

// putName maps a Get-like method name to its Put counterpart.
var putName = map[string]string{
	"Get":     "Put",
	"Scratch": "PutScratch",
	"Source":  "PutSource",
	"Vector":  "PutVector",
}

func run(pass *framework.Pass) error {
	pass.WalkStack(func(n ast.Node, stack []ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil {
			checkFunc(pass, body)
		}
		return true
	})
	return nil
}

// event is one Get, Put, deferred Put, or return inside a function
// body, in lexical order.
type event struct {
	pos      token.Pos
	end      token.Pos
	kind     string // "get", "put", "deferput", "return"
	key      string // receiver + method pair identity, for get/put
	name     string // original method name, for reporting
	inReturn bool   // gets only: inside a return statement
}

func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	var events []event
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			// Nested literals are separate functions with their own
			// Get/Put discipline; run checks them independently.
			return false
		case *ast.ReturnStmt:
			events = append(events, event{pos: v.Pos(), end: v.End(), kind: "return"})
		case *ast.CallExpr:
			if ev, ok := classify(pass.TypesInfo, v); ok {
				ev.inReturn = inside[*ast.ReturnStmt](stack)
				if ev.kind == "put" && inside[*ast.DeferStmt](stack) {
					ev.kind = "deferput"
				}
				events = append(events, ev)
			}
		}
		stack = append(stack, n)
		return true
	})

	for i, g := range events {
		if g.kind != "get" || g.inReturn {
			continue
		}
		released := false
		for _, e := range events[i+1:] {
			if e.key != g.key {
				continue
			}
			if e.kind == "deferput" {
				released = true
				break
			}
			if e.kind == "put" && !returnBetween(events, g.end, e.pos) {
				released = true
				break
			}
		}
		// A deferred Put registered before the Get (defer runs at
		// function exit regardless of registration order relative to
		// the Get, and the repo idiom is Get-then-defer) still releases.
		for _, e := range events[:i] {
			if e.key == g.key && e.kind == "deferput" {
				released = true
			}
		}
		if !released {
			pass.Reportf(g.pos,
				"%s from pool is not released on every path: defer the matching %s (an early return between Get and Put leaks the scratch)",
				g.name, putName[g.name])
		}
	}
}

// returnBetween reports whether any return statement starts strictly
// between lo and hi.
func returnBetween(events []event, lo, hi token.Pos) bool {
	for _, e := range events {
		if e.kind == "return" && e.pos > lo && e.pos < hi {
			return true
		}
	}
	return false
}

// inside reports whether the walk stack contains a node of type T.
func inside[T ast.Node](stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(T); ok {
			return true
		}
	}
	return false
}

// classify recognizes Get-like and Put-like pool method calls and
// assigns them a pairing key of the form "<receiver expr>.<pair>".
func classify(info *types.Info, call *ast.CallExpr) (event, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	name := sel.Sel.Name
	var pair, kind string
	switch name {
	case "Get", "Scratch", "Source", "Vector":
		kind = "get"
		pair = putName[name]
	case "Put", "PutScratch", "PutSource", "PutVector":
		kind = "put"
		pair = name
	default:
		return event{}, false
	}
	recv := info.TypeOf(sel.X)
	if recv == nil || !poolReceiver(recv, name) {
		return event{}, false
	}
	return event{
		pos:  call.Pos(),
		end:  call.End(),
		kind: kind,
		key:  types.ExprString(sel.X) + "." + pair,
		name: name,
	}, true
}

// poolReceiver reports whether the method receiver is one of the pool
// types the pairing discipline applies to. sync.Pool pairs Get/Put;
// the scratch pools pair their named getter/putter sets.
func poolReceiver(t types.Type, method string) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	switch {
	case pkg == "sync" && obj.Name() == "Pool":
		return method == "Get" || method == "Put"
	case obj.Name() == "ScratchPool":
		return method != "Get" && method != "Put"
	}
	return false
}
