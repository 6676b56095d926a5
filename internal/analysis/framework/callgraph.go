package framework

// Interprocedural call-graph layer. The dataflow solver in dataflow.go
// is intraprocedural; the hotpath and purecheck analyzers need to
// reason about what a function reaches *transitively* — "is this cycle
// step allocation-free all the way down", "does this memoized kernel
// write package state three calls deep". CallGraph gives them the
// static call structure: one FuncNode per declared function, edges for
// every resolvable callee (direct calls, method calls on concrete
// receivers, method values, method expressions, plain function
// references), and explicit DynCall records for the call sites whose
// callee cannot be resolved statically (func-typed values, interface
// methods) so analyzers can treat them as analysis horizons instead of
// silently missing them.
//
// Calls that appear inside a function literal are attributed to the
// enclosing declared function: the literal almost always runs on
// behalf of its creator (sort comparators, Once.Do bodies), so folding
// it in is the conservative reachability choice for a checker that
// must not miss work hidden behind a closure.
//
// The graph is built package-by-package (AddPackage) from the same
// PackageSyntax windows the FactStore plumbing already provides, so
// one graph can span every package of a lint run; generic functions
// and methods are keyed by their Origin so call sites of different
// instantiations land on the single declared body. SCCs returns the
// strongly-connected components in dependency (bottom-up) order,
// which is the evaluation order for whole-program summaries: by the
// time an analyzer summarizes a component, every callee outside the
// component is already summarized, and recursion is confined to the
// component itself.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies how a callee is reached. The set is closed:
// hotpath's TestEdgeKindDispatch drives every member below NumEdgeKinds
// through its switch, so a new reference kind surfaces the consumer.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call: f(), pkg.F(), x.M() on a
	// concrete receiver, or T.M(x) through a method expression.
	EdgeCall EdgeKind = iota
	// EdgeMethodValue is a bound method value used as a value (x.M
	// without a call); evaluating one allocates a closure binding x.
	EdgeMethodValue
	// EdgeMethodExpr is an unbound method expression used as a value
	// (T.M without a call); no receiver is bound and nothing allocates.
	EdgeMethodExpr
	// EdgeFuncRef is a plain function referenced as a value.
	EdgeFuncRef
	// NumEdgeKinds counts the members above; add new kinds before it.
	NumEdgeKinds = iota
)

// Edge is one static reference from a function to a callee.
type Edge struct {
	// Pos is the call or reference site.
	Pos token.Pos
	// Callee is the target, normalized to its generic Origin.
	Callee *types.Func
	Kind   EdgeKind
}

// DynCall is a call site with no statically resolvable callee.
type DynCall struct {
	Pos token.Pos
	// Desc names the unresolved callee shape for diagnostics
	// ("function value fn", "interface method w.Write").
	Desc string
}

// FuncNode is one declared function or method in the graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Info is the type information of the declaring package.
	Info  *types.Info
	Edges []Edge
	Dyns  []DynCall
}

// CallGraph accumulates nodes across packages. Not safe for concurrent
// use; the driver runs passes sequentially.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	// order preserves insertion order so SCC computation (and
	// therefore every summary built on it) is deterministic — node
	// maps must never dictate iteration order.
	order []*FuncNode
	pkgs  map[*types.Package]bool
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		nodes: make(map[*types.Func]*FuncNode),
		pkgs:  make(map[*types.Package]bool),
	}
}

// Node returns the graph node for fn (or its Origin), if declared in
// any added package.
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every node in insertion order.
func (g *CallGraph) Nodes() []*FuncNode { return g.order }

// HasPackage reports whether pkg's declarations are already in the
// graph.
func (g *CallGraph) HasPackage(pkg *types.Package) bool { return g.pkgs[pkg] }

// AddPackage extracts nodes and edges from one package's syntax. It is
// idempotent per package and returns the nodes added by this call in
// source order.
func (g *CallGraph) AddPackage(ps *PackageSyntax) []*FuncNode {
	if ps == nil || g.pkgs[ps.Pkg] {
		return nil
	}
	g.pkgs[ps.Pkg] = true
	var added []*FuncNode
	for _, f := range ps.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := ps.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Fn: fn, Decl: fd, Info: ps.Info}
			g.extract(node, fd.Body, ps.Info)
			g.nodes[fn] = node
			g.order = append(g.order, node)
			added = append(added, node)
		}
	}
	return added
}

// LitNode builds an unregistered node for a function literal: same
// edge extraction as declared functions, but the node joins no package
// and has no *types.Func identity. Analyzers use it to seed a walk
// from a closure (a memoized kernel, a submitted job) whose calls are
// otherwise attributed to the enclosing declaration.
func (g *CallGraph) LitNode(lit *ast.FuncLit, info *types.Info) *FuncNode {
	node := &FuncNode{Info: info}
	g.extract(node, lit.Body, info)
	return node
}

// extract walks body collecting edges and dynamic call sites.
func (g *CallGraph) extract(node *FuncNode, body ast.Node, info *types.Info) {
	// First pass: remember which expressions are call operands so the
	// reference pass below can tell x.M() from x.M-as-a-value.
	callFun := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFun[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			g.extractCall(node, x, info)
		case *ast.SelectorExpr:
			sel, ok := info.Selections[x]
			if !ok {
				// Qualified reference pkg.F as a value.
				if fn, ok := info.Uses[x.Sel].(*types.Func); ok && !callFun[x] {
					node.Edges = append(node.Edges, Edge{Pos: x.Sel.Pos(), Callee: fn.Origin(), Kind: EdgeFuncRef})
				}
				return true
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok || callFun[x] {
				return true // field, or handled by extractCall
			}
			switch sel.Kind() {
			case types.MethodVal:
				node.Edges = append(node.Edges, Edge{Pos: x.Sel.Pos(), Callee: fn.Origin(), Kind: EdgeMethodValue})
			case types.MethodExpr:
				node.Edges = append(node.Edges, Edge{Pos: x.Sel.Pos(), Callee: fn.Origin(), Kind: EdgeMethodExpr})
			}
		case *ast.Ident:
			// Bare function referenced as a value (not the Sel of a
			// selector — those are handled above — and not a call Fun).
			if callFun[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
				node.Edges = append(node.Edges, Edge{Pos: x.Pos(), Callee: fn.Origin(), Kind: EdgeFuncRef})
			}
		}
		return true
	})
}

// extractCall records one call expression as a static edge, a dynamic
// call, or nothing (conversions, builtins, immediate literal calls —
// the literal's body is walked as part of the enclosing function).
func (g *CallGraph) extractCall(node *FuncNode, call *ast.CallExpr, info *types.Info) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return // conversion
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			node.Edges = append(node.Edges, Edge{Pos: call.Lparen, Callee: obj.Origin(), Kind: EdgeCall})
		case *types.Builtin:
			// new/make/append/...: not calls in the graph sense.
		case nil:
			// Defs-only idents don't occur in call position.
		default:
			node.Dyns = append(node.Dyns, DynCall{Pos: call.Lparen, Desc: "function value " + f.Name})
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[f]
		if !ok {
			// Package-qualified call pkg.F().
			if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
				node.Edges = append(node.Edges, Edge{Pos: call.Lparen, Callee: fn.Origin(), Kind: EdgeCall})
			}
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			node.Dyns = append(node.Dyns, DynCall{Pos: call.Lparen, Desc: "func-typed field " + f.Sel.Name})
			return
		}
		switch sel.Kind() {
		case types.MethodVal:
			if types.IsInterface(sel.Recv()) {
				node.Dyns = append(node.Dyns, DynCall{Pos: call.Lparen, Desc: "interface method " + f.Sel.Name})
				return
			}
			node.Edges = append(node.Edges, Edge{Pos: call.Lparen, Callee: fn.Origin(), Kind: EdgeCall})
		case types.MethodExpr:
			node.Edges = append(node.Edges, Edge{Pos: call.Lparen, Callee: fn.Origin(), Kind: EdgeCall})
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is attributed to the
		// enclosing function by the normal walk.
	default:
		node.Dyns = append(node.Dyns, DynCall{Pos: call.Lparen, Desc: "computed function value"})
	}
}

// SCCs returns the strongly-connected components of the graph in
// bottom-up (reverse topological) order: every edge out of a component
// targets an earlier component or the component itself. Tarjan's
// algorithm emits components in exactly this order.
func (g *CallGraph) SCCs() [][]*FuncNode {
	type vstate struct {
		index, lowlink int
		onStack        bool
	}
	states := make(map[*FuncNode]*vstate, len(g.order))
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	// Iterative Tarjan (explicit frames) so deep call chains cannot
	// overflow the goroutine stack on large trees.
	type frame struct {
		node *FuncNode
		ei   int // next edge index to examine
	}
	var strongconnect func(root *FuncNode)
	strongconnect = func(root *FuncNode) {
		frames := []frame{{node: root}}
		st := &vstate{index: next, lowlink: next}
		next++
		states[root] = st
		stack = append(stack, root)
		st.onStack = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			ns := states[fr.node]
			advanced := false
			for fr.ei < len(fr.node.Edges) {
				e := fr.node.Edges[fr.ei]
				fr.ei++
				if e.Kind != EdgeCall && e.Kind != EdgeMethodValue {
					continue // pure references don't transfer control
				}
				w := g.nodes[e.Callee]
				if w == nil {
					continue
				}
				ws, seen := states[w]
				if !seen {
					ws = &vstate{index: next, lowlink: next}
					next++
					states[w] = ws
					stack = append(stack, w)
					ws.onStack = true
					frames = append(frames, frame{node: w})
					advanced = true
					break
				}
				if ws.onStack && ws.index < ns.lowlink {
					ns.lowlink = ws.index
				}
			}
			if advanced {
				continue
			}
			// Node finished: pop frame, fold lowlink into parent, and
			// emit a component if this node is its root.
			if ns.lowlink == ns.index {
				var comp []*FuncNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					states[w].onStack = false
					comp = append(comp, w)
					if w == fr.node {
						break
					}
				}
				sccs = append(sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := states[frames[len(frames)-1].node]
				if ns.lowlink < parent.lowlink {
					parent.lowlink = ns.lowlink
				}
			}
		}
	}
	for _, n := range g.order {
		if _, seen := states[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}
