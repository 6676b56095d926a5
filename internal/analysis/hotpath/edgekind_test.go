package hotpath

import (
	"go/token"
	"go/types"
	"testing"

	"tdcache/internal/analysis/framework"
)

// TestEdgeKindDispatch drives every EdgeKind through classifyEdges, the
// switch over EdgeKind. A kind without an arm is silently dropped, which
// is indistinguishable from a kind that allocates nothing, so each kind
// needs a row stating whether an edge to a callee with no source is a
// violation.
func TestEdgeKindDispatch(t *testing.T) {
	want := map[framework.EdgeKind]bool{
		framework.EdgeCall:        true, // no source for the callee
		framework.EdgeMethodValue: true, // closure binding the receiver
		framework.EdgeMethodExpr:  false,
		framework.EdgeFuncRef:     false,
	}
	ext := types.NewPackage("ext/lib", "lib")
	callee := types.NewFunc(token.NoPos, ext, "F", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	st := &state{graph: framework.NewCallGraph()}
	pass := &framework.Pass{Pkg: types.NewPackage("use", "use")}
	for k := framework.EdgeKind(0); k < framework.NumEdgeKinds; k++ {
		w, ok := want[k]
		if !ok {
			t.Errorf("EdgeKind %d has no row: add its arm to classifyEdges, then a row here", k)
			continue
		}
		n := &framework.FuncNode{Edges: []framework.Edge{{Kind: k, Callee: callee}}}
		if got := len(classifyEdges(st, pass, n)) > 0; got != w {
			t.Errorf("EdgeKind %d: violation = %v, want %v", k, got, w)
		}
	}
}
