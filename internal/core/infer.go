// infer.go is the model's one inference forward pass, used by Probs
// (offline allocation, evaluation, multilevel coarsening) and by the
// serving daemon alike: the merge probabilities EdgeProbs records on the
// autodiff tape, computed directly over the fused tensor kernels with
// scratch from a pooled tensor.Scope. Every product row is computed by
// the same kernel, from the same operands, as its tape twin — including
// the materialized transposed projection copies that the tape's
// MatMul∘Transpose pairs produce — so for identical parameter values the
// output is bit-identical to the training path (TestInferProbsBitIdentical
// pins this). The tape forward itself is only recorded by training.
package core

import (
	"sync"

	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// scopePool recycles inference scopes (and their borrow lists) across
// requests; each goroutine drives its own scope.
var scopePool = sync.Pool{
	New: func() any { return tensor.NewScope() },
}

// InferProbsInto computes merge probabilities for pre-built features
// without recording an autodiff tape, reading parameters through r (a
// nn.Snapshot for serving, nn.LiveValues{} for the live model). The
// result is copied into out, which must have length f.Edge.Rows.
func (mo *Model) InferProbsInto(r nn.ValueReader, f *gnn.Features, out []float64) []float64 {
	sc := scopePool.Get().(*tensor.Scope)
	defer func() {
		sc.Release()
		scopePool.Put(sc)
	}()

	h := mo.Enc.EncodeInfer(sc, r, f) // N×2M

	transposed := func(p *nn.Param) *tensor.Matrix {
		v := r.Value(p)
		return tensor.TransposeInto(v, sc.Get(v.Cols, v.Rows))
	}
	// Head/tail projections run project-then-gather: one product row per
	// node, then each edge copies its endpoints' rows straight into the
	// concatenated edge representation. The tape gathers first and
	// projects per edge, but every row is the same product-row call on
	// the same node embedding, so the values are bit-identical.
	n, e := h.Rows, f.Edge.Rows
	wHeadT := transposed(mo.wHead)
	wTailT := transposed(mo.wTail)
	pHead := tensor.MatMulInto(h, wHeadT, sc.Get(n, wHeadT.Cols))
	pTail := tensor.MatMulInto(h, wTailT, sc.Get(n, wTailT.Cols))

	var eProj *tensor.Matrix
	if mo.Cfg.UseEdgeCollapse {
		wEdgeT := transposed(mo.wEdge)
		eProj = tensor.MatMulInto(f.Edge, wEdgeT, sc.Get(e, wEdgeT.Cols)) // E×EdgeDim
	} else {
		eProj = sc.GetZeroed(e, mo.Cfg.EdgeDim)
	}

	mh, mt := pHead.Cols, pTail.Cols
	cat := sc.Get(e, mh+mt+eProj.Cols) // [head : tail : edge] per edge
	for i := 0; i < e; i++ {
		row := cat.Row(i)
		copy(row[:mh], pHead.Row(f.Src[i]))
		copy(row[mh:mh+mt], pTail.Row(f.Dst[i]))
		copy(row[mh+mt:], eProj.Row(i))
	}
	w1mT := transposed(mo.w1m)
	hEdge := tensor.MatMulInto(cat, w1mT, sc.Get(e, w1mT.Cols))
	p := mo.head.Infer(sc, r, hEdge) // E×1, sigmoid
	copy(out, p.Data)
	return out
}
