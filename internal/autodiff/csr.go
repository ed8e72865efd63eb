// csr.go records the CSR-native tape ops the sparse GNN encode path uses:
// segment means and gather-project transforms that take the graph's
// prebuilt CSR incidence buckets instead of re-bucketing an index vector
// (and allocating the bucket arrays) on every forward pass, plus a fused
// slice-concat-matmul-tanh op that updates one half of the node state
// without materializing the sliced or concatenated intermediates on the
// tape. Forward values are bit-identical to the unfused chains they
// replace; gradients decompose into the same blocked kernels.
package autodiff

import (
	"fmt"

	"repro/internal/tensor"
)

// SegmentMeanCSR records per-bucket row averaging: out.Row(s) is the mean
// of a's rows listed in members[offs[s]:offs[s+1]]. members must partition
// a's rows (every row in exactly one bucket, ascending within a bucket),
// which is what a graph incidence view provides; bucket sizes come from
// the offsets, so no per-call count scratch is needed.
func (t *Tape) SegmentMeanCSR(a *Node, offs []int32, members []int) *Node {
	if len(members) != a.Value.Rows {
		panic(fmt.Sprintf("autodiff: segment-mean-csr %d members for %d rows", len(members), a.Value.Rows))
	}
	segments := len(offs) - 1
	v := tensor.SegmentMeanCSRInto(a.Value, offs, members, t.newVal(segments, a.Value.Cols))
	return t.pushOwned(v, a.reqG, func(g *tensor.Matrix) {
		d := tensor.Get(a.Value.Rows, a.Value.Cols)
		for s := 0; s < segments; s++ {
			lo, hi := offs[s], offs[s+1]
			if lo == hi {
				continue
			}
			inv := 1 / float64(hi-lo)
			grow := g.Row(s)
			for _, i := range members[lo:hi] {
				drow := d.Row(i)
				for j, gv := range grow {
					drow[j] = gv * inv
				}
			}
		}
		a.accum(d)
		tensor.Put(d)
	})
}

// GatherMatMulAddTanhCSR records tanh(gather(a, idx)·b + add) — one GNN
// message transform — as a single tape entry; add may be nil to skip the
// additive term (the edge-feature ablation). The gathered matrix is never
// materialized. The backward scatter is driven by a prebuilt bucket
// structure over a's rows (offs has a.Rows+1 entries; bucket r lists the
// positions e with idx[e] == r), so it reuses the graph's incidence view
// instead of counting-sorting idx inside every backward call.
func (t *Tape) GatherMatMulAddTanhCSR(a *Node, idx []int, b, add *Node, offs []int32, members []int) *Node {
	var addM *tensor.Matrix
	req := anyGrad(a, b)
	if add != nil {
		addM = add.Value
		req = req || add.reqG
	}
	if len(idx) == 0 {
		return t.pushOwned(t.newVal(0, b.Value.Cols), req, func(*tensor.Matrix) {})
	}
	if len(offs) != a.Value.Rows+1 || len(members) != len(idx) {
		panic(fmt.Sprintf("autodiff: gather-csr buckets %d/%d for %d rows, %d edges",
			len(offs), len(members), a.Value.Rows, len(idx)))
	}
	v := tensor.GatherMatMulAddTanhInto(a.Value, idx, b.Value, addM, t.newVal(len(idx), b.Value.Cols))
	return t.pushOwned(v, req, func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		if add != nil {
			add.accum(d)
		}
		if b.reqG {
			db := tensor.GatherMatMulT1Into(a.Value, idx, d, tensor.Get(a.Value.Cols, d.Cols))
			b.accum(db)
			tensor.Put(db)
		}
		if a.reqG {
			dg := tensor.MatMulT2Into(d, b.Value, tensor.Get(d.Rows, b.Value.Rows)) // per-edge dH rows
			ds := tensor.GetZeroed(a.Value.Rows, a.Value.Cols)
			tensor.ScatterAddRowsCSR(ds, dg, offs, members)
			a.accum(ds)
			tensor.Put(ds)
			tensor.Put(dg)
		}
		tensor.Put(d)
	})
}

// ConcatMatMulTanh records tanh(concat(x[:, lo:hi], y)·w) as one tape
// entry — the next-state update of one GNN hop half. The column slice and
// the concatenation are never materialized: the forward kernel assembles
// each row in a worker-local scratch and feeds it to the product-row
// kernel of MatMul's unpacked path, so for weights below the packing
// threshold the value is bit-identical to the unfused SliceCols →
// ConcatCols → MatMul → Tanh chain while four N-row tape intermediates
// disappear. The backward pass rebuilds the concatenated
// operand once into transient arena scratch for the weight gradient.
func (t *Tape) ConcatMatMulTanh(x *Node, lo, hi int, y, w *Node) *Node {
	xv, yv, wv := x.Value, y.Value, w.Value
	if lo < 0 || hi > xv.Cols || lo > hi {
		panic(fmt.Sprintf("autodiff: concat-matmul-tanh slice [%d,%d) of %d", lo, hi, xv.Cols))
	}
	if xv.Rows != yv.Rows {
		panic("autodiff: concat-matmul-tanh row mismatch")
	}
	k1, k2 := hi-lo, yv.Cols
	if wv.Rows != k1+k2 {
		panic(fmt.Sprintf("autodiff: concat-matmul-tanh %d+%d cols · %dx%d", k1, k2, wv.Rows, wv.Cols))
	}
	v := tensor.ConcatMatMulTanhInto(xv, lo, hi, yv, wv, t.newVal(xv.Rows, wv.Cols))
	return t.pushOwned(v, anyGrad(x, y, w), func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		if w.reqG {
			cat := tensor.Get(xv.Rows, k1+k2)
			for i := 0; i < xv.Rows; i++ {
				crow := cat.Row(i)
				copy(crow[:k1], xv.Row(i)[lo:hi])
				copy(crow[k1:], yv.Row(i))
			}
			dw := tensor.MatMulT1Into(cat, d, tensor.Get(k1+k2, d.Cols))
			w.accum(dw)
			tensor.Put(dw)
			tensor.Put(cat)
		}
		if x.reqG || y.reqG {
			dcat := tensor.MatMulT2Into(d, wv, tensor.Get(d.Rows, k1+k2))
			if x.reqG {
				dx := tensor.GetZeroed(xv.Rows, xv.Cols)
				for i := 0; i < xv.Rows; i++ {
					copy(dx.Row(i)[lo:hi], dcat.Row(i)[:k1])
				}
				x.accum(dx)
				tensor.Put(dx)
			}
			if y.reqG {
				dy := tensor.Get(yv.Rows, k2)
				for i := 0; i < yv.Rows; i++ {
					copy(dy.Row(i), dcat.Row(i)[k1:])
				}
				y.accum(dy)
				tensor.Put(dy)
			}
			tensor.Put(dcat)
		}
		tensor.Put(d)
	})
}
