package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// The per-edge message kernels that the project-then-gather forms
// replaced, kept as oracles: GatherMatMulAddTanhInto, and
// GatherAddTanhSegMeanCSRInto fed with p = a·b, must match them bit for
// bit (see project_test.go).

// perEdgeGatherMatMulAddTanhInto computes tanh(gather(a, idx)·b + add) into dst —
// the fused forward step of one GNN message transform: gather reads rows
// in place, the additive term (nil to skip) and the activation are applied
// in the store loop, and no intermediate matrix is ever materialized.
func perEdgeGatherMatMulAddTanhInto(a *Matrix, idx []int, b, add, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: gather-matmul-add-tanh shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("gather-matmul-add-tanh dst", dst, len(idx), b.Cols)
	if add != nil {
		mustShape("gather-matmul-add-tanh add", add, len(idx), b.Cols)
	}
	checkGather(idx, a.Rows)
	n := b.Cols
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := idx[i]
			orow := dst.Data[i*n : (i+1)*n]
			productRow(a.Data[r*a.Cols:(r+1)*a.Cols], b.Data, n, orow)
			if add != nil {
				arow := add.Data[i*n : (i+1)*n]
				for j, v := range orow {
					orow[j] = math.Tanh(v + arow[j])
				}
			} else {
				for j, v := range orow {
					orow[j] = math.Tanh(v)
				}
			}
		}
	}
	work := len(idx) * a.Cols * b.Cols
	if work < parallelThreshold {
		rowRange(0, len(idx))
		return dst
	}
	parallel.RunChunks(len(idx), parallel.DefaultWorkers(), rowRange)
	return dst
}

// perEdgeGatherMatMulAddTanhSegMeanCSRInto fuses one whole GNN message hop for
// the inference path: dst.Row(s) = mean over bucket-s members e of
// tanh(a.Row(idx[e])·b + add.Row(e)), with add nil to skip the additive
// term. Each member row is computed into a worker-local scratch and
// accumulated immediately, so the E×M message matrix never exists — at a
// million edges that is the difference between O(N·M) and O(E·M) live
// memory. Per-row arithmetic matches GatherMatMulAddTanhInto and the
// bucket accumulation matches SegmentMeanCSRInto, so the result is
// bit-identical to the unfused pair.
func perEdgeGatherMatMulAddTanhSegMeanCSRInto(a *Matrix, idx []int, b, add *Matrix, offs []int32, members []int, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: gather-mean-csr shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	segments := len(offs) - 1
	n := b.Cols
	mustShape("gather-mean-csr dst", dst, segments, n)
	if add != nil {
		mustShape("gather-mean-csr add", add, len(idx), n)
	}
	checkGather(idx, a.Rows)
	checkCSR("gather-mean-csr", offs, members, len(idx))
	segRange := func(lo, hi int) {
		buf := Get(1, n)
		row := buf.Data
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			for j := range orow {
				orow[j] = 0
			}
			mlo, mhi := offs[s], offs[s+1]
			if mlo == mhi {
				continue
			}
			for _, e := range members[mlo:mhi] {
				r := idx[e]
				productRow(a.Data[r*a.Cols:(r+1)*a.Cols], b.Data, n, row)
				if add != nil {
					arow := add.Data[e*n : (e+1)*n]
					for j, v := range row {
						row[j] = math.Tanh(v + arow[j])
					}
				} else {
					for j, v := range row {
						row[j] = math.Tanh(v)
					}
				}
				for j, v := range row {
					orow[j] += v
				}
			}
			inv := 1 / float64(mhi-mlo)
			for j := range orow {
				orow[j] *= inv
			}
		}
		Put(buf)
	}
	work := len(members) * a.Cols * n
	if work < parallelThreshold {
		segRange(0, segments)
		return dst
	}
	parallel.RunChunks(segments, parallel.DefaultWorkers(), segRange)
	return dst
}
