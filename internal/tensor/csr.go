// csr.go holds the CSR-native segment kernels: segment means and
// ScatterAddRows variants that take a prebuilt bucket structure (offsets + member
// row ids, as produced by stream.Graph.Adjacency or bucketByKey) instead
// of re-bucketing a segment-id vector on every call, plus the fused
// gather-activate-mean kernel the zero-tape inference path uses so the
// E×M message matrix is never materialized.
//
// Determinism contract (see kernels.go): members inside one bucket must be
// ascending, matching the order bucketByKey produces. Each bucket then
// accumulates in ascending row order, so every CSR kernel is
// bit-identical to the serial seg-vector computation at any GOMAXPROCS.
package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// checkCSR validates a bucket structure against the member row universe.
func checkCSR(op string, offs []int32, members []int, rows int) {
	if len(offs) == 0 {
		panic("tensor: " + op + " empty offsets")
	}
	if int(offs[len(offs)-1]) != len(members) || offs[0] != 0 {
		panic(fmt.Sprintf("tensor: %s offsets cover [%d,%d), want [0,%d)", op, offs[0], offs[len(offs)-1], len(members)))
	}
	for _, i := range members {
		if i < 0 || i >= rows {
			panic(fmt.Sprintf("tensor: %s member row %d out of range [0,%d)", op, i, rows))
		}
	}
}

// SegmentMeanCSRInto averages rows of a per bucket into dst
// ((len(offs)-1)×a.Cols): dst.Row(s) is the mean of a.Row(i) over i in
// members[offs[s]:offs[s+1]], zero for empty buckets: members are summed
// in bucket order, then scaled once by 1/count.
func SegmentMeanCSRInto(a *Matrix, offs []int32, members []int, dst *Matrix) *Matrix {
	segments := len(offs) - 1
	mustShape("segment-mean-csr dst", dst, segments, a.Cols)
	checkCSR("segment-mean-csr", offs, members, a.Rows)
	segRange := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			orow := dst.Row(s)
			for j := range orow {
				orow[j] = 0
			}
			mlo, mhi := offs[s], offs[s+1]
			if mlo == mhi {
				continue
			}
			for _, i := range members[mlo:mhi] {
				arow := a.Row(i)
				for j, v := range arow {
					orow[j] += v
				}
			}
			inv := 1 / float64(mhi-mlo)
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
	if len(members)*a.Cols < parallelThreshold {
		segRange(0, segments)
		return dst
	}
	parallel.RunChunks(segments, parallel.DefaultWorkers(), segRange)
	return dst
}

// ScatterAddRowsCSR adds src.Row(i) into dst.Row(s) for every i in bucket
// s — the CSR twin of ScatterAddRowsPar(dst, src, idx) with buckets built
// from idx. Every dst row is owned by one worker and members ascend, so
// the result is bit-identical to the serial scatter at any GOMAXPROCS.
func ScatterAddRowsCSR(dst, src *Matrix, offs []int32, members []int) {
	if len(offs)-1 != dst.Rows || src.Cols != dst.Cols {
		panic("tensor: scatter-add-csr shape mismatch")
	}
	checkCSR("scatter-add-csr", offs, members, src.Rows)
	rowRange := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			mlo, mhi := offs[s], offs[s+1]
			if mlo == mhi {
				continue
			}
			drow := dst.Row(s)
			for _, i := range members[mlo:mhi] {
				srow := src.Row(i)
				for j, v := range srow {
					drow[j] += v
				}
			}
		}
	}
	if len(members)*src.Cols < parallelThreshold {
		rowRange(0, dst.Rows)
		return
	}
	parallel.RunChunks(dst.Rows, parallel.DefaultWorkers(), rowRange)
}

// GatherAddTanhSegMeanCSRInto fuses the gather, activation and mean of
// one GNN message hop for the inference path: dst.Row(s) = mean over
// bucket-s members e of tanh(p.Row(idx[e]) + add.Row(e)), with add nil to
// skip the additive term and p the hop's per-node projection a·b, which
// the caller computes once and may share between hop directions. Each
// message is accumulated as it is formed, so the E×M message matrix never
// exists — at a million edges that is the difference between O(N·M) and
// O(E·M) live memory. Per-element
// arithmetic matches GatherMatMulAddTanhInto and the bucket accumulation
// matches SegmentMeanCSRInto, so the result is bit-identical to the
// unfused pair.
func GatherAddTanhSegMeanCSRInto(p *Matrix, idx []int, add *Matrix, offs []int32, members []int, dst *Matrix) *Matrix {
	segments := len(offs) - 1
	n := p.Cols
	mustShape("gather-mean-csr dst", dst, segments, n)
	if add != nil {
		mustShape("gather-mean-csr add", add, len(idx), n)
	}
	checkGather(idx, p.Rows)
	checkCSR("gather-mean-csr", offs, members, len(idx))
	segRange := func(lo, hi int) {
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
				prow := p.Data[idx[e]*n : (idx[e]+1)*n]
				if add != nil {
					arow := add.Data[e*n : (e+1)*n]
					for j, v := range prow {
						orow[j] += math.Tanh(v + arow[j])
					}
				} else {
					for j, v := range prow {
						orow[j] += math.Tanh(v)
					}
				}
			}
			inv := 1 / float64(mhi-mlo)
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
	work := len(members) * n * (tanhWork + 2)
	if work < parallelThreshold {
		segRange(0, segments)
		return dst
	}
	parallel.RunChunks(segments, parallel.DefaultWorkers(), segRange)
	return dst
}
