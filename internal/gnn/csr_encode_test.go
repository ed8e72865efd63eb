package gnn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randFeatures builds a random feature set straight from Src/Dst vectors
// (the serving layer does the same for stacked batches), leaving the last
// `isolated` nodes with no incident edges so empty CSR buckets are
// exercised. EnsureCSR derives the incidence buckets.
func randFeatures(rng *rand.Rand, nodes, edges, isolated int) *Features {
	nf := tensor.New(nodes, NodeFeatureDim)
	for i := range nf.Data {
		nf.Data[i] = rng.NormFloat64()
	}
	ef := tensor.New(edges, EdgeFeatureDim)
	for i := range ef.Data {
		ef.Data[i] = rng.NormFloat64()
	}
	src := make([]int, edges)
	dst := make([]int, edges)
	span := nodes - isolated
	for e := 0; e < edges; e++ {
		src[e] = rng.Intn(span)
		dst[e] = rng.Intn(span)
	}
	return &Features{Node: nf, Edge: ef, Src: src, Dst: dst}
}

// preCSREncode is the encode composition with explicit slice, concat,
// product and activation tape entries in place of the fused
// ConcatMatMulTanh. The fused Encode and the zero-tape EncodeInfer must
// reproduce its forward bits exactly.
func preCSREncode(b *nn.Binder, e *Encoder, f *Features) *autodiff.Node {
	t := b.Tape
	f.EnsureCSR()
	h := e.In.ApplyTanh(b, t.Const(f.Node))

	w1T := t.Transpose(b.Node(e.W1))
	w2T := t.Transpose(b.Node(e.W2))
	var efUp, efDown *autodiff.Node
	if e.UseEdgeFeatures {
		ef := t.Const(f.Edge)
		efUp = t.MatMulT2(ef, b.Node(e.WeUp))
		efDown = t.MatMulT2(ef, b.Node(e.WeDown))
	}

	for k := 0; k < e.K; k++ {
		hup := t.SliceCols(h, 0, e.M)
		hdown := t.SliceCols(h, e.M, 2*e.M)

		msgIn := t.GatherMatMulAddTanhCSR(h, f.Src, w1T, efUp, f.OutOff, f.OutEdge)
		aggIn := t.SegmentMeanCSR(msgIn, f.InOff, f.InEdge)
		msgOut := t.GatherMatMulAddTanhCSR(h, f.Dst, w1T, efDown, f.InOff, f.InEdge)
		aggOut := t.SegmentMeanCSR(msgOut, f.OutOff, f.OutEdge)

		nextUp := t.Tanh(t.MatMul(t.ConcatCols(hup, aggIn), w2T))
		nextDown := t.Tanh(t.MatMul(t.ConcatCols(hdown, aggOut), w2T))
		h = t.ConcatCols(nextUp, nextDown)
	}
	return h
}

// TestEncodeCSRBitIdenticalToPreCSR pins the CSR-native Encode and
// EncodeInfer against the pre-CSR composition, bit for bit, on randomized
// graphs — including degree-0 nodes (empty buckets), M with a non-multiple-
// of-four concat width (scalar remainder lanes), and a shape large enough
// to cross the kernels' parallel work gate — at GOMAXPROCS 1 and NumCPU.
func TestEncodeCSRBitIdenticalToPreCSR(t *testing.T) {
	shapes := []struct {
		nodes, edges, isolated, m, k int
	}{
		{9, 14, 3, 4, 2},       // tiny, third of the nodes isolated
		{40, 70, 5, 7, 2},      // odd M: remainder columns in every kernel
		{120, 260, 1, 6, 3},    // K=3, single sink-less node
		{700, 3200, 10, 24, 2}, // crosses the parallel work gate
	}
	maxprocs := []int{1, runtime.NumCPU()}
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)

	for si, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(900 + si)))
		f := randFeatures(rng, sh.nodes, sh.edges, sh.isolated)
		ps := nn.NewParamSet()
		enc := NewEncoder(ps, "e", sh.m, sh.k, rand.New(rand.NewSource(int64(40+si))))

		// Reference bits, computed once at GOMAXPROCS=1.
		runtime.GOMAXPROCS(1)
		bref := nn.NewBinder(autodiff.NewTape())
		want := preCSREncode(bref, enc, f).Value.Clone()

		for _, procs := range maxprocs {
			runtime.GOMAXPROCS(procs)

			b := nn.NewBinder(autodiff.NewTape())
			got := enc.Encode(b, f)
			if got.Value.Rows != sh.nodes || got.Value.Cols != 2*sh.m {
				t.Fatalf("shape %d: encode dims %dx%d", si, got.Value.Rows, got.Value.Cols)
			}
			for i := range want.Data {
				if math.Float64bits(got.Value.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("shape %d procs %d: encode[%d] csr %v vs pre-csr %v",
						si, procs, i, got.Value.Data[i], want.Data[i])
				}
			}

			sc := tensor.NewScope()
			inf := enc.EncodeInfer(sc, nn.LiveValues{}, f)
			for i := range want.Data {
				if math.Float64bits(inf.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("shape %d procs %d: infer[%d] csr %v vs pre-csr %v",
						si, procs, i, inf.Data[i], want.Data[i])
				}
			}
			sc.Release()
		}
	}
}
