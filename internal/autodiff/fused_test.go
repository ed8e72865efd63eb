package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Gradient checks for every fused op, against central finite differences
// through each differentiable operand.

func TestGradMatMulT2(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMat(rng, 3, 5)
	b := randMat(rng, 4, 5)
	checkGrad(t, "matmulT2-left", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMulT2(x, tp.Const(b)))
	})
	checkGrad(t, "matmulT2-right", b, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.MatMulT2(tp.Const(a), x))
	})
}

// TestGradMatMulTanh checks tanh(a·b) through ConcatMatMulTanh with the
// whole of a as the slice and a zero-width second operand.
func TestGradMatMulTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 3, 6)
	b := randMat(rng, 6, 4)
	none := tensor.New(3, 0)
	checkGrad(t, "matmul-tanh-left", a, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.ConcatMatMulTanh(x, 0, 6, tp.Const(none), tp.Const(b)))
	})
	checkGrad(t, "matmul-tanh-right", b, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.ConcatMatMulTanh(tp.Const(a), 0, 6, tp.Const(none), x))
	})
}

// TestGradGatherMatMulAddTanh checks the message transform without its
// additive term (the edge-feature ablation); TestGradGatherMatMulAddTanhCSR
// covers the additive form.
func TestGradGatherMatMulAddTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := randMat(rng, 5, 6)           // node embeddings
	w := randMat(rng, 6, 3)           // message transform
	idx := []int{0, 2, 2, 4, 1, 0, 3} // repeated rows exercise scatter-add
	offs, members := buckets(idx, 5)
	checkGrad(t, "gather-matmul-tanh-nil-add-h", h, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.GatherMatMulAddTanhCSR(x, idx, tp.Const(w), nil, offs, members))
	})
	checkGrad(t, "gather-matmul-tanh-nil-add-w", w, func(tp *Tape, x *Node) *Node {
		return tp.Sum(tp.GatherMatMulAddTanhCSR(tp.Const(h), idx, x, nil, offs, members))
	})
}

func TestGradAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randMat(rng, 4, 5)
	w := randMat(rng, 3, 5) // out×in
	bias := randMat(rng, 1, 3)

	checkGrad(t, "affine-x", x, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.Affine(n, tp.Const(w), tp.Const(bias)))
	})
	checkGrad(t, "affine-w", w, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.Affine(tp.Const(x), n, tp.Const(bias)))
	})
	checkGrad(t, "affine-bias", bias, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.Affine(tp.Const(x), tp.Const(w), n))
	})
	checkGrad(t, "affine-tanh-x", x, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.AffineTanh(n, tp.Const(w), tp.Const(bias)))
	})
	checkGrad(t, "affine-tanh-w", w, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.AffineTanh(tp.Const(x), n, tp.Const(bias)))
	})
	checkGrad(t, "affine-tanh-bias", bias, func(tp *Tape, n *Node) *Node {
		return tp.Sum(tp.AffineTanh(tp.Const(x), tp.Const(w), n))
	})
}

// TestFusedMatchesUnfusedComposition builds the same function twice — once
// with fused ops, once composed from the primitive ops — and compares both
// values and leaf gradients within rounding tolerance.
func TestFusedMatchesUnfusedComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := randMat(rng, 6, 8)
	w := randMat(rng, 8, 4)
	add := randMat(rng, 9, 4)
	idx := []int{0, 5, 3, 3, 1, 2, 4, 0, 5}
	offs, members := buckets(idx, 6)

	run := func(fused bool) (*tensor.Matrix, *tensor.Matrix, *tensor.Matrix) {
		tp := NewTape()
		hn, wn := tp.Leaf(h), tp.Leaf(w)
		var y *Node
		if fused {
			y = tp.GatherMatMulAddTanhCSR(hn, idx, wn, tp.Const(add), offs, members)
		} else {
			y = tp.Tanh(tp.Add(tp.MatMul(tp.GatherRows(hn, idx), wn), tp.Const(add)))
		}
		root := tp.Sum(y)
		tp.Backward(root, nil)
		return y.Value.Clone(), hn.Grad().Clone(), wn.Grad().Clone()
	}
	fv, fh, fw := run(true)
	uv, uh, uw := run(false)
	const tol = 1e-12
	cmp := func(name string, got, want *tensor.Matrix) {
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
				t.Fatalf("%s[%d]: fused %g vs unfused %g", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	cmp("value", fv, uv)
	cmp("dH", fh, uh)
	cmp("dW", fw, uw)
}

// TestFusedOpsDeterministic reruns a fused forward+backward pass and
// requires byte-identical values and gradients (fixed accumulation order).
func TestFusedOpsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	h := randMat(rng, 40, 16)
	w := randMat(rng, 16, 8)
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = rng.Intn(40)
	}
	offs, members := buckets(idx, 40)
	run := func() (*tensor.Matrix, *tensor.Matrix) {
		tp := NewTape()
		hn, wn := tp.Leaf(h), tp.Leaf(w)
		root := tp.Sum(tp.Tanh(tp.MatMulT2(tp.GatherMatMulAddTanhCSR(hn, idx, wn, nil, offs, members), wn)))
		tp.Backward(root, nil)
		return root.Value.Clone(), hn.Grad().Clone()
	}
	v1, g1 := run()
	for rep := 0; rep < 3; rep++ {
		v2, g2 := run()
		if math.Float64bits(v1.Data[0]) != math.Float64bits(v2.Data[0]) {
			t.Fatalf("rerun %d: value differs", rep)
		}
		for i := range g1.Data {
			if math.Float64bits(g1.Data[i]) != math.Float64bits(g2.Data[i]) {
				t.Fatalf("rerun %d: grad differs at %d", rep, i)
			}
		}
	}
}
