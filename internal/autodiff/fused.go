// fused.go records fused tape ops: single tape entries for op chains that
// the linear layers run on every step. Fusing cuts both tape entries
// (fewer node structs, fewer backward closures) and memory traffic (the
// transposed weight copy is never materialized). Each fused backward
// decomposes into the same blocked tensor kernels the unfused ops use, so
// gradients match the unfused composition to rounding.
package autodiff

import (
	"fmt"

	"repro/internal/tensor"
)

// MatMulT2 records a·bᵀ without materializing the transpose — the
// building block for y = x·Wᵀ layers and qᵀk attention scores.
func (t *Tape) MatMulT2(a, b *Node) *Node {
	v := tensor.MatMulT2Into(a.Value, b.Value, t.newVal(a.Value.Rows, b.Value.Rows))
	return t.pushOwned(v, anyGrad(a, b), func(g *tensor.Matrix) {
		if a.reqG {
			d := tensor.MatMulInto(g, b.Value, tensor.Get(g.Rows, b.Value.Cols)) // dA = G·B
			a.accum(d)
			tensor.Put(d)
		}
		if b.reqG {
			d := tensor.MatMulT1Into(g, a.Value, tensor.Get(g.Cols, a.Value.Cols)) // dB = Gᵀ·A
			b.accum(d)
			tensor.Put(d)
		}
	})
}

// Affine records y = x·wᵀ + bias (w is out×in, bias 1×out) as one tape
// entry — the fused forward pass of nn.Linear, with no transposed weight
// copy on the tape.
func (t *Tape) Affine(x, w, bias *Node) *Node {
	checkAffine(x, w, bias)
	v := tensor.MatMulT2BiasInto(x.Value, w.Value, bias.Value, t.newVal(x.Value.Rows, w.Value.Rows))
	return t.pushOwned(v, anyGrad(x, w, bias), func(g *tensor.Matrix) {
		affineBackward(x, w, bias, g)
	})
}

// AffineTanh records y = tanh(x·wᵀ + bias) as one tape entry: affine plus
// activation fused into a single kernel pass.
func (t *Tape) AffineTanh(x, w, bias *Node) *Node {
	checkAffine(x, w, bias)
	v := tensor.MatMulT2BiasTanhInto(x.Value, w.Value, bias.Value, t.newVal(x.Value.Rows, w.Value.Rows))
	return t.pushOwned(v, anyGrad(x, w, bias), func(g *tensor.Matrix) {
		d := tensor.TanhGradInto(g, v, tensor.Get(g.Rows, g.Cols))
		affineBackward(x, w, bias, d)
		tensor.Put(d)
	})
}

// affineBackward scatters the (pre-activation) gradient d of an affine op
// into its three operands: dX = D·W, dW = Dᵀ·X, dBias = column sums of D.
func affineBackward(x, w, bias *Node, d *tensor.Matrix) {
	if x.reqG {
		dx := tensor.MatMulInto(d, w.Value, tensor.Get(d.Rows, w.Value.Cols))
		x.accum(dx)
		tensor.Put(dx)
	}
	if w.reqG {
		dw := tensor.MatMulT1Into(d, x.Value, tensor.Get(d.Cols, x.Value.Cols))
		w.accum(dw)
		tensor.Put(dw)
	}
	if bias.reqG {
		db := tensor.ColSumsInto(d, tensor.Get(1, d.Cols))
		bias.accum(db)
		tensor.Put(db)
	}
}

func checkAffine(x, w, bias *Node) {
	if x.Value.Cols != w.Value.Cols {
		panic(fmt.Sprintf("autodiff: affine shape mismatch %dx%d · %dx%dᵀ",
			x.Value.Rows, x.Value.Cols, w.Value.Rows, w.Value.Cols))
	}
	if bias.Value.Rows != 1 || bias.Value.Cols != w.Value.Rows {
		panic(fmt.Sprintf("autodiff: affine bias shape %dx%d, want 1x%d",
			bias.Value.Rows, bias.Value.Cols, w.Value.Rows))
	}
}
