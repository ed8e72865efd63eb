package nn

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

func TestParamSetRegistration(t *testing.T) {
	ps := NewParamSet()
	p := ps.New("w", 2, 3)
	if ps.Get("w") != p {
		t.Fatal("lookup failed")
	}
	if ps.Count() != 6 {
		t.Fatalf("count = %d", ps.Count())
	}
	if len(ps.All()) != 1 {
		t.Fatal("all")
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ps := NewParamSet()
	ps.New("w", 1, 1)
	ps.New("w", 1, 1)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = Σ (w_i - target_i)^2 by feeding grad = 2(w - target).
	ps := NewParamSet()
	w := ps.New("w", 1, 4)
	target := []float64{1, -2, 3, 0.5}
	opt := NewAdam(0.05)
	for step := 0; step < 500; step++ {
		for i := range w.Grad.Data {
			w.Grad.Data[i] = 2 * (w.Value.Data[i] - target[i])
		}
		opt.Step(ps)
	}
	for i, tv := range target {
		if math.Abs(w.Value.Data[i]-tv) > 0.01 {
			t.Fatalf("w[%d] = %g, want %g", i, w.Value.Data[i], tv)
		}
	}
	if opt.StepCount() != 500 {
		t.Fatalf("steps = %d", opt.StepCount())
	}
}

func TestAdamClipsGlobalNorm(t *testing.T) {
	ps := NewParamSet()
	w := ps.New("w", 1, 1)
	opt := NewAdam(0.1)
	opt.ClipNorm = 1
	w.Grad.Data[0] = 1000
	before := w.Value.Data[0]
	opt.Step(ps)
	// With clipping, the first Adam step is bounded by ~lr regardless of
	// raw gradient magnitude.
	if d := math.Abs(w.Value.Data[0] - before); d > 0.2 {
		t.Fatalf("step moved %g, expected bounded", d)
	}
}

func TestLinearShapesAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := NewParamSet()
	l := NewLinear(ps, "l", 3, 2, rng)
	tape := autodiff.NewTape()
	b := NewBinder(tape)
	x := tensor.New(4, 3)
	x.RandUniform(rng, 1)
	y := l.Apply(b, tape.Const(x))
	if y.Value.Rows != 4 || y.Value.Cols != 2 {
		t.Fatalf("shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
	tape.Backward(tape.Sum(y), nil)
	b.Collect()
	if allZero(l.W.Grad) || allZero(l.B.Grad) {
		t.Fatal("no gradient reached the linear layer")
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := NewParamSet()
	mlp := NewMLP(ps, "m", []int{2, 8, 1}, ActTanh, ActSigmoid, rng)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	opt := NewAdam(0.05)
	for epoch := 0; epoch < 800; epoch++ {
		tape := autodiff.NewTape()
		b := NewBinder(tape)
		x := tensor.FromRows(inputs)
		pred := mlp.Apply(b, tape.Const(x))
		// Squared-error loss via tape ops.
		tv := tensor.New(4, 1)
		copy(tv.Data, targets)
		diff := tape.Sub(pred, tape.Const(tv))
		loss := tape.Sum(tape.Mul(diff, diff))
		ps.ZeroGrads()
		tape.Backward(loss, nil)
		b.Collect()
		opt.Step(ps)
	}
	tape := autodiff.NewTape()
	b := NewBinder(tape)
	pred := mlp.Apply(b, tape.Const(tensor.FromRows(inputs)))
	for i, want := range targets {
		got := pred.Value.Data[i]
		if math.Abs(got-want) > 0.25 {
			t.Fatalf("xor(%v) = %.3f, want %.0f", inputs[i], got, want)
		}
	}
}

func TestLSTMStepShapesAndMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	cell := NewLSTMCell(ps, "c", 4, 6, rng)
	tape := autodiff.NewTape()
	b := NewBinder(tape)
	x := tensor.New(1, 4)
	x.RandUniform(rng, 1)
	zero := tensor.New(1, 6)
	h, c := tape.Const(zero), tape.Const(zero.Clone())
	h1, c1 := cell.Step(b, tape.Const(x), h, c)
	if h1.Value.Cols != 6 || c1.Value.Cols != 6 {
		t.Fatal("bad LSTM shapes")
	}
	// A second step with different input must produce different state.
	x2 := tensor.New(1, 4)
	x2.RandUniform(rng, 1)
	h2, _ := cell.Step(b, tape.Const(x2), h1, c1)
	if tensor.Equal(h1.Value, h2.Value, 1e-12) {
		t.Fatal("LSTM state did not evolve")
	}
	// Gradients flow back through two steps.
	tape.Backward(tape.Sum(h2), nil)
	b.Collect()
	if allZero(cell.Wx.Grad) || allZero(cell.Wh.Grad) {
		t.Fatal("no gradient through LSTM")
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	ps := NewParamSet()
	cell := NewLSTMCell(ps, "c", 2, 3, rand.New(rand.NewSource(4)))
	for j := 3; j < 6; j++ {
		if cell.B.Value.Data[j] != 1 {
			t.Fatal("forget bias not initialized to 1")
		}
	}
	if cell.B.Value.Data[0] != 0 {
		t.Fatal("input gate bias should start at 0")
	}
}

func TestAttentionShapesAndResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := NewParamSet()
	attn := NewMultiHeadAttention(ps, "a", 8, 2, rng)
	tape := autodiff.NewTape()
	b := NewBinder(tape)
	x := tensor.New(5, 8)
	x.RandUniform(rng, 0.5)
	y := attn.Apply(b, tape.Const(x))
	if y.Value.Rows != 5 || y.Value.Cols != 8 {
		t.Fatalf("shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
	tape.Backward(tape.Sum(tape.Tanh(y)), nil)
	b.Collect()
	for _, p := range []*Param{attn.WQ, attn.WK, attn.WV, attn.WO} {
		if allZero(p.Grad) {
			t.Fatalf("no gradient into %s", p.Name)
		}
	}
}

func TestAttentionDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention(NewParamSet(), "a", 7, 2, rand.New(rand.NewSource(1)))
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "params.json")
	rng := rand.New(rand.NewSource(6))

	ps1 := NewParamSet()
	w := ps1.NewXavier("w", 3, 4, rng)
	bq := ps1.New("b", 1, 4)
	bq.Value.Data[2] = 42
	if err := SaveParams(ps1, path); err != nil {
		t.Fatal(err)
	}

	ps2 := NewParamSet()
	ps2.New("w", 3, 4)
	ps2.New("b", 1, 4)
	if err := LoadParams(ps2, path); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(ps2.Get("w").Value, w.Value, 0) {
		t.Fatal("w mismatch after round trip")
	}
	if ps2.Get("b").Value.Data[2] != 42 {
		t.Fatal("b mismatch after round trip")
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "params.json")
	ps1 := NewParamSet()
	ps1.New("w", 2, 2)
	if err := SaveParams(ps1, path); err != nil {
		t.Fatal(err)
	}
	ps2 := NewParamSet()
	ps2.New("w", 3, 3)
	if err := LoadParams(ps2, path); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestLoadParamsMissingFile(t *testing.T) {
	ps := NewParamSet()
	if err := LoadParams(ps, filepath.Join(os.TempDir(), "does-not-exist-12345.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCopyValuesFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewParamSet()
	sw := src.NewXavier("w", 2, 2, rng)
	dst := NewParamSet()
	dst.New("w", 2, 2)
	if err := CopyValuesFrom(dst, src); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(dst.Get("w").Value, sw.Value, 0) {
		t.Fatal("copy mismatch")
	}
	bad := NewParamSet()
	bad.New("other", 2, 2)
	if err := CopyValuesFrom(bad, src); err == nil {
		t.Fatal("missing source param accepted")
	}
}

func TestBinderReusesNodes(t *testing.T) {
	ps := NewParamSet()
	w := ps.New("w", 1, 1)
	b := NewBinder(autodiff.NewTape())
	n1 := b.Node(w)
	n2 := b.Node(w)
	if n1 != n2 {
		t.Fatal("binder created duplicate leaves for one param")
	}
}

// allZero reports whether every element of m is zero.
func allZero(m *tensor.Matrix) bool { return tensor.Equal(m, tensor.New(m.Rows, m.Cols), 0) }
