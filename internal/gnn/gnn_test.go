package gnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

func testGraph() (*stream.Graph, sim.Cluster) {
	c := sim.DefaultCluster(5, 1000)
	g := stream.NewGraph(1000)
	for i := 0; i < 5; i++ {
		g.AddNode(stream.Node{IPT: 1000 * float64(i+1), Payload: 500})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(3, 4, 0)
	return g, c
}

func TestBuildFeaturesShapes(t *testing.T) {
	g, c := testGraph()
	f := BuildFeatures(g, c)
	if f.Node.Rows != 5 || f.Node.Cols != NodeFeatureDim {
		t.Fatalf("node feats %dx%d", f.Node.Rows, f.Node.Cols)
	}
	if f.Edge.Rows != 5 || f.Edge.Cols != EdgeFeatureDim {
		t.Fatalf("edge feats %dx%d", f.Edge.Rows, f.Edge.Cols)
	}
	if len(f.Src) != 5 || len(f.Dst) != 5 {
		t.Fatal("src/dst lengths")
	}
}

func TestBuildFeaturesSourceSinkFlags(t *testing.T) {
	g, c := testGraph()
	f := BuildFeatures(g, c)
	if f.Node.At(0, 4) != 1 { // node 0 is the source
		t.Fatal("source flag missing")
	}
	if f.Node.At(4, 5) != 1 { // node 4 is the sink
		t.Fatal("sink flag missing")
	}
	if f.Node.At(1, 4) != 0 || f.Node.At(1, 5) != 0 {
		t.Fatal("interior node flagged")
	}
}

func TestBuildFeaturesNormalization(t *testing.T) {
	g, c := testGraph()
	f := BuildFeatures(g, c)
	// CPU utilization features must be load/capacity.
	load := g.NodeLoad()
	for v := 0; v < g.NumNodes(); v++ {
		want := load[v] / c.InstructionCapacity()
		if math.Abs(f.Node.At(v, 0)-want) > 1e-12 {
			t.Fatalf("node %d util %g want %g", v, f.Node.At(v, 0), want)
		}
	}
	// Edge saturation features must be traffic/bandwidth.
	tr := g.EdgeTraffic()
	for e := 0; e < g.NumEdges(); e++ {
		want := tr[e] / c.Bandwidth
		if math.Abs(f.Edge.At(e, 0)-want) > 1e-12 {
			t.Fatalf("edge %d sat %g want %g", e, f.Edge.At(e, 0), want)
		}
	}
}

func TestEncodeShapesAndDeterminism(t *testing.T) {
	g, c := testGraph()
	f := BuildFeatures(g, c)
	ps := nn.NewParamSet()
	enc := NewEncoder(ps, "e", 8, 2, rand.New(rand.NewSource(1)))
	b1 := nn.NewBinder(autodiff.NewTape())
	h1 := enc.Encode(b1, f)
	if h1.Value.Rows != 5 || h1.Value.Cols != enc.OutDim() {
		t.Fatalf("shape %dx%d want 5x%d", h1.Value.Rows, h1.Value.Cols, enc.OutDim())
	}
	b2 := nn.NewBinder(autodiff.NewTape())
	h2 := enc.Encode(b2, f)
	for i := range h1.Value.Data {
		if h1.Value.Data[i] != h2.Value.Data[i] {
			t.Fatal("encode not deterministic")
		}
	}
}

func TestEncodePropagatesInformation(t *testing.T) {
	// With K=2 hops, changing the source node's feature must change the
	// embedding of a node two hops away.
	g, c := testGraph()
	ps := nn.NewParamSet()
	enc := NewEncoder(ps, "e", 8, 2, rand.New(rand.NewSource(2)))

	f1 := BuildFeatures(g, c)
	b1 := nn.NewBinder(autodiff.NewTape())
	h1 := enc.Encode(b1, f1).Value.Row(3) // node 3 is two hops from 0

	g.Nodes[0].IPT *= 10
	f2 := BuildFeatures(g, c)
	b2 := nn.NewBinder(autodiff.NewTape())
	h2 := enc.Encode(b2, f2).Value.Row(3)

	same := true
	for i := range h1 {
		if math.Abs(h1[i]-h2[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two-hop information did not propagate")
	}
}

func TestEncodeEdgeFeatureToggle(t *testing.T) {
	g, c := testGraph()
	f := BuildFeatures(g, c)
	ps := nn.NewParamSet()
	enc := NewEncoder(ps, "e", 8, 2, rand.New(rand.NewSource(3)))

	b1 := nn.NewBinder(autodiff.NewTape())
	withEdges := enc.Encode(b1, f).Value.Clone()

	enc.UseEdgeFeatures = false
	b2 := nn.NewBinder(autodiff.NewTape())
	withoutEdges := enc.Encode(b2, f).Value

	diff := false
	for i := range withEdges.Data {
		if math.Abs(withEdges.Data[i]-withoutEdges.Data[i]) > 1e-12 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("edge-feature toggle had no effect")
	}
}

func TestEncodeGradientsReachAllParams(t *testing.T) {
	g, c := testGraph()
	f := BuildFeatures(g, c)
	ps := nn.NewParamSet()
	enc := NewEncoder(ps, "e", 6, 2, rand.New(rand.NewSource(4)))
	tape := autodiff.NewTape()
	b := nn.NewBinder(tape)
	h := enc.Encode(b, f)
	tape.Backward(tape.Sum(tape.Tanh(h)), nil)
	b.Collect()
	for _, p := range ps.All() {
		if tensor.Equal(p.Grad, tensor.New(p.Grad.Rows, p.Grad.Cols), 0) {
			t.Fatalf("parameter %s received no gradient", p.Name)
		}
	}
}

func TestEncodeOnGeneratedGraphs(t *testing.T) {
	c := sim.DefaultCluster(10, 1000)
	cfg := gen.DefaultConfig(50, 80, 10_000, c)
	ps := nn.NewParamSet()
	enc := NewEncoder(ps, "e", 8, 2, rand.New(rand.NewSource(5)))
	for seed := int64(0); seed < 3; seed++ {
		g := gen.Generate(cfg, rand.New(rand.NewSource(seed)))
		f := BuildFeatures(g, c)
		b := nn.NewBinder(autodiff.NewTape())
		h := enc.Encode(b, f)
		if h.Value.Rows != g.NumNodes() {
			t.Fatal("row count mismatch")
		}
		for _, v := range h.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite embedding")
			}
		}
	}
}

func TestEncodeOnCoarseGraphWithOverrides(t *testing.T) {
	// Coarse graphs carry demand overrides and may be cyclic; feature
	// building and encoding must work on them (the Coarsen+enc-dec path).
	g, c := testGraph()
	cm := stream.CollapseEdges(g, []bool{true, false, false, true, false})
	cg := stream.CoarseGraph(g, cm)
	f := BuildFeatures(cg, c)
	ps := nn.NewParamSet()
	enc := NewEncoder(ps, "e", 4, 2, rand.New(rand.NewSource(6)))
	b := nn.NewBinder(autodiff.NewTape())
	h := enc.Encode(b, f)
	if h.Value.Rows != cg.NumNodes() {
		t.Fatal("coarse encode shape")
	}
}

// referenceEncode is the pre-fusion encoder composition (separate gather,
// matmul, add, tanh and transpose tape entries). The production Encode must
// match it — values and parameter gradients — to rounding.
func referenceEncode(b *nn.Binder, e *Encoder, f *Features) *autodiff.Node {
	t := b.Tape
	f.EnsureCSR()
	x := t.Const(f.Node)
	h := t.Tanh(t.AddRowVector(t.MatMul(x, t.Transpose(b.Node(e.In.W))), b.Node(e.In.B)))

	w1T := t.Transpose(b.Node(e.W1))
	w2T := t.Transpose(b.Node(e.W2))
	weUpT := t.Transpose(b.Node(e.WeUp))
	weDownT := t.Transpose(b.Node(e.WeDown))
	ef := t.Const(f.Edge)

	for k := 0; k < e.K; k++ {
		hup := t.SliceCols(h, 0, e.M)
		hdown := t.SliceCols(h, e.M, 2*e.M)

		msgIn := t.MatMul(t.GatherRows(h, f.Src), w1T)
		if e.UseEdgeFeatures {
			msgIn = t.Add(msgIn, t.MatMul(ef, weUpT))
		}
		aggIn := t.SegmentMeanCSR(t.Tanh(msgIn), f.InOff, f.InEdge)

		msgOut := t.MatMul(t.GatherRows(h, f.Dst), w1T)
		if e.UseEdgeFeatures {
			msgOut = t.Add(msgOut, t.MatMul(ef, weDownT))
		}
		aggOut := t.SegmentMeanCSR(t.Tanh(msgOut), f.OutOff, f.OutEdge)

		nextUp := t.Tanh(t.MatMul(t.ConcatCols(hup, aggIn), w2T))
		nextDown := t.Tanh(t.MatMul(t.ConcatCols(hdown, aggOut), w2T))
		h = t.ConcatCols(nextUp, nextDown)
	}
	return h
}

func TestEncodeFusedMatchesUnfusedReference(t *testing.T) {
	c := sim.DefaultCluster(10, 1000)
	cfg := gen.DefaultConfig(60, 100, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(7)))
	f := BuildFeatures(g, c)

	for _, useEdges := range []bool{true, false} {
		ps := nn.NewParamSet()
		enc := NewEncoder(ps, "e", 8, 2, rand.New(rand.NewSource(8)))
		enc.UseEdgeFeatures = useEdges

		run := func(fused bool) (map[string][]float64, []float64) {
			ps.ZeroGrads()
			tape := autodiff.NewTape()
			b := nn.NewBinder(tape)
			var h *autodiff.Node
			if fused {
				h = enc.Encode(b, f)
			} else {
				h = referenceEncode(b, enc, f)
			}
			tape.Backward(tape.Sum(h), nil)
			b.Collect()
			grads := make(map[string][]float64)
			for _, p := range ps.All() {
				grads[p.Name] = append([]float64(nil), p.Grad.Data...)
			}
			return grads, append([]float64(nil), h.Value.Data...)
		}
		fg, fv := run(true)
		ug, uv := run(false)

		const tol = 1e-10
		for i := range uv {
			if math.Abs(fv[i]-uv[i]) > tol*(1+math.Abs(uv[i])) {
				t.Fatalf("useEdges=%v: value[%d] fused %g vs reference %g", useEdges, i, fv[i], uv[i])
			}
		}
		for name, want := range ug {
			got := fg[name]
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
					t.Fatalf("useEdges=%v: grad %s[%d] fused %g vs reference %g", useEdges, name, i, got[i], want[i])
				}
			}
		}
	}
}
