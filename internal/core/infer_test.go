package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// tapeProbs records the training-path forward (EdgeProbs) on a fresh
// binder and returns its merge probabilities.
func tapeProbs(mo *Model, g *stream.Graph, c sim.Cluster) []float64 {
	p := mo.EdgeProbs(nn.NewBinder(autodiff.NewTape()), gnn.BuildFeatures(g, c))
	out := make([]float64, g.NumEdges())
	copy(out, p.Value.Data)
	return out
}

// inferProbs runs the zero-tape forward with parameters read through r.
func inferProbs(mo *Model, g *stream.Graph, c sim.Cluster, r nn.ValueReader) []float64 {
	return mo.InferProbsInto(r, gnn.BuildFeatures(g, c), make([]float64, g.NumEdges()))
}

// TestInferProbsBitIdentical pins the serving contract: the tape-free
// forward pass must produce bit-for-bit the same merge probabilities as
// the training-path tape, for the live values and for a snapshot, across
// a spread of graph sizes and both ablation configs.
func TestInferProbsBitIdentical(t *testing.T) {
	for _, s := range []gen.Setting{gen.Small(), gen.Medium5K()} {
		graphs := s.Generate().Test
		if len(graphs) > 4 {
			graphs = graphs[:4]
		}
		for _, cfg := range []Config{
			DefaultConfig(),
			{UseEdgeEncoding: false, UseEdgeCollapse: false, Seed: 7},
		} {
			mo := New(cfg)
			snap := nn.NewSnapshot(mo.PS)
			for gi, g := range graphs {
				want := tapeProbs(mo, g, s.Cluster)
				gotLive := inferProbs(mo, g, s.Cluster, nn.LiveValues{})
				gotSnap := inferProbs(mo, g, s.Cluster, snap)
				if len(want) != len(gotLive) || len(want) != len(gotSnap) {
					t.Fatalf("%s graph %d: length mismatch %d/%d/%d",
						s.Name, gi, len(want), len(gotLive), len(gotSnap))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(gotLive[i]) {
						t.Fatalf("%s graph %d edge %d (live): tape %v infer %v",
							s.Name, gi, i, want[i], gotLive[i])
					}
					if math.Float64bits(want[i]) != math.Float64bits(gotSnap[i]) {
						t.Fatalf("%s graph %d edge %d (snapshot): tape %v infer %v",
							s.Name, gi, i, want[i], gotSnap[i])
					}
				}
			}
		}
	}
}

// TestProbsMatchesTapeOnTinyGraphs pins Probs against the tape forward on
// the degenerate graphs multilevel coarsening can shrink to: edgeless
// graphs of one and three operators, and a single edge.
func TestProbsMatchesTapeOnTinyGraphs(t *testing.T) {
	c := sim.DefaultCluster(2, 1000)
	chain := func(n, edges int) *stream.Graph {
		g := stream.NewGraph(1000)
		for i := 0; i < n; i++ {
			g.AddNode(stream.Node{IPT: float64(10 * (i + 1)), Payload: 64})
		}
		for i := 0; i < edges; i++ {
			g.AddEdge(i, i+1, 0)
		}
		return g
	}
	graphs := map[string]*stream.Graph{
		"one-node":   chain(1, 0),
		"three-node": chain(3, 0),
		"one-edge":   chain(2, 1),
	}
	mo := New(DefaultConfig())
	for name, g := range graphs {
		want := tapeProbs(mo, g, c)
		got := mo.Probs(g, c)
		if len(got) != g.NumEdges() || len(want) != len(got) {
			t.Fatalf("%s: Probs length %d, tape %d, edges %d", name, len(got), len(want), g.NumEdges())
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s edge %d: tape %v, Probs %v", name, i, want[i], got[i])
			}
		}
	}
}

// TestInferProbsAcrossGOMAXPROCS pins that the tape-free path is
// bit-identical whether the blocked kernels run serial or parallel.
func TestInferProbsAcrossGOMAXPROCS(t *testing.T) {
	s := gen.Medium5K()
	g := s.Generate().Test[0]
	mo := New(DefaultConfig())

	prev := runtime.GOMAXPROCS(1)
	one := inferProbs(mo, g, s.Cluster, nn.LiveValues{})
	runtime.GOMAXPROCS(prev)
	many := inferProbs(mo, g, s.Cluster, nn.LiveValues{})
	for i := range one {
		if math.Float64bits(one[i]) != math.Float64bits(many[i]) {
			t.Fatalf("edge %d: GOMAXPROCS=1 %v, GOMAXPROCS=%d %v", i, one[i], prev, many[i])
		}
	}
}

// TestAllocateRankedOnInferProbs pins the end-to-end serving claim at the
// core layer: ranking the zero-tape probabilities yields exactly the
// placement the offline Pipeline.Allocate computes.
func TestAllocateRankedOnInferProbs(t *testing.T) {
	s := gen.Small()
	pl := &Pipeline{Model: New(DefaultConfig()), Placer: placer.Metis{Seed: 1}}
	snap := nn.NewSnapshot(pl.Model.PS)
	for gi, g := range s.Generate().Test[:4] {
		offline := pl.Allocate(g, s.Cluster)
		served := pl.AllocateRanked(g, s.Cluster, inferProbs(pl.Model, g, s.Cluster, snap))
		if len(offline.Placement.Assign) != len(served.Placement.Assign) {
			t.Fatalf("graph %d: assign length mismatch", gi)
		}
		for i := range offline.Placement.Assign {
			if offline.Placement.Assign[i] != served.Placement.Assign[i] {
				t.Fatalf("graph %d node %d: offline device %d, served device %d",
					gi, i, offline.Placement.Assign[i], served.Placement.Assign[i])
			}
		}
		ro := sim.Reward(g, offline.Placement, s.Cluster)
		rs := sim.Reward(g, served.Placement, s.Cluster)
		if math.Float64bits(ro) != math.Float64bits(rs) {
			t.Fatalf("graph %d: reward mismatch %v vs %v", gi, ro, rs)
		}
	}
}
