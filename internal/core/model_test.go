package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

func testSetup(t *testing.T) (*stream.Graph, sim.Cluster, *Model) {
	t.Helper()
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(40, 60, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(3)))
	m := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Hops: 2, Seed: 1,
		UseEdgeEncoding: true, UseEdgeCollapse: true})
	return g, c, m
}

func TestProbsInUnitInterval(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	if len(probs) != g.NumEdges() {
		t.Fatalf("probs length %d, edges %d", len(probs), g.NumEdges())
	}
	for i, p := range probs {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			t.Fatalf("prob[%d] = %g", i, p)
		}
	}
}

func TestInitialBiasTowardSparseCollapse(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	var mean float64
	for _, p := range probs {
		mean += p
	}
	mean /= float64(len(probs))
	if mean > 0.4 {
		t.Fatalf("untrained mean collapse prob %g; want sparse (<0.4)", mean)
	}
}

func TestGreedyMatchesProbsThreshold(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	d := m.Greedy(g, c)
	for i := range d {
		if d[i] != (probs[i] >= 0.5) {
			t.Fatal("greedy decision mismatch")
		}
	}
}

// sampleDecision draws Bernoulli collapse decisions from merge
// probabilities, the way training samples them.
func sampleDecision(probs []float64, rng *rand.Rand) Decision {
	d := make(Decision, len(probs))
	for i, p := range probs {
		d[i] = rng.Float64() < p
	}
	return d
}

func TestSampleDeterministicGivenSeed(t *testing.T) {
	g, c, m := testSetup(t)
	d1 := sampleDecision(m.Probs(g, c), rand.New(rand.NewSource(5)))
	d2 := sampleDecision(m.Probs(g, c), rand.New(rand.NewSource(5)))
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("sampling not reproducible")
		}
	}
}

func TestLogProbLossGradientDirection(t *testing.T) {
	// With positive advantage, a gradient step must increase the
	// probability of the sampled decisions.
	g, c, m := testSetup(t)
	d := sampleDecision(m.Probs(g, c), rand.New(rand.NewSource(7)))
	before := m.Probs(g, c)

	f := gnn.BuildFeatures(g, c)
	opt := nn.NewAdam(0.01)
	for i := 0; i < 20; i++ {
		tape := autodiff.NewTape()
		b := nn.NewBinder(tape)
		probs := m.EdgeProbs(b, f)
		loss := LogProbLoss(b, probs, d, 1.0/float64(len(d)))
		m.PS.ZeroGrads()
		tape.Backward(loss, nil)
		b.Collect()
		opt.Step(m.PS)
	}
	after := m.Probs(g, c)
	var likBefore, likAfter float64
	for i := range d {
		if d[i] {
			likBefore += math.Log(before[i])
			likAfter += math.Log(after[i])
		} else {
			likBefore += math.Log(1 - before[i])
			likAfter += math.Log(1 - after[i])
		}
	}
	if likAfter <= likBefore {
		t.Fatalf("likelihood did not increase: %g -> %g", likBefore, likAfter)
	}
}

func TestAblationTogglesChangeOutput(t *testing.T) {
	g, c, _ := testSetup(t)
	base := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Seed: 1, UseEdgeEncoding: true, UseEdgeCollapse: true})
	noEnc := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Seed: 1, UseEdgeEncoding: false, UseEdgeCollapse: true})
	noCol := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Seed: 1, UseEdgeEncoding: true, UseEdgeCollapse: false})
	pb, pe, pc := base.Probs(g, c), noEnc.Probs(g, c), noCol.Probs(g, c)
	if equalFloats(pb, pe) {
		t.Fatal("edge-encoding toggle had no effect")
	}
	if equalFloats(pb, pc) {
		t.Fatal("edge-collapse toggle had no effect")
	}
}

func equalFloats(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestAllocateDecisionRoundTrip(t *testing.T) {
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	d := sampleDecision(m.Probs(g, c), rand.New(rand.NewSource(8)))
	a := pipe.AllocateDecision(g, c, d)
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
	if a.CoarseGraph.NumNodes() != a.Coarse.NumSuper {
		t.Fatal("coarse graph size mismatch")
	}
	// All members of a super-node share a device.
	for v, s := range a.Coarse.Super {
		for w, s2 := range a.Coarse.Super {
			if s == s2 && a.Placement.Assign[v] != a.Placement.Assign[w] {
				t.Fatal("super-node split across devices")
			}
		}
	}
}

func TestAllocateNeverWorseThanNoCoarsen(t *testing.T) {
	// The ranked sweep includes the no-coarsening candidate, so its result
	// can never be worse than handing the raw graph to the placer.
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	a := pipe.Allocate(g, c)
	raw := pipe.AllocateDecision(g, c, make(Decision, g.NumEdges()))
	if sim.Reward(g, a.Placement, c) < sim.Reward(g, raw.Placement, c)-1e-12 {
		t.Fatal("sweep returned worse than the no-coarsen candidate")
	}
}

func TestAllocateGreedyValid(t *testing.T) {
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	a := pipe.AllocateGreedy(g, c)
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateRankedRespectsRanking(t *testing.T) {
	// Rank exactly one edge first with a huge score; any coarsening the
	// sweep evaluates beyond the no-op must include that edge.
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	score := make([]float64, g.NumEdges())
	score[3] = 100
	a := pipe.AllocateRanked(g, c, score)
	if a.Coarse.NumSuper < g.NumNodes() { // some coarsening won
		e := g.Edges[3]
		if a.Coarse.Super[e.Src] != a.Coarse.Super[e.Dst] {
			t.Fatal("top-ranked edge not collapsed in a coarsened winner")
		}
	}
}

func TestCoarsenOnlyTargetsDeviceCount(t *testing.T) {
	g, c, m := testSetup(t)
	a := m.CoarsenOnly(g, c)
	if a.Coarse.NumSuper > c.Devices {
		// Only possible when the graph is disconnected beyond repair; our
		// generated graphs are weakly connected, so this must reach the
		// device count.
		t.Fatalf("coarsen-only left %d super-nodes for %d devices", a.Coarse.NumSuper, c.Devices)
	}
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Each super-node maps to a distinct device (round-robin over ≤ k).
	if a.Placement.UsedDevices() != a.Coarse.NumSuper {
		t.Fatalf("used %d devices for %d super-nodes", a.Placement.UsedDevices(), a.Coarse.NumSuper)
	}
}

// Property: EdgeProbs output is finite and in (0,1) for random graphs.
func TestQuickEdgeProbsWellFormed(t *testing.T) {
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(10, 40, 10_000, c)
	m := New(Config{Hidden: 6, EdgeDim: 3, MergeDim: 6, Seed: 2, UseEdgeEncoding: true, UseEdgeCollapse: true})
	f := func(seed int64) bool {
		g := gen.Generate(cfg, rand.New(rand.NewSource(seed)))
		for _, p := range m.Probs(g, c) {
			if p <= 0 || p >= 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaultsFilledIn(t *testing.T) {
	m := New(Config{Seed: 1, UseEdgeEncoding: true, UseEdgeCollapse: true})
	if m.Cfg.Hidden == 0 || m.Cfg.MergeDim == 0 || m.Cfg.Hops == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestCoarsenToTargets(t *testing.T) {
	g, c, m := testSetup(t)
	for _, target := range []int{1, 3, 10, g.NumNodes()} {
		d := m.CoarsenTo(g, c, target)
		cm := stream.CollapseEdges(g, d)
		if cm.NumSuper > target && target >= 1 {
			// Only reachable if the graph is disconnected; generated
			// graphs are weakly connected.
			t.Fatalf("target %d: got %d super-nodes", target, cm.NumSuper)
		}
	}
	// Target = node count means no collapsing at all.
	d := m.CoarsenTo(g, c, g.NumNodes())
	for _, x := range d {
		if x {
			t.Fatal("collapsed edges despite identity target")
		}
	}
}
