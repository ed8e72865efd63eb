package stream_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// TestCoarseningMatchesMapOracle pins CollapseEdges and CoarseGraph to the
// map-based builders they replaced: on generated graphs under random
// collapse decisions of every density, the super map, every coarse node
// and edge, and the demand overrides must be Float64bits-identical —
// whether CoarseGraph reads the graph itself or its DemandView.
func TestCoarseningMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []gen.Setting{gen.Small(), gen.Medium(), gen.Medium5K(), gen.Large()} {
		for gi, g := range gen.GenerateSet(s.Config, 3, s.Seed) {
			view := g.DemandView()
			for _, density := range []float64{0, 0.05, 0.3, 0.7, 1} {
				d := make([]bool, g.NumEdges())
				for i := range d {
					d[i] = rng.Float64() < density
				}
				want := stream.CollapseEdgesMap(g, d)
				cm := stream.CollapseEdges(g, d)
				if cm.NumSuper != want.NumSuper {
					t.Fatalf("%s graph %d density %g: %d supers, oracle %d", s.Name, gi, density, cm.NumSuper, want.NumSuper)
				}
				for v := range want.Super {
					if cm.Super[v] != want.Super[v] {
						t.Fatalf("%s graph %d density %g: node %d in super %d, oracle %d", s.Name, gi, density, v, cm.Super[v], want.Super[v])
					}
				}
				wantG := stream.CoarseGraphMap(g, want)
				for _, src := range []*stream.Graph{g, view} {
					sameCoarse(t, s.Name, stream.CoarseGraph(src, cm), wantG)
				}
			}
		}
	}
}

func sameCoarse(t *testing.T, name string, got, want *stream.Graph) {
	t.Helper()
	bits := math.Float64bits
	if got.SourceRate != want.SourceRate || got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: coarse graph %d nodes/%d edges, oracle %d/%d", name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i, n := range want.Nodes {
		if got.Nodes[i] != n || bits(got.Nodes[i].IPT) != bits(n.IPT) {
			t.Fatalf("%s: node %d = %+v, oracle %+v", name, i, got.Nodes[i], n)
		}
	}
	for i, e := range want.Edges {
		ge := got.Edges[i]
		if ge.Src != e.Src || ge.Dst != e.Dst || bits(ge.Payload) != bits(e.Payload) {
			t.Fatalf("%s: edge %d = %+v, oracle %+v", name, i, ge, e)
		}
	}
	for _, pair := range [][2][]float64{{got.NodeLoad(), want.NodeLoad()}, {got.EdgeTraffic(), want.EdgeTraffic()}} {
		for i := range pair[1] {
			if bits(pair[0][i]) != bits(pair[1][i]) {
				t.Fatalf("%s: demand override %d = %v, oracle %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestDemandViewSharesDemands pins the view's contract: the same
// NodeLoad/EdgeTraffic bits as the graph, over the same nodes and edges.
func TestDemandViewSharesDemands(t *testing.T) {
	g := gen.GenerateSet(gen.Medium().Config, 1, 5)[0]
	v := g.DemandView()
	if &v.Nodes[0] != &g.Nodes[0] || &v.Edges[0] != &g.Edges[0] || v.SourceRate != g.SourceRate {
		t.Fatal("view must share the graph's nodes and edges")
	}
	for _, pair := range [][2][]float64{{v.NodeLoad(), g.NodeLoad()}, {v.EdgeTraffic(), g.EdgeTraffic()}} {
		for i := range pair[1] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("demand %d: view %v, graph %v", i, pair[0][i], pair[1][i])
			}
		}
	}
}
