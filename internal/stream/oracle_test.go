package stream

import (
	"fmt"
	"sort"
)

// CollapseEdgesMap and CoarseGraphMap are the map-based builders that
// CollapseEdges and CoarseGraph replaced, kept as oracles: the rewrites
// must reproduce them bit for bit (see coarse_oracle_test.go). They are
// exported only to this package's external tests.
func CollapseEdgesMap(g *Graph, collapse []bool) *CoarseMap {
	uf := newUnionFind(len(g.Nodes))
	for ei, c := range collapse {
		if c {
			uf.union(g.Edges[ei].Src, g.Edges[ei].Dst)
		}
	}
	n := len(g.Nodes)
	super := make([]int, n)
	next := 0
	rootID := make(map[int]int, n)
	for v := 0; v < n; v++ {
		r := uf.find(v)
		id, ok := rootID[r]
		if !ok {
			id = next
			next++
			rootID[r] = id
		}
		super[v] = id
	}
	return &CoarseMap{Super: super, NumSuper: next}
}

func CoarseGraphMap(g *Graph, cm *CoarseMap) *Graph {
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()
	cg := NewGraph(g.SourceRate)
	superLoad := make([]float64, cm.NumSuper)
	for v, s := range cm.Super {
		superLoad[s] += load[v]
	}
	for s := 0; s < cm.NumSuper; s++ {
		cg.AddNode(Node{
			IPT:         superLoad[s] / g.SourceRate,
			Payload:     0,
			Selectivity: 1,
			Name:        fmt.Sprintf("s%d", s),
		})
	}
	agg := make(map[int]float64)
	for ei, e := range g.Edges {
		su, sv := cm.Super[e.Src], cm.Super[e.Dst]
		if su == sv {
			continue
		}
		agg[su*cm.NumSuper+sv] += traffic[ei]
	}
	keys := make([]int, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	superTraffic := make([]float64, 0, len(keys))
	for _, k := range keys {
		su, sv := k/cm.NumSuper, k%cm.NumSuper
		cg.AddEdge(su, sv, agg[k]/g.SourceRate)
		superTraffic = append(superTraffic, agg[k])
	}
	cg.SetDemandOverrides(superLoad, superTraffic)
	return cg
}
