package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// TestAllocateRankedMatchesPublicStages pins the ranked sweep to the
// composition of the public stages it is built from: for every sweep
// target, CoarsenToRanked → CollapseEdges → CoarseGraph → Placer.Place →
// ExpandPlacement → sim.Simulate on the raw graph, keeping the first best
// reward. The sweep's shared demand view, incremental union-find and
// returned Result must reproduce that winner Float64bits for Float64bits.
func TestAllocateRankedMatchesPublicStages(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pl := &Pipeline{Model: New(DefaultConfig()), Placer: placer.Metis{Seed: 1}}
	for _, s := range []gen.Setting{gen.Medium(), gen.Medium5K()} {
		for gi, g := range gen.GenerateSet(s.Config, 3, s.Seed) {
			random := make([]float64, g.NumEdges())
			ties := make([]float64, g.NumEdges())
			for i := range random {
				random[i] = rng.Float64()
				ties[i] = float64(rng.Intn(4)) // equal scores break by edge index
			}
			// On an over-provisioned cluster every candidate sustains the
			// full rate, so the lowest-index tie-break alone picks the winner.
			roomy := s.Cluster
			roomy.MIPS *= 1e6
			roomy.Bandwidth *= 1e6
			for ci, c := range []sim.Cluster{s.Cluster, roomy} {
				for si, score := range [][]float64{pl.Model.Probs(g, c), random, ties} {
					name := fmt.Sprintf("%s graph %d cluster %d score %d", s.Name, gi, ci, si)
					checkSweep(t, name, pl, g, c, score)
				}
			}
		}
	}
}

func checkSweep(t *testing.T, name string, pl *Pipeline, g *stream.Graph, c sim.Cluster, score []float64) {
	t.Helper()
	got := pl.AllocateRanked(g, c, score)
	want, wantCM := composeStages(t, pl, g, c, score)
	if got.Coarse.NumSuper != wantCM.NumSuper {
		t.Fatalf("%s: winner has %d supers, stages %d", name, got.Coarse.NumSuper, wantCM.NumSuper)
	}
	for v, d := range want.Placement.Assign {
		if got.Placement.Assign[v] != d {
			t.Fatalf("%s: node %d on device %d, stages %d", name, v, got.Placement.Assign[v], d)
		}
	}
	sameResult(t, name, got.Result, want.Result)
	if r := sim.Reward(g, got.Placement, c); math.Float64bits(r) != math.Float64bits(got.Result.Relative) {
		t.Fatalf("%s: Result.Relative %v, sim.Reward %v", name, got.Result.Relative, r)
	}
}

// composeStages runs every sweep candidate through the public stage
// functions on the raw graph and returns the first best.
func composeStages(t *testing.T, pl *Pipeline, g *stream.Graph, c sim.Cluster, score []float64) (Allocation, *stream.CoarseMap) {
	t.Helper()
	var best Allocation
	var bestCM *stream.CoarseMap
	for _, target := range SweepTargets(g.NumNodes(), c.Devices) {
		cm := stream.CollapseEdges(g, CoarsenToRanked(g, target, score))
		cp := pl.Placer.Place(stream.CoarseGraph(g, cm), c)
		p := stream.ExpandPlacement(cm, cp)
		res, err := sim.Simulate(g, p, c)
		if err != nil {
			t.Fatal(err)
		}
		if bestCM == nil || res.Relative > best.Result.Relative {
			best, bestCM = Allocation{Placement: p, Result: res}, cm
		}
	}
	return best, bestCM
}

func sameResult(t *testing.T, name string, got, want sim.Result) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.Throughput) != bits(want.Throughput) || bits(got.Relative) != bits(want.Relative) ||
		got.Bottleneck != want.Bottleneck || got.BottleneckDevice != want.BottleneckDevice ||
		len(got.DeviceUtil) != len(want.DeviceUtil) || len(got.NetUtil) != len(want.NetUtil) {
		t.Fatalf("%s: Result %+v, stages %+v", name, got, want)
	}
	for d := range want.DeviceUtil {
		if bits(got.DeviceUtil[d]) != bits(want.DeviceUtil[d]) || bits(got.NetUtil[d]) != bits(want.NetUtil[d]) {
			t.Fatalf("%s: device %d utilization %v/%v, stages %v/%v", name, d,
				got.DeviceUtil[d], got.NetUtil[d], want.DeviceUtil[d], want.NetUtil[d])
		}
	}
}
