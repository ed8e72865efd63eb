// Package core implements the paper's primary contribution: the
// edge-collapsing coarsening model (§IV) and the coarsening–partitioning
// pipeline built around it (§III).
//
// The model encodes a stream graph with the edge-aware GNN
// (internal/gnn), builds an edge representation from the head node's
// projected embedding, the tail node's projected embedding, and the edge
// features, and emits a per-edge merge probability through an MLP with a
// sigmoid output (§IV-B). Sampling these Bernoulli decisions yields a
// coarse map; the coarse graph is partitioned by a pluggable placer and
// the placement is expanded back to the original operators.
package core

import (
	"math/rand"
	"sort"

	"repro/internal/autodiff"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// Config sets the coarsening model's dimensions.
type Config struct {
	// Hidden is the GNN half-embedding width M (node representations are
	// 2M). The paper uses 256 halves (512 total); the default here is CPU
	// friendly and configurable up to paper scale.
	Hidden int
	// EdgeDim is the width of the projected edge-feature vector inside the
	// edge representation (paper: 128).
	EdgeDim int
	// MergeDim is the edge-representation width fed to the merge MLP.
	MergeDim int
	// Hops is the number of GNN iterations K (paper: 2).
	Hops int
	// Seed initializes the parameters.
	Seed int64
	// UseEdgeEncoding toggles edge features inside the GNN (Table II
	// "w/o edge-encoding" ablation sets this false).
	UseEdgeEncoding bool
	// UseEdgeCollapse toggles edge features inside the edge representation
	// (Table II "w/o edge-collapsing [features]" ablation sets this false).
	UseEdgeCollapse bool
}

// DefaultConfig returns a CPU-scale configuration.
func DefaultConfig() Config {
	return Config{
		Hidden:          24,
		EdgeDim:         8,
		MergeDim:        32,
		Hops:            2,
		Seed:            1,
		UseEdgeEncoding: true,
		UseEdgeCollapse: true,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Hidden == 0 {
		c.Hidden = d.Hidden
	}
	if c.EdgeDim == 0 {
		c.EdgeDim = d.EdgeDim
	}
	if c.MergeDim == 0 {
		c.MergeDim = d.MergeDim
	}
	if c.Hops == 0 {
		c.Hops = d.Hops
	}
	return c
}

// Model is the edge-collapsing coarsening model.
type Model struct {
	Cfg Config
	PS  *nn.ParamSet
	Enc *gnn.Encoder

	wHead *nn.Param // M×2M head-node projection
	wTail *nn.Param // M×2M tail-node projection
	wEdge *nn.Param // EdgeDim×EdgeFeatureDim edge-feature projection
	w1m   *nn.Param // MergeDim×(2M+EdgeDim) merge projection
	head  *nn.MLP   // MergeDim → MergeDim → 1, sigmoid output
}

// New constructs a model with freshly initialized parameters.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	m := cfg.Hidden
	enc := gnn.NewEncoder(ps, "enc", m, cfg.Hops, rng)
	enc.UseEdgeFeatures = cfg.UseEdgeEncoding
	head := nn.NewMLP(ps, "merge.head", []int{cfg.MergeDim, cfg.MergeDim, 1}, nn.ActTanh, nn.ActSigmoid, rng)
	// Bias the initial merge probability toward sparse collapsing (~0.2):
	// an untrained symmetric head collapses half of all edges per sample,
	// which is a uniformly catastrophic region of the search space and
	// stalls REINFORCE during the cold start (§IV-C).
	lastBias := ps.Get("merge.head.l1.b")
	lastBias.Value.Data[0] = -1.4
	return &Model{
		Cfg:   cfg,
		PS:    ps,
		Enc:   enc,
		wHead: ps.NewXavier("head.W", m, 2*m, rng),
		wTail: ps.NewXavier("tail.W", m, 2*m, rng),
		wEdge: ps.NewXavier("edge.W", cfg.EdgeDim, gnn.EdgeFeatureDim, rng),
		w1m:   ps.NewXavier("merge.W1", cfg.MergeDim, 2*m+cfg.EdgeDim, rng),
		head:  head,
	}
}

// EdgeProbs records the full forward pass on the binder's tape and returns
// the E×1 vector of merge probabilities. Only training records it, for
// the gradients; inference runs the bit-identical zero-tape pass (Probs,
// InferProbsInto).
func (mo *Model) EdgeProbs(b *nn.Binder, f *gnn.Features) *autodiff.Node {
	t := b.Tape
	h := mo.Enc.Encode(b, f) // N×2M

	hHead := t.MatMul(t.GatherRows(h, f.Src), t.Transpose(b.Node(mo.wHead))) // E×M
	hTail := t.MatMul(t.GatherRows(h, f.Dst), t.Transpose(b.Node(mo.wTail))) // E×M

	var eProj *autodiff.Node
	if mo.Cfg.UseEdgeCollapse {
		eProj = t.MatMul(t.Const(f.Edge), t.Transpose(b.Node(mo.wEdge))) // E×EdgeDim
	} else {
		eProj = t.Const(tensor.New(f.Edge.Rows, mo.Cfg.EdgeDim))
	}
	hEdge := t.MatMul(t.ConcatCols(hHead, hTail, eProj), t.Transpose(b.Node(mo.w1m)))
	return mo.head.Apply(b, hEdge) // E×1, sigmoid
}

// Probs computes merge probabilities outside any training loop. It runs
// the zero-tape forward pass (InferProbsInto) on the live parameters: the
// one inference forward, shared by offline allocation and serving.
func (mo *Model) Probs(g *stream.Graph, c sim.Cluster) []float64 {
	f := gnn.BuildFeatures(g, c)
	return mo.InferProbsInto(nn.LiveValues{}, f, make([]float64, g.NumEdges()))
}

// Decision is a per-edge collapse decision vector.
type Decision []bool

// Greedy thresholds merge probabilities at 0.5.
func (mo *Model) Greedy(g *stream.Graph, c sim.Cluster) Decision {
	probs := mo.Probs(g, c)
	d := make(Decision, len(probs))
	for i, p := range probs {
		d[i] = p >= 0.5
	}
	return d
}

// LogProb records Σ_e [d_e·log p_e + (1−d_e)·log(1−p_e)] weighted by a
// scalar advantage, as the REINFORCE objective for one sampled decision
// vector. The caller accumulates gradients of the returned scalar.
func LogProbLoss(b *nn.Binder, probs *autodiff.Node, d Decision, advantage float64) *autodiff.Node {
	t := b.Tape
	e := probs.Value.Rows
	// mask: 1 where collapsed; loss = Σ adv·[mask·log p + (1-mask)·log(1-p)].
	mask := tensor.New(e, 1)
	inv := tensor.New(e, 1)
	for i, di := range d {
		if di {
			mask.Data[i] = 1
		} else {
			inv.Data[i] = 1
		}
	}
	ones := tensor.New(e, 1)
	ones.Fill(1)
	logP := t.Log(probs)
	log1mP := t.Log(t.Sub(t.Const(ones), probs))
	term := t.Add(t.Mul(t.Const(mask), logP), t.Mul(t.Const(inv), log1mP))
	// Negative advantage-weighted log-likelihood: minimizing this ascends
	// the REINFORCE objective.
	return t.Scale(t.Sum(term), -advantage)
}

// Pipeline is the full coarsening–partitioning framework: coarsen with the
// model, partition the coarse graph with Placer, expand back.
type Pipeline struct {
	Model  *Model
	Placer placer.Placer
}

// Allocation bundles the outputs of one end-to-end allocation.
type Allocation struct {
	Placement *stream.Placement
	Coarse    *stream.CoarseMap
	// CoarseGraph is the graph the placer saw.
	CoarseGraph *stream.Graph
	// Result is the simulated steady state of Placement on the original
	// graph. AllocateRanked fills it with the winner's simulation, so
	// callers need not simulate the placement again; the other
	// constructors leave it zero.
	Result sim.Result
}

// AllocateDecision runs the pipeline with an explicit decision vector.
func (pl *Pipeline) AllocateDecision(g *stream.Graph, c sim.Cluster, d Decision) Allocation {
	cm := stream.CollapseEdges(g, d)
	cg := stream.CoarseGraph(g, cm)
	cp := pl.Placer.Place(cg, c)
	return Allocation{
		Placement:   stream.ExpandPlacement(cm, cp),
		Coarse:      cm,
		CoarseGraph: cg,
	}
}

// Allocate runs deployment-time inference: one forward pass produces the
// model's merge probabilities; edges are ranked by probability and a small
// grid of collapse counts along that ranking is evaluated through the
// pipeline with the fast fluid simulator, keeping the best.
//
// This ranking-sweep inference is a documented adaptation of the paper's
// direct thresholding (DESIGN.md §2): at CPU-scale training the Bernoulli
// policy converges to a discriminative but unsaturated equilibrium, so a
// fixed 0.5 threshold discards what the model learned; the ranking is
// still entirely the model's. The sweep costs |fractions| extra simulator
// calls (microseconds each), mirroring how Metis itself re-runs with
// different coarsening scales.
func (pl *Pipeline) Allocate(g *stream.Graph, c sim.Cluster) Allocation {
	probs := pl.Model.Probs(g, c)
	return pl.AllocateRanked(g, c, probs)
}

// AllocateRanked sweeps coarsening ratios along an edge ranking: edges are
// collapsed in descending score order (skipping cycle-closing edges), and
// each time the super-node count crosses the next target size the
// corresponding decision snapshot is evaluated end-to-end. The best
// allocation wins (the first on ties) and carries its simulation in
// Result. Target sizes are multiples of the device count, the same knob
// Metis exposes as its coarsening scale.
func (pl *Pipeline) AllocateRanked(g *stream.Graph, c sim.Cluster, score []float64) Allocation {
	n := g.NumNodes()
	type pe struct {
		ei int
		p  float64
	}
	order := make([]pe, len(score))
	for i, p := range score {
		order[i] = pe{i, p}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].p != order[b].p {
			return order[a].p > order[b].p
		}
		return order[a].ei < order[b].ei
	})
	targets := SweepTargets(n, c.Devices)

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Every candidate coarsens, partitions and simulates the same graph:
	// propagate its steady-state demands once and let all of them read
	// the result (bit-identical to recomputing them per call).
	view := g.DemandView()
	d := make(Decision, len(score))
	comps := n
	var best Allocation
	bestR := -1.0
	evalSnapshot := func() {
		snap := make(Decision, len(d))
		copy(snap, d)
		a := pl.AllocateDecision(view, c, snap)
		res, err := sim.Simulate(view, a.Placement, c)
		if err != nil {
			panic("core: ranked sweep produced an invalid placement: " + err.Error())
		}
		if res.Relative > bestR {
			a.Result = res
			best, bestR = a, res.Relative
		}
	}
	ti := 0
	next := 0
	for ti < len(targets) && comps <= targets[ti] {
		evalSnapshot()
		ti++
	}
	for ti < len(targets) && next < len(order) {
		e := g.Edges[order[next].ei]
		ru, rv := find(e.Src), find(e.Dst)
		if ru != rv {
			parent[ru] = rv
			d[order[next].ei] = true
			comps--
			for ti < len(targets) && comps <= targets[ti] {
				evalSnapshot()
				ti++
			}
		}
		next++
	}
	return best
}

// SweepTargets lists the super-node counts AllocateRanked evaluates for n
// operators on k devices, in its order: descending, starting at n.
func SweepTargets(n, k int) []int {
	// Candidate super-node counts: light coarsenings as fractions of n
	// (where most of the benefit typically lies) plus heavy coarsenings as
	// multiples of the device count.
	var raw []int
	for _, f := range []float64{1, 0.92, 0.84, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25} {
		raw = append(raw, int(f*float64(n)))
	}
	// Sub-device-count targets let the pipeline use fewer devices than
	// available — essential in the excess-device setting, where the
	// optimal allocation leaves devices idle.
	for _, m := range []float64{8, 4, 2, 1, 0.75, 0.5, 0.25} {
		t := int(m * float64(k))
		if t >= 1 {
			raw = append(raw, t)
		}
	}
	targets := []int{n}
	for _, t := range raw {
		if t >= 1 && t < targets[len(targets)-1] {
			targets = append(targets, t)
		}
	}
	return targets
}

// AllocateGreedy runs pure threshold-0.5 inference (used by ablations).
func (pl *Pipeline) AllocateGreedy(g *stream.Graph, c sim.Cluster) Allocation {
	return pl.AllocateDecision(g, c, pl.Model.Greedy(g, c))
}

// Reward simulates an allocation and returns the relative throughput.
func Reward(g *stream.Graph, a Allocation, c sim.Cluster) float64 {
	return sim.Reward(g, a.Placement, c)
}

// CoarsenTo collapses edges by descending merge probability until at most
// target super-nodes remain (cycle-closing edges along the ranking are
// skipped) and returns the resulting decision vector.
func (mo *Model) CoarsenTo(g *stream.Graph, c sim.Cluster, target int) Decision {
	return CoarsenToRanked(g, target, mo.Probs(g, c))
}

// CoarsenToRanked collapses edges by descending score (index ascending on
// ties, so equal scores coarsen deterministically) until at most target
// super-nodes remain; edges whose endpoints already share a super-node are
// skipped. It is the ranking half of CoarsenTo with the model factored
// out, which lets the multilevel driver reuse one forward pass's scores.
func CoarsenToRanked(g *stream.Graph, target int, score []float64) Decision {
	type pe struct {
		ei int
		p  float64
	}
	order := make([]pe, len(score))
	for i, p := range score {
		order[i] = pe{i, p}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].p != order[b].p {
			return order[a].p > order[b].p
		}
		return order[a].ei < order[b].ei
	})
	d := make(Decision, len(score))
	// Collapse greedily while tracking component count via union-find.
	parent := make([]int, g.NumNodes())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := g.NumNodes()
	for _, o := range order {
		if comps <= target {
			break
		}
		e := g.Edges[o.ei]
		ru, rv := find(e.Src), find(e.Dst)
		if ru != rv {
			parent[ru] = rv
			d[o.ei] = true
			comps--
		}
	}
	return d
}

// CoarsenOnly implements the "Coarsen-only" ablation (Table II): collapse
// edges by descending merge probability until the number of super-nodes
// equals the device count, then give each super-node its own device. No
// partitioning model is involved.
func (mo *Model) CoarsenOnly(g *stream.Graph, c sim.Cluster) Allocation {
	d := mo.CoarsenTo(g, c, c.Devices)
	cm := stream.CollapseEdges(g, d)
	cg := stream.CoarseGraph(g, cm)
	cp := stream.NewPlacement(cm.NumSuper, c.Devices)
	for s := 0; s < cm.NumSuper; s++ {
		cp.Assign[s] = s % c.Devices
	}
	return Allocation{
		Placement:   stream.ExpandPlacement(cm, cp),
		Coarse:      cm,
		CoarseGraph: cg,
	}
}
