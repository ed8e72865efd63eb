package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Replay settings. Each public call is timed replayReps times per graph
// and the median kept, so one descheduling does not land in a figure.
const (
	replayReps = 3
	// stageSumTolerance bounds |Σ stage times / AllocateRanked time − 1|.
	// The replay re-ranks per candidate with core.CoarsenToRanked while
	// AllocateRanked ranks once and grows one union-find; that ranking is
	// reported as core.rank_ms and left out of the sum, so the sum runs
	// a little under the timed sweep. The rest of the slack absorbs the
	// reference host's co-tenants, which stretch single calls.
	stageSumTolerance = 0.3
)

// spanLog is the benchmark-side trace of a replay. Every timed public
// call becomes a span in tr, written out with the run, and its duration
// per request is kept by layer for the figures. Replayed calls do not
// nest, so a span's self time is its duration.
type spanLog struct {
	tr      *obs.Tracer // nil-safe: spans are dropped when nil
	byLayer map[string][]time.Duration
}

// laneReplay is the trace lane of replayed calls; request spans use
// lanes 0 (open loop) and 1 (closed loop).
const laneReplay = 2

func newSpanLog(tr *obs.Tracer) *spanLog {
	return &spanLog{tr: tr, byLayer: map[string][]time.Duration{}}
}

// span times one call of fn as a span named layer.
func (l *spanLog) span(layer string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.tr.Emit(layer, laneReplay, t0, d)
	return d
}

// timeCall runs fn replayReps times, keeps the median as the request's
// figure for layer, and returns it.
func (l *spanLog) timeCall(layer string, fn func()) time.Duration {
	var ds [replayReps]time.Duration
	for i := range ds {
		ds[i] = l.span(layer, fn)
	}
	d := medianDuration(ds[:])
	l.keep(layer, d)
	return d
}

func (l *spanLog) keep(layer string, d time.Duration) {
	l.byLayer[layer] = append(l.byLayer[layer], d)
}

// medianMS is the median per-request figure of layer in milliseconds.
func (l *spanLog) medianMS(layer string) float64 { return median(durationsMS(l.byLayer[layer])) }

// replayDecode times the daemon's request decoding (JSON decode with
// unknown fields refused, then GraphSpec.BuildGraph) and the request
// fingerprint on the given bodies.
func replayDecode(rep *report, log *spanLog, bodies [][]byte, c sim.Cluster) error {
	for _, body := range bodies {
		var g *stream.Graph
		var err error
		log.timeCall("serve.decode", func() {
			var req serve.AllocateRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&req); err == nil {
				g, err = req.Graph.BuildGraph()
			}
		})
		if err != nil {
			return fmt.Errorf("replaying decode: %w", err)
		}
		log.timeCall("serve.fingerprint", func() { serve.FingerprintRequest(g, c) })
	}
	rep.set("serve.decode_ms", log.medianMS("serve.decode"))
	rep.set("serve.fingerprint_us", 1000*log.medianMS("serve.fingerprint"))
	return nil
}

// replayAllocation times each public call of one cold allocation —
// features, forward, the ranked sweep, then the sweep again one stage
// at a time — and checks that the replay picks the sweep's winner and
// that its stages add up to the timed sweep.
func replayAllocation(rep *report, log *spanLog, model *core.Model, graphs []*stream.Graph, c sim.Cluster) {
	snap := nn.NewSnapshot(model.PS)
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}
	var flops, fwdSec, sweepSum, stageSum float64
	var candidates []float64
	for gi, g := range graphs {
		var f *gnn.Features
		log.timeCall("gnn.features", func() { f = gnn.BuildFeatures(g, c) })
		probs := make([]float64, g.NumEdges())
		fwd := log.timeCall("core.forward", func() { model.InferProbsInto(snap, f, probs) })
		flops += forwardFLOPs(model.Cfg, g.NumNodes(), g.NumEdges())
		fwdSec += fwd.Seconds()

		// The timed sweep and its stage-by-stage replay alternate, so
		// both see the same host conditions; each keeps its median.
		var (
			sweeps [replayReps]time.Duration
			reps   [replayReps][numStages]time.Duration
			best   core.Allocation
		)
		for k := range sweeps {
			sweeps[k] = log.span("core.sweep", func() { best = pipe.AllocateRanked(g, c, probs) })
			var winner *stream.Placement
			reps[k], winner = replaySweep(log, g, c, probs)
			rep.check(winner != nil && slices.Equal(winner.Assign, best.Placement.Assign),
				"graph %d: stage replay picked a different winner than AllocateRanked", gi)
		}
		sweep := medianDuration(sweeps[:])
		log.keep("core.sweep", sweep)
		log.timeCall("sim.final_reward", func() { sim.Reward(g, best.Placement, c) })
		var stages [numStages]time.Duration
		for i, layer := range stageNames {
			var per [replayReps]time.Duration
			for k := range reps {
				per[k] = reps[k][i]
			}
			stages[i] = medianDuration(per[:])
			log.keep(layer, stages[i])
		}
		candidates = append(candidates, float64(len(sweepTargets(g.NumNodes(), c.Devices))))
		sweepSum += sweep.Seconds()
		stageSum += (stages[1] + stages[2] + stages[3] + stages[4] + stages[5]).Seconds()
	}
	ratio := stageSum / sweepSum
	rep.check(ratio >= 1-stageSumTolerance && ratio <= 1+stageSumTolerance,
		"stage sum is %.3f of the timed AllocateRanked, outside 1±%.2f", ratio, stageSumTolerance)
	rep.detail("stage_sum", map[string]any{"ratio": ratio, "tolerance": stageSumTolerance,
		"graphs": len(graphs), "stage_sum_s": stageSum, "sweep_s": sweepSum})

	rep.set("gnn.features_ms", log.medianMS("gnn.features"))
	rep.set("core.forward_ms", log.medianMS("core.forward"))
	rep.set("core.forward_gflops", flops/fwdSec/1e9)
	rep.set("core.sweep_ms", log.medianMS("core.sweep"))
	rep.set("core.sweep_candidates", median(candidates))
	rep.set("core.stage_sum_ratio", ratio)
	rep.set("core.rank_ms", log.medianMS("core.rank"))
	rep.set("stream.collapse_ms", log.medianMS("stream.collapse"))
	rep.set("stream.coarsegraph_ms", log.medianMS("stream.coarsegraph"))
	rep.set("metis.partition_ms", log.medianMS("metis.partition"))
	rep.set("stream.expand_ms", log.medianMS("stream.expand"))
	rep.set("sim.simulate_ms", log.medianMS("sim.simulate"))
	rep.set("sim.final_reward_ms", log.medianMS("sim.final_reward"))
}

// stageNames are the sweep stages in call order; the first, the
// per-candidate ranking, is left out of the stage sum.
var stageNames = [...]string{"core.rank", "stream.collapse", "stream.coarsegraph",
	"metis.partition", "stream.expand", "sim.simulate"}

const numStages = len(stageNames)

// replaySweep runs every candidate of g's ranked sweep through the public
// stage functions and returns each stage's total time over the
// candidates, plus the winning placement (first best reward, as the
// sweep keeps it).
func replaySweep(log *spanLog, g *stream.Graph, c sim.Cluster, probs []float64) ([numStages]time.Duration, *stream.Placement) {
	metis := placer.Metis{Seed: 1}
	var stages [numStages]time.Duration
	var winner *stream.Placement
	bestR := -1.0
	for _, target := range sweepTargets(g.NumNodes(), c.Devices) {
		var (
			d  core.Decision
			cm *stream.CoarseMap
			cg *stream.Graph
			cp *stream.Placement
			p  *stream.Placement
			r  float64
		)
		stages[0] += log.span(stageNames[0], func() { d = core.CoarsenToRanked(g, target, probs) })
		stages[1] += log.span(stageNames[1], func() { cm = stream.CollapseEdges(g, d) })
		stages[2] += log.span(stageNames[2], func() { cg = stream.CoarseGraph(g, cm) })
		stages[3] += log.span(stageNames[3], func() { cp = metis.Place(cg, c) })
		stages[4] += log.span(stageNames[4], func() { p = stream.ExpandPlacement(cm, cp) })
		stages[5] += log.span(stageNames[5], func() { r = sim.Reward(g, p, c) })
		if r > bestR {
			winner, bestR = p, r
		}
	}
	return stages, winner
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// sweepTargets lists the super-node counts core.Pipeline.AllocateRanked
// evaluates for n operators on k devices, in its order. It restates the
// sweep's candidate rule so the replay can run each candidate through
// the public stage functions; the winner check above fails if the two
// ever disagree.
func sweepTargets(n, k int) []int {
	var raw []int
	for _, f := range []float64{1, 0.92, 0.84, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25} {
		raw = append(raw, int(f*float64(n)))
	}
	for _, m := range []float64{8, 4, 2, 1, 0.75, 0.5, 0.25} {
		if t := int(m * float64(k)); t >= 1 {
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

// forwardFLOPs counts the multiply-adds (2 FLOPs each) of the matrix
// products in one forward pass, from the layer shapes alone: encoder
// input projection, edge-feature projections, K hops of message and
// update products, head/tail projections, the merge projection and the
// two-layer merge head. Gathers, tanh and segment means are not counted.
func forwardFLOPs(cfg core.Config, n, e int) float64 {
	m := float64(cfg.Hidden)
	N, E := float64(n), float64(e)
	fn, fe := float64(gnn.NodeFeatureDim), float64(gnn.EdgeFeatureDim)
	ed, md := float64(cfg.EdgeDim), float64(cfg.MergeDim)
	f := 2 * N * fn * 2 * m // node input projection
	if cfg.UseEdgeEncoding {
		f += 2 * (2 * E * fe * m) // upstream and downstream edge projections
	}
	f += float64(cfg.Hops) * (2*(2*E*2*m*m) + 2*(2*N*2*m*m)) // messages + updates
	f += 2 * (2 * E * 2 * m * m)                             // head and tail projections
	if cfg.UseEdgeCollapse {
		f += 2 * E * fe * ed
	}
	f += 2 * E * (2*m + ed) * md // merge projection
	f += 2*E*md*md + 2*E*md*1    // merge head
	return f
}
