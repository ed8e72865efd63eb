package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
)

// graphBatch is the trainer's GraphBatch; maxEvals caps the single-graph
// evaluations of one run.
const (
	graphBatch = 8
	maxEvals   = 20000
)

// trainPlan sizes one training run: a seeded split of setting, then
// Metis seeding, guided pretraining and REINFORCE at GraphBatch 8 with
// one worker per CPU.
type trainPlan struct {
	setting          func() gen.Setting
	stream           int64 // seed stream of the dataset
	trainN, testN    int
	pretrain, epochs int
}

// trainEvalPlan is train-eval's reduced Table I block 2 (Medium5K:
// 100–200 nodes, 5K tuples/s, 5 devices).
var trainEvalPlan = trainPlan{setting: gen.Medium5K, stream: 5,
	trainN: 32, testN: 96, pretrain: 12, epochs: 48}

// coldTrainPlan briefly trains serve-cold's model on Medium graphs. Only
// serve-cold's traced run runs it, to measure the training layers on
// that workload's graph family and model.
var coldTrainPlan = trainPlan{setting: gen.Medium, stream: 7,
	trainN: 16, testN: 8, pretrain: 2, epochs: 4}

// visits counts the graphs a run of the plan trains on, seeding included.
func (p trainPlan) visits() int { return p.trainN * (1 + p.pretrain + p.epochs) }

// interval is one timed piece of work.
type interval struct {
	start time.Time
	d     time.Duration
}

func durationsOf(xs []interval) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}

// trainRun is one pass of a plan on one trainer.
type trainRun struct {
	seed     time.Duration
	pretrain []interval // per guided-imitation epoch
	epochs   []interval // per REINFORCE epoch
	evals    []interval // per single-graph evaluation
	rewards  []float64  // rl.Evaluate over the whole test split
	drifted  int        // single-graph evaluations of the split that differ from it
	fresh    []float64  // rewards of the fresh graphs evaluated after the split
	history  []float64  // mean on-policy reward per REINFORCE epoch
}

// trainSetup is the set-up a user of the trainer pays: generating the
// dataset and building the model, pipeline and trainer.
type trainSetup struct {
	plan      trainPlan
	ds        *gen.Dataset
	family    gen.Config // generator of the fresh evaluation graphs
	freshSeed int64
	trainer   *rl.Trainer
	marks     *[]time.Time // epoch-end clock fed by the trainer's Logf
}

// trainModelConfig is the model train-eval trains: the default
// architecture, seeded.
func trainModelConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	return cfg
}

func newTrainSetup(env *runEnv, plan trainPlan, mcfg core.Config, tracer *obs.Tracer, curve *obs.CurveWriter) trainSetup {
	setting := plan.setting()
	setting.Seed = seedBase(env.seed, plan.stream)
	setting.TrainN, setting.TestN = plan.trainN, plan.testN
	ds := setting.Generate()
	model := core.New(mcfg)
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}

	marks := &[]time.Time{}
	cfg := rl.DefaultConfig()
	cfg.PretrainEpochs = plan.pretrain
	cfg.Epochs = plan.epochs
	cfg.GraphBatch = graphBatch
	cfg.TrainWorkers = runtime.NumCPU()
	cfg.Tracer = tracer
	cfg.Curve = curve
	// The trainer logs one line at the end of every epoch; its Logf hook
	// is the benchmark's epoch clock.
	cfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "rl: pretrain epoch ") || strings.HasPrefix(format, "rl: epoch ") {
			*marks = append(*marks, time.Now())
		}
	}
	return trainSetup{plan: plan, ds: ds, family: setting.Config, freshSeed: seedBase(env.seed, plan.stream+50),
		trainer: rl.NewTrainer(cfg, model, pipe), marks: marks}
}

// run executes seed → pretrain → REINFORCE → evaluation. The test split
// is evaluated once as a whole, then one graph at a time, and then fresh
// graphs of the same family one at a time until deadline, so that the
// latency tail describes many graphs rather than the split's costliest
// few. Fresh graphs are generated a split's worth at a time, untimed.
func (s trainSetup) run(deadline time.Time) (*trainRun, error) {
	tr, ds := s.trainer, s.ds
	out := &trainRun{}
	t0 := time.Now()
	if err := tr.SeedMetisGuided(ds.Train, ds.Cluster); err != nil {
		return nil, err
	}
	out.seed = time.Since(t0)

	*s.marks = (*s.marks)[:0]
	t0 = time.Now()
	if err := tr.PretrainGuided(ds.Train, ds.Cluster); err != nil {
		return nil, err
	}
	out.pretrain = splitEpochs(t0, *s.marks)

	*s.marks = (*s.marks)[:0]
	t0 = time.Now()
	if err := tr.TrainOn(ds.Train, ds.Cluster); err != nil {
		return nil, err
	}
	out.epochs = splitEpochs(t0, *s.marks)
	out.history = tr.History
	if len(out.pretrain) != s.plan.pretrain || len(out.epochs) != s.plan.epochs {
		return nil, fmt.Errorf("trainer reported %d pretrain and %d REINFORCE epochs, want %d and %d",
			len(out.pretrain), len(out.epochs), s.plan.pretrain, s.plan.epochs)
	}

	out.rewards = rl.Evaluate(tr.Pipeline, ds.Test, ds.Cluster)
	chunk := ds.Test
	n := len(ds.Test)
	for i := 0; i < n || (i < maxEvals && time.Now().Before(deadline)); i++ {
		if i > 0 && i%n == 0 {
			chunk = gen.GenerateSet(s.family, n, s.freshSeed+int64(i))
		}
		t0 = time.Now()
		r := rl.Evaluate(tr.Pipeline, chunk[i%n:i%n+1], ds.Cluster)[0]
		out.evals = append(out.evals, interval{t0, time.Since(t0)})
		if i >= n {
			out.fresh = append(out.fresh, r)
		} else if math.Float64bits(r) != math.Float64bits(out.rewards[i]) {
			out.drifted++
		}
	}
	return out, nil
}

// splitEpochs turns epoch-end marks into per-epoch intervals.
func splitEpochs(start time.Time, marks []time.Time) []interval {
	out := make([]interval, len(marks))
	prev := start
	for i, m := range marks {
		out[i] = interval{prev, m.Sub(prev)}
		prev = m
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// metisReward scores plain Metis on g, as Table I's baseline row.
func metisReward(g *stream.Graph, c sim.Cluster) float64 {
	p := metis.Partition(g, metis.Options{Parts: c.Devices, Seed: 1})
	p.Devices = c.Devices
	return sim.Reward(g, p, c)
}

// checkRewards fails the run unless every reward is finite and in [0,1].
func checkRewards(rep *report, what string, rs []float64) {
	for i, r := range rs {
		rep.check(!math.IsNaN(r) && r >= 0 && r <= 1, "%s[%d] = %v, want a finite value in [0,1]", what, i, r)
	}
}

// clearOf keeps the intervals whose first window no stolen interval
// overlaps. The window is the same for every interval, so which ones
// are kept does not depend on how long any of them took. When steal
// touched every window it keeps them all rather than report nothing.
func clearOf(xs []interval, st *stealTrace, window time.Duration) []interval {
	var out []interval
	for _, x := range xs {
		if !st.stolen(x.start, x.start.Add(window)) {
			out = append(out, x)
		}
	}
	if len(out) < 2*minTail {
		return xs
	}
	return out
}

func runTrainEval(env *runEnv, rep *report) error {
	plan := trainEvalPlan
	deadline := time.Now().Add(time.Duration(env.seconds * float64(time.Second)))
	setups := setupRepeats
	if env.trace {
		setups = 1
	}
	var (
		setupT []time.Duration
		s      trainSetup
	)
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s = newTrainSetup(env, plan, trainModelConfig(), nil, nil)
		setupT = append(setupT, time.Since(t0))
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steal := startStealTrace()
	run, err := s.run(deadline)
	steal.end()
	if err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	base := make([]float64, len(s.ds.Test))
	for i, g := range s.ds.Test {
		base[i] = metisReward(g, s.ds.Cluster)
	}

	rep.check(run.drifted == 0, "%d of %d single-graph evaluations differ from rl.Evaluate over the split", run.drifted, plan.testN)
	checkRewards(rep, "coarsen+metis test reward", run.rewards)
	checkRewards(rep, "coarsen+metis fresh-graph reward", run.fresh)
	checkRewards(rep, "metis test reward", base)
	checkRewards(rep, "mean on-policy reward", run.history)
	rep.count(plan.visits()+plan.testN+len(run.evals), 0)

	// Latency: one graph allocated and scored by the trained pipeline,
	// clear of hypervisor steal as serve-cold's requests are.
	met := 0
	for _, e := range run.evals {
		if e.d <= sloLimit {
			met++
		}
	}
	kept := clearOf(run.evals, steal, sloLimit)
	lat := durationsMS(durationsOf(kept))
	p50, err := tailOf(lat, 50)
	if err != nil {
		return err
	}
	p99, err := tailOf(lat, 99)
	if err != nil {
		return err
	}
	// Throughput: graphs trained per second over the REINFORCE epochs
	// clear of steal, each tested over the median epoch's span.
	window := time.Duration(median(durationsMS(durationsOf(run.epochs))) * float64(time.Millisecond))
	clearEpochs := durationsMS(durationsOf(clearOf(run.epochs, steal, window)))

	rep.set("setup_s", median(secondsOf(setupT)))
	rep.set("latency_p50_ms", p50.Value)
	rep.set("latency_p99_ms", p99.Value)
	rep.set("slo_attainment", float64(met)/float64(len(run.evals)))
	rep.set("throughput_per_s", float64(plan.trainN)/(median(clearEpochs)/1000))
	rep.set("success_frac", 1)
	rep.set("rel_tput_mean", mean(run.rewards))
	rep.set("gain_vs_metis", mean(run.rewards)/mean(base))
	rep.set("peak_rss_mb", rss)
	rep.set("go.gc_pause_total_ms", ms(time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)))
	rep.detail("setup_s", secondsOf(setupT))
	rep.detail("latency_p50", p50)
	rep.detail("latency_p99", p99)
	rep.detail("plan", map[string]any{"train_graphs": plan.trainN, "test_graphs": plan.testN,
		"pretrain_epochs": plan.pretrain, "train_epochs": plan.epochs, "graph_batch": graphBatch,
		"train_workers": runtime.NumCPU(), "single_graph_evals": len(run.evals), "fresh_graphs": len(run.fresh),
		"evals_left_out_for_steal":  len(run.evals) - len(kept),
		"epochs_left_out_for_steal": len(run.epochs) - len(clearEpochs),
		"metis_mean":                mean(base), "coarsen_metis_mean": mean(run.rewards)})
	rep.detail("epoch_s", secondsOf(durationsOf(run.epochs)))
	rep.detail("pretrain_epoch_s", secondsOf(durationsOf(run.pretrain)))

	if !env.trace {
		return nil
	}
	return traceTrain(env, rep, run)
}

// traceTrain repeats the plan on a fresh trainer with the trainer's
// Tracer and Curve sinks on, reads the per-phase figures from the curve,
// replays the evaluation one public call at a time, and serves the
// trained model from a daemon to measure the serving layers.
func traceTrain(env *runEnv, rep *report, plain *trainRun) error {
	tracer := obs.NewTracer()
	var curveBuf bytes.Buffer
	curve := obs.NewCurveWriter(json.NewEncoder(&curveBuf))
	s := newTrainSetup(env, trainEvalPlan, trainModelConfig(), tracer, curve)
	run, err := s.run(time.Now())
	if err != nil {
		return err
	}
	rep.check(bitsEqual(run.rewards, plain.rewards) && run.drifted == 0, "traced training changed the test rewards")
	rep.count(s.plan.visits()+s.plan.testN+len(run.evals), 0)

	plainEpoch := median(secondsOf(durationsOf(plain.epochs)))
	overhead := median(secondsOf(durationsOf(run.epochs))) - plainEpoch
	rep.set("trace.overhead_ms", 1000*overhead)
	rep.set("trace.overhead_frac", overhead/plainEpoch)

	log := newSpanLog(tracer)
	if err := rlLayers(rep, log, s, run, &curveBuf); err != nil {
		return err
	}
	replayAllocation(rep, log, s.trainer.Pipeline.Model, s.ds.Test, s.ds.Cluster)
	if err := serveTrained(env, rep, log, s); err != nil {
		return err
	}
	return writeTrace(env, rep, "train-eval", tracer)
}

// trainLayers runs plan with the trainer's Tracer and Curve on, starting
// from a model built with mcfg, and reports the training layers.
func trainLayers(env *runEnv, rep *report, tracer *obs.Tracer, plan trainPlan, mcfg core.Config) error {
	var curveBuf bytes.Buffer
	s := newTrainSetup(env, plan, mcfg, tracer, obs.NewCurveWriter(json.NewEncoder(&curveBuf)))
	run, err := s.run(time.Now())
	if err != nil {
		return err
	}
	rep.check(run.drifted == 0, "%d single-graph evaluations differ from rl.Evaluate over the split", run.drifted)
	checkRewards(rep, "coarsen+metis test reward", run.rewards)
	checkRewards(rep, "mean on-policy reward", run.history)
	rep.count(plan.visits()+plan.testN+len(run.evals), 0)
	return rlLayers(rep, newSpanLog(tracer), s, run, &curveBuf)
}

// rlLayers reports the training layers of a traced run: epoch times,
// the per-graph phase times from the training curve, the reward cache,
// and the trained pipeline's evaluation replayed one call at a time.
func rlLayers(rep *report, log *spanLog, s trainSetup, run *trainRun, curveBuf *bytes.Buffer) error {
	rep.set("rl.seed_s", run.seed.Seconds())
	rep.set("rl.pretrain_epoch_s", median(secondsOf(durationsOf(run.pretrain))))
	rep.set("rl.epoch_s", median(secondsOf(durationsOf(run.epochs))))

	var graphs float64
	phase := map[string]float64{}
	var reduce []float64
	dec := json.NewDecoder(curveBuf)
	for dec.More() {
		var rec obs.CurveRecord
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("decoding training curve: %w", err)
		}
		graphs += float64(rec.Graphs)
		for k, v := range rec.PhaseMS {
			phase[k] += v
		}
		reduce = append(reduce, rec.PhaseMS["all_reduce"])
	}
	want := s.plan.epochs * s.plan.trainN
	rep.check(graphs == float64(want), "curve covers %v graph visits, want %d", graphs, want)
	rep.set("rl.encode_ms", phase["encode"]/graphs)
	rep.set("rl.sample_ms", phase["sample"]/graphs)
	rep.set("rl.simulate_ms", phase["simulate"]/graphs)
	rep.set("rl.backward_ms", phase["backward"]/graphs)
	rep.set("rl.allreduce_ms", median(reduce))
	hits, misses := s.trainer.Rewards.Stats()
	rep.set("rl.reward_cache_hit_ratio", float64(hits)/float64(hits+misses))

	pipe := s.trainer.Pipeline
	for _, g := range s.ds.Test {
		var probs []float64
		log.timeCall("rl.eval_forward", func() { probs = pipe.Model.Probs(g, s.ds.Cluster) })
		log.timeCall("rl.eval_sweep", func() { pipe.AllocateRanked(g, s.ds.Cluster, probs) })
	}
	rep.set("rl.eval_forward_ms", log.medianMS("rl.eval_forward"))
	rep.set("rl.eval_sweep_ms", log.medianMS("rl.eval_sweep"))
	return nil
}

// Serving pass of train-eval's traced run: the open loop and the closed
// loop at serve-cold's rate and connections, on fresh graphs of the
// training family.
const (
	trainServeOpen   = 8 * time.Second
	trainServeClosed = 2 * time.Second
)

// serveTrained saves the trained model, serves it from a daemon whose
// default cluster is the plan's, sends it fresh graphs of the same
// family with minted trace ids, and reports the serving layers.
func serveTrained(env *runEnv, rep *report, log *spanLog, s trainSetup) error {
	model := s.trainer.Pipeline.Model
	path := filepath.Join(env.workdir, "train-eval-model.json")
	if err := nn.SaveParams(model.PS, path); err != nil {
		return err
	}
	c := s.ds.Cluster
	served := servedModel{name: "train-eval", model: model, args: []string{"-model", path,
		"-hidden", strconv.Itoa(model.Cfg.Hidden), "-devices", strconv.Itoa(c.Devices),
		"-mbps", strconv.FormatFloat(c.Bandwidth/1e6, 'g', -1, 64)}}
	t, err := makeTraffic(s.plan.setting(), env.seed, served, trainServeOpen, trainServeClosed)
	if err != nil {
		return err
	}
	res, err := measure(env, t, 1, traceTag)
	if err != nil {
		return err
	}
	sum, err := summarize(res)
	if err != nil {
		return err
	}
	checkServed(rep, t, res)
	rep.count(sum.attempted, sum.failed)
	if err := checkGenerator(rep, res, sum); err != nil {
		return err
	}
	daemonCounters(rep, t, res)
	return serveLayers(rep, log, t, res)
}
