package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/placer"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Serve workload constants. On the reference host (2 vCPU Xeon, client
// and daemon sharing both CPUs) the closed loop reaches 80–145 cold
// requests/s, swinging with the co-tenants' load. At half of capacity a
// slow spell drives the open-loop queue toward saturation, so the
// open-loop rate sits near a quarter of it. serve-cold spends 85% of the
// run in the open loop, enough for 1000 samples and so a supported p99.
const (
	coldRate      = 30.0                   // open-loop arrivals per second
	sloLimit      = 100 * time.Millisecond // latency limit behind slo_attainment, every workload
	openShare     = 0.85                   // share of --seconds spent in the open loop
	closedCeiling = 200                    // cold inputs generated per closed-loop second
	setupRepeats  = 5                      // daemons started per untraced run; setup_s is their median
	coldWarm      = 16                     // cold requests sent during each serve-cold set-up
	probeN        = 24                     // serial requests behind serve.http_overhead_ms
	offlineSample = 8                      // served cold placements re-derived offline
)

// servedModel is what a benchmark daemon serves: the allocserve flags
// that select its model and default cluster, and the same model built
// in-process for the offline checks and the replays.
type servedModel struct {
	name  string // prefix of the daemon's log and trace files
	args  []string
	model *core.Model
}

// pipeline is the daemon's allocation pipeline rebuilt in-process, with
// serve's default placer.
func (m servedModel) pipeline() *core.Pipeline {
	return &core.Pipeline{Model: m.model, Placer: placer.Metis{Seed: 1}}
}

// coldModel is serve-cold's daemon: a fixed seeded (untrained) model and
// the Medium cluster, so requests omit their cluster.
func coldModel() servedModel {
	cfg := core.DefaultConfig()
	cfg.Hidden = 24
	cfg.Seed = 1
	return servedModel{name: "serve-cold", model: core.New(cfg),
		args: []string{"-seed", "1", "-hidden", "24", "-devices", "10", "-mbps", "1000"}}
}

// traffic is the seeded input of one serve run: request bodies and the
// graphs behind them (kept to re-check every answer), plus which input
// each send of each phase uses.
type traffic struct {
	graphs    []*stream.Graph
	bodies    [][]byte
	warm      []int // inputs sent during set-up
	sched     []time.Duration
	open      []int              // input of each open-loop send
	closed    func() (int, bool) // next closed-loop input
	closedDur time.Duration
	probe     []int // serial requests for the HTTP overhead
	cluster   sim.Cluster
	served    servedModel
}

// seedBase spreads workload seeds apart in the generator's seed space
// (gen derives graph i's seed as base + i·1_000_003).
func seedBase(seed int64, stream int64) int64 { return seed*7_919_000_017 + stream*104_729 }

// makeTraffic generates distinct graphs of setting for every send: an
// open loop at coldRate for openDur, then a closed loop for closedDur.
// The daemon serves served, whose default cluster is setting's.
func makeTraffic(setting gen.Setting, seed int64, served servedModel, openDur, closedDur time.Duration) (*traffic, error) {
	t := &traffic{
		cluster:   setting.Cluster,
		sched:     poissonSchedule(uint64(seedBase(seed, 1)), coldRate, openDur),
		closedDur: closedDur,
		served:    served,
	}
	nClosed := int(closedCeiling * closedDur.Seconds())
	n := coldWarm + len(t.sched) + probeN + nClosed
	t.graphs = gen.GenerateSet(setting.Config, n, seedBase(seed, 4))
	t.warm = seq(0, coldWarm)
	t.open = seq(coldWarm, coldWarm+len(t.sched))
	t.probe = seq(coldWarm+len(t.sched), coldWarm+len(t.sched)+probeN)
	t.closed = counterFrom(coldWarm+len(t.sched)+probeN, n)
	t.bodies = make([][]byte, len(t.graphs))
	for i, g := range t.graphs {
		b, err := json.Marshal(requestOf(g))
		if err != nil {
			return nil, err
		}
		t.bodies[i] = b
	}
	return t, nil
}

func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// requestOf is the wire form of g; the cluster is left to the daemon's
// default, which its servedModel sets to the workload's cluster.
func requestOf(g *stream.Graph) serve.AllocateRequest {
	spec := serve.GraphSpec{SourceRate: g.SourceRate}
	for _, n := range g.Nodes {
		spec.Nodes = append(spec.Nodes, serve.NodeSpec{IPT: n.IPT, Payload: n.Payload,
			Selectivity: n.Selectivity, State: n.State, Name: n.Name})
	}
	for _, e := range g.Edges {
		spec.Edges = append(spec.Edges, serve.EdgeSpec{Src: e.Src, Dst: e.Dst, Payload: e.Payload})
	}
	return serve.AllocateRequest{Graph: spec}
}

// phaseResult is one measured traffic pass against one daemon.
type phaseResult struct {
	open, closed []sample
	late         []time.Duration
	closedStart  time.Time
	closedWall   time.Duration
	before       map[string]float64 // /metrics at the start of timing
	afterOpen    map[string]float64 // /metrics between the open and the closed loop
	after        map[string]float64 // /metrics at the end of timing
	gcPause      time.Duration
	rssMB        float64
	setup        []time.Duration // one per daemon started
	steal        *stealTrace     // hypervisor steal over the timed phases
	traceFile    string          // daemon trace (traced runs)
	probe        []sample        // traced runs: serial requests on the idle daemon
	probeAgain   []sample        // the same requests again, answered from the cache
}

// measure starts daemons (setups of them; the last one serves the
// timed traffic), runs the open-loop then the closed-loop phase, and
// stops the daemon. traceTag, when set, stamps X-Trace-Id on every
// request and asks the daemon for its trace file.
func measure(env *runEnv, t *traffic, setups int, traceTag string) (*phaseResult, error) {
	conns := runtime.NumCPU()
	res := &phaseResult{}
	var extra []string
	if traceTag != "" {
		res.traceFile = filepath.Join(env.workdir, t.served.name+"-daemon-trace.json")
		extra = append(extra, "-trace-out", res.traceFile)
	}
	var d *daemon
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		var err error
		d, err = startDaemon(env.daemon, filepath.Join(env.workdir, fmt.Sprintf("%s-daemon-%d.log", t.served.name, k)), daemonArgs(t.served, extra...))
		if err != nil {
			return nil, err
		}
		c := newClient(d.base, conns, t.bodies)
		warm, _ := c.closedLoop(time.Hour, conns, cycleFirst(t.warm), "")
		c.close()
		res.setup = append(res.setup, time.Since(t0))
		for _, s := range warm {
			if !s.ok() {
				d.stop()
				return nil, fmt.Errorf("set-up request failed: %v", s.err)
			}
		}
		if k < setups-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
	}
	defer d.stop()

	var err error
	if res.before, err = d.scrape(); err != nil {
		return nil, err
	}
	pause0, err := d.gcPauseTotal()
	if err != nil {
		return nil, err
	}
	res.steal = startStealTrace()
	c := newClient(d.base, conns, t.bodies)
	res.open, res.late = c.openLoop(t.sched, t.open, conns, traceTag)
	// The daemon's windowed quantiles then cover the open loop only.
	if res.afterOpen, err = d.scrape(); err != nil {
		c.close()
		res.steal.end()
		return nil, err
	}
	res.closedStart = time.Now()
	res.closed, res.closedWall = c.closedLoop(t.closedDur, conns, t.closed, traceTag)
	c.close()
	res.steal.end()
	pause1, err := d.gcPauseTotal()
	if err != nil {
		return nil, err
	}
	if res.after, err = d.scrape(); err != nil {
		return nil, err
	}
	res.gcPause = pause1 - pause0
	if res.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if traceTag != "" {
		// One request at a time on an idle daemon: the HTTP side of
		// serve.http_overhead_ms.
		pc := newClient(d.base, 1, t.bodies)
		res.probe, _ = pc.closedLoop(time.Hour, 1, cycleFirst(t.probe), "")
		res.probeAgain, _ = pc.closedLoop(time.Hour, 1, cycleFirst(t.probe), "")
		pc.close()
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	return res, nil
}

// cycleFirst returns a next() that yields each of inputs once.
func cycleFirst(inputs []int) func() (int, bool) {
	next := counterFrom(0, len(inputs))
	return func() (int, bool) {
		i, ok := next()
		if !ok {
			return 0, false
		}
		return inputs[i], true
	}
}

// e2e holds the end-to-end figures of one phase result.
type e2e struct {
	p50, p99  tail
	late      tail // how late the dispatcher sent the requests behind p50 and p99
	slo       float64
	capacity  float64
	attempted int
	failed    int
	openOK    int
	closedOK  int
	stolen    int // successful open-loop requests left out for hypervisor steal
}

// summarize computes the end-to-end figures. Latency percentiles leave
// out the open-loop requests that hypervisor steal may have delayed:
// those with a stolen interval between their due time and sloLimit
// after it. The span is the same for every request, so which requests are
// left out does not depend on how long any of them took.
func summarize(res *phaseResult) (e2e, error) {
	var (
		out               e2e
		lat, all          []float64 // open-loop latencies: clear of steal, and all
		lateKept, lateAll []float64 // how late the dispatcher sent those requests
		met               int
	)
	for i := range res.open {
		s := &res.open[i]
		if !s.ok() {
			continue
		}
		out.openOK++
		all = append(all, ms(s.latency()))
		lateAll = append(lateAll, ms(res.late[i]))
		if s.latency() <= sloLimit {
			met++
		}
		if res.steal.stolen(s.due, s.due.Add(sloLimit)) {
			out.stolen++
		} else {
			lat = append(lat, ms(s.latency()))
			lateKept = append(lateKept, ms(res.late[i]))
		}
	}
	if len(lat) < 2*minTail {
		// The hypervisor took CPU during nearly the whole phase: keep
		// every request rather than report nothing.
		lat, lateKept, out.stolen = all, lateAll, 0
	}
	var err error
	if out.late, err = tailOf(lateKept, 99); err != nil {
		return out, err
	}
	if out.p50, err = tailOf(lat, 50); err != nil {
		return out, err
	}
	if out.p99, err = tailOf(lat, 99); err != nil {
		return out, err
	}
	out.slo = float64(met) / float64(len(res.open))
	for i := range res.closed {
		if res.closed[i].ok() {
			out.closedOK++
		}
	}
	if out.capacity, err = windowRate(res); err != nil {
		return out, err
	}
	out.attempted = len(res.open) + len(res.closed)
	out.failed = out.attempted - out.openOK - out.closedOK
	return out, nil
}

// runServeCold measures the serve-cold workload.
func runServeCold(env *runEnv, rep *report) error {
	t0 := time.Now()
	openDur := time.Duration(float64(time.Second) * env.seconds * openShare)
	closedDur := time.Duration(float64(time.Second) * env.seconds * (1 - openShare))
	t, err := makeTraffic(gen.Medium(), env.seed, coldModel(), openDur, closedDur)
	if err != nil {
		return err
	}
	rep.detail("inputs_s", time.Since(t0).Seconds())
	setups := setupRepeats
	if env.trace {
		setups = 1
	}
	res, err := measure(env, t, setups, "")
	if err != nil {
		return err
	}
	sum, err := summarize(res)
	if err != nil {
		return err
	}
	rel, base := checkServed(rep, t, res)
	rep.count(sum.attempted, sum.failed)
	if err := checkGenerator(rep, res, sum); err != nil {
		return err
	}

	rep.set("setup_s", median(secondsOf(res.setup)))
	rep.set("latency_p50_ms", sum.p50.Value)
	rep.set("latency_p99_ms", sum.p99.Value)
	rep.set("slo_attainment", sum.slo)
	rep.set("throughput_per_s", sum.capacity)
	rep.set("success_frac", 1-float64(sum.failed)/float64(sum.attempted))
	rep.set("rel_tput_mean", mean(rel))
	rep.set("gain_vs_metis", mean(rel)/mean(base))
	rep.set("peak_rss_mb", res.rssMB)
	rep.detail("latency_p50", sum.p50)
	rep.detail("latency_p99", sum.p99)
	rep.detail("open_loop", map[string]any{"rate_per_s": coldRate, "sent": len(res.open), "ok": sum.openOK,
		"left_out_for_steal": sum.stolen, "slo_ms": ms(sloLimit), "connections": runtime.NumCPU()})
	rep.detail("closed_loop", map[string]any{"sent": len(res.closed), "ok": sum.closedOK,
		"wall_s": res.closedWall.Seconds(), "connections": runtime.NumCPU()})
	rep.detail("setup_s", secondsOf(res.setup))

	if env.trace {
		return traceServe(env, rep, t, res, sum)
	}
	return nil
}

// maxLate is how late, at p99, the open-loop dispatcher may send the
// requests behind the latency percentiles before a run no longer
// measures the daemon: past it the generator sets those figures. It is
// a fifth of the latency limit.
const maxLate = sloLimit / 5

// checkGenerator reports how late the open-loop dispatcher sent, and
// fails the run as not measured when its p99 over the requests behind
// the latency percentiles passes maxLate.
func checkGenerator(rep *report, res *phaseResult, sum e2e) error {
	rep.set("loadgen.late_p99_ms", sum.late.Value)
	rep.detail("loadgen_late", map[string]any{"p99": sum.late, "limit_ms": ms(maxLate),
		"p50_ms_all": median(durationsMS(res.late)), "max_ms_all": slices.Max(durationsMS(res.late))})
	if sum.late.Value > ms(maxLate) {
		return fmt.Errorf("open-loop dispatcher ran %.3g ms late at p%g, past the %v limit: the run measured the generator",
			sum.late.Value, sum.late.Percentile, maxLate)
	}
	return nil
}

// capacityWindow is the width of the closed-loop windows whose median
// completion rate is throughput_per_s. Windows in which the hypervisor took
// CPU time are left out, and the median shrugs off the rest of a
// co-tenant's stalls.
const capacityWindow = 500 * time.Millisecond

// windowRate returns the median successful-completion rate over the
// whole capacityWindow windows of the closed-loop phase that no stolen
// interval overlaps (over all of them if every window was stolen from).
func windowRate(res *phaseResult) (float64, error) {
	n := int(res.closedWall / capacityWindow)
	if n < 1 {
		return 0, fmt.Errorf("closed-loop phase ran %v, shorter than one %v window", res.closedWall, capacityWindow)
	}
	start := res.closedStart
	counts := make([]float64, n)
	for i := range res.closed {
		s := &res.closed[i]
		if w := int(s.done.Sub(start) / capacityWindow); s.ok() && w < n {
			counts[w]++
		}
	}
	var clean []float64
	for w, c := range counts {
		from := start.Add(time.Duration(w) * capacityWindow)
		if !res.steal.stolen(from, from.Add(capacityWindow)) {
			clean = append(clean, c)
		}
	}
	if len(clean) == 0 {
		clean = counts
	}
	return median(clean) / capacityWindow.Seconds(), nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// checkServed verifies every 200 of the timed phases and returns the
// served relative throughputs, with plain Metis's on the same graphs.
// Answers must be fresh, and a fixed sample must equal the offline
// pipeline.
func checkServed(rep *report, t *traffic, res *phaseResult) (rel, base []float64) {
	offline := 0
	pipe := t.served.pipeline()
	check := func(s *sample) {
		if !s.ok() {
			return
		}
		var r serve.AllocateResponse
		if err := json.Unmarshal(s.body, &r); err != nil {
			rep.check(false, "input %d: undecodable answer: %v", s.input, err)
			return
		}
		g := t.graphs[s.input]
		if err := checkPlacement(g, t.cluster, r); err != nil {
			rep.check(false, "input %d: %v", s.input, err)
			return
		}
		rel = append(rel, r.RelativeThroughput)
		base = append(base, metisReward(g, t.cluster))
		rep.check(!r.Cached, "input %d: cold answer came from the cache", s.input)
		if offline < offlineSample {
			offline++
			a := pipe.Allocate(g, t.cluster)
			rep.check(slices.Equal(a.Placement.Assign, r.Assign),
				"input %d: served placement differs from offline Pipeline.Allocate", s.input)
		}
	}
	for i := range res.open {
		check(&res.open[i])
	}
	for i := range res.closed {
		check(&res.closed[i])
	}
	rep.check(len(rel) > 0, "no successful answers to check")
	rep.check(offline == offlineSample, "only %d of %d offline comparisons made", offline, offlineSample)
	return rel, base
}

// checkPlacement verifies one answer: one device per node, devices in
// range, and relative_throughput bit-equal to sim.Reward recomputed here.
func checkPlacement(g *stream.Graph, c sim.Cluster, r serve.AllocateResponse) error {
	if len(r.Assign) != g.NumNodes() {
		return fmt.Errorf("assign has %d entries for %d nodes", len(r.Assign), g.NumNodes())
	}
	if r.Devices != c.Devices {
		return fmt.Errorf("answer targets %d devices, cluster has %d", r.Devices, c.Devices)
	}
	p := &stream.Placement{Assign: r.Assign, Devices: r.Devices}
	if err := p.Validate(g); err != nil {
		return err
	}
	if want := sim.Reward(g, p, c); math.Float64bits(want) != math.Float64bits(r.RelativeThroughput) {
		return fmt.Errorf("relative_throughput %v, sim.Reward recomputes %v", r.RelativeThroughput, want)
	}
	return nil
}
