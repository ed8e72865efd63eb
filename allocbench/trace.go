package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// traceTag prefixes every X-Trace-Id the benchmark mints.
const traceTag = "ab"

// traceServe is the traced half of a serve run: the same traffic again
// against a daemon writing -trace-out, with a minted X-Trace-Id on every
// request, then in-process replays of each layer. Layer figures that
// come from the daemon's counters are taken from the untraced pass.
func traceServe(env *runEnv, rep *report, t *traffic, plain *phaseResult, base e2e) error {
	res, err := measure(env, t, 1, traceTag)
	if err != nil {
		return err
	}
	traced, err := summarize(res)
	if err != nil {
		return err
	}
	checkServed(rep, t, res)
	rep.count(traced.attempted, traced.failed)
	rep.set("trace.overhead_ms", traced.p50.Value-base.p50.Value)
	rep.set("trace.overhead_frac", (traced.p50.Value-base.p50.Value)/base.p50.Value)
	rep.detail("traced_e2e", map[string]any{"latency_p50_ms": traced.p50.Value,
		"latency_p99_ms": traced.p99.Value, "throughput_per_s": traced.capacity})
	daemonCounters(rep, t, plain)
	rep.set("go.gc_pause_total_ms", ms(plain.gcPause))

	log := newSpanLog(obs.NewTracer())
	if err := serveLayers(rep, log, t, res); err != nil {
		return err
	}
	replayAllocation(rep, log, t.served.model, t.probeGraphs(), t.cluster)
	// The daemon serves an untrained model; the training layers are
	// measured on a short run that trains it on graphs of this workload.
	if err := trainLayers(env, rep, log.tr, coldTrainPlan, t.served.model.Cfg); err != nil {
		return err
	}
	return writeTrace(env, rep, t.served.name, log.tr)
}

// daemonCounters reports the figures read off the daemon's /metrics.
// The queue-wait and batch-size figures belong to the open loop, the
// phase behind latency_p99_ms and slo_attainment: they come from the
// scrape taken when it ended, and the daemon's quantile window
// (serve.Options.SLOWindow, 30 s by default) then holds only the
// open-loop requests once the open loop lasts longer than it.
func daemonCounters(rep *report, t *traffic, res *phaseResult) {
	delta := func(name string) float64 { return res.after[name] - res.before[name] }
	openDelta := func(name string) float64 { return res.afterOpen[name] - res.before[name] }
	hits, misses := delta("serve_cache_hits_total"), delta("serve_cache_misses_total")
	rep.set("serve.cache_hit_ratio", hits/(hits+misses))
	rep.set("serve.shed_total", delta("serve_shed_total"))
	rep.set("serve.queue_wait_p50_ms", res.afterOpen[`serve_queue_wait_ms{quantile="0.5"}`])
	rep.set("serve.queue_wait_p99_ms", res.afterOpen[`serve_queue_wait_ms{quantile="0.99"}`])
	rep.set("serve.batch_size_mean", openDelta("serve_batch_size_sum")/openDelta("serve_batch_size_count"))
	rep.set("metis.calls_per_request", delta("metis_partitions_total")/misses)
	rep.set("sim.runs_per_request", delta("sim_fluid_runs_total")/misses)
	rep.detail("queue_wait", map[string]any{"phase": "open loop", "open_loop_s": t.sched[len(t.sched)-1].Seconds(),
		"samples": res.afterOpen["serve_queue_wait_ms_count"]})
}

// serveLayers joins the daemon's spans of a traced pass to the
// benchmark's request spans, which it adds to log's trace, and times
// the request-side layers on the probe requests: decoding and the
// fingerprint replayed in-process, and the HTTP overhead.
func serveLayers(rep *report, log *spanLog, t *traffic, res *phaseResult) error {
	if err := daemonSpans(rep, res.traceFile, res); err != nil {
		return err
	}
	for lane, phase := range [][]sample{res.open, res.closed} {
		for i := range phase {
			s := &phase[i]
			log.tr.EmitArgs("http.request", lane, s.sent, s.done.Sub(s.sent), map[string]string{"trace_id": s.traceID})
		}
	}
	probeBodies := make([][]byte, len(t.probe))
	for i, in := range t.probe {
		probeBodies[i] = t.bodies[in]
	}
	if err := replayDecode(rep, log, probeBodies, t.cluster); err != nil {
		return err
	}
	return httpOverhead(rep, t, res)
}

// probeGraphs are the graphs behind the probe requests.
func (t *traffic) probeGraphs() []*stream.Graph {
	out := make([]*stream.Graph, len(t.probe))
	for i, in := range t.probe {
		out[i] = t.graphs[in]
	}
	return out
}

// writeTrace saves the benchmark-side spans of a traced run as a Chrome
// trace-event file next to the daemon's.
func writeTrace(env *runEnv, rep *report, workload string, tr *obs.Tracer) error {
	path := filepath.Join(env.workdir, workload+"-bench-trace.json")
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("writing benchmark trace: %w", err)
	}
	rep.detail("bench_trace", map[string]any{"path": path, "spans": tr.Len()})
	return nil
}

// daemonSpans joins the daemon's spans to the benchmark's request spans
// by trace id. A request's self time is its client-side duration minus
// the daemon child spans carrying its id (cache-probe, queue-wait,
// forward): HTTP, JSON, features, the sweep and the final simulate.
func daemonSpans(rep *report, path string, res *phaseResult) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading daemon trace: %w", err)
	}
	var file struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("decoding daemon trace: %w", err)
	}
	children := map[string]time.Duration{}
	byName := map[string][]float64{}
	for _, ev := range file.TraceEvents {
		id := ev.Args["trace_id"]
		if !strings.HasPrefix(id, traceTag+"-") {
			continue
		}
		d := time.Duration(ev.Dur * float64(time.Microsecond))
		children[id] += d
		byName[ev.Name] = append(byName[ev.Name], ms(d))
	}
	var self []float64
	joined := 0
	for _, phase := range [][]sample{res.open, res.closed} {
		for i := range phase {
			s := &phase[i]
			c, ok := children[s.traceID]
			if !s.ok() || !ok {
				continue
			}
			joined++
			self = append(self, ms(s.done.Sub(s.sent)-c))
		}
	}
	sent := len(res.open) + len(res.closed)
	rep.check(joined == sent, "daemon trace holds spans for %d of %d requests", joined, sent)
	rep.detail("daemon_spans", map[string]any{"events": len(file.TraceEvents), "requests_joined": joined})
	rep.set("serve.request_self_ms", median(self))
	rep.set("serve.span_cache_probe_us", 1000*median(byName["cache-probe"]))
	rep.set("serve.span_queue_wait_ms", median(byName["queue-wait"]))
	rep.set("serve.span_forward_ms", median(byName["forward"]))
	return nil
}

// httpOverhead subtracts the in-process cost of the probe requests —
// serve.Service.AllocateCtx on a service built like the daemon's — from
// their serial HTTP latency against the idle daemon. It also checks the
// probe's second pass, which the daemon must answer from its cache with
// the first pass's answers, and reports its latency as the cost of a
// cache hit over HTTP.
func httpOverhead(rep *report, t *traffic, res *phaseResult) error {
	serial := func(ss []sample) ([]float64, error) {
		var out []float64
		for i := range ss {
			if !ss[i].ok() {
				return nil, fmt.Errorf("probe request failed: %v", ss[i].err)
			}
			out = append(out, ms(ss[i].done.Sub(ss[i].sent)))
		}
		return out, nil
	}
	httpMS, err := serial(res.probe)
	if err != nil {
		return err
	}
	hitMS, err := serial(res.probeAgain)
	if err != nil {
		return err
	}
	for i := range res.probeAgain {
		var first, again serve.AllocateResponse
		if json.Unmarshal(res.probe[i].body, &first) != nil || json.Unmarshal(res.probeAgain[i].body, &again) != nil {
			rep.check(false, "probe %d: undecodable answer", i)
			continue
		}
		rep.check(again.Cached && slices.Equal(again.Assign, first.Assign) &&
			math.Float64bits(again.RelativeThroughput) == math.Float64bits(first.RelativeThroughput),
			"probe %d: repeated request was not a cache hit equal to its first answer", i)
	}
	rep.set("serve.hit_http_ms", median(hitMS))
	svc, err := serve.New(serve.Options{Model: t.served.model, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer svc.Close()
	var inproc []float64
	for _, in := range t.probe {
		t0 := time.Now()
		r, err := svc.AllocateCtx(context.Background(), t.graphs[in], t.cluster)
		if err != nil {
			return err
		}
		inproc = append(inproc, ms(time.Since(t0)))
		rep.check(!r.Cached, "in-process probe: answer came from the cache")
	}
	rep.set("serve.http_overhead_ms", median(httpMS)-median(inproc))
	rep.detail("http_overhead", map[string]any{"http_p50_ms": median(httpMS), "inproc_p50_ms": median(inproc), "requests": len(httpMS)})
	return nil
}
