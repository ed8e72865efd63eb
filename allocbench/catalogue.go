package main

import "sort"

// endToEnd lists the metrics a user of the service or the trainer sees,
// reported by untraced runs. BENCHMARK.json declares the same names and
// units (pinned by TestCatalogueMatchesBenchmarkJSON). Every workload
// reports every one; README.md says what each means on each workload.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_p99_ms":   "ms",
	"slo_attainment":   "fraction",
	"throughput_per_s": "1/s",
	"success_frac":     "fraction",
	"rel_tput_mean":    "fraction",
	"gain_vs_metis":    "ratio",
	"peak_rss_mb":      "MB",
}

// perLayer lists the single-layer metrics reported by traced runs, again
// every one by every workload.
var perLayer = map[string]string{
	// serve: the HTTP/JSON layer, the fingerprint, the LRU and the batcher.
	"serve.decode_ms":           "ms",
	"serve.fingerprint_us":      "us",
	"serve.http_overhead_ms":    "ms",
	"serve.hit_http_ms":         "ms",
	"serve.cache_hit_ratio":     "fraction",
	"serve.queue_wait_p50_ms":   "ms",
	"serve.queue_wait_p99_ms":   "ms",
	"serve.batch_size_mean":     "count",
	"serve.shed_total":          "count",
	"serve.span_cache_probe_us": "us",
	"serve.span_queue_wait_ms":  "ms",
	"serve.span_forward_ms":     "ms",
	"serve.request_self_ms":     "ms",
	// gnn and core: features, the forward pass and the ranked sweep.
	"gnn.features_ms":       "ms",
	"core.forward_ms":       "ms",
	"core.forward_gflops":   "GFLOP/s",
	"core.sweep_ms":         "ms",
	"core.sweep_candidates": "count",
	"core.stage_sum_ratio":  "ratio",
	"core.rank_ms":          "ms",
	// Sweep stages, replayed one public call at a time.
	"stream.collapse_ms":    "ms",
	"stream.coarsegraph_ms": "ms",
	"stream.expand_ms":      "ms",
	"metis.partition_ms":    "ms",
	"sim.simulate_ms":       "ms",
	// Exact per-request counts from the daemon's counters.
	"metis.calls_per_request": "count",
	"sim.runs_per_request":    "count",
	"sim.final_reward_ms":     "ms",
	// rl: training phases and training-side evaluation.
	"rl.seed_s":                 "s",
	"rl.pretrain_epoch_s":       "s",
	"rl.epoch_s":                "s",
	"rl.encode_ms":              "ms",
	"rl.sample_ms":              "ms",
	"rl.simulate_ms":            "ms",
	"rl.backward_ms":            "ms",
	"rl.allreduce_ms":           "ms",
	"rl.reward_cache_hit_ratio": "fraction",
	"rl.eval_forward_ms":        "ms",
	"rl.eval_sweep_ms":          "ms",
	// Runtime, load generator and tracing cost.
	"go.gc_pause_total_ms": "ms",
	"loadgen.late_p99_ms":  "ms",
	"trace.overhead_ms":    "ms",
	"trace.overhead_frac":  "fraction",
}

// lookupMetric returns a metric's unit and whether it is per-layer.
func lookupMetric(name string) (unit string, layer bool, ok bool) {
	if u, ok := endToEnd[name]; ok {
		return u, false, true
	}
	u, ok := perLayer[name]
	return u, true, ok
}

// missingMetrics lists the catalogue metrics of the given kind that m
// lacks: a run that leaves one out has not measured what it promises.
func missingMetrics(m map[string]metricValue, layer bool) []string {
	cat := endToEnd
	if layer {
		cat = perLayer
	}
	var out []string
	for name := range cat {
		if _, ok := m[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
