// Command allocbench is the repository's benchmark: it measures the
// allocation service (cmd/allocserve over real HTTP) and the training
// loop (internal/rl in-process) on two seeded workloads and prints
// every metric by name with its unit; every workload reports every
// metric. See README.md for the workloads, the metric map and the
// traced mode; run it through run.sh:
//
//	bash allocbench/run.sh --workload serve-cold --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(env *runEnv, rep *report) error{
	"serve-cold": runServeCold,
	"train-eval": runTrainEval,
}

// runEnv is what every workload receives from the command line.
type runEnv struct {
	seed    int64
	seconds float64
	trace   bool
	daemon  string // path to the allocserve binary
	workdir string // per-run scratch directory inside the checkout
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: serve-cold or train-eval")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 45, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
		daemon   = flag.String("daemon", "", "path to the allocserve binary (serve workloads)")
		workdir  = flag.String("workdir", ".bench_build/allocbench/run", "scratch directory for daemon logs and traces")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		fail("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		fail("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail("%v", err)
	}
	env := &runEnv{seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon, workdir: *workdir}
	rep := newReport(*workload, env)
	steal0, err := stealSeconds()
	if err != nil {
		fail("%v", err)
	}
	if err := run(env, rep); err != nil {
		fail("%s: %v", *workload, err)
	}
	steal1, err := stealSeconds()
	if err != nil {
		fail("%v", err)
	}
	rep.detail("host_steal_s", steal1-steal0)
	if missing := missingMetrics(rep.metrics, rep.Trace); len(missing) > 0 {
		fail("%s: no value for %v (failed checks: %v)", *workload, missing, rep.Errors)
	}
	rep.print(os.Stdout)
	if len(rep.Errors) > 0 {
		os.Exit(1)
	}
}

// fail aborts without printing a result line: the run did not measure.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "allocbench: "+format+"\n", args...)
	os.Exit(2)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, its evidence and its failed checks.
type report struct {
	Host              hostInfo       `json:"host"`
	Workload          string         `json:"workload"`
	Seed              int64          `json:"seed"`
	Trace             bool           `json:"trace"`
	Details           map[string]any `json:"details"`
	Errors            []string       `json:"errors"`
	metrics           map[string]metricValue
	attempted, failed int
}

func newReport(workload string, env *runEnv) *report {
	return &report{
		Host:     collectHost(),
		Workload: workload,
		Seed:     env.seed,
		Trace:    env.trace,
		Details:  map[string]any{},
		metrics:  map[string]metricValue{},
	}
}

// set records an end-to-end metric (untraced runs) or a per-layer metric
// (traced runs); the other kind is dropped, so a workload can compute
// both without branching. Unknown names are a bug in this program.
func (r *report) set(name string, v float64) {
	unit, layer, ok := lookupMetric(name)
	if !ok {
		panic("allocbench: metric " + name + " is not in the catalogue")
	}
	if layer != r.Trace {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is %v", name, v)
		return
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// check records a failed correctness check. Any failure fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok && len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// count adds operations to the attempted/failed tallies.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// detail records supporting evidence (sample counts, percentiles used).
func (r *report) detail(key string, v any) { r.Details[key] = v }

// print writes the full report as one JSON line, a readable summary to
// standard error, and the result object as the last line of out.
func (r *report) print(out *os.File) {
	full, err := json.Marshal(map[string]any{"report": r})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(full))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "allocbench %s seed=%d trace=%v on %s (nproc=%d GOMAXPROCS=%d %s)\n",
		r.Workload, r.Seed, r.Trace, r.Host.CPUModel, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", e)
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.Errors) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(res))
}
