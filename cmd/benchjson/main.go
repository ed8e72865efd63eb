// Command benchjson converts `go test -bench` output into a JSON report.
// Each benchmark line is preserved verbatim in the record's "raw" field,
// so the original benchstat-consumable text can be reconstructed from the
// JSON (benchstat reads the standard bench text format; feed it the raw
// lines or the .txt file `make bench` keeps alongside).
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchjson > BENCH_1.json
//	benchjson bench.txt > BENCH_1.json
//	benchjson before.txt after.txt > BENCH_1.json   # {"before": …, "after": …}
//
// Compute benchmarks that embed their problem dims in the name (e.g.
// BenchmarkMatMul/square-128x128x128) additionally get a "gflops" field:
// 2·m·k·n FLOPs divided by ns/op.
//
// Regression gate: compare two previously emitted JSON reports and exit
// non-zero when any benchmark regressed by more than the threshold
// (percent, default 10) in ns/op, B/op or allocs/op — or, for benchmarks
// with dims in the name, dropped more than the threshold in GFLOP/s:
//
//	benchjson -diff BENCH_prev.json BENCH_new.json
//	benchjson -diff -threshold 5 BENCH_prev.json BENCH_new.json
//
// Duplicate entries for one benchmark (e.g. from -count=3) collapse to
// their minimum — the standard noise filter for wall-clock comparisons.
// Reports from different hosts — a different cpu: line or GOMAXPROCS
// name suffix — are refused with exit status 2, never compared.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	GFLOPs      float64 `json:"gflops,omitempty"`
	Raw         string  `json:"raw"`
}

// dimsPattern extracts the MxKxN problem dims that compute benchmarks embed
// in their names (e.g. BenchmarkMatMul/square-128x128x128-into). A matmul
// of those dims costs 2·m·k·n FLOPs, which turns ns/op into GFLOP/s.
var dimsPattern = regexp.MustCompile(`(\d+)x(\d+)x(\d+)`)

// flopsFor returns the per-op FLOP count encoded in a benchmark name, or 0
// when the name carries no dims.
func flopsFor(name string) float64 {
	m := dimsPattern.FindStringSubmatch(name)
	if m == nil {
		return 0
	}
	d := make([]float64, 3)
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseFloat(m[i+1], 64)
		if err != nil {
			return 0
		}
		d[i] = v
	}
	return 2 * d[0] * d[1] * d[2]
}

type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	diff := flag.Bool("diff", false, "compare two JSON reports and gate on regressions")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for -diff")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchjson [bench.txt | before.txt after.txt] < bench-output")
		fmt.Fprintln(os.Stderr, "       benchjson -diff [-threshold PCT] prev.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	if *diff {
		if len(args) != 2 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runDiff(args[0], args[1], *threshold))
	}

	var out any
	switch len(args) {
	case 0:
		out = mustParse(os.Stdin)
	case 1:
		out = mustParseFile(args[0])
	case 2:
		// Two files: a before/after comparison report.
		out = map[string]*report{
			"before": mustParseFile(args[0]),
			"after":  mustParseFile(args[1]),
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func mustParseFile(path string) *report {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	return mustParse(f)
}

func mustParse(in io.Reader) *report {
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rep
}

func parse(in io.Reader) (*report, error) {
	rep := &report{Benchmarks: []record{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBenchLine(line)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	return rep, sc.Err()
}

// benchPoint is the per-benchmark summary used for regression gating.
type benchPoint struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
	gflops float64 // derived from name dims and min ns; 0 when dimless
}

// gomaxprocsSuffix strips the trailing "-N" parallelism tag Go appends to
// benchmark names, so reports recorded at different GOMAXPROCS still match.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// summarize folds a report into per-name minima: with -count>1 each
// benchmark appears several times, and the minimum is the least-noisy
// wall-clock estimate (allocs/op is deterministic, min is a no-op there).
func summarize(rep *report) map[string]benchPoint {
	out := make(map[string]benchPoint, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		name := gomaxprocsSuffix.ReplaceAllString(r.Name, "")
		p, seen := out[name]
		if !seen || r.NsPerOp < p.ns {
			p.ns = r.NsPerOp
		}
		hasMem := strings.Contains(r.Raw, "allocs/op")
		if hasMem {
			if !p.hasMem || r.AllocsPerOp < p.allocs {
				p.allocs = r.AllocsPerOp
			}
			if !p.hasMem || r.BytesPerOp < p.bytes {
				p.bytes = r.BytesPerOp
			}
			p.hasMem = true
		}
		if flops := flopsFor(name); flops > 0 && p.ns > 0 {
			p.gflops = flops / p.ns
		}
		out[name] = p
	}
	return out
}

// loadReport reads a JSON report emitted by this tool. Plain reports and
// the {"before": …, "after": …} comparison shape (its "after" half) both
// load.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err == nil && len(rep.Benchmarks) > 0 {
		return &rep, nil
	}
	var pair map[string]*report
	if err := json.Unmarshal(data, &pair); err == nil && pair["after"] != nil {
		return pair["after"], nil
	}
	return nil, fmt.Errorf("%s: not a benchjson report", path)
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// hostOf names the machine a report was recorded on: its cpu: line and
// the GOMAXPROCS suffixes go test appended to the benchmark names (none
// at GOMAXPROCS=1).
func hostOf(rep *report) string {
	seen := map[string]bool{}
	for _, r := range rep.Benchmarks {
		procs := strings.TrimPrefix(gomaxprocsSuffix.FindString(r.Name), "-")
		if procs == "" {
			procs = "1"
		}
		seen[procs] = true
	}
	procs := make([]string, 0, len(seen))
	for p := range seen {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	return fmt.Sprintf("cpu %q, GOMAXPROCS %s", rep.CPU, strings.Join(procs, ","))
}

// runDiff prints a per-benchmark delta table and returns the exit code:
// 0 when no benchmark regressed past the threshold, 1 otherwise, and 2
// when a report is unreadable or the two come from different hosts. Only
// benchmarks present in both reports are gated; additions and removals
// are reported informationally.
func runDiff(prevPath, newPath string, threshold float64) int {
	prevRep, err := loadReport(prevPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Absolute timings from two machines say nothing about a code change:
	// refuse, loudly, rather than gate one host against another.
	if hp, hn := hostOf(prevRep), hostOf(newRep); hp != hn {
		fmt.Fprintf(os.Stderr, "benchjson: refusing to compare reports from different hosts:\n  %s: %s\n  %s: %s\n",
			prevPath, hp, newPath, hn)
		return 2
	}
	prev, cur := summarize(prevRep), summarize(newRep)

	names := make([]string, 0, len(prev))
	for name := range prev {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	for _, name := range names {
		p, ok := cur[name]
		if !ok {
			fmt.Printf("%-60s removed\n", name)
			continue
		}
		o := prev[name]
		dns := pctDelta(o.ns, p.ns)
		line := fmt.Sprintf("%-60s ns/op %12.0f -> %12.0f  %+7.2f%%", name, o.ns, p.ns, dns)
		bad := dns > threshold
		if o.hasMem && p.hasMem {
			dby := pctDelta(o.bytes, p.bytes)
			line += fmt.Sprintf("   B/op %10.0f -> %10.0f  %+7.2f%%", o.bytes, p.bytes, dby)
			dal := pctDelta(o.allocs, p.allocs)
			line += fmt.Sprintf("   allocs/op %8.0f -> %8.0f  %+7.2f%%", o.allocs, p.allocs, dal)
			bad = bad || dby > threshold || dal > threshold
		}
		if o.gflops > 0 && p.gflops > 0 {
			// A GFLOP/s drop is a throughput regression: gate on -threshold.
			dgf := pctDelta(o.gflops, p.gflops)
			line += fmt.Sprintf("   GFLOP/s %6.2f -> %6.2f  %+7.2f%%", o.gflops, p.gflops, dgf)
			bad = bad || dgf < -threshold
		}
		if bad {
			line += "   REGRESSION"
			regressions++
		}
		fmt.Println(line)
	}
	added := make([]string, 0)
	for name := range cur {
		if _, ok := prev[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("%-60s new (ns/op %.0f)\n", name, cur[name].ns)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%%\n", regressions, threshold)
		return 1
	}
	return 0
}

// parseBenchLine decodes one standard benchmark result line:
//
//	BenchmarkName-8   160   6831173 ns/op   35318 B/op   86 allocs/op
func parseBenchLine(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: fields[0], Iterations: iters, Raw: line}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		}
	}
	if flops := flopsFor(r.Name); flops > 0 && r.NsPerOp > 0 {
		r.GFLOPs = flops / r.NsPerOp
	}
	return r, true
}
