package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, recs []record) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(&report{Benchmarks: recs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func rec(name string, ns, allocs float64) record {
	return record{Name: name, Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs,
		Raw: name + " 1 ns/op allocs/op"}
}

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkGNNEncode/medium-8   160   6831173 ns/op   35318 B/op   86 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkGNNEncode/medium-8" || r.NsPerOp != 6831173 || r.AllocsPerOp != 86 {
		t.Fatalf("bad record: %+v", r)
	}
}

func TestSummarizeTakesMinAndStripsSuffix(t *testing.T) {
	s := summarize(&report{Benchmarks: []record{
		rec("BenchmarkX-8", 120, 10),
		rec("BenchmarkX-8", 100, 10),
		rec("BenchmarkX-8", 110, 10),
	}})
	p, ok := s["BenchmarkX"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", s)
	}
	if p.ns != 100 || p.allocs != 10 || !p.hasMem {
		t.Fatalf("bad summary: %+v", p)
	}
}

func TestRunDiffPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	prev := writeReport(t, dir, "prev.json", []record{rec("BenchmarkA", 1000, 50)})
	next := writeReport(t, dir, "next.json", []record{rec("BenchmarkA", 1050, 50)})
	if code := runDiff(prev, next, 10); code != 0 {
		t.Fatalf("5%% slowdown under a 10%% gate must pass, got exit %d", code)
	}
}

func TestRunDiffFailsOnNsRegression(t *testing.T) {
	dir := t.TempDir()
	prev := writeReport(t, dir, "prev.json", []record{rec("BenchmarkA", 1000, 50)})
	next := writeReport(t, dir, "next.json", []record{rec("BenchmarkA", 1300, 50)})
	if code := runDiff(prev, next, 10); code != 1 {
		t.Fatalf("30%% slowdown must fail the gate, got exit %d", code)
	}
}

func TestRunDiffFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	prev := writeReport(t, dir, "prev.json", []record{rec("BenchmarkA", 1000, 50)})
	next := writeReport(t, dir, "next.json", []record{rec("BenchmarkA", 1000, 70)})
	if code := runDiff(prev, next, 10); code != 1 {
		t.Fatalf("40%% alloc growth must fail the gate, got exit %d", code)
	}
}

func TestRunDiffIgnoresAdditionsAndRemovals(t *testing.T) {
	dir := t.TempDir()
	prev := writeReport(t, dir, "prev.json", []record{
		rec("BenchmarkA", 1000, 50),
		rec("BenchmarkGone", 10, 1),
	})
	next := writeReport(t, dir, "next.json", []record{
		rec("BenchmarkA", 900, 50),
		rec("BenchmarkNew", 5000, 999),
	})
	if code := runDiff(prev, next, 10); code != 0 {
		t.Fatalf("additions/removals must not trip the gate, got exit %d", code)
	}
}

func TestLoadReportRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(path, []byte("{\"hello\": 1}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil || !strings.Contains(err.Error(), "not a benchjson report") {
		t.Fatalf("want parse rejection, got %v", err)
	}
}

func TestFlopsForParsesDims(t *testing.T) {
	if got := flopsFor("BenchmarkMatMul/square-128x128x128-into"); got != 2*128*128*128 {
		t.Fatalf("flopsFor dims = %g", got)
	}
	if got := flopsFor("BenchmarkMatMul/encode-msg-2048x48x24"); got != 2*2048*48*24 {
		t.Fatalf("flopsFor encode dims = %g", got)
	}
	if got := flopsFor("BenchmarkGNNEncode/large"); got != 0 {
		t.Fatalf("dimless name must have 0 flops, got %g", got)
	}
}

func TestParseBenchLineComputesGFLOPs(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkMatMul/square-128x128x128-8   100   4194304 ns/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	// 2*128^3 flops / 4194304 ns = 1 GFLOP/s exactly.
	if r.GFLOPs != 1 {
		t.Fatalf("gflops = %g, want 1", r.GFLOPs)
	}
}

func TestSummarizeDerivesGFLOPsFromMinNs(t *testing.T) {
	s := summarize(&report{Benchmarks: []record{
		rec("BenchmarkMatMul/square-128x128x128-8", 8388608, 4),
		rec("BenchmarkMatMul/square-128x128x128-8", 4194304, 4),
	}})
	p := s["BenchmarkMatMul/square-128x128x128"]
	if p.gflops != 1 {
		t.Fatalf("gflops from min ns = %g, want 1", p.gflops)
	}
}

func TestRunDiffFailsOnGFLOPsRegression(t *testing.T) {
	dir := t.TempDir()
	// Same allocs; ns/op grows 30% so throughput drops ~23% — both the
	// ns/op and the GFLOP/s gates should flag it, and the exit code is 1.
	prev := writeReport(t, dir, "prev.json", []record{rec("BenchmarkMatMul/square-64x64x64", 1000, 4)})
	next := writeReport(t, dir, "next.json", []record{rec("BenchmarkMatMul/square-64x64x64", 1300, 4)})
	if code := runDiff(prev, next, 10); code != 1 {
		t.Fatalf("throughput regression must fail the gate, got exit %d", code)
	}
}

func TestRunDiffRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string, recs ...record) string {
		data, err := json.Marshal(&report{CPU: cpu, Benchmarks: recs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const xeon, epyc = "Intel(R) Xeon(R) Processor @ 2.10GHz", "AMD EPYC 7B13"
	base := write("base.json", xeon, rec("BenchmarkA", 1000, 50))
	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		// Identical numbers: only the host differs, and that alone refuses.
		{"other cpu", write("cpu.json", epyc, rec("BenchmarkA", 1000, 50)), 2},
		{"other GOMAXPROCS", write("procs.json", xeon, rec("BenchmarkA-2", 1000, 50)), 2},
		{"same host", write("same.json", xeon, rec("BenchmarkA", 1000, 50)), 0},
	} {
		if code := runDiff(base, tc.path, 10); code != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.want)
		}
	}
	if h := hostOf(&report{CPU: xeon, Benchmarks: []record{rec("BenchmarkA-8", 1, 1)}}); !strings.Contains(h, xeon) || !strings.Contains(h, "GOMAXPROCS 8") {
		t.Fatalf("host %q must name the cpu and GOMAXPROCS", h)
	}
}
