package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // exactly 10 samples beyond p99
		{5000, 99}, // more than enough
		{500, 98},  // p99 would leave 5: fall back to p98
		{20, 50},   // the smallest sample that supports a median
	} {
		got, err := tailPercentile(tc.n, 99)
		if err != nil || got != tc.want {
			t.Errorf("tailPercentile(%d, 99) = %v, %v; want %v", tc.n, got, err, tc.want)
		}
	}
	if _, err := tailPercentile(19, 99); err == nil {
		t.Error("tailPercentile accepted 19 samples")
	}

	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 500..1, unsorted
	}
	tl, err := tailOf(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	// p98 of 1..500 by nearest rank is the 490th value: 10 lie beyond it.
	if tl.Percentile != 98 || tl.Value != 490 || tl.Samples != 500 {
		t.Errorf("tailOf = %+v, want p98 = 490 over 500 samples", tl)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	const rate, dur = 400.0, 10 * time.Second
	a := poissonSchedule(7, rate, dur)
	b := poissonSchedule(7, rate, dur)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, rate, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= dur {
		t.Fatal("schedule is not increasing within [0, dur)")
	}
	// 4000 expected arrivals; a Poisson count is within ±5σ (≈316).
	if n := len(a); n < 3684 || n > 4316 {
		t.Fatalf("%d arrivals at %v/s over %v", n, rate, dur)
	}
}

func TestStealTraceStolen(t *testing.T) {
	t0 := time.Unix(1000, 0)
	st := &stealTrace{}
	// 100 ms intervals; the third (200–300 ms) loses 50 ms of CPU time
	// on every CPU, the others none.
	steal := 0.0
	for i := 0; i <= 5; i++ {
		if i == 3 {
			steal += 0.05 * float64(runtime.NumCPU())
		}
		st.at = append(st.at, t0.Add(time.Duration(i)*100*time.Millisecond))
		st.steal = append(st.steal, steal)
	}
	ms := func(v int) time.Time { return t0.Add(time.Duration(v) * time.Millisecond) }
	for _, tc := range []struct {
		from, to int
		want     bool
	}{
		{0, 150, false},
		{120, 190, false},
		{150, 250, true},
		{210, 290, true},
		{290, 450, true},
		{310, 480, false},
	} {
		if got := st.stolen(ms(tc.from), ms(tc.to)); got != tc.want {
			t.Errorf("stolen(%d ms, %d ms) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

// stealAt1500ms returns a steal trace of 100 ms intervals over 3 s from
// t0 in which only 1500–1600 ms loses CPU time.
func stealAt1500ms() (time.Time, *stealTrace) {
	t0 := time.Unix(1000, 0)
	st := &stealTrace{}
	steal := 0.0
	for i := 0; i <= 30; i++ {
		if i == 16 {
			steal += 0.05 * float64(runtime.NumCPU())
		}
		st.at = append(st.at, t0.Add(time.Duration(i)*100*time.Millisecond))
		st.steal = append(st.steal, steal)
	}
	return t0, st
}

// TestStealFilterIgnoresLatency pins that summarize leaves a request out
// for steal by its due time alone: two requests due together are kept or
// left out together, however long each took.
func TestStealFilterIgnoresLatency(t *testing.T) {
	t0, st := stealAt1500ms()
	at := func(v int) time.Time { return t0.Add(time.Duration(v) * time.Millisecond) }
	res := &phaseResult{steal: st, closedStart: t0, closedWall: time.Second}
	// 60 requests due every 10 ms from 1000 ms, answered in 5 ms; one
	// more due at 1000 ms that took 900 ms, through the stolen interval.
	for i := 0; i < 60; i++ {
		due := at(1000 + 10*i)
		res.open = append(res.open, sample{due: due, done: due.Add(5 * time.Millisecond), status: 200})
	}
	res.open = append(res.open, sample{due: at(1000), done: at(1900), status: 200})
	res.late = make([]time.Duration, len(res.open))
	res.closed = []sample{{done: at(100), status: 200}}
	sum, err := summarize(res)
	if err != nil {
		t.Fatal(err)
	}
	// The sloLimit (100 ms) after a due time reach the stolen interval
	// from a due time of 1400 ms on: the 20 requests due at 1400..1590 ms.
	if sum.stolen != 20 {
		t.Errorf("left out %d requests for steal, want 20", sum.stolen)
	}
	// The slow request was due before that, so it counts.
	if sum.p50.Samples != 41 {
		t.Errorf("percentiles over %d requests, want 41 (the slow one kept)", sum.p50.Samples)
	}
}

// TestClearOfIgnoresDuration pins that train-eval's steal filter keeps or
// leaves out an interval by its start alone.
func TestClearOfIgnoresDuration(t *testing.T) {
	t0, st := stealAt1500ms()
	at := func(v int) time.Time { return t0.Add(time.Duration(v) * time.Millisecond) }
	var xs []interval
	for i := 0; i < 60; i++ {
		xs = append(xs, interval{at(1000 + 10*i), 5 * time.Millisecond})
	}
	xs = append(xs, interval{at(1000), 900 * time.Millisecond}) // runs through the stolen interval
	kept := clearOf(xs, st, 100*time.Millisecond)
	// Starts from 1400 ms to 1590 ms reach the stolen interval within
	// 100 ms; the long interval started before them and stays.
	if len(kept) != 41 || kept[len(kept)-1].d != 900*time.Millisecond {
		t.Errorf("kept %d intervals (last %v), want 41 ending with the 900ms one", len(kept), kept[len(kept)-1].d)
	}
}

func TestMissingMetrics(t *testing.T) {
	m := map[string]metricValue{}
	for name, unit := range endToEnd {
		m[name] = metricValue{Value: 1, Unit: unit}
	}
	if got := missingMetrics(m, false); len(got) != 0 {
		t.Errorf("complete end-to-end set reported missing %v", got)
	}
	if got := missingMetrics(m, true); len(got) != len(perLayer) {
		t.Errorf("per-layer check found %d of %d missing", len(got), len(perLayer))
	}
	delete(m, "setup_s")
	if got := missingMetrics(m, false); !reflect.DeepEqual(got, []string{"setup_s"}) {
		t.Errorf("missing %v, want [setup_s]", got)
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchPattern(t *testing.T) {
	for name := range workloads {
		if !namePattern.MatchString(name) {
			t.Errorf("workload name %q", name)
		}
	}
	for _, cat := range []map[string]string{endToEnd, perLayer} {
		for name, unit := range cat {
			if !namePattern.MatchString(name) {
				t.Errorf("metric name %q", name)
			}
			if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(unit) {
				t.Errorf("metric %s unit %q", name, unit)
			}
		}
	}
	for name := range endToEnd {
		if _, dup := perLayer[name]; dup {
			t.Errorf("metric %q is both end-to-end and per-layer", name)
		}
	}
}

// benchmarkFile is BENCHMARK.json, field for field.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) (benchmarkFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf, raw
}

func TestBenchmarkJSONRoundTrips(t *testing.T) {
	bf, raw := loadBenchmarkFile(t)
	again, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("BENCHMARK.json does not round-trip:\n%s\n%s", raw, again)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 ||
		len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("counts: %d workloads, %d end-to-end, %d per-layer", len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
	}
	seen := map[string]bool{}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %+v", w)
		}
		seen[w.Name] = true
	}
	if len(seen) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(seen), len(workloads))
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s is declared %+v", m)
		}
	}
	for _, m := range bf.PerLayer {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf, _ := loadBenchmarkFile(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v\nprogram catalogue %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v\nprogram catalogue %v", layer, perLayer)
	}
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("BENCHMARK.json lacks setup_s")
	}
}
