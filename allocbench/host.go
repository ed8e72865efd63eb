package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo names the machine and build that produced a report: numbers
// from different hosts are not comparable.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func collectHost() hostInfo {
	h := hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOMEMLIMIT: memLimit(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	// The go command stamps VCS state into binaries built inside a git
	// work tree; a plain source checkout has none, and says so.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// memLimit reports the effective GOMEMLIMIT (math.MaxInt64 = none).
func memLimit() string {
	lim := debug.SetMemoryLimit(-1)
	if lim == 1<<63-1 {
		return "none"
	}
	return strconv.FormatInt(lim, 10)
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's CPUs since boot (the steal column of /proc/stat, in the
// kernel's 100 Hz ticks). Its growth during a run says how much of the
// run's wall time co-tenants took; nothing in the program causes it.
func stealSeconds() (float64, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing steal in /proc/stat: %w", err)
			}
			return ticks / 100, nil
		}
	}
	return 0, fmt.Errorf("no cpu line in /proc/stat")
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stealTick is how often a stealTrace samples the steal counter; the
// kernel counts steal in 10 ms ticks.
const stealTick = 100 * time.Millisecond

// stolenShare is the share of the machine's CPU time the hypervisor may
// take in one stealTick interval before the interval counts as stolen.
const stolenShare = 0.1

// stealTrace samples the machine's steal counter every stealTick, so a
// run can tell which of its intervals the hypervisor took CPU from.
type stealTrace struct {
	at    []time.Time
	steal []float64
	stop  chan struct{}
	done  chan struct{}
}

func startStealTrace() *stealTrace {
	st := &stealTrace{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(st.done)
		tick := time.NewTicker(stealTick)
		defer tick.Stop()
		for {
			if v, err := stealSeconds(); err == nil {
				st.at = append(st.at, time.Now())
				st.steal = append(st.steal, v)
			}
			select {
			case <-st.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return st
}

// end stops the sampler and waits for it.
func (st *stealTrace) end() {
	close(st.stop)
	<-st.done
}

// stolen reports whether any sampled interval overlapping [a, b] lost
// more than stolenShare of the machine's CPU time to the hypervisor.
func (st *stealTrace) stolen(a, b time.Time) bool {
	i := sort.Search(len(st.at), func(i int) bool { return !st.at[i].Before(a) })
	if i == 0 {
		i = 1
	}
	for ; i < len(st.at); i++ {
		dt := st.at[i].Sub(st.at[i-1]).Seconds()
		if dt > 0 && (st.steal[i]-st.steal[i-1])/(dt*float64(runtime.NumCPU())) > stolenShare {
			return true
		}
		if st.at[i].After(b) {
			break
		}
	}
	return false
}
