package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one timed request: the benchmark-side span around it.
type sample struct {
	input   int       // index into the workload's inputs
	traceID string    // X-Trace-Id sent ("" when untraced)
	due     time.Time // open loop: when it was due; closed loop: when sent
	sent    time.Time
	done    time.Time
	status  int // 0 on a transport error
	body    []byte
	err     error
}

// latency is measured from when the request was due, so a stall delays
// every request scheduled behind it.
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

func (s *sample) ok() bool { return s.status == http.StatusOK }

// client posts prepared bodies to one daemon over at most conns
// keep-alive connections.
type client struct {
	http   *http.Client
	url    string
	bodies [][]byte
}

func newClient(base string, conns int, bodies [][]byte) *client {
	tr := &http.Transport{
		Proxy:               nil, // loopback only; never consult proxy settings
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		http:   &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:    base + "/allocate",
		bodies: bodies,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends input's body and fills s.
func (c *client) do(s *sample) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.bodies[s.input]))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if s.traceID != "" {
		req.Header.Set("X-Trace-Id", s.traceID)
	}
	s.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		s.done, s.err = time.Now(), err
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status = resp.StatusCode
	if s.err == nil && s.status != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
}

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate requests/s over dur. The same seed gives the same schedule.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5851F42D4C957F2D))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// openLoop sends inputs[i] at sched[i] after the start, whatever the
// state of earlier requests, over conns connections. Requests that find
// every connection busy wait in the dispatch queue; their latency counts
// that wait because it is measured from the due time. late[i] is how far
// behind schedule the dispatcher itself ran.
func (c *client) openLoop(sched []time.Duration, inputs []int, conns int, traceTag string) (samples []sample, late []time.Duration) {
	samples = make([]sample, len(sched))
	late = make([]time.Duration, len(sched))
	jobs := make(chan int, len(sched)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c.do(&samples[i])
			}
		}()
	}
	// time.Sleep wakes through the runtime's poller, whose timeout is
	// whole milliseconds; a thread-locked nanosleep wakes within tens of
	// microseconds, so the generator itself adds little to latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		late[i] = time.Since(due)
		samples[i] = sample{input: inputs[i], due: due}
		if traceTag != "" {
			samples[i].traceID = fmt.Sprintf("%s-o%d", traceTag, i)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples, late
}

// closedLoop runs conns clients that each send their next request as
// soon as the previous one completes, until dur has passed or next runs
// out of inputs. It returns the samples and the phase's wall time.
func (c *client) closedLoop(dur time.Duration, conns int, next func() (int, bool), traceTag string) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		seq     atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				in, ok := next()
				if !ok {
					break
				}
				s := sample{input: in}
				if traceTag != "" {
					s.traceID = fmt.Sprintf("%s-c%d", traceTag, seq.Add(1))
				}
				s.due = time.Now()
				c.do(&s)
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// counterFrom returns a next() over 0..n-1 in order, safe for concurrent
// use.
func counterFrom(first, n int) func() (int, bool) {
	var i atomic.Int64
	i.Store(int64(first))
	return func() (int, bool) {
		v := int(i.Add(1) - 1)
		return v, v < n
	}
}
