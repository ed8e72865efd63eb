package parallel

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		seen := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	calls := 0
	ForEach(0, 4, func(int) { calls++ })
	ForEach(-3, 4, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("expected no calls, got %d", calls)
	}
}

func TestForEachWorkerCoversAllIndicesWithValidIDs(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		seen := make([]int32, n)
		bound := workers
		if bound <= 0 {
			bound = DefaultWorkers()
		}
		if bound > n {
			bound = n
		}
		var badID int32
		ForEachWorker(n, workers, func(w, i int) {
			if w < 0 || w >= bound {
				atomic.AddInt32(&badID, 1)
			}
			atomic.AddInt32(&seen[i], 1)
		})
		if badID != 0 {
			t.Fatalf("workers=%d produced %d out-of-range worker ids", workers, badID)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerSerializesPerWorker(t *testing.T) {
	// Per-worker state must never be touched concurrently: bump a
	// non-atomic counter per worker id and verify the totals add up,
	// which they only can if same-id calls are sequential (the race
	// detector additionally proves the absence of concurrent access).
	const n, workers = 500, 4
	counts := make([]int, workers)
	ForEachWorker(n, workers, func(w, i int) { counts[w]++ })
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEachErr(10, 4, func(i int) error {
		if i == 3 || i == 7 {
			return sentinel
		}
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := err.Error(); got != "task 3: boom" {
		t.Fatalf("expected lowest-index error, got %q", got)
	}
}

func TestForEachErrNil(t *testing.T) {
	if err := ForEachErr(5, 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestMapOrdering(t *testing.T) {
	out := Map(100, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestReduce(t *testing.T) {
	sum := Reduce(100, 4, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
}

// runChunkRanges collects the ranges RunChunks hands to fn, in order.
func runChunkRanges(n, parts int) [][2]int {
	var mu sync.Mutex
	var out [][2]int
	RunChunks(n, parts, func(lo, hi int) {
		mu.Lock()
		out = append(out, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func TestChunkRangesPartition(t *testing.T) {
	f := func(n, parts uint8) bool {
		chunks := runChunkRanges(int(n), int(parts))
		if n == 0 {
			return chunks == nil
		}
		want := int(parts)
		if parts == 0 {
			want = DefaultWorkers()
		}
		if want > int(n) {
			want = int(n)
		}
		if len(chunks) != want {
			return false
		}
		// Chunks must tile [0,n) exactly, in order, non-empty.
		next := 0
		for _, c := range chunks {
			if c[0] != next || c[1] <= c[0] {
				return false
			}
			next = c[1]
		}
		return next == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRangesBalance(t *testing.T) {
	chunks := runChunkRanges(10, 3)
	if len(chunks) != 3 {
		t.Fatalf("len = %d", len(chunks))
	}
	sizes := []int{chunks[0][1] - chunks[0][0], chunks[1][1] - chunks[1][0], chunks[2][1] - chunks[2][0]}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

// TestRunChunksMatchesChunkRanges pins RunChunks to the near-equal split:
// chunk p spans n/parts indices, plus one for the first n%parts chunks,
// and every index is covered exactly once.
func TestRunChunksMatchesChunkRanges(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {7, 7}, {100, 8}, {1, 4}, {5, 1}, {16, 16}} {
		n, parts := tc[0], tc[1]
		if parts > n {
			parts = n
		}
		got := runChunkRanges(n, parts)
		if len(got) != parts {
			t.Fatalf("RunChunks(%d,%d): %d chunks", n, parts, len(got))
		}
		lo := 0
		for p, r := range got {
			size := n / parts
			if p < n%parts {
				size++
			}
			if r != [2]int{lo, lo + size} {
				t.Fatalf("RunChunks(%d,%d): chunk %d = %v, want [%d,%d)", n, parts, p, r, lo, lo+size)
			}
			lo += size
		}
		if lo != n {
			t.Fatalf("RunChunks(%d,%d): chunks end at %d", n, parts, lo)
		}
	}
}

func TestRunChunksConcurrentCallers(t *testing.T) {
	// Many goroutines share the pool at once; each must see exactly its
	// own full coverage.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				const n = 257
				var sum int64
				RunChunks(n, 4, func(lo, hi int) {
					var s int64
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					atomic.AddInt64(&sum, s)
				})
				if sum != n*(n-1)/2 {
					t.Errorf("sum = %d", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunChunksNested(t *testing.T) {
	// A chunk body that itself calls RunChunks must not deadlock: busy
	// workers are never waited on, the caller degrades to serial.
	var total int64
	RunChunks(8, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			RunChunks(100, 4, func(l, h int) {
				atomic.AddInt64(&total, int64(h-l))
			})
		}
	})
	if total != 800 {
		t.Fatalf("total = %d", total)
	}
}
