package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// segBuckets builds the CSR bucket structure for a segment vector with the
// same counting sort bucketByKey uses (ascending members per bucket).
func segBuckets(seg []int, segments int) ([]int32, []int) {
	offs := make([]int32, segments+1)
	for _, s := range seg {
		offs[s+1]++
	}
	for b := 0; b < segments; b++ {
		offs[b+1] += offs[b]
	}
	members := make([]int, len(seg))
	cursor := append([]int32(nil), offs[:segments]...)
	for i, s := range seg {
		members[cursor[s]] = i
		cursor[s]++
	}
	return offs, members
}

// segmentMeanRef is the seg-vector segment mean the CSR kernels must
// reproduce bit for bit: row i of a is summed into segment seg[i] in
// ascending row order, then each non-empty segment is scaled by 1/count.
func segmentMeanRef(a *Matrix, seg []int, segments int) *Matrix {
	dst := New(segments, a.Cols)
	counts := make([]float64, segments)
	for i, s := range seg {
		counts[s]++
		orow := dst.Row(s)
		for j, v := range a.Row(i) {
			orow[j] += v
		}
	}
	for s, c := range counts {
		if c == 0 {
			continue
		}
		inv := 1 / c
		orow := dst.Row(s)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return dst
}

func mustBitEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bits differ)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// csrShapes covers serial and parallel paths, remainder column counts, and
// sparsely populated segment spaces (empty buckets).
var csrShapes = []struct {
	rows, cols, segments int
}{
	{7, 5, 4},
	{64, 3, 70}, // more segments than rows → many empty buckets
	{300, 24, 40},
	{1100, 64, 17}, // rows*cols ≥ 2^16 → parallel path
	{3000, 31, 9},  // remainder cols on the parallel path
}

func TestSegmentMeanCSRBitIdenticalToSegVector(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range csrShapes {
		rng := rand.New(rand.NewSource(int64(sh.rows)))
		a := New(sh.rows, sh.cols)
		a.RandUniform(rng, 1)
		seg := make([]int, sh.rows)
		for i := range seg {
			seg[i] = rng.Intn(sh.segments)
		}
		want := segmentMeanRef(a, seg, sh.segments)
		offs, members := segBuckets(seg, sh.segments)
		for _, procs := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			got := SegmentMeanCSRInto(a, offs, members, New(sh.segments, sh.cols))
			mustBitEqual(t, "SegmentMeanCSRInto", got, want)
		}
	}
}

func TestScatterAddRowsCSRBitIdenticalToPar(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range csrShapes {
		rng := rand.New(rand.NewSource(int64(sh.rows + 1)))
		src := New(sh.rows, sh.cols)
		src.RandUniform(rng, 1)
		idx := make([]int, sh.rows)
		for i := range idx {
			idx[i] = rng.Intn(sh.segments)
		}
		base := New(sh.segments, sh.cols)
		base.RandUniform(rng, 1)
		want := base.Clone()
		ScatterAddRowsPar(want, src, idx)
		offs, members := segBuckets(idx, sh.segments)
		for _, procs := range []int{1, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			got := base.Clone()
			ScatterAddRowsCSR(got, src, offs, members)
			mustBitEqual(t, "ScatterAddRowsCSR", got, want)
		}
	}
}

// TestGatherSegMeanCSRBitIdenticalToUnfused pins the fused
// gather-activate-mean kernel, fed the per-node projection, against the
// unfused GatherMatMulAddTanhInto → segment-mean pair it replaces on
// the inference path.
func TestGatherSegMeanCSRBitIdenticalToUnfused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ nodes, edges, k, m, segments int }{
		{6, 9, 5, 3, 6},
		{40, 120, 12, 7, 40}, // remainder dims
		{200, 900, 48, 24, 200},
		{500, 3000, 24, 24, 500}, // parallel path (3000·24·24 ≥ 2^16)
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.edges)))
		h := New(sh.nodes, sh.k)
		h.RandUniform(rng, 1)
		b := New(sh.k, sh.m)
		b.RandUniform(rng, 1)
		add := New(sh.edges, sh.m)
		add.RandUniform(rng, 1)
		idx := make([]int, sh.edges)
		seg := make([]int, sh.edges)
		for e := range idx {
			idx[e] = rng.Intn(sh.nodes)
			seg[e] = rng.Intn(sh.segments - 1) // last segment stays empty
		}
		offs, members := segBuckets(seg, sh.segments)
		for _, withAdd := range []bool{true, false} {
			am := add
			if !withAdd {
				am = nil
			}
			msg := GatherMatMulAddTanhInto(h, idx, b, am, New(sh.edges, sh.m))
			want := segmentMeanRef(msg, seg, sh.segments)
			for _, procs := range []int{1, runtime.NumCPU()} {
				runtime.GOMAXPROCS(procs)
				p := MatMulInto(h, b, New(sh.nodes, sh.m))
				got := GatherAddTanhSegMeanCSRInto(p, idx, am, offs, members, New(sh.segments, sh.m))
				mustBitEqual(t, "GatherAddTanhSegMeanCSRInto", got, want)
			}
		}
	}
}

func TestCSRKernelRejectsBadBuckets(t *testing.T) {
	for _, fn := range []func(){
		func() { SegmentMeanCSRInto(New(3, 2), []int32{0, 1, 3}, []int{0, 1}, New(2, 2)) }, // offsets don't cover members
		func() { SegmentMeanCSRInto(New(3, 2), []int32{0, 1, 2}, []int{0, 5}, New(2, 2)) }, // member out of range
		func() { ScatterAddRowsCSR(New(2, 2), New(3, 2), []int32{0, 1, 2}, []int{0, 9}) },  // member out of range
		func() { ScatterAddRowsCSR(New(3, 2), New(3, 2), []int32{0, 1, 2}, []int{0, 1}) },  // dst rows vs buckets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on malformed CSR buckets")
				}
			}()
			fn()
		}()
	}
}
