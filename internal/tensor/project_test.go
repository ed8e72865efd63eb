package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestProjectThenGatherBitIdentical pins the project-then-gather message
// kernels to the per-edge kernels they replaced: GatherMatMulAddTanhInto,
// and GatherAddTanhSegMeanCSRInto fed with p = a·b from MatMulInto, must
// equal the per-edge oracles Float64bits for Float64bits, with and
// without the additive term, with empty buckets, on the serial and
// parallel paths, at 1, 2 and 8 workers.
func TestProjectThenGatherBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ nodes, edges, k, m, segments int }{
		{6, 9, 5, 3, 6},
		{40, 120, 12, 7, 40},     // remainder dims
		{136, 376, 48, 24, 136},  // a Medium graph at the daemon's width
		{500, 3000, 24, 24, 500}, // parallel path on every kernel
		{64, 700, 512, 256, 64},  // paper width: p takes the packed product path
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.edges)))
		a := randMat(rng, sh.nodes, sh.k)
		b := randMat(rng, sh.k, sh.m)
		add := randMat(rng, sh.edges, sh.m)
		idx := make([]int, sh.edges)
		seg := make([]int, sh.edges)
		for e := range idx {
			idx[e] = rng.Intn(sh.nodes)
			seg[e] = rng.Intn(sh.segments - 1) // last segment stays empty
		}
		offs, members := segBuckets(seg, sh.segments)
		for _, am := range []*Matrix{add, nil} {
			runtime.GOMAXPROCS(1)
			wantMsg := perEdgeGatherMatMulAddTanhInto(a, idx, b, am, New(sh.edges, sh.m))
			wantMean := perEdgeGatherMatMulAddTanhSegMeanCSRInto(a, idx, b, am, offs, members, New(sh.segments, sh.m))
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				mustBitEqual(t, "GatherMatMulAddTanhInto", GatherMatMulAddTanhInto(a, idx, b, am, New(sh.edges, sh.m)), wantMsg)
				p := MatMulInto(a, b, New(sh.nodes, sh.m))
				mustBitEqual(t, "GatherAddTanhSegMeanCSRInto",
					GatherAddTanhSegMeanCSRInto(p, idx, am, offs, members, New(sh.segments, sh.m)), wantMean)
			}
		}
	}
}

func TestProjectThenGatherEmptyAndBadInput(t *testing.T) {
	a, b := New(3, 4), New(4, 2)
	if got := GatherMatMulAddTanhInto(a, nil, b, nil, New(0, 2)); got.Rows != 0 {
		t.Fatalf("edgeless gather has %d rows", got.Rows)
	}
	// Every bucket empty: the mean is zero, not NaN.
	p := New(3, 2)
	dst := New(3, 2)
	dst.Fill(7)
	GatherAddTanhSegMeanCSRInto(p, nil, nil, []int32{0, 0, 0, 0}, nil, dst)
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("empty bucket element %d = %v", i, v)
		}
	}
	for _, fn := range []func(){
		func() { GatherMatMulAddTanhInto(a, []int{3}, b, nil, New(1, 2)) },                              // gather row out of range
		func() { GatherMatMulAddTanhInto(a, []int{0}, b, New(2, 2), New(1, 2)) },                        // add rows != edges
		func() { GatherAddTanhSegMeanCSRInto(p, []int{3}, nil, []int32{0, 1}, []int{0}, New(1, 2)) },    // gather row out of range
		func() { GatherAddTanhSegMeanCSRInto(p, []int{0}, nil, []int32{0, 2}, []int{0, 1}, New(1, 2)) }, // member past the edges
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on malformed input")
				}
			}()
			fn()
		}()
	}
}
