package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

func TestArenaGetShapes(t *testing.T) {
	m := Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Get(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	Put(m)
	// Same element count, different shape: the header must be reshaped.
	r := Get(2, 6)
	if r.Rows != 2 || r.Cols != 6 || len(r.Data) != 12 {
		t.Fatalf("Get(2,6) = %dx%d len %d", r.Rows, r.Cols, len(r.Data))
	}
	Put(r)
}

func TestArenaGetZeroed(t *testing.T) {
	m := Get(5, 5)
	for i := range m.Data {
		m.Data[i] = 42
	}
	Put(m)
	z := GetZeroed(5, 5)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %g", i, v)
		}
	}
	Put(z)
}

func TestArenaEmptyAndNil(t *testing.T) {
	Put(nil) // must not panic
	e := Get(0, 3)
	if e.Rows != 0 || e.Cols != 3 {
		t.Fatalf("Get(0,3) = %dx%d", e.Rows, e.Cols)
	}
	Put(e) // empty matrices are ignored, must not panic
}

func TestArenaOutstandingBuffersDontAlias(t *testing.T) {
	a := Get(4, 4)
	b := Get(4, 4)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("two outstanding Gets share a backing slice")
	}
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range b.Data {
		b.Data[i] = 2
	}
	for i := range a.Data {
		if a.Data[i] != 1 {
			t.Fatalf("write to b clobbered a at %d", i)
		}
	}
	Put(a)
	Put(b)
}

// TestArenaConcurrentGetPut hammers the arena from parallel workers; under
// -race this verifies pooled buffers are never handed to two goroutines at
// once.
func TestArenaConcurrentGetPut(t *testing.T) {
	var bad atomic.Int64
	parallel.ForEach(64, 0, func(w int) {
		for iter := 0; iter < 200; iter++ {
			m := Get(8, 8)
			val := float64(w*1000 + iter)
			for i := range m.Data {
				m.Data[i] = val
			}
			for i := range m.Data {
				if m.Data[i] != val {
					bad.Add(1)
				}
			}
			Put(m)
		}
	})
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d elements clobbered while a buffer was owned", n)
	}
}

// Naive reference kernels (ascending-k scalar accumulation). The blocked
// production kernels use a different — but fixed — accumulation order, so
// products are compared within a tight tolerance here; bitwise
// determinism of the blocked kernels themselves is covered by
// kernels_test.go.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*b.Cols+j] = s
		}
	}
	return out
}

func refMatMulT1(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Cols; k++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for i := 0; i < a.Rows; i++ {
				s += a.Data[i*a.Cols+k] * b.Data[i*b.Cols+j]
			}
			out.Data[k*b.Cols+j] = s
		}
	}
	return out
}

func refMatMulT2(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
			out.Data[i*b.Rows+j] = s
		}
	}
	return out
}

func mustEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d = %g, want %g", name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestIntoKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Small shapes take the serial path; the large ones cross
	// parallelThreshold (2^16 flops) and exercise the row-blocked fan-out.
	for _, sz := range []struct{ m, k, n int }{{5, 7, 3}, {64, 80, 96}} {
		a := New(sz.m, sz.k)
		b := New(sz.k, sz.n)
		a.RandUniform(rng, 1)
		b.RandUniform(rng, 1)
		mustEqual(t, "MatMulInto", MatMulInto(a, b, Get(sz.m, sz.n)), refMatMul(a, b))

		at := New(sz.k, sz.m) // for T1: (k×m)ᵀ·(k×n)
		bt := New(sz.k, sz.n)
		at.RandUniform(rng, 1)
		bt.RandUniform(rng, 1)
		mustEqual(t, "MatMulT1Into", MatMulT1Into(at, bt, Get(sz.m, sz.n)), refMatMulT1(at, bt))

		a2 := New(sz.m, sz.k) // for T2: (m×k)·(n×k)ᵀ
		b2 := New(sz.n, sz.k)
		a2.RandUniform(rng, 1)
		b2.RandUniform(rng, 1)
		mustEqual(t, "MatMulT2Into", MatMulT2Into(a2, b2, Get(sz.m, sz.n)), refMatMulT2(a2, b2))
	}
}

func TestIntoKernelsSafeOnDirtyArenaMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(6, 6)
	b := New(6, 6)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	// Poison a pooled buffer, return it, and reuse it as a destination:
	// every Into kernel must fully define dst.
	dirty := Get(6, 6)
	for i := range dirty.Data {
		dirty.Data[i] = 1e300
	}
	Put(dirty)
	dst := Get(6, 6)
	mustEqual(t, "MatMulInto on dirty dst", MatMulInto(a, b, dst), refMatMul(a, b))
	Put(dst)
}

func TestElementwiseIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 5)
	b := New(4, 5)
	a.RandUniform(rng, 1)
	b.RandUniform(rng, 1)
	want := Add(a, b)
	got := a.Clone()
	AddInto(got, b, got) // dst aliases a
	mustEqual(t, "AddInto aliased", got, want)

	wantS := Scale(a, 2.5)
	gotS := a.Clone()
	ScaleInto(gotS, 2.5, gotS)
	mustEqual(t, "ScaleInto aliased", gotS, wantS)
}

func TestSegmentMeanParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, cols, segments = 1100, 64, 17 // rows*cols ≥ 2^16 → parallel path
	a := New(rows, cols)
	a.RandUniform(rng, 1)
	seg := make([]int, rows)
	for i := range seg {
		seg[i] = rng.Intn(segments - 1) // segment 16 stays empty
	}
	offs, members := segBuckets(seg, segments)
	got := SegmentMeanCSRInto(a, offs, members, Get(segments, cols))
	// Reference: ascending-row accumulation then one multiply by 1/count —
	// the exact order both the serial and parallel kernels use.
	want := New(segments, cols)
	counts := make([]float64, segments)
	for i, s := range seg {
		counts[s]++
		for j := 0; j < cols; j++ {
			want.Data[s*cols+j] += a.Data[i*cols+j]
		}
	}
	for s := range counts {
		if counts[s] == 0 {
			continue
		}
		inv := 1 / counts[s]
		for j := 0; j < cols; j++ {
			want.Data[s*cols+j] *= inv
		}
	}
	mustEqual(t, "SegmentMeanCSRInto parallel", got, want)
	for j := 0; j < cols; j++ {
		if got.Data[16*cols+j] != 0 {
			t.Fatal("empty segment not zeroed")
		}
	}
	Put(got)
}

func TestScatterAddRowsParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows, cols, dstRows = 1100, 64, 50 // rows*cols ≥ 2^16 → parallel path
	src := New(rows, cols)
	src.RandUniform(rng, 1)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = rng.Intn(dstRows)
	}
	base := New(dstRows, cols)
	base.RandUniform(rng, 1)

	want := base.Clone()
	ScatterAddRows(want, src, idx)
	got := base.Clone()
	ScatterAddRowsPar(got, src, idx)
	mustEqual(t, "ScatterAddRowsPar", got, want)
}

func TestIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dst shape")
		}
	}()
	MatMulInto(New(2, 3), New(3, 4), New(2, 5))
}
