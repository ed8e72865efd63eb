package tensor

import "testing"

func TestScopeReusesItsSlab(t *testing.T) {
	sc := NewScope()
	pass := func() (*Matrix, *Matrix) {
		a := sc.Get(30, 7)
		b := sc.GetZeroed(11, 5)
		for i := range a.Data {
			a.Data[i] = 1
		}
		return a, b
	}
	pass()
	sc.Release()
	// Once grown to a pass's demand, the same pass allocates nothing, and
	// live matrices never overlap: filling a leaves b zeroed.
	if allocs := testing.AllocsPerRun(20, func() {
		a, b := pass()
		if cap(a.Data) != len(a.Data) {
			t.Fatal("a matrix's capacity reaches into its neighbour")
		}
		for _, v := range b.Data {
			if v != 0 {
				t.Fatal("scope matrices overlap or GetZeroed returned stale data")
			}
		}
		sc.Release()
	}); allocs != 0 {
		t.Fatalf("steady-state pass allocated %v times", allocs)
	}
	if a := sc.Get(2, 3); a.Rows != 2 || a.Cols != 3 || len(a.Data) != 6 {
		t.Fatalf("shape %dx%d with %d elements", a.Rows, a.Cols, len(a.Data))
	}
	sc.Release()
}

func TestScopeKeepsNoOversizedSlab(t *testing.T) {
	sc := NewScope()
	big := sc.Get(maxScopeSlab+1, 1)
	big.Data[maxScopeSlab] = 1
	sc.Release()
	if len(sc.slab) != 0 {
		t.Fatalf("scope kept a %d-element slab past the %d cap", len(sc.slab), maxScopeSlab)
	}
}
