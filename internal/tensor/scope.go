// scope.go provides a Scope: a bulk-release handle over the scratch of a
// tape-free forward pass. The autodiff tape tracks and recycles every
// matrix it creates via Reset; inference code that bypasses the tape
// needs the same discipline without the tape. A Scope carves every
// matrix from one slab it owns and reclaims them all in one Release, so
// a pooled Scope serves the next pass of the same size without
// allocating. One slab, rather than the size-classed arena, matters for
// serving: each request's graph has its own node and edge counts, so
// arena classes are rarely reused and every request's scratch would sit
// in the arena's pools until the collector cleared them.
package tensor

// maxScopeSlab caps, in elements (16 MiB), the slab a Scope keeps across
// Release: a pass that needs more is served, but its excess is left to
// the collector rather than kept for the next pass.
const maxScopeSlab = 1 << 21

// Scope hands out matrices carved from its slab and reclaims them all at
// Release. Not safe for concurrent use; drive one Scope per goroutine.
type Scope struct {
	slab  []float64
	used  int       // slab elements handed out since the last Release
	spill int       // elements handed out beyond the slab since then
	heads []*Matrix // matrix headers, reused across passes
	n     int       // headers in use
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{} }

// Get borrows a rows×cols matrix; contents are UNSPECIFIED (stale data
// from an earlier pass) and the matrix is valid until Release.
func (s *Scope) Get(rows, cols int) *Matrix {
	k := rows * cols
	var data []float64
	if s.used+k <= len(s.slab) {
		data = s.slab[s.used : s.used+k : s.used+k]
		s.used += k
	} else {
		data = make([]float64, k)
		s.spill += k
	}
	if s.n == len(s.heads) {
		s.heads = append(s.heads, new(Matrix))
	}
	m := s.heads[s.n]
	s.n++
	m.Rows, m.Cols, m.Data = rows, cols, data
	return m
}

// GetZeroed borrows a zeroed rows×cols matrix, valid until Release.
func (s *Scope) GetZeroed(rows, cols int) *Matrix {
	m := s.Get(rows, cols)
	clear(m.Data)
	return m
}

// Release reclaims every borrowed matrix; matrices obtained from the
// scope must not be used afterwards. A pass that spilled past the slab
// grows it to the pass's whole demand (up to maxScopeSlab), so the next
// pass of that size allocates nothing.
func (s *Scope) Release() {
	if total := s.used + s.spill; s.spill > 0 && total <= maxScopeSlab {
		s.slab = make([]float64, total)
	}
	s.used, s.spill = 0, 0
	for _, m := range s.heads[:s.n] {
		m.Data = nil
	}
	s.n = 0
}

// TransposeInto writes aᵀ into dst (a.Cols×a.Rows) and returns dst. The
// element order matches the tape's Transpose op exactly.
func TransposeInto(a, dst *Matrix) *Matrix {
	mustShape("transpose dst", dst, a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			dst.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return dst
}

// ConcatColsInto writes the horizontal concatenation of parts into dst
// (rows × Σcols) and returns dst, copying row-by-row in the same order as
// the tape's ConcatCols op.
func ConcatColsInto(dst *Matrix, parts ...*Matrix) *Matrix {
	rows := parts[0].Rows
	cols := 0
	for _, p := range parts {
		if p.Rows != rows {
			panic("tensor: concat-cols row mismatch")
		}
		cols += p.Cols
	}
	mustShape("concat-cols dst", dst, rows, cols)
	for i := 0; i < rows; i++ {
		orow := dst.Row(i)
		off := 0
		for _, p := range parts {
			copy(orow[off:off+p.Cols], p.Row(i))
			off += p.Cols
		}
	}
	return dst
}
