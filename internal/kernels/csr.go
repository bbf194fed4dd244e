package kernels

import "repro/internal/perf"

// Sparse matrix-vector cost constants. The gather of x is partially cached;
// 16 bytes per nonzero covers the 8-byte value, 4-byte column index, and an
// effective 4 bytes of x traffic, plus 16 bytes per row for row pointers
// and the store of y.
const (
	SpmvBytesPerNnz = 16
	SpmvBytesPerRow = 16
	SpmvFlopsPerNnz = 2
)

// CSR is a sparse matrix in compressed-sparse-row format. Column indices
// may address a vector longer than the number of rows: indices >= Rows
// refer to halo (external) entries appended to the local vector, exactly
// like HPCCG's external columns after exchange_externals.
type CSR struct {
	Rows   int
	RowPtr []int32
	Cols   []int32
	Vals   []float64
}

// Nnz returns the number of stored nonzeros.
func (m *CSR) Nnz() int { return len(m.Vals) }

// SpmvWork returns the cost of a sparse matrix-vector product with the
// given shape.
func SpmvWork(rows, nnz int) perf.Work {
	return perf.Work{
		Bytes: SpmvBytesPerNnz*float64(nnz) + SpmvBytesPerRow*float64(rows),
		Flops: SpmvFlopsPerNnz * float64(nnz),
	}
}

// MulVecRange computes y[r0:r1] = (A x)[r0:r1] for the row range [r0, r1)
// (HPCCG's sparsemv kernel, restricted to a task's rows). x must include
// halo entries for any external column indices. On Gen27Point's matrix it
// is the reference Op27.MulVecRange matches bit for bit.
func (m *CSR) MulVecRange(x, y []float64, r0, r1 int) perf.Work {
	nnz := 0
	for r := r0; r < r1; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Vals[k] * x[m.Cols[k]]
		}
		y[r] = s
		nnz += int(m.RowPtr[r+1] - m.RowPtr[r])
	}
	return SpmvWork(r1-r0, nnz)
}

// MulVec computes y = A x over all rows.
func (m *CSR) MulVec(x, y []float64) perf.Work {
	return m.MulVecRange(x, y, 0, m.Rows)
}

// Gen27Point generates the local block of the 27-point problem HPCCG
// solves: a (nx*ny*nz)-row slab of the global grid decomposed in z. Row
// (ix, iy, iz) couples to its 27 neighbors with off-diagonal value -1 and
// diagonal 26 (HPCCG's default operator, which makes the global matrix
// weakly diagonally dominant). Neighbors that fall outside the global
// domain are dropped; neighbors in the z-plane below/above the slab map to
// halo indices:
//
//	below: rows..rows+nx*ny-1   (plane received from rank-1)
//	above: rows+nx*ny..rows+2*nx*ny-1 (plane received from rank+1)
//
// hasBelow/hasAbove indicate whether those neighbor slabs exist.
//
// HPCCG applies this operator matrix-free (Op27); the matrix is the
// reference Op27 is tested against.
func Gen27Point(nx, ny, nz int, hasBelow, hasAbove bool) *CSR {
	rows := nx * ny * nz
	plane := nx * ny
	m := &CSR{Rows: rows}
	m.RowPtr = make([]int32, rows+1)
	m.Cols = make([]int32, 0, rows*27)
	m.Vals = make([]float64, 0, rows*27)
	idx := func(ix, iy, iz int) int32 { return int32(iz*plane + iy*nx + ix) }
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							jx, jy, jz := ix+dx, iy+dy, iz+dz
							if jx < 0 || jx >= nx || jy < 0 || jy >= ny {
								continue
							}
							var col int32
							switch {
							case jz >= 0 && jz < nz:
								col = idx(jx, jy, jz)
							case jz < 0:
								if !hasBelow {
									continue
								}
								col = int32(rows + jy*nx + jx)
							default: // jz >= nz
								if !hasAbove {
									continue
								}
								col = int32(rows + plane + jy*nx + jx)
							}
							v := -1.0
							if dx == 0 && dy == 0 && dz == 0 {
								v = 26.0
							}
							m.Cols = append(m.Cols, col)
							m.Vals = append(m.Vals, v)
						}
					}
				}
				m.RowPtr[iz*plane+iy*nx+ix+1] = int32(len(m.Vals))
			}
		}
	}
	return m
}

// MulVecDense is a reference implementation against a dense row gather,
// used by property tests.
func (m *CSR) MulVecDense(x []float64) []float64 {
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			y[r] += m.Vals[k] * x[m.Cols[k]]
		}
	}
	return y
}
