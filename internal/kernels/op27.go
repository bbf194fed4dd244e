package kernels

import "repro/internal/perf"

// Op27 is the operator Gen27Point generates, applied matrix-free: the
// (Nx*Ny*Nz)-row local block of HPCCG's 27-point problem, with the z-plane
// below the slab at x[rows:rows+Nx*Ny] when HasBelow and the plane above
// at x[rows+Nx*Ny:rows+2*Nx*Ny] when HasAbove.
//
// It computes every y bit for bit as Gen27Point(Nx, Ny, Nz, HasBelow,
// HasAbove).MulVecRange does for finite inputs: each row sums the same
// v*x[j] terms (v = -1, or 26 on the diagonal) in the same order, from +0,
// skipping the neighbours the matrix leaves out. It also charges the same
// perf.Work, so HPCCG keeps paying for a CSR sweep without building one.
type Op27 struct {
	Nx, Ny, Nz         int
	HasBelow, HasAbove bool
}

// Rows returns the number of rows of the local block.
func (o Op27) Rows() int { return o.Nx * o.Ny * o.Nz }

// MulVec computes y = A x over all rows.
func (o Op27) MulVec(x, y []float64) perf.Work {
	return o.MulVecRange(x, y, 0, o.Rows())
}

// MulVecRange computes y[r0:r1] = (A x)[r0:r1], like CSR.MulVecRange on
// the matrix Gen27Point generates. It allocates nothing.
func (o Op27) MulVecRange(x, y []float64, r0, r1 int) perf.Work {
	nx, ny := o.Nx, o.Ny
	plane := nx * ny
	rows := plane * o.Nz
	nnz := 0
	var buf [9][]float64
	// Row r0's coordinates; each later x line starts at ix 0.
	var iz, iy, ix0 int
	if r0 < r1 {
		iz, iy, ix0 = r0/plane, r0%plane/nx, r0%nx
	}
	for r := r0; r < r1; {
		ix1 := min(nx, ix0+r1-r)
		// The input lines of rows (*, iy, iz) in the matrix's (dz, dy)
		// order; centre is the line holding the diagonal.
		lines, centre := buf[:0], 0
		for dz := -1; dz <= 1; dz++ {
			base, ok := o.planeBase(iz+dz, rows)
			if !ok {
				continue
			}
			for jy := max(iy-1, 0); jy <= min(iy+1, ny-1); jy++ {
				if dz == 0 && jy == iy {
					centre = len(lines)
				}
				b := base + jy*nx
				lines = append(lines, x[b:b+nx])
			}
		}
		op27Line(y[r-ix0:r-ix0+nx], lines, centre, ix0, ix1)
		// Each point has three x columns per line, less those past an
		// x boundary.
		cols := 3 * (ix1 - ix0)
		if ix0 == 0 {
			cols--
		}
		if ix1 == nx {
			cols--
		}
		nnz += len(lines) * cols
		r += ix1 - ix0
		ix0 = 0
		if iy++; iy == ny {
			iz, iy = iz+1, 0
		}
	}
	return SpmvWork(r1-r0, nnz)
}

// planeBase returns the offset in x of local z-plane iz, which may be a
// halo plane, and whether the matrix has columns there.
func (o Op27) planeBase(iz, rows int) (int, bool) {
	plane := o.Nx * o.Ny
	switch {
	case iz >= 0 && iz < o.Nz:
		return iz * plane, true
	case iz < 0:
		return rows, o.HasBelow
	default:
		return rows + plane, o.HasAbove
	}
}

// op27Line computes out[ix0:ix1] from the input lines around that row.
// Points go several at a time: their sums are independent, so one's chain
// of dependent additions overlaps the next one's, while each keeps the
// reference order. Points off the x boundaries go four at a time; the
// last group is moved back to end at the last such point, so it may
// recompute, to the same bits, a few outputs of the group before it.
func op27Line(out []float64, lines [][]float64, centre, ix0, ix1 int) {
	nx := len(out)
	if ix0 == 0 && ix1 == nx && nx > 1 {
		// A whole row: its two x-boundary points together.
		var a, d float64
		for k, l := range lines {
			if k == centre {
				a += 26 * l[0]
				a += -1 * l[1]
				d += -1 * l[nx-2]
				d += 26 * l[nx-1]
				continue
			}
			a += -1 * l[0]
			a += -1 * l[1]
			d += -1 * l[nx-2]
			d += -1 * l[nx-1]
		}
		out[0], out[nx-1] = a, d
	} else {
		if ix0 == 0 {
			out[0] = op27Point(lines, centre, 0)
		}
		if ix1 == nx && nx > 1 {
			out[nx-1] = op27Point(lines, centre, nx-1)
		}
	}
	lo, hi := max(ix0, 1), min(ix1, nx-1)
	if hi-lo < 4 {
		for ix := lo; ix < hi; ix++ {
			out[ix] = op27Point(lines, centre, ix)
		}
		return
	}
	for ix := lo; ix < hi; ix += 4 {
		ix = min(ix, hi-4)
		var a, b, c, d float64
		for k, l := range lines {
			w := l[ix-1 : ix+5]
			if k == centre {
				a += -1 * w[0]
				a += 26 * w[1]
				a += -1 * w[2]
				b += -1 * w[1]
				b += 26 * w[2]
				b += -1 * w[3]
				c += -1 * w[2]
				c += 26 * w[3]
				c += -1 * w[4]
				d += -1 * w[3]
				d += 26 * w[4]
				d += -1 * w[5]
				continue
			}
			a += -1 * w[0]
			a += -1 * w[1]
			a += -1 * w[2]
			b += -1 * w[1]
			b += -1 * w[2]
			b += -1 * w[3]
			c += -1 * w[2]
			c += -1 * w[3]
			c += -1 * w[4]
			d += -1 * w[3]
			d += -1 * w[4]
			d += -1 * w[5]
		}
		dst := out[ix : ix+4]
		dst[0], dst[1], dst[2], dst[3] = a, b, c, d
	}
}

// op27Point computes one row the way CSR.MulVecRange does: its terms in
// column order, out-of-domain columns absent.
func op27Point(lines [][]float64, centre, ix int) float64 {
	lo, hi := max(ix-1, 0), min(ix+1, len(lines[0])-1)
	var s float64
	for k, l := range lines {
		for j := lo; j <= hi; j++ {
			v := -1.0
			if k == centre && j == ix {
				v = 26
			}
			s += v * l[j]
		}
	}
	return s
}
