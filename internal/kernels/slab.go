package kernels

import "repro/internal/perf"

// Stencil cost constants. Neighbor loads hit cache (three resident
// planes), so effective traffic is the input read, the output write, and a
// third-of-a-plane miss stream.
const (
	Stencil27Bytes = 24
	Stencil27Flops = 54 // 27 multiply-adds
	Stencil7Bytes  = 24
	Stencil7Flops  = 14 // 7 multiply-adds
)

// Slab is a 3D block of a z-decomposed structured grid with one halo plane
// on each z side. The layout is V[(iz+1)*Nx*Ny + iy*Nx + ix] for interior
// z index iz in [0, Nz); planes z=-1 and z=Nz live at the ends and are
// filled by halo exchange. x and y boundaries are domain boundaries
// (Dirichlet: values outside are treated as zero).
type Slab struct {
	Nx, Ny, Nz int
	V          []float64
}

// NewSlab allocates a zeroed slab.
func NewSlab(nx, ny, nz int) *Slab {
	return &Slab{Nx: nx, Ny: ny, Nz: nz, V: make([]float64, nx*ny*(nz+2))}
}

// Plane returns the storage of interior plane iz in [0, Nz); iz == -1 and
// iz == Nz address the halo planes.
func (s *Slab) Plane(iz int) []float64 {
	p := s.Nx * s.Ny
	off := (iz + 1) * p
	return s.V[off : off+p]
}

// Interior returns all interior values as one slice (without halos).
// The result aliases the slab's storage: writes through it change the
// slab.
func (s *Slab) Interior() []float64 {
	p := s.Nx * s.Ny
	return s.V[p : p+s.Nx*s.Ny*s.Nz]
}

// at returns the value at (ix, iy, iz) with zero x/y boundaries; iz may
// address halo planes.
func (s *Slab) at(ix, iy, iz int) float64 {
	if ix < 0 || ix >= s.Nx || iy < 0 || iy >= s.Ny {
		return 0
	}
	return s.V[(iz+1)*s.Nx*s.Ny+iy*s.Nx+ix]
}

// Stencil27Work returns the cost of a 27-point stencil over n elements.
func Stencil27Work(n int) perf.Work {
	return perf.Work{Bytes: Stencil27Bytes * float64(n), Flops: Stencil27Flops * float64(n)}
}

// Stencil27Range applies the 27-point stencil
//
//	out = center*in + sum(neighbors)*off
//
// to interior planes [z0, z1) (MiniGhost's 27-point kernel and the AMG
// 27-point operator). Halo planes of `in` must be current, and in and out
// must be distinct slabs. It allocates nothing.
//
// Every output is bit for bit that of the reference formula over Slab.at:
// the neighbour sum starts from +0 and adds its terms in (dz, dy, dx)
// order. Neighbours outside the x/y domain, which Slab.at reads as 0, are
// skipped: a sum that starts from +0 never becomes -0 under
// round-to-nearest, so adding +0 to it changes nothing.
func Stencil27Range(in, out *Slab, center, off float64, z0, z1 int) perf.Work {
	nx, ny := in.Nx, in.Ny
	p := nx * ny
	var buf [9][]float64
	for iz := z0; iz < z1; iz++ {
		for iy := 0; iy < ny; iy++ {
			// The input lines around row (iy, iz) in (dz, dy) order;
			// centre is the row's own line.
			lines, centre := buf[:0], 0
			for dz := -1; dz <= 1; dz++ {
				for jy := max(iy-1, 0); jy <= min(iy+1, ny-1); jy++ {
					if dz == 0 && jy == iy {
						centre = len(lines)
					}
					b := (iz+1+dz)*p + jy*nx
					lines = append(lines, in.V[b:b+nx])
				}
			}
			b := (iz+1)*p + iy*nx
			stencil27Line(out.V[b:b+nx], lines, centre, center, off)
		}
	}
	return Stencil27Work((z1 - z0) * nx * ny)
}

// stencil27Line computes one output row from the input lines around it.
// Points go several at a time: their sums are independent, so one's chain
// of 26 dependent additions overlaps the next one's, while each keeps the
// reference order. The two x-boundary points go together, the others four
// at a time; the last group of four is moved back to end at the last
// such point, so it may recompute, to the same bits, a few outputs of the
// group before it.
func stencil27Line(out []float64, lines [][]float64, centre int, center, off float64) {
	nx := len(out)
	mid := lines[centre]
	if nx < 2 {
		for ix := range out {
			out[ix] = center*mid[ix] + off*stencil27Sum(lines, centre, ix)
		}
		return
	}
	// The two x-boundary points together.
	var a, d float64
	for k, l := range lines {
		if k != centre {
			a += l[0]
		}
		a += l[1]
		d += l[nx-2]
		if k != centre {
			d += l[nx-1]
		}
	}
	out[0] = center*mid[0] + off*a
	out[nx-1] = center*mid[nx-1] + off*d
	if nx < 6 {
		for ix := 1; ix < nx-1; ix++ {
			out[ix] = center*mid[ix] + off*stencil27Sum(lines, centre, ix)
		}
		return
	}
	for ix := 1; ix < nx-1; ix += 4 {
		ix = min(ix, nx-5)
		var a, b, c, d float64
		for k, l := range lines {
			w := l[ix-1 : ix+5]
			if k == centre {
				a += w[0]
				a += w[2]
				b += w[1]
				b += w[3]
				c += w[2]
				c += w[4]
				d += w[3]
				d += w[5]
				continue
			}
			a += w[0]
			a += w[1]
			a += w[2]
			b += w[1]
			b += w[2]
			b += w[3]
			c += w[2]
			c += w[3]
			c += w[4]
			d += w[3]
			d += w[4]
			d += w[5]
		}
		m, o := mid[ix:ix+4], out[ix:ix+4]
		o[0] = center*m[0] + off*a
		o[1] = center*m[1] + off*b
		o[2] = center*m[2] + off*c
		o[3] = center*m[3] + off*d
	}
}

// stencil27Sum is the neighbour sum of point ix, any point of the row.
func stencil27Sum(lines [][]float64, centre, ix int) float64 {
	lo, hi := max(ix-1, 0), min(ix+1, len(lines[0])-1)
	var nb float64
	for k, l := range lines {
		for j := lo; j <= hi; j++ {
			if k != centre || j != ix {
				nb += l[j]
			}
		}
	}
	return nb
}

// Stencil7Work returns the cost of a 7-point stencil over n elements.
func Stencil7Work(n int) perf.Work {
	return perf.Work{Bytes: Stencil7Bytes * float64(n), Flops: Stencil7Flops * float64(n)}
}

// Stencil7Range applies the 7-point stencil out = center*in + off*(6
// face neighbors) to interior planes [z0, z1) (AMG's 7-point operator).
// in and out must be distinct slabs. It allocates nothing.
//
// Every output is bit for bit that of the reference formula over Slab.at,
// whose neighbour sum starts from its first term rather than from +0: a
// neighbour outside the x/y domain is added as a literal +0 in its place.
func Stencil7Range(in, out *Slab, center, off float64, z0, z1 int) perf.Work {
	nx, ny := in.Nx, in.Ny
	p := nx * ny
	v := in.V
	for iz := z0; iz < z1; iz++ {
		for iy := 0; iy < ny; iy++ {
			r := (iz+1)*p + iy*nx
			var dn, up []float64 // nil outside the y domain
			if iy > 0 {
				dn = v[r-nx : r]
			}
			if iy < ny-1 {
				up = v[r+nx : r+2*nx]
			}
			stencil7Line(out.V[r:r+nx], v[r:r+nx], dn, up, v[r-p:r-p+nx], v[r+p:r+p+nx], center, off)
		}
	}
	return Stencil7Work((z1 - z0) * nx * ny)
}

// stencil7Line computes one output row from its own input line and the
// lines on its four faces. Away from the x/y boundaries, points go two at
// a time, their sums independent; the last pair is moved back to end at
// the last such point, so it may recompute one output to the same bits.
func stencil7Line(out, mid, dn, up, below, above []float64, center, off float64) {
	nx := len(out)
	point := func(ix int) {
		var left, right, d, u float64
		if ix > 0 {
			left = mid[ix-1]
		}
		if ix < nx-1 {
			right = mid[ix+1]
		}
		if dn != nil {
			d = dn[ix]
		}
		if up != nil {
			u = up[ix]
		}
		nb := left + right + d + u + below[ix] + above[ix]
		out[ix] = center*mid[ix] + off*nb
	}
	if dn == nil || up == nil || nx < 4 {
		for ix := range out {
			point(ix)
		}
		return
	}
	point(0)
	point(nx - 1)
	for ix := 1; ix < nx-1; ix += 2 {
		ix = min(ix, nx-3)
		m := mid[ix-1 : ix+3]
		a := m[0] + m[2] + dn[ix] + up[ix] + below[ix] + above[ix]
		b := m[1] + m[3] + dn[ix+1] + up[ix+1] + below[ix+1] + above[ix+1]
		out[ix] = center*m[1] + off*a
		out[ix+1] = center*m[2] + off*b
	}
}

// RestrictWork returns the cost of restricting n fine elements.
const (
	restrictBytesPerCoarse = 80 // read 8 fine cells, write 1 coarse
	restrictFlopsPerCoarse = 8
	prolongBytesPerFine    = 24 // read coarse (cached), read+write fine
	prolongFlopsPerFine    = 2
)

// Restrict coarsens fine into coarse by averaging 2x2x2 cells (the
// full-weighting restriction of the multigrid hierarchy). Fine dimensions
// must be exactly double the coarse ones.
func Restrict(fine, coarse *Slab) perf.Work {
	for iz := 0; iz < coarse.Nz; iz++ {
		for iy := 0; iy < coarse.Ny; iy++ {
			for ix := 0; ix < coarse.Nx; ix++ {
				var s float64
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							s += fine.at(2*ix+dx, 2*iy+dy, 2*iz+dz)
						}
					}
				}
				coarse.V[(iz+1)*coarse.Nx*coarse.Ny+iy*coarse.Nx+ix] = s / 8
			}
		}
	}
	n := coarse.Nx * coarse.Ny * coarse.Nz
	return perf.Work{Bytes: restrictBytesPerCoarse * float64(n), Flops: restrictFlopsPerCoarse * float64(n)}
}

// ProlongAdd interpolates coarse into fine by piecewise-constant
// injection and adds it to fine (the correction step of the V-cycle).
func ProlongAdd(coarse, fine *Slab) perf.Work {
	for iz := 0; iz < fine.Nz; iz++ {
		for iy := 0; iy < fine.Ny; iy++ {
			for ix := 0; ix < fine.Nx; ix++ {
				fine.V[(iz+1)*fine.Nx*fine.Ny+iy*fine.Nx+ix] += coarse.at(ix/2, iy/2, iz/2)
			}
		}
	}
	n := fine.Nx * fine.Ny * fine.Nz
	return perf.Work{Bytes: prolongBytesPerFine * float64(n), Flops: prolongFlopsPerFine * float64(n)}
}
