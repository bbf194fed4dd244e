package amg

import (
	"fmt"
	"math"

	"repro/internal/kernels"
)

const omega = 0.7 // damped-Jacobi relaxation weight

// dot computes the global dot product of two slabs' interiors (replicated
// vector work: AMG2013's Krylov scalar products are not sectioned here).
func (a *app) dot(u, v *kernels.Slab) (float64, error) {
	var local float64
	a.clock.Track("vector", func() {
		var w = kernels.DdotWork(len(u.Interior()))
		s, _ := kernels.Ddot(u.Interior(), v.Interior())
		local = s
		a.rt.Compute(w.Scale(a.cfg.Scale))
	})
	return a.rt.AllreduceScalar(local)
}

// axpy computes y += alpha*x over slab interiors.
func (a *app) axpy(alpha float64, x, y *kernels.Slab) {
	a.clock.Track("vector", func() {
		a.rt.Compute(kernels.Axpy(alpha, x.Interior(), y.Interior()).Scale(a.cfg.Scale))
	})
}

// waxpbySlab computes w = alpha*x + beta*y over slab interiors.
func (a *app) waxpbySlab(alpha float64, x *kernels.Slab, beta float64, y, w *kernels.Slab) {
	a.clock.Track("vector", func() {
		a.rt.Compute(kernels.Waxpby(alpha, x.Interior(), beta, y.Interior(), w.Interior()).Scale(a.cfg.Scale))
	})
}

// zero clears a slab (interior and halos).
func zero(s *kernels.Slab) { kernels.Fill(s.V, 0) }

// smooth performs one damped-Jacobi sweep on level l: x += w/diag*(b - Ax).
func (a *app) smooth(l int) error {
	lvl := a.levels[l]
	if err := a.exchangeHalo(l, lvl.x); err != nil {
		return err
	}
	if err := a.applyStencil(lvl, lvl.x, lvl.tmp, "smooth"); err != nil {
		return err
	}
	a.clock.Track("vector", func() {
		x, b, t := lvl.x.Interior(), lvl.b.Interior(), lvl.tmp.Interior()
		c := omega / a.diag
		for i := range x {
			x[i] += c * (b[i] - t[i])
		}
		n := float64(len(x))
		a.rt.Compute(kernels.WaxpbyWork(int(n)).Scale(a.cfg.Scale))
	})
	return nil
}

// residual computes r = b - A x on level l.
func (a *app) residual(l int) error {
	lvl := a.levels[l]
	if err := a.exchangeHalo(l, lvl.x); err != nil {
		return err
	}
	if err := a.applyStencil(lvl, lvl.x, lvl.tmp, "residual"); err != nil {
		return err
	}
	a.waxpbySlab(1, lvl.b, -1, lvl.tmp, lvl.r)
	return nil
}

// vcycle runs one multigrid V-cycle starting at level l, improving
// levels[l].x for the right-hand side levels[l].b.
func (a *app) vcycle(l int) error {
	if l == len(a.levels)-1 {
		for i := 0; i < a.cfg.CoarseIters; i++ {
			if err := a.smooth(l); err != nil {
				return err
			}
		}
		return nil
	}
	if err := a.smooth(l); err != nil {
		return err
	}
	if err := a.residual(l); err != nil {
		return err
	}
	next := a.levels[l+1]
	a.clock.Track("transfer", func() {
		a.rt.Compute(kernels.Restrict(a.levels[l].r, next.b).Scale(a.cfg.Scale))
	})
	zero(next.x)
	if err := a.vcycle(l + 1); err != nil {
		return err
	}
	a.clock.Track("transfer", func() {
		a.rt.Compute(kernels.ProlongAdd(next.x, a.levels[l].x).Scale(a.cfg.Scale))
	})
	return a.smooth(l)
}

// precondition applies the V-cycle preconditioner: z = M^{-1} r.
func (a *app) precondition(r, z *kernels.Slab) error {
	fine := a.levels[0]
	copy(fine.b.V, r.V)
	zero(fine.x)
	if err := a.vcycle(0); err != nil {
		return err
	}
	copy(z.V, fine.x.V)
	return nil
}

// matvec computes out = A(in) on the fine level (halo exchange included).
func (a *app) matvec(in, out *kernels.Slab) error {
	if err := a.exchangeHalo(0, in); err != nil {
		return err
	}
	return a.applyStencil(a.levels[0], in, out, "matvec")
}

// rhs builds b = A*ones so the exact solution is all ones.
func (a *app) rhs(b *kernels.Slab) error {
	ones := kernels.NewSlab(a.cfg.Nx, a.cfg.Ny, a.cfg.Nz)
	kernels.Fill(ones.Interior(), 1)
	if err := a.exchangeHalo(0, ones); err != nil {
		return err
	}
	// Direct (unsectioned) application: setup is not measured.
	a.rawStencil(ones, b, 0, a.cfg.Nz)
	return nil
}

// pcg runs multigrid-preconditioned conjugate gradients (Figure 6a's
// configuration).
func (a *app) pcg() (*Result, error) {
	nx, ny, nz := a.cfg.Nx, a.cfg.Ny, a.cfg.Nz
	x := kernels.NewSlab(nx, ny, nz)
	b := kernels.NewSlab(nx, ny, nz)
	r := kernels.NewSlab(nx, ny, nz)
	z := kernels.NewSlab(nx, ny, nz)
	p := kernels.NewSlab(nx, ny, nz)
	Ap := kernels.NewSlab(nx, ny, nz)
	if err := a.rhs(b); err != nil {
		return nil, err
	}
	copy(r.V, b.V) // x0 = 0
	if err := a.precondition(r, z); err != nil {
		return nil, err
	}
	copy(p.V, z.V)
	rz, err := a.dot(r, z)
	if err != nil {
		return nil, err
	}
	var it int
	for it = 0; it < a.cfg.Iters; it++ {
		if err := a.matvec(p, Ap); err != nil {
			return nil, err
		}
		pAp, err := a.dot(p, Ap)
		if err != nil {
			return nil, err
		}
		if pAp == 0 {
			return nil, fmt.Errorf("amg: PCG breakdown at iteration %d", it)
		}
		alpha := rz / pAp
		a.axpy(alpha, p, x)
		a.axpy(-alpha, Ap, r)
		if err := a.precondition(r, z); err != nil {
			return nil, err
		}
		rzNew, err := a.dot(r, z)
		if err != nil {
			return nil, err
		}
		beta := rzNew / rz
		rz = rzNew
		a.waxpbySlab(1, z, beta, p, p)
	}
	rr, err := a.dot(r, r)
	if err != nil {
		return nil, err
	}
	return &Result{Residual: math.Sqrt(rr), Iters: it}, nil
}

// gmres runs multigrid-preconditioned restarted GMRES (Figure 6b's
// configuration), left-preconditioned.
func (a *app) gmres() (*Result, error) {
	nx, ny, nz := a.cfg.Nx, a.cfg.Ny, a.cfg.Nz
	m := a.cfg.Restart
	if m <= 0 {
		m = 10
	}
	x := kernels.NewSlab(nx, ny, nz)
	b := kernels.NewSlab(nx, ny, nz)
	r := kernels.NewSlab(nx, ny, nz)
	z := kernels.NewSlab(nx, ny, nz)
	w := kernels.NewSlab(nx, ny, nz)
	if err := a.rhs(b); err != nil {
		return nil, err
	}
	V := make([]*kernels.Slab, m+1)
	for i := range V {
		V[i] = kernels.NewSlab(nx, ny, nz)
	}
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)

	iters := 0
	for iters < a.cfg.Iters {
		// r = b - A x; z = M^{-1} r.
		if err := a.matvec(x, w); err != nil {
			return nil, err
		}
		a.waxpbySlab(1, b, -1, w, r)
		if err := a.precondition(r, z); err != nil {
			return nil, err
		}
		beta2, err := a.dot(z, z)
		if err != nil {
			return nil, err
		}
		beta := math.Sqrt(beta2)
		if beta == 0 {
			break
		}
		a.clock.Track("vector", func() {
			copy(V[0].V, z.V)
			a.rt.Compute(kernels.Scale(1/beta, V[0].V).Scale(a.cfg.Scale))
		})
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		j := 0
		for ; j < m && iters < a.cfg.Iters; j++ {
			iters++
			// w = M^{-1} A V[j].
			if err := a.matvec(V[j], r); err != nil {
				return nil, err
			}
			if err := a.precondition(r, w); err != nil {
				return nil, err
			}
			// Modified Gram-Schmidt (replicated vector work + reductions).
			for i := 0; i <= j; i++ {
				hij, err := a.dot(w, V[i])
				if err != nil {
					return nil, err
				}
				h[i][j] = hij
				a.axpy(-hij, V[i], w)
			}
			wnorm2, err := a.dot(w, w)
			if err != nil {
				return nil, err
			}
			h[j+1][j] = math.Sqrt(wnorm2)
			if h[j+1][j] > 1e-300 {
				a.clock.Track("vector", func() {
					copy(V[j+1].V, w.V)
					a.rt.Compute(kernels.Scale(1/h[j+1][j], V[j+1].V).Scale(a.cfg.Scale))
				})
			}
			// Givens rotations.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t
			}
			den := math.Hypot(h[j][j], h[j+1][j])
			if den == 0 {
				j++
				break
			}
			cs[j] = h[j][j] / den
			sn[j] = h[j+1][j] / den
			h[j][j] = den
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
		}
		// Solve the triangular system and update x += V y.
		y := make([]float64, j)
		for i := j - 1; i >= 0; i-- {
			y[i] = g[i]
			for k := i + 1; k < j; k++ {
				y[i] -= h[i][k] * y[k]
			}
			y[i] /= h[i][i]
		}
		for i := 0; i < j; i++ {
			a.axpy(y[i], V[i], x)
		}
	}
	// True residual.
	if err := a.matvec(x, w); err != nil {
		return nil, err
	}
	a.waxpbySlab(1, b, -1, w, r)
	rr, err := a.dot(r, r)
	if err != nil {
		return nil, err
	}
	return &Result{Residual: math.Sqrt(rr), Iters: iters}, nil
}
