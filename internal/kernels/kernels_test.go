package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(math.Abs(a)+math.Abs(b))+1e-12
}

func TestWaxpby(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	w := make([]float64, 3)
	work := Waxpby(2, x, 3, y, w)
	for i := range w {
		if w[i] != 2*x[i]+3*y[i] {
			t.Fatalf("w = %v", w)
		}
	}
	if work.Bytes != 72 || work.Flops != 9 {
		t.Fatalf("work = %v", work)
	}
	// Specialized paths.
	Waxpby(1, x, 3, y, w)
	if w[0] != 1+3*4 {
		t.Fatal("alpha=1 path")
	}
	Waxpby(2, x, 1, y, w)
	if w[0] != 2+4 {
		t.Fatal("beta=1 path")
	}
}

func TestDdotAndSum(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	d, work := Ddot(x, y)
	if d != 32 {
		t.Fatalf("ddot = %v", d)
	}
	if work != DdotWork(3) {
		t.Fatalf("work = %v", work)
	}
	s, _ := Sum(x)
	if s != 6 {
		t.Fatalf("sum = %v", s)
	}
}

func TestAxpyScaleFill(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Fatalf("scale: %v", y)
	}
	Fill(y, 9)
	if y[0] != 9 || y[1] != 9 {
		t.Fatalf("fill: %v", y)
	}
}

func TestGen27PointShape(t *testing.T) {
	m := Gen27Point(4, 4, 4, false, false)
	if m.Rows != 64 {
		t.Fatalf("rows = %d", m.Rows)
	}
	// Interior row (1,1,1)...(2,2,2) region: center rows have 27 entries.
	r := 1*16 + 1*4 + 1
	if got := int(m.RowPtr[r+1] - m.RowPtr[r]); got != 27 {
		t.Fatalf("interior row has %d entries, want 27", got)
	}
	// Corner row 0: 8 entries (2x2x2 neighborhood).
	if got := int(m.RowPtr[1] - m.RowPtr[0]); got != 8 {
		t.Fatalf("corner row has %d entries, want 8", got)
	}
	// Diagonal dominance: row sums are 26 - (k-1) >= 0.
	for r := 0; r < m.Rows; r++ {
		var sum float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			sum += m.Vals[k]
		}
		if sum < 0 {
			t.Fatalf("row %d sum %v < 0", r, sum)
		}
	}
}

func TestGen27PointHaloColumns(t *testing.T) {
	nx, ny, nz := 3, 3, 2
	m := Gen27Point(nx, ny, nz, true, true)
	rows := nx * ny * nz
	plane := nx * ny
	maxCol := int32(0)
	seenBelow, seenAbove := false, false
	for _, c := range m.Cols {
		if c > maxCol {
			maxCol = c
		}
		if c >= int32(rows) && c < int32(rows+plane) {
			seenBelow = true
		}
		if c >= int32(rows+plane) {
			seenAbove = true
		}
	}
	if !seenBelow || !seenAbove {
		t.Fatal("halo columns missing")
	}
	if maxCol >= int32(rows+2*plane) {
		t.Fatalf("column %d out of range", maxCol)
	}
}

func TestMulVecRangeMatchesFull(t *testing.T) {
	m := Gen27Point(3, 3, 3, false, false)
	x := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := m.MulVecDense(x)
	y := make([]float64, m.Rows)
	m.MulVecRange(x, y, 0, m.Rows/2)
	m.MulVecRange(x, y, m.Rows/2, m.Rows)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// Property: CSR matvec matches the dense reference for random sparse
// matrices.
func TestSpmvProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(20) + 1
		m := &CSR{Rows: rows, RowPtr: make([]int32, rows+1)}
		for r := 0; r < rows; r++ {
			nnz := rng.Intn(5)
			for k := 0; k < nnz; k++ {
				m.Cols = append(m.Cols, int32(rng.Intn(rows)))
				m.Vals = append(m.Vals, rng.NormFloat64())
			}
			m.RowPtr[r+1] = int32(len(m.Vals))
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := m.MulVecDense(x)
		y := make([]float64, rows)
		mid := rows / 2
		m.MulVecRange(x, y, 0, mid)
		m.MulVecRange(x, y, mid, rows)
		for i := range y {
			if !almostEq(y[i], want[i]) {
				return false
			}
		}
		return m.Nnz() == len(m.Vals)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// naiveStencil is the reference formula of Stencil27Range (pts == 27)
// or Stencil7Range (pts == 7) over the whole slab, read through Slab.at.
// Its sums run in the order the kernels document, so they must match it
// bit for bit.
func naiveStencil(in *Slab, center, off float64, pts int) *Slab {
	out := NewSlab(in.Nx, in.Ny, in.Nz)
	for iz := 0; iz < in.Nz; iz++ {
		for iy := 0; iy < in.Ny; iy++ {
			for ix := 0; ix < in.Nx; ix++ {
				var nb float64
				if pts == 7 {
					nb = in.at(ix-1, iy, iz) + in.at(ix+1, iy, iz) +
						in.at(ix, iy-1, iz) + in.at(ix, iy+1, iz) +
						in.at(ix, iy, iz-1) + in.at(ix, iy, iz+1)
				} else {
					for dz := -1; dz <= 1; dz++ {
						for dy := -1; dy <= 1; dy++ {
							for dx := -1; dx <= 1; dx++ {
								if dx != 0 || dy != 0 || dz != 0 {
									nb += in.at(ix+dx, iy+dy, iz+dz)
								}
							}
						}
					}
				}
				out.V[(iz+1)*in.Nx*in.Ny+iy*in.Nx+ix] = center*in.at(ix, iy, iz) + off*nb
			}
		}
	}
	return out
}

func randomSlab(rng *rand.Rand, nx, ny, nz int, halos bool) *Slab {
	s := NewSlab(nx, ny, nz)
	lo := 0
	hi := len(s.V)
	if !halos {
		lo = nx * ny
		hi -= nx * ny
	}
	for i := lo; i < hi; i++ {
		s.V[i] = rng.NormFloat64()
	}
	return s
}

func TestStencilsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := randomSlab(rng, 4, 3, 5, true)
	for _, pts := range []int{7, 27} {
		out := NewSlab(4, 3, 5)
		if pts == 27 {
			Stencil27Range(in, out, 2.0, -0.1, 0, 5)
		} else {
			Stencil7Range(in, out, 2.0, -0.1, 0, 5)
		}
		want := naiveStencil(in, 2.0, -0.1, pts)
		for i, v := range out.Interior() {
			if math.Float64bits(v) != math.Float64bits(want.Interior()[i]) {
				t.Fatalf("%d-pt stencil mismatch at %d: %v vs %v", pts, i, v, want.Interior()[i])
			}
		}
	}
}

func TestStencilRangeSplitsMatchWhole(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := rng.Intn(4)+2, rng.Intn(4)+2, rng.Intn(6)+2
		in := randomSlab(rng, nx, ny, nz, true)
		whole := NewSlab(nx, ny, nz)
		split := NewSlab(nx, ny, nz)
		Stencil27Range(in, whole, 1.5, -0.2, 0, nz)
		cut := rng.Intn(nz)
		Stencil27Range(in, split, 1.5, -0.2, 0, cut)
		Stencil27Range(in, split, 1.5, -0.2, cut, nz)
		for i := range whole.V {
			if math.Float64bits(whole.V[i]) != math.Float64bits(split.V[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlabPlaneAccess(t *testing.T) {
	s := NewSlab(2, 2, 3)
	Fill(s.Plane(-1), 1) // bottom halo
	Fill(s.Plane(3), 2)  // top halo
	Fill(s.Plane(0), 5)
	if s.at(0, 0, -1) != 1 || s.at(1, 1, 3) != 2 || s.at(0, 1, 0) != 5 {
		t.Fatal("plane addressing wrong")
	}
	if s.at(-1, 0, 0) != 0 || s.at(2, 0, 0) != 0 {
		t.Fatal("x/y boundary should be zero")
	}
	if len(s.Interior()) != 12 {
		t.Fatal("interior size")
	}
}

func TestRestrictProlongRoundtrip(t *testing.T) {
	fine := NewSlab(4, 4, 4)
	Fill(fine.Interior(), 0)
	for i := range fine.V {
		fine.V[i] = 3
	}
	coarse := NewSlab(2, 2, 2)
	Restrict(fine, coarse)
	for _, v := range coarse.Interior() {
		if v != 3 {
			t.Fatalf("restrict of constant = %v, want 3", v)
		}
	}
	target := NewSlab(4, 4, 4)
	ProlongAdd(coarse, target)
	for _, v := range target.Interior() {
		if v != 3 {
			t.Fatalf("prolong of constant = %v, want 3", v)
		}
	}
}

func TestChargeDepositConservesWeight(t *testing.T) {
	p := NewParticles(1000, 0, 16)
	rho := make([]float64, 16)
	ChargeDeposit(p.Psi, p.W, rho, 0)
	total, _ := Sum(rho)
	if !almostEq(total, 1.0) {
		t.Fatalf("deposited weight = %v, want 1", total)
	}
}

func TestChargeDepositClampsOutOfRange(t *testing.T) {
	rho := make([]float64, 4)
	ChargeDeposit([]float64{-5, 100}, []float64{1, 1}, rho, 0)
	total, _ := Sum(rho)
	if !almostEq(total, 2) {
		t.Fatalf("clamped deposit lost weight: %v", rho)
	}
}

func TestPushReflectsAtBoundaries(t *testing.T) {
	p := NewParticles(64, 0, 8)
	phi := make([]float64, 8)
	for i := range phi {
		phi[i] = math.Sin(float64(i))
	}
	for step := 0; step < 50; step++ {
		Push(p.Psi, p.Vpar, phi, 0, 8, 0.5)
	}
	for i, x := range p.Psi {
		if x < 0 || x > 8 {
			t.Fatalf("particle %d escaped: psi=%v", i, x)
		}
	}
}

func TestPushDeterminism(t *testing.T) {
	run := func() float64 {
		p := NewParticles(128, 0, 8)
		phi := make([]float64, 8)
		for i := range phi {
			phi[i] = float64(i % 3)
		}
		for step := 0; step < 10; step++ {
			Push(p.Psi, p.Vpar, phi, 0, 8, 0.1)
		}
		s, _ := Sum(p.Psi)
		return s
	}
	if run() != run() {
		t.Fatal("push is not deterministic")
	}
}

func TestWorkFunctions(t *testing.T) {
	cases := []struct {
		name string
		work func(int) float64
	}{
		{"waxpby", func(n int) float64 { return WaxpbyWork(n).Bytes }},
		{"ddot", func(n int) float64 { return DdotWork(n).Bytes }},
		{"sum", func(n int) float64 { return SumWork(n).Bytes }},
		{"st27", func(n int) float64 { return Stencil27Work(n).Flops }},
		{"st7", func(n int) float64 { return Stencil7Work(n).Flops }},
		{"charge", func(n int) float64 { return ChargeWork(n).Flops }},
		{"push", func(n int) float64 { return PushWork(n).Flops }},
		{"spmv", func(n int) float64 { return SpmvWork(n, 27*n).Bytes }},
	}
	for _, c := range cases {
		if c.work(10) <= 0 || c.work(20) != 2*c.work(10) {
			t.Fatalf("%s work not linear", c.name)
		}
	}
}

func TestTotalWeight(t *testing.T) {
	w, _ := TotalWeight([]float64{0.25, 0.25, 0.5})
	if w != 1 {
		t.Fatalf("total weight %v", w)
	}
	p := NewParticles(10, 0, 4)
	if p.Len() != 10 {
		t.Fatal("len")
	}
}
