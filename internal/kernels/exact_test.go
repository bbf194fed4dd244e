package kernels

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// edgeValue draws the finite inputs on which a reordered or re-associated
// sum shows: signed zeros, subnormals, magnitudes around 1e±10 that absorb
// or vanish against each other, and small integers that cancel exactly.
func edgeValue(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(6) {
	case 0:
		v = 0
	case 1:
		v = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
	case 2:
		v = rng.NormFloat64() * 1e10
	case 3:
		v = rng.NormFloat64() * 1e-10
	case 4:
		v = float64(rng.Intn(5) - 2)
	default:
		v = rng.NormFloat64()
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// edgeVector draws n values from edgeValue. With zeros set, nine in ten
// are signed zeros instead, mostly -0: a sum of -0s is the one sum whose
// sign depends on whether it starts from +0 or from its first term.
func edgeVector(rng *rand.Rand, n int, zeros bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = edgeValue(rng)
		if zeros {
			switch rng.Intn(10) {
			case 0:
			case 1:
				v[i] = 0
			default:
				v[i] = math.Copysign(0, -1)
			}
		}
	}
	return v
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkOp27 compares the operator with the CSR matrix Gen27Point builds
// on rows [r0, r1): every y bit, including the untouched rows, and the
// charged work.
func checkOp27(t *testing.T, op Op27, m *CSR, x []float64, r0, r1 int) {
	t.Helper()
	want := make([]float64, op.Rows())
	got := make([]float64, op.Rows())
	for i := range want {
		want[i], got[i] = math.NaN(), math.NaN()
	}
	ww := m.MulVecRange(x, want, r0, r1)
	gw := op.MulVecRange(x, got, r0, r1)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%+v rows [%d,%d): y[%d] = %v (%#x), CSR gives %v (%#x)", op, r0, r1,
			i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
	if gw != ww {
		t.Fatalf("%+v rows [%d,%d): work %+v, CSR charges %+v", op, r0, r1, gw, ww)
	}
}

// TestOp27MatchesCSR pins the matrix-free operator to its CSR reference
// on every shape with each axis in 1..7, both halo flags and random row
// ranges.
func TestOp27MatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for nx := 1; nx <= 7; nx++ {
		for ny := 1; ny <= 7; ny++ {
			for nz := 1; nz <= 7; nz++ {
				for halos := 0; halos < 4; halos++ {
					op := Op27{Nx: nx, Ny: ny, Nz: nz, HasBelow: halos&1 != 0, HasAbove: halos&2 != 0}
					m := Gen27Point(nx, ny, nz, op.HasBelow, op.HasAbove)
					rows := op.Rows()
					for _, zeros := range []bool{false, true} {
						x := edgeVector(rng, rows+2*nx*ny, zeros)
						checkOp27(t, op, m, x, 0, rows)
						for i := 0; i < 3; i++ {
							r0 := rng.Intn(rows + 1)
							checkOp27(t, op, m, x, r0, r0+rng.Intn(rows-r0+1))
						}
					}
				}
			}
		}
	}
}

// checkStencil compares Stencil27Range or Stencil7Range on planes
// [z0, z1) with the reference formula, bit for bit, and checks that the
// other planes of out are left alone.
func checkStencil(t *testing.T, pts int, in *Slab, center, off float64, z0, z1 int) {
	t.Helper()
	want := naiveStencil(in, center, off, pts)
	out := NewSlab(in.Nx, in.Ny, in.Nz)
	for i := range out.V {
		out.V[i] = math.NaN()
	}
	kernel := Stencil27Range
	if pts == 7 {
		kernel = Stencil7Range
	}
	kernel(in, out, center, off, z0, z1)
	p := in.Nx * in.Ny
	for iz := -1; iz <= in.Nz; iz++ {
		got := out.Plane(iz)
		if iz < z0 || iz >= z1 {
			for _, v := range got {
				if !math.IsNaN(v) {
					t.Fatalf("%d-pt %dx%dx%d planes [%d,%d): wrote plane %d", pts, in.Nx, in.Ny, in.Nz, z0, z1, iz)
				}
			}
			continue
		}
		if i := sameBits(got, want.Plane(iz)); i >= 0 {
			w := want.Plane(iz)[i]
			t.Fatalf("%d-pt %dx%dx%d center %v off %v: point %d of plane %d = %v (%#x), reference %v (%#x)",
				pts, in.Nx, in.Ny, in.Nz, center, off, i%p, iz,
				got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// TestStencilsMatchNaiveBits pins both stencils to the reference formula
// on every shape with each axis in 1..7, with random coefficients, halos
// and z-splits.
func TestStencilsMatchNaiveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for nx := 1; nx <= 7; nx++ {
		for ny := 1; ny <= 7; ny++ {
			for nz := 1; nz <= 7; nz++ {
				for _, zeros := range []bool{false, true} {
					in := NewSlab(nx, ny, nz)
					copy(in.V, edgeVector(rng, len(in.V), zeros))
					for _, pts := range []int{7, 27} {
						center, off := edgeValue(rng), edgeValue(rng)
						checkStencil(t, pts, in, center, off, 0, nz)
						z0 := rng.Intn(nz + 1)
						checkStencil(t, pts, in, center, off, z0, z0+rng.Intn(nz-z0+1))
					}
				}
			}
		}
	}
}

// FuzzOp27MatchesCSR checks the operator against its CSR reference on a
// fuzzed shape (axes up to 16), halo flags, row range and input seed.
func FuzzOp27MatchesCSR(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(2), uint8(3), uint16(0), uint16(512), int64(1))
	f.Add(uint8(9), uint8(3), uint8(4), uint8(1), uint16(5), uint16(77), int64(2))
	f.Add(uint8(13), uint8(1), uint8(1), uint8(2), uint16(3), uint16(11), int64(3))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint16(0), uint16(1), int64(4))
	f.Add(uint8(6), uint8(7), uint8(5), uint8(3), uint16(40), uint16(200), int64(5))
	f.Fuzz(func(t *testing.T, nx, ny, nz, halos uint8, r0, r1 uint16, seed int64) {
		op := Op27{Nx: int(nx%16) + 1, Ny: int(ny%16) + 1, Nz: int(nz%8) + 1,
			HasBelow: halos&1 != 0, HasAbove: halos&2 != 0}
		rows := op.Rows()
		lo := int(r0) % (rows + 1)
		hi := lo + int(r1)%(rows-lo+1)
		x := edgeVector(rand.New(rand.NewSource(seed)), rows+2*op.Nx*op.Ny, seed%2 == 0)
		checkOp27(t, op, Gen27Point(op.Nx, op.Ny, op.Nz, op.HasBelow, op.HasAbove), x, lo, hi)
	})
}

// FuzzStencilMatchesNaive checks either stencil against the reference
// formula on a fuzzed shape (axes up to 16), z-split, coefficients and
// input seed.
func FuzzStencilMatchesNaive(f *testing.F) {
	f.Add(true, uint8(16), uint8(16), uint8(3), uint8(0), uint8(3), int64(1))
	f.Add(false, uint8(16), uint8(16), uint8(3), uint8(1), uint8(2), int64(2))
	f.Add(true, uint8(10), uint8(2), uint8(4), uint8(2), uint8(1), int64(3))
	f.Add(false, uint8(3), uint8(9), uint8(1), uint8(0), uint8(1), int64(4))
	f.Add(true, uint8(1), uint8(5), uint8(2), uint8(1), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, st27 bool, nx, ny, nz, z0, dz uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		in := NewSlab(int(nx%16)+1, int(ny%16)+1, int(nz%6)+1)
		copy(in.V, edgeVector(rng, len(in.V), seed%2 == 0))
		pts := 7
		if st27 {
			pts = 27
		}
		lo := int(z0) % (in.Nz + 1)
		checkStencil(t, pts, in, edgeValue(rng), edgeValue(rng), lo, lo+int(dz)%(in.Nz-lo+1))
	})
}

// The kernels run once per task of every section of every simulated
// rank, so they must not allocate.
func TestOp27MulVecRangeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	op := Op27{Nx: 16, Ny: 16, Nz: 16, HasBelow: true, HasAbove: true}
	x := make([]float64, op.Rows()+2*16*16)
	y := make([]float64, op.Rows())
	if n := testing.AllocsPerRun(10, func() { op.MulVecRange(x, y, 100, 3000) }); n != 0 {
		t.Fatalf("Op27.MulVecRange allocates %v times per call, want 0", n)
	}
}

func TestStencilRangeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	in, out := NewSlab(16, 16, 8), NewSlab(16, 16, 8)
	if n := testing.AllocsPerRun(10, func() { Stencil27Range(in, out, 26, -1, 1, 7) }); n != 0 {
		t.Fatalf("Stencil27Range allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { Stencil7Range(in, out, 6, -1, 1, 7) }); n != 0 {
		t.Fatalf("Stencil7Range allocates %v times per call, want 0", n)
	}
}
