package fault

import (
	"math/rand"
	"testing"
)

// The whole point of lfgSource is bit-identical streams: campaign fault
// schedules are pinned by goldens, so the fast source must be
// indistinguishable from rand.New(rand.NewSource(seed)). Seed leaves every
// state word unbuilt, so the partially materialized states matter too:
// every short prefix, and a source reseeded after it was used.
func TestLFGSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 89482311, 1 << 31, -(1 << 35), 6364136223846793005,
		int32max, -int32max, 2 * int32max}
	for _, base := range []int64{0, 17} {
		seeds = append(seeds, TrialSeed(base, 3, 11))
	}
	pick := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := &lfgSource{}
		got.Seed(seed)
		for i := 0; i < 2500; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %d, stdlib %d", seed, i, g, w)
			}
		}
	}
	// And through rand.Rand, the consumer the campaigns actually use.
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newRand(seed)
		for i := 0; i < 500; i++ {
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v, stdlib %v", seed, i, g, w)
			}
		}
	}
	// Reseeding after k draws, for every k up to past a full lap of the
	// register: the materialized words of the first seed must not leak
	// into the second stream.
	got := &lfgSource{}
	for k := 0; k <= lfgLen+10; k++ {
		first, second := int64(pick.Uint64()), int64(pick.Uint64())
		got.Seed(first)
		want := rand.NewSource(first).(rand.Source64)
		for i := 0; i < k; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %d, stdlib %d", first, i, g, w)
			}
		}
		got.Seed(second)
		want.Seed(second)
		for i := 0; i < 2*lfgLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseeded %d after %d draws of %d: Uint64 #%d = %d, stdlib %d",
					second, k, first, i, g, w)
			}
		}
	}
}

// TestRecycledGeneratorMatchesFresh: a generator handed back after partial
// use and handed out again draws exactly the stream a fresh one does.
// newRand reseeds a pooled *rand.Rand, not only its source, so the Rand's
// own buffered bytes (Read) must not leak into the next stream either.
// The pool promises nothing about which generator comes back, so the used
// generator is reseeded the way newRand reseeds one, and a draw through
// the pool is checked as well.
func TestRecycledGeneratorMatchesFresh(t *testing.T) {
	pick := rand.New(rand.NewSource(9))
	same := func(got *rand.Rand, seed int64, what string) {
		t.Helper()
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("%s, seed %d: ExpFloat64 #%d = %v, fresh %v", what, seed, i, g, w)
			}
		}
		var g, w [5]byte
		got.Read(g[:])
		want.Read(w[:])
		if g != w {
			t.Fatalf("%s, seed %d: Read %v, fresh %v", what, seed, g, w)
		}
	}
	for k := 0; k <= lfgLen+10; k += 13 {
		used := newRand(int64(pick.Uint64()))
		for i := 0; i < k; i++ {
			used.ExpFloat64()
		}
		var b [3]byte
		used.Read(b[:]) // leaves bytes buffered in the Rand
		seed := int64(pick.Uint64())
		used.Seed(seed)
		same(used, seed, "reseeded")
		used.Read(b[:1])
		freeRand(used)
		seed = int64(pick.Uint64())
		got := newRand(seed)
		same(got, seed, "from the pool")
		freeRand(got)
	}
}

// BenchmarkSeedLFG measures what a failure slot pays for its generator:
// a seed and the twenty draws a typical ccr replay takes from it.
func BenchmarkSeedLFG(b *testing.B) {
	s := &lfgSource{}
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for k := 0; k < 20; k++ {
			s.Uint64()
		}
	}
}

func BenchmarkSeedStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := rand.NewSource(int64(i)).(rand.Source64)
		for k := 0; k < 20; k++ {
			s.Uint64()
		}
	}
}
