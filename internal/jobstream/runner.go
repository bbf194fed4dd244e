package jobstream

import (
	"sync"

	"repro/internal/experiments"
	"repro/internal/store"
)

// memoRunner resolves one placed job's cluster simulation to its measured
// result: fault-free reference runs and replicated runs under concrete
// crash schedules. A run shares one memoRunner across all its cells, so a
// (class, schedule) simulation happens once however many cells need it —
// concurrent cells asking for the same content key wait for the one
// simulation rather than racing to repeat it, which also keeps a key from
// being appended to the store twice. Simulations are backed by the
// optional persistent store.
type memoRunner struct {
	st   *store.Store
	mu   sync.Mutex
	memo map[string]*memoEntry
}

// memoEntry is one content key's simulation, run at most once.
type memoEntry struct {
	once sync.Once
	res  experiments.Result
	err  error
}

func newMemoRunner(st *store.Store) *memoRunner {
	return &memoRunner{st: st, memo: map[string]*memoEntry{}}
}

func (r *memoRunner) Run(spec experiments.Spec) (experiments.Result, error) {
	key := spec.Key()
	if key == "" {
		return r.sweep(spec)
	}
	r.mu.Lock()
	e := r.memo[key]
	if e == nil {
		e = &memoEntry{}
		r.memo[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.res, e.err = r.sweep(spec) })
	return e.res, e.err
}

// sweep simulates one spec through the store-backed sweep: a single-spec
// SweepStore call is one get-or-compute of that spec.
func (r *memoRunner) sweep(spec experiments.Spec) (experiments.Result, error) {
	out, err := experiments.SweepStore(1, r.st, []experiments.Spec{spec})
	if err != nil {
		return experiments.Result{}, err
	}
	return out[0], nil
}
