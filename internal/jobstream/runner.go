package jobstream

import (
	"sync"

	"repro/internal/core"
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

// Run resolves spec, simulating it on w when neither the memo nor the
// store holds it.
func (r *memoRunner) Run(w *experiments.Worker, spec experiments.Spec) (experiments.Result, error) {
	res, _, err := r.run(w, spec, false)
	return res, err
}

// run is Run keying the spec once. With record, when this call is the
// one that simulates the spec (a memo and store miss), the run also
// records the spec's traces and returns them; otherwise it returns none.
func (r *memoRunner) run(w *experiments.Worker, spec experiments.Spec, record bool) (experiments.Result, *core.TraceSet, error) {
	key, err := spec.Key()
	if err != nil {
		return experiments.Result{}, nil, err
	}
	r.mu.Lock()
	e := r.memo[key]
	if e == nil {
		e = &memoEntry{}
		r.memo[key] = e
	}
	r.mu.Unlock()
	var ts *core.TraceSet
	e.once.Do(func() { e.res, ts, e.err = w.RunStored(r.st, key, spec, record) })
	return e.res, ts, e.err
}
