package jobstream

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/store"
)

// cellKind namespaces jobstream cell records in the store.
const cellKind = "jobstream-cell"

// cellKey is the content address of one cell: the stream point's
// canonical fingerprint plus the scheduler, policy, trial index and
// effective seed. Trial count is deliberately absent — a 10-trial run
// warm-hits the first 5 cells of a 5-trial store — and so are the
// workload's axis lists, so two files sharing a stream point share its
// cells.
func cellKey(streamFP, scheduler, policy string, trial int, seed int64) string {
	b, err := json.Marshal(struct {
		Stream    string `json:"stream"`
		Scheduler string `json:"scheduler"`
		Policy    string `json:"policy"`
		Trial     int    `json:"trial"`
		Seed      int64  `json:"seed"`
	}{streamFP, scheduler, policy, trial, seed})
	if err != nil {
		panic(fmt.Sprintf("jobstream: cell key: %v", err)) // struct of scalars cannot fail
	}
	return store.Key(string(b))
}

// Populate is Run restricted to the cells shard sh owns, the build phase
// of a multi-process run. It persists everything a later merge needs: the
// class reference simulations (store-backed, so later shards hit the
// first one's records), the owned cells' inner job simulations, and the
// owned cell records themselves. Cells are claimed by canonical index
// modulo the shard count — an exact partition, so after every shard has
// run, a plain Run against the merged store serves every cell warm and
// emits the single-process JSON with zero simulations. The returned
// Result aggregates only this shard's cells.
func Populate(cfg Config, w *scenario.Workload, sh store.Shard) (*Result, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("jobstream: Populate needs Config.Store")
	}
	return run(cfg, w, sh)
}
