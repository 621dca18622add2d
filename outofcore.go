package mce

import (
	"fmt"
	"os"

	"mce/internal/cliqstore"
	"mce/internal/core"
	"mce/internal/diskgraph"
	"mce/internal/extmce"
)

// SaveDiskGraph writes g in the on-disk adjacency format consumed by
// EnumerateOutOfCore: an O(N)-memory offset table plus the neighbour lists,
// fetched lazily.
func SaveDiskGraph(path string, g *Graph) error { return diskgraph.Write(path, g) }

// OutOfCoreStats summarises an out-of-core enumeration; see the field docs
// in internal/extmce.
type OutOfCoreStats = extmce.Stats

// EnumerateOutOfCore enumerates every maximal clique of a graph stored with
// SaveDiskGraph without ever loading the whole network: blocks are
// materialised from disk one at a time (the ExtMCE/EmMCE regime the paper
// builds on), the hub recursion runs on the small hub-induced subgraph, and
// hub cliques are filtered with targeted disk reads. emit receives each
// clique (ascending IDs, slice reused) and its hub recursion level.
//
// Supported options: WithBlockSize, WithBlockRatio, WithAlgorithm and
// WithParallelism (the prefetch depth and the hub recursion's width); any
// other option is refused by name rather than silently ignored. Peak memory
// is one block plus the hub subgraph.
func EnumerateOutOfCore(path string, emit func(clique []int32, hubLevel int), opts ...Option) (*OutOfCoreStats, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if name := cfg.outOfCoreIgnored(); name != "" {
		return nil, fmt.Errorf("mce: EnumerateOutOfCore does not support %s", name)
	}
	dg, err := diskgraph.Open(path)
	if err != nil {
		return nil, err
	}
	defer dg.Close()
	eopts := extmce.Options{
		BlockSize:  cfg.core.BlockSize,
		BlockRatio: cfg.core.BlockRatio,
		Inner:      core.Options{Parallelism: cfg.core.Parallelism},
		// WithParallelism doubles as the prefetch depth out of core:
		// blocks are loaded that far ahead of the analysis.
		Prefetch: cfg.core.Parallelism,
	}
	if cfg.core.FixedCombo != nil {
		eopts.Combo = *cfg.core.FixedCombo
	}
	return extmce.Enumerate(dg, eopts, emit)
}

// outOfCoreIgnored names the first option that was given but that
// EnumerateOutOfCore has no use for; "" when there is none.
func (c *config) outOfCoreIgnored() string {
	for _, o := range []struct {
		set  bool
		name string
	}{
		{c.core.IntraBlockParallelism != 0, "WithIntraBlockParallelism"},
		{len(c.workers) > 0, "WithWorkers"},
		{c.cliOpts.TaskTimeout != 0, "WithTaskTimeout"},
		{c.cliOpts.TaskRetries != 0, "WithTaskRetries"},
		{c.cliOpts.AutoReconnect, "WithAutoReconnect"},
		{c.cliOpts.Hedge, "WithHedgedDispatch"},
		{c.core.MemoryBudget != 0, "WithMemoryBudget"},
		{c.healthReport != nil, "WithWorkerHealthReport"},
		{c.core.Metrics != nil, "WithTelemetryEngine"},
		{c.checkpointDir != "", "WithCheckpoint"},
		{c.checkpointWarn != nil, "WithCheckpointWarning"},
		{c.cliOpts.SkipPoisonTasks, "WithSkipPoisonTasks"},
		{c.poisonReport != nil, "WithPoisonReport"},
		{c.report != nil, "WithWorkerReport"},
	} {
		if o.set {
			return o.name
		}
	}
	return ""
}

// SaveCliques streams an enumeration result into the compact binary clique
// store at path (delta-encoded; typically well under half the size of a
// naive dump). Pair it with LoadCliques.
func SaveCliques(path string, cliques [][]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, _, err := cliqstore.WriteAll(f, cliques); err != nil {
		return err
	}
	return f.Close()
}

// LoadCliques reads a clique store written by SaveCliques.
func LoadCliques(path string) ([][]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := cliqstore.NewReader(f)
	if err != nil {
		return nil, err
	}
	var out [][]int32
	err = r.ForEach(func(c []int32) error {
		cp := make([]int32, len(c))
		copy(cp, c)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
