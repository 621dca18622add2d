package main

import (
	"math/rand"
	"time"

	"mce"
)

// metricDecl is one metric as BENCHMARK.json declares it; bench_test.go
// holds the two lists to that file. bound, on an end-to-end metric, is the
// share by which it may worsen before a change counts as a regression, and
// by which two runs of the same tree may differ before -aa fails.
type metricDecl struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are printed by every end-to-end run, on every workload.
// README.md, "Bounds", has the measurements the bounds come from.
var endToEndMetrics = []metricDecl{
	{"latency_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// workload is one set of inputs. setup does everything that comes before
// the first timed op, warm-up op included, and trace is the per-layer run.
type workload struct {
	name   string
	why    string
	daemon bool // the workload serves from the mced binary
	setup  func(e *env) (instance, error)
	trace  func(e *env) (*report, error)
}

// instance is a workload after set-up, ready for timed ops.
type instance interface {
	// measure runs whole ops until d has passed.
	measure(d time.Duration) (*samples, error)
	// verify checks the outputs against references that the timed ops did
	// not produce, and returns how many checks it made and how many failed.
	verify(e *env) (checks, failed int, err error)
	// rssPID is the process whose peak resident set the workload reports.
	rssPID() int
	close()
}

// The graphs are half to two thirds of the size a 30 s timed region would
// want: the driver's time cap leaves a run about 30 s with its three
// set-ups, so all four workloads were shortened alike (README.md, "Where
// this departs from the issue").
var workloads = []*workload{
	batchWorkload(socialSparse, "scale-free graph in ~17k small blocks over 3 levels: serial BLOCKS is ~70% of the op, the kernel an eighth"),
	batchWorkload(denseCore, "G(n,0.5) in 225 blocks of up to 132 nodes: BLOCK-ANALYSIS is ~85% of the op and allocation is heaviest; the inverse of social_sparse"),
	batchWorkload(durableCluster, "checkpointed run on two TCP workers, then a full resume: the only workload crossing wire, runlog and cliqstore"),
	{
		name:   "serve_mixed",
		why:    "enumerate, compile, then 2 closed-loop clients on the real mced: 70% cliques-of, 24.5% common, 5% top-k, 0.5% communities",
		daemon: true,
		setup:  func(e *env) (instance, error) { return startServe(e, false) },
		trace:  traceServe,
	},
}

func batchWorkload(spec batchSpec, why string) *workload {
	return &workload{
		name:  spec.name,
		why:   why,
		setup: func(e *env) (instance, error) { return setupBatch(e, spec) },
		trace: func(e *env) (*report, error) { return traceBatch(e, spec) },
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// batchSpec is an enumeration workload: a generated graph and the options
// of its op.
type batchSpec struct {
	name        string
	generate    func(seed int64) *mce.Graph
	blockSize   int // m, fixed: a ratio of the maximum degree would move with each seed's largest hub
	parallelism int
	// durable makes the op a checkpointed run on two local TCP workers
	// followed by a resume from its journal, both on a memFS.
	durable bool
}

var (
	socialSparse = batchSpec{
		name:        "social_sparse",
		generate:    func(seed int64) *mce.Graph { return mce.GenerateSocialNetwork(50000, 8, 0.7, seed) },
		blockSize:   56, // ratio 0.05 at seed 42
		parallelism: 2,
	}
	denseCore = batchSpec{
		name:        "dense_core",
		generate:    relabelledDenseCore,
		blockSize:   132, // ratio 1.0: the maximum degree
		parallelism: 1,
	}
	durableCluster = batchSpec{
		name:        "durable_cluster",
		generate:    func(seed int64) *mce.Graph { return mce.GenerateSocialNetwork(40000, 8, 0.7, seed) },
		blockSize:   299, // ratio 0.3 at seed 42
		parallelism: 2,
		durable:     true,
	}
)

// serveGraph is the graph serve_mixed enumerates, at block size
// serveBlockSize (ratio 0.3 at seed 42), indexes and serves.
func serveGraph(seed int64) *mce.Graph { return mce.GenerateSocialNetwork(50000, 8, 0.7, seed) }

const serveBlockSize = 333

// denseCoreNodes and denseCoreSeed fix the structure of the dense_core
// graph; denseCoreCliques is its number of maximal cliques.
const (
	denseCoreNodes   = 226
	denseCoreSeed    = 2016
	denseCoreCliques = 923712
)

// relabelledDenseCore returns the one G(n, 0.5) graph of dense_core with
// its vertices renamed by a seeded permutation. The number of maximal
// cliques of G(n, 0.5) at this size moves by ±10% from graph to graph, and
// the driver measures spread across seeds; renaming keeps the structure,
// and so the work and the clique count, while every seed still gives its
// own input.
func relabelledDenseCore(seed int64) *mce.Graph {
	base := mce.GenerateErdosRenyi(denseCoreNodes, 0.5, denseCoreSeed)
	perm := rand.New(rand.NewSource(seed)).Perm(base.N())
	b := mce.NewBuilder(base.N())
	for _, e := range base.Edges() {
		b.AddEdge(int32(perm[e.U]), int32(perm[e.V]))
	}
	return b.Build()
}
