package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mce"
	"mce/internal/cliqstore"
	"mce/internal/cluster"
	"mce/internal/core"
	"mce/internal/runlog"
)

// rounds is how many times a run sets the workload up and measures it, a
// third of the timed region each. setup_s and peak_rss_mb are medians over
// the rounds, so one slow set-up, or one daemon whose collector happened to
// finish a cycle at the heap's high point and doubled its goal, does not
// move them; latency and throughput pool the ops of all rounds.
const rounds = 3

// samples is the outcome of a timed region.
type samples struct {
	latencies []time.Duration // one per op
	work      int64           // maximal cliques emitted, or queries answered
	wall      time.Duration   // timed wall the work was done in
	failed    int
}

// measureEndToEnd runs the rounds, verifies the outputs and reads the four
// end-to-end metrics.
func measureEndToEnd(w *workload, e *env) (*report, error) {
	var all samples
	var setups, rss, ms []float64
	checks := 0
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		inst, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = func() error {
			defer inst.close()
			s, err := inst.measure(e.seconds / rounds)
			if err != nil {
				return err
			}
			all.latencies = append(all.latencies, s.latencies...)
			all.work, all.wall, all.failed = all.work+s.work, all.wall+s.wall, all.failed+s.failed
			if round == rounds-1 {
				n, failed, err := inst.verify(e)
				if err != nil {
					return err
				}
				checks, all.failed = n, all.failed+failed
			}
			peak, err := peakRSSMiB(inst.rssPID())
			rss = append(rss, peak)
			return err
		}()
		if err != nil {
			return nil, err
		}
	}
	for _, d := range all.latencies {
		ms = append(ms, msOf(d))
	}
	fmt.Fprintf(e.log, "%-18s op times: min %.4f q1 %.4f median %.4f q3 %.4f max %.4f ms\n", w.name,
		quantile(ms, 0), quantile(ms, 0.25), median(ms), quantile(ms, 0.75), quantile(ms, 1))
	return &report{
		attempted: len(ms) + checks,
		failed:    all.failed,
		metrics: []metric{
			{name: "latency_ms", value: median(ms), n: len(ms)},
			{name: "work_per_s", value: float64(all.work) / all.wall.Seconds()},
			{name: "peak_rss_mb", value: median(rss), n: len(rss)},
			{name: "setup_s", value: median(setups), n: len(setups)},
		},
	}, nil
}

// family identifies a clique family as the engine emitted it: the count and
// the order-sensitive cliqstore digest.
type family struct {
	cliques int
	digest  uint32
}

func familyOf(res *mce.Result) family {
	return family{cliques: len(res.Cliques), digest: cliqstore.Digest(res.Cliques)}
}

// batchInst is an enumeration workload after set-up.
type batchInst struct {
	spec batchSpec
	g    *mce.Graph
	ref  family // what the warm-up op produced; every timed op must repeat it

	addrs       []string // the two local workers of a durable workload
	stopWorkers func()
}

// setupBatch generates the graph, saves it, loads it back — the program is
// handed a file, as a user would hand it one — and runs the warm-up op.
func setupBatch(e *env, spec batchSpec) (*batchInst, error) {
	path := filepath.Join(e.scratch, "graph.txt")
	if err := mce.Save(path, spec.generate(e.seed)); err != nil {
		return nil, err
	}
	g, _, err := mce.Load(path)
	if err != nil {
		return nil, err
	}
	b := &batchInst{spec: spec, g: g}
	if spec.durable {
		if b.addrs, b.stopWorkers, err = mce.StartLocalWorkers(2); err != nil {
			return nil, err
		}
	}
	_, results, err := b.op(nil)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	b.ref = familyOf(results[0])
	if !b.check(results) {
		b.close()
		return nil, fmt.Errorf("warm-up op: resume disagrees with the run it resumed")
	}
	return b, nil
}

// op runs the workload's op once and returns its wall time and every result
// it produced: one, or for a durable workload the checkpointed run and the
// resume from its journal.
func (b *batchInst) op(eng *mce.TelemetryEngine) (time.Duration, []*mce.Result, error) {
	if !b.spec.durable {
		t0 := time.Now()
		res, err := b.enumerate(false, nil, eng)
		return time.Since(t0), []*mce.Result{res}, err
	}
	checkpoint := newMemFS()
	t0 := time.Now()
	first, err := b.enumerate(true, checkpoint, eng)
	if err != nil {
		return 0, nil, err
	}
	resumed, err := b.enumerate(true, checkpoint, eng)
	return time.Since(t0), []*mce.Result{first, resumed}, err
}

// enumerate runs FIND-MAX-CLIQUES on the workload's graph, locally or on the
// two workers, checkpointing into checkpoint when that is not nil.
func (b *batchInst) enumerate(workers bool, checkpoint *memFS, eng *mce.TelemetryEngine) (*mce.Result, error) {
	if checkpoint == nil {
		opts := []mce.Option{mce.WithBlockSize(b.spec.blockSize), mce.WithParallelism(b.spec.parallelism)}
		if workers {
			opts = append(opts, mce.WithWorkers(b.addrs...))
		}
		if eng != nil {
			opts = append(opts, mce.WithTelemetryEngine(eng))
		}
		return mce.Enumerate(b.g, opts...)
	}
	// mce.WithCheckpoint takes a directory; a checkpoint on another
	// filesystem needs mce.EnumerateContext's wiring spelled out.
	ctx := context.Background()
	opts := core.Options{BlockSize: b.spec.blockSize, Parallelism: b.spec.parallelism, Metrics: eng}
	if workers {
		client, err := cluster.DialContext(ctx, b.addrs, cluster.ClientOptions{Metrics: eng})
		if err != nil {
			return nil, err
		}
		defer client.Close()
		opts.Executor = client
	}
	cp, err := runlog.Open("checkpoint", core.CheckpointIdentity(b.g, opts), runlog.Options{FS: checkpoint, Metrics: eng})
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	opts.Checkpoint = cp
	return core.FindMaxCliquesContext(ctx, b.g, opts)
}

// check reports whether every result is the reference family, and when a
// second result is the resume of the first, whether it executed no block.
func (b *batchInst) check(results []*mce.Result) bool {
	for _, res := range results {
		if familyOf(res) != b.ref {
			return false
		}
	}
	if len(results) == 2 {
		planned := 0
		for _, lvl := range results[0].Stats.Levels {
			planned += max(lvl.Blocks, 1) // a terminal core is journaled as one block
		}
		return results[0].Stats.ResumedBlocks == 0 && results[1].Stats.ResumedBlocks == planned
	}
	return true
}

func (b *batchInst) measure(d time.Duration) (*samples, error) {
	s := &samples{}
	var firstErr error
	for start := time.Now(); time.Since(start) < d; {
		runtime.GC()
		wall, results, err := b.op(nil)
		s.latencies = append(s.latencies, wall)
		s.wall += wall
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			s.failed++
			continue
		}
		s.work += int64(len(results[0].Cliques))
		if !b.check(results) {
			s.failed++
		}
	}
	if s.work == 0 {
		return nil, fmt.Errorf("no op succeeded: %w", firstErr)
	}
	return s, nil
}

func (b *batchInst) verify(e *env) (checks, failed int, err error) {
	return verifyFamily(e, b.spec.name, b.g, b.ref)
}

// verifyFamily holds a workload's clique family to two things its ops did
// not produce: a count from a different decomposition and a different
// kernel (ratio 0.5, Tomita over Lists), and the committed expectation
// when this seed has one.
func verifyFamily(e *env, name string, g *mce.Graph, got family) (checks, failed int, err error) {
	fmt.Fprintf(e.log, "%-18s family seed=%d cliques=%d digest=%08x\n", name, e.seed, got.cliques, got.digest)
	n, err := mce.CountMaxCliques(g, mce.WithBlockRatio(0.5), mce.WithAlgorithm("Tomita", "Lists"), mce.WithParallelism(2))
	if err != nil {
		return 0, 0, err
	}
	checks++
	if n != got.cliques {
		fmt.Fprintf(e.log, "%-18s WRONG: the reference enumeration counts %d maximal cliques\n", name, n)
		failed++
	}
	if want, ok := expectedFamily(name, e.seed); ok {
		checks++
		if want.cliques != got.cliques || (want.digest != 0 && want.digest != got.digest) {
			fmt.Fprintf(e.log, "%-18s WRONG: the committed expectation is cliques=%d digest=%08x\n", name, want.cliques, want.digest)
			failed++
		}
	}
	return checks, failed, nil
}

func (b *batchInst) rssPID() int { return os.Getpid() }

func (b *batchInst) close() {
	if b.stopWorkers != nil {
		b.stopWorkers()
	}
}
